//! Golden audit output, so the fsck walk cannot drift silently.
//!
//! Two transcripts are compared byte for byte with files under
//! `tests/golden/`:
//!
//! * `fsck_recover.txt` — the CLI's `--json` output for every
//!   `make-fixtures` fixture: single-container fsck, deep chain fsck,
//!   in-place recovery on copies, and fsck of each recovered copy;
//! * `audit_corruptions.txt` — the audit report of a few hundred seeded
//!   corruptions of a warm cache and of a written plain image: table
//!   entries aimed at random clusters (overlaps with the header, the L1,
//!   other tables and data; misaligned and out-of-bounds pointers), byte
//!   flips, torn used fields.
//!
//! Any change to the audit walk that moves a violation, its detail string,
//! its order or its repair hint, or any change to a recovery verdict, fails
//! here instead of passing silently through the exit-code checks. On a
//! mismatch the output of this run is written to `CARGO_TARGET_TMPDIR`
//! (the path is in the panic message); a deliberate change
//! replaces the golden file with it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use vmi_blockdev::{be_u32, be_u64, BlockDev, MemDev, SharedDev};
use vmi_qcow::{CreateOpts, QcowImage};

const BIN: &str = env!("CARGO_BIN_EXE_vmi-img");

/// Run `vmi-img args…` in `dir`; one transcript entry: the command line,
/// its standard output, and its exit code.
fn run(dir: &Path, args: &[&str], out: &mut String) {
    let res = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("vmi-img runs");
    out.push_str(&format!("$ vmi-img {}\n", args.join(" ")));
    out.push_str(&String::from_utf8_lossy(&res.stdout));
    out.push_str(&format!("exit {}\n", res.status.code().unwrap_or(-1)));
}

/// Sorted names of the files in `dir` with one of `exts`.
fn names(dir: &Path, exts: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .expect("fixture dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|n| exts.iter().any(|x| n.ends_with(x)))
        .collect();
    v.sort();
    v
}

fn transcript(dir: &Path) -> String {
    let mut out = String::new();
    run(dir, &["make-fixtures", "."], &mut out);
    let images = names(dir, &[".img"]);
    for name in &images {
        run(dir, &["fsck", name, "--json"], &mut out);
        run(
            dir,
            &["fsck", name, "--chain", "--deep", "--json"],
            &mut out,
        );
    }
    // recover writes in place, so it runs on copies.
    let rec = dir.join("rec");
    std::fs::create_dir_all(&rec).expect("rec dir");
    for name in names(dir, &[".img", ".cache"]) {
        std::fs::copy(dir.join(&name), rec.join(&name)).expect("copy fixture");
    }
    for name in names(&rec, &[".img", ".cache"]) {
        let path = format!("rec/{name}");
        run(dir, &["recover", &path, "--json"], &mut out);
        run(dir, &["fsck", &path, "--json"], &mut out);
    }
    out
}

/// Compare `actual` with the golden file `name`.
fn check_golden(name: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
        std::fs::write(&dump, actual).expect("write actual transcript");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "output differs from {} at line {}; this run's output is in {}",
            golden_path.display(),
            line + 1,
            dump.display()
        );
    }
}

#[test]
fn fsck_and_recover_output_matches_golden() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fsck-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let actual = transcript(&dir);
    std::fs::remove_dir_all(&dir).expect("clean up fixtures");
    check_golden("fsck_recover.txt", &actual);
}

/// xorshift64*: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A closed warm cache (512 B clusters, eight L2 tables) over a patterned
/// base.
fn warm_cache_bytes() -> Vec<u8> {
    let base: SharedDev = Arc::new(MemDev::from_vec(
        (0..1u32 << 20).map(|i| (i % 251) as u8 + 1).collect(),
    ));
    let dev = Arc::new(MemDev::new());
    let cache = QcowImage::create(
        dev.clone() as SharedDev,
        CreateOpts::cache(1 << 20, "base", 512 << 10),
        Some(base),
    )
    .expect("create cache");
    let mut buf = vec![0u8; 4096];
    for off in (0..256u64 << 10).step_by(4096) {
        cache.read_at(&mut buf, off).expect("warm read");
    }
    cache.close().expect("close cache");
    dev.to_vec()
}

/// A closed plain image (4 KiB clusters): sixteen spread writes, then one
/// overwrite of the first.
fn plain_image_bytes() -> Vec<u8> {
    let dev = Arc::new(MemDev::new());
    let img = QcowImage::create(
        dev.clone() as SharedDev,
        CreateOpts::plain(1 << 20).with_cluster_bits(12),
        None,
    )
    .expect("create plain");
    for i in 0..16u64 {
        img.write_at(&[i as u8 + 1; 4096], i * 12288)
            .expect("write");
    }
    img.write_at(&[0xEE; 4096], 0).expect("overwrite");
    img.close().expect("close plain");
    dev.to_vec()
}

/// Offset of the first header extension payload of type `ty`.
fn ext_payload(raw: &[u8], ty: u32) -> Option<usize> {
    let mut off = 48usize;
    loop {
        let t = be_u32(&raw[off..]);
        let len = be_u32(&raw[off + 4..]) as usize;
        if t == 0 {
            return None;
        }
        if t == ty {
            return Some(off + 8);
        }
        off += 8 + len.next_multiple_of(8);
    }
}

/// Apply one to three seeded corruptions to a copy of `pristine`.
fn corrupt(pristine: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut raw = pristine.to_vec();
    let cs = 1u64 << be_u32(&raw[20..]);
    let l1_off = be_u64(&raw[32..]) as usize;
    let l1_size = be_u32(&raw[40..]) as u64;
    let clusters = (raw.len() as u64).div_ceil(cs);
    let l2_offs: Vec<u64> = (0..l1_size)
        .map(|i| be_u64(&raw[l1_off + i as usize * 8..]))
        .filter(|&e| e != 0 && e + cs <= raw.len() as u64)
        .collect();
    // An aligned target somewhere in or just past the container, now and
    // then misaligned or far out of bounds.
    let target = |rng: &mut Rng| match rng.below(8) {
        0 => rng.below(clusters * cs),
        1 => (clusters + rng.below(4)) * cs,
        2 => u64::MAX - rng.below(1 << 20),
        _ => rng.below(clusters) * cs,
    };
    for _ in 0..1 + rng.below(3) {
        let (pos, value) = match rng.below(6) {
            0 | 1 if !l2_offs.is_empty() => {
                let l2 = l2_offs[rng.below(l2_offs.len() as u64) as usize];
                (l2 + rng.below(cs / 8) * 8, target(rng))
            }
            2 => (l1_off as u64 + rng.below(l1_size) * 8, target(rng)),
            3 => (l1_off as u64, target(rng)),
            4 => match ext_payload(&raw, 0xCAC8_E001) {
                Some(p) => (p as u64 + 8, rng.below(1 << 20)),
                None => (l1_off as u64, target(rng)),
            },
            _ => {
                let at = rng.below(raw.len() as u64) as usize;
                raw[at] ^= 1 << rng.below(8);
                continue;
            }
        };
        let pos = pos as usize;
        if pos + 8 <= raw.len() {
            raw[pos..pos + 8].copy_from_slice(&value.to_be_bytes());
        }
    }
    raw
}

#[test]
fn seeded_corruptions_audit_as_golden() {
    let mut out = String::new();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for (label, pristine) in [
        ("cache", warm_cache_bytes()),
        ("plain", plain_image_bytes()),
    ] {
        for case in 0..200 {
            let rep = vmi_audit::audit_image(&MemDev::from_vec(corrupt(&pristine, &mut rng)));
            let items: Vec<String> = rep.violations.iter().map(|v| v.to_json()).collect();
            out.push_str(&format!(
                "{label} {case}: l2_tables={} data_clusters={} used={} [{}]\n",
                rep.l2_tables,
                rep.data_clusters,
                rep.recomputed_used,
                items.join(",")
            ));
        }
    }
    check_golden("audit_corruptions.txt", &out);
}
