//! Golden fsck fixtures: known-good and deliberately-corrupted images.
//!
//! `vmi-img make-fixtures <dir>` materialises one image (or chain) per
//! audited failure mode, following a naming convention the CI audit job
//! relies on:
//!
//! * `ok-*.img` must pass `vmi-img fsck --chain --deep` cleanly;
//! * `bad-*.img` must produce at least one violation;
//! * any other extension (`*.raw`) is an auxiliary backing file and is not
//!   fsck'd directly.
//!
//! Corruptions are seeded by byte-patching freshly created images, exactly
//! the damage classes a torn write or buggy writer would leave behind:
//! a stale used-size, a quota below the referenced set, two mapping entries
//! aliasing one cluster, cache contents diverging from the base (§3.1), and
//! a backing-file cycle.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vmi_blockdev::{be_u32, be_u64, BlockDev, FileDev};
use vmi_obs::Obs;
use vmi_qcow::DEFAULT_CLUSTER_BITS;

use crate::{create_image, open_image, CreateSpec};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

const SIZE: u64 = 1 << 20; // 1 MiB virtual — small but multi-cluster
const QUOTA: u64 = 256 << 10;
const CACHE_CLUSTER_BITS: u32 = 9; // 512 B, the paper's final arrangement

/// Create the full golden-fixture set under `dir`; returns the fsck'able
/// image paths (the `*.img` files), ok fixtures first.
pub fn make_fixtures(dir: &Path) -> Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();

    // Shared raw base: deterministic non-zero content so cache fills are
    // meaningful (an all-zero base makes divergence patches ambiguous).
    let base = dir.join("ok-base.raw");
    {
        let dev = FileDev::create(&base)?;
        dev.set_len(SIZE)?;
        let mut block = [0u8; 4096];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
        for off in (0..SIZE).step_by(4096) {
            dev.write_at(&block, off)?;
        }
        dev.flush()?;
    }

    // ok-plain.img: no backing, no quota, a few writes.
    let ok_plain = dir.join("ok-plain.img");
    {
        let img = create_image(&plain_spec(&ok_plain))?;
        img.write_at(&[0xAA; 4096], 0)?;
        img.write_at(&[0xBB; 4096], SIZE / 2)?;
        img.close()?;
    }
    out.push(ok_plain);

    // ok-cache.img: warmed cache over the raw base.
    let ok_cache = dir.join("ok-cache.img");
    make_warm_cache(&ok_cache, "ok-base.raw")?;
    out.push(ok_cache);

    // ok-cow.img: full §4.4 chain CoW → cache → raw base, with divergent
    // writes in the CoW layer (legal: only caches are immutable).
    let ok_cow = dir.join("ok-cow.img");
    make_warm_cache(&dir.join("ok-chain.cache"), "ok-base.raw")?;
    {
        create_image(&CreateSpec {
            path: ok_cow.clone(),
            size: SIZE,
            cluster_bits: DEFAULT_CLUSTER_BITS,
            backing: Some("ok-chain.cache".into()),
            cache_quota: 0,
        })?
        .close()?;
        let img = open_image(&ok_cow, false, &Obs::disabled())?;
        img.write_at(&[0xEE; 4096], 8192)?;
        img.close()?;
    }
    out.push(ok_cow);

    // bad-torn-used.img: cache whose recorded used-size was never flushed
    // (torn write). Repairable: fsck suggests rewriting the used field.
    let bad_torn = dir.join("bad-torn-used.img");
    make_warm_cache(&bad_torn, "ok-base.raw")?;
    let (_, used_off) = cache_ext_offsets(&bad_torn)?;
    patch_u64(&bad_torn, used_off, 512)?;
    out.push(bad_torn);

    // bad-quota-exceeded.img: referenced clusters exceed the (patched-down)
    // quota — the invariant §4.3 enforces at every allocation.
    let bad_quota = dir.join("bad-quota-exceeded.img");
    make_warm_cache(&bad_quota, "ok-base.raw")?;
    let (quota_off, _) = cache_ext_offsets(&bad_quota)?;
    patch_u64(&bad_quota, quota_off, 1024)?;
    out.push(bad_quota);

    // bad-overlap.img: two L2 data entries aliasing the same physical
    // cluster — a double allocation.
    let bad_overlap = dir.join("bad-overlap.img");
    {
        let img = create_image(&plain_spec(&bad_overlap))?;
        img.write_at(&[1; 4096], 0)?;
        img.write_at(&[2; 4096], 4096)?;
        img.close()?;
    }
    alias_two_data_entries(&bad_overlap)?;
    out.push(bad_overlap);

    // bad-divergence.img: warmed cache whose cached bytes were mutated
    // after the fill — breaks the §3.1 immutability invariant. Only a deep
    // chain fsck can see this.
    let bad_div = dir.join("bad-divergence.img");
    make_warm_cache(&bad_div, "ok-base.raw")?;
    corrupt_first_data_cluster(&bad_div)?;
    out.push(bad_div);

    // bad-cycle-a.img / bad-cycle-b.img: each names the other as backing.
    // Built in three steps because creation opens the whole backing chain:
    // `a` is created over a raw placeholder `b`; the real `b` (backed by
    // `a`) is created at a temp path while the placeholder still resolves
    // `a`'s chain; then the rename closes the loop. A chain fsck must
    // refuse to walk this forever.
    let cyc_a = dir.join("bad-cycle-a.img");
    let cyc_b = dir.join("bad-cycle-b.img");
    {
        let placeholder = FileDev::create(&cyc_b)?;
        placeholder.set_len(SIZE)?;
        placeholder.flush()?;
        drop(placeholder);
        create_image(&CreateSpec {
            path: cyc_a.clone(),
            size: SIZE,
            cluster_bits: DEFAULT_CLUSTER_BITS,
            backing: Some("bad-cycle-b.img".into()),
            cache_quota: 0,
        })?
        .close()?;
        let tmp = dir.join("bad-cycle-b.new");
        create_image(&CreateSpec {
            path: tmp.clone(),
            size: SIZE,
            cluster_bits: DEFAULT_CLUSTER_BITS,
            backing: Some("bad-cycle-a.img".into()),
            cache_quota: 0,
        })?
        .close()?;
        std::fs::rename(&tmp, &cyc_b)?;
    }
    out.push(cyc_a);
    out.push(cyc_b);

    Ok(out)
}

fn plain_spec(path: &Path) -> CreateSpec {
    CreateSpec {
        path: path.to_path_buf(),
        size: SIZE,
        cluster_bits: 12,
        backing: None,
        cache_quota: 0,
    }
}

/// Create a cache over `backing` and warm part of it through copy-on-read.
fn make_warm_cache(path: &Path, backing: &str) -> Result<()> {
    create_image(&CreateSpec {
        path: path.to_path_buf(),
        size: SIZE,
        cluster_bits: CACHE_CLUSTER_BITS,
        backing: Some(backing.to_string()),
        cache_quota: QUOTA,
    })?
    .close()?;
    let img = open_image(path, false, &Obs::disabled())?;
    let mut buf = [0u8; 4096];
    for off in (0..(64u64 << 10)).step_by(4096) {
        img.read_at(&mut buf, off)?;
    }
    img.close()?;
    Ok(())
}

/// Locate the cache extension's quota and used fields by walking the
/// extension frames (8-byte type+length header, payload padded to 8).
fn cache_ext_offsets(path: &Path) -> Result<(u64, u64)> {
    const EXT_CACHE: u32 = 0xCAC8_E001;
    let raw = std::fs::read(path)?;
    let mut off = 48usize;
    loop {
        if off + 8 > raw.len() {
            return Err(format!("{}: no cache extension found", path.display()).into());
        }
        let ty = be_u32(&raw[off..]);
        let len = be_u32(&raw[off + 4..]) as usize;
        if ty == 0 {
            return Err(format!("{}: no cache extension found", path.display()).into());
        }
        if ty == EXT_CACHE {
            return Ok((off as u64 + 8, off as u64 + 16));
        }
        off += 8 + len.next_multiple_of(8);
    }
}

fn patch_u64(path: &Path, off: u64, value: u64) -> Result<()> {
    let mut f = OpenOptions::new().write(true).open(path)?;
    f.seek(SeekFrom::Start(off))?;
    f.write_all(&value.to_be_bytes())?;
    Ok(())
}

/// Parse just enough of the header to find the first L2 table with two or
/// more nonzero entries, then make the second entry alias the first.
fn first_l2(path: &Path) -> Result<(Vec<u8>, u64, u64)> {
    let raw = std::fs::read(path)?;
    let cluster_bits = be_u32(&raw[20..]);
    let cs = 1u64 << cluster_bits;
    let l1_off = be_u64(&raw[32..]) as usize;
    let l1_size = be_u32(&raw[40..]) as usize;
    for i in 0..l1_size {
        let l2_off = be_u64(&raw[l1_off + i * 8..]);
        if l2_off != 0 {
            return Ok((raw, cs, l2_off));
        }
    }
    Err(format!("{}: no allocated L2 table", path.display()).into())
}

fn alias_two_data_entries(path: &Path) -> Result<()> {
    let (raw, cs, l2_off) = first_l2(path)?;
    let l2 = &raw[l2_off as usize..(l2_off + cs) as usize];
    let mut entries: Vec<(usize, u64)> = Vec::new();
    for (i, e) in l2.chunks_exact(8).enumerate() {
        let d = be_u64(e);
        if d != 0 {
            entries.push((i, d));
        }
        if entries.len() == 2 {
            break;
        }
    }
    if entries.len() < 2 {
        return Err(format!("{}: need two data clusters to alias", path.display()).into());
    }
    let (second_idx, _) = entries[1];
    let (_, first_target) = entries[0];
    patch_u64(path, l2_off + second_idx as u64 * 8, first_target)
}

/// Flip bytes inside the first allocated data cluster (not a table), so the
/// mapping stays valid but the cached content no longer matches the base.
fn corrupt_first_data_cluster(path: &Path) -> Result<()> {
    let (raw, cs, l2_off) = first_l2(path)?;
    let l2 = &raw[l2_off as usize..(l2_off + cs) as usize];
    for e in l2.chunks_exact(8) {
        let d = be_u64(e);
        if d != 0 {
            let mut f = OpenOptions::new().read(true).write(true).open(path)?;
            f.seek(SeekFrom::Start(d))?;
            let mut byte = [0u8; 1];
            f.read_exact(&mut byte)?;
            byte[0] ^= 0xFF;
            f.seek(SeekFrom::Start(d))?;
            f.write_all(&byte)?;
            return Ok(());
        }
    }
    Err(format!("{}: no data cluster to corrupt", path.display()).into())
}
