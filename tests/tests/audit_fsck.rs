//! End-to-end audit coverage.
//!
//! Three claims from the audit work, verified against the real driver:
//!
//! 1. **Zero false positives** — images produced by every mutating flow the
//!    driver supports (plain writes, copy-on-read warming, CoW chains,
//!    snapshots, discard, resize) audit clean after close.
//! 2. **Corruption is reported, never a panic** — random bit flips and
//!    garbage splats over a valid container always come back as typed
//!    violations (or, for benign flips in data payload, nothing), and
//!    targeted metadata flips are always detected.
//! 3. **The golden fixture set behaves** — `vmi-img make-fixtures` produces
//!    `ok-*` images that fsck clean and `bad-*` images that violate, the
//!    same contract the CI audit job enforces with the CLI.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use vmi_audit::{audit_chain, audit_image, ViolationKind};
use vmi_blockdev::{be_u32, be_u64, BlockDev, MemDev, SharedDev};
use vmi_qcow::{CreateOpts, QcowImage};

const MB: u64 = 1 << 20;

fn mem(len: u64) -> SharedDev {
    Arc::new(MemDev::with_len(len))
}

/// A raw base filled with a repeating non-zero pattern.
fn patterned_base(len: u64) -> SharedDev {
    let mut data = vec![0u8; len as usize];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 249) as u8 + 1;
    }
    Arc::new(MemDev::from_vec(data))
}

// ---------------------------------------------------------------------------
// 1. Zero false positives on every driver flow.
// ---------------------------------------------------------------------------

#[test]
fn plain_image_flows_audit_clean() {
    let dev = mem(0);
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
    img.write_at(&[0xA5; 4096], 0).unwrap();
    img.write_at(&[0x5A; 4096], 2 * MB).unwrap();
    img.write_at(&[1; 100], 4 * MB - 100).unwrap();
    img.close().unwrap();
    let rep = audit_image(dev.as_ref());
    assert!(rep.is_clean(), "plain flow: {:?}", rep.violations);
}

#[test]
fn resize_and_discard_audit_clean() {
    let dev = mem(0);
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(2 * MB), None).unwrap();
    img.write_at(&[7; 8192], MB).unwrap();
    let img = img.resize(4 * MB).unwrap();
    img.write_at(&[8; 8192], 3 * MB).unwrap();
    img.discard(MB, 8192).unwrap();
    img.close().unwrap();
    let rep = audit_image(dev.as_ref());
    assert!(rep.is_clean(), "resize+discard flow: {:?}", rep.violations);
}

#[test]
fn warmed_cache_chain_audits_clean_deep() {
    let base = patterned_base(2 * MB);
    let cache_dev = mem(0);
    let cache = QcowImage::create(
        cache_dev.clone(),
        CreateOpts::cache(2 * MB, "base", MB),
        Some(base.clone()),
    )
    .unwrap();
    let mut buf = vec![0u8; 4096];
    for off in (0..(256u64 << 10)).step_by(4096) {
        cache.read_at(&mut buf, off).unwrap();
    }
    cache.close().unwrap();

    let rep = audit_image(cache_dev.as_ref());
    assert!(rep.is_clean(), "warm cache: {:?}", rep.violations);
    assert!(rep.is_cache);
    assert_eq!(rep.recomputed_used, rep.recorded_used);

    let chain = audit_chain(&[cache_dev, base], true);
    assert!(chain.is_clean(), "deep chain: {:?}", chain.all_violations());
}

#[test]
fn full_cow_chain_audits_clean_deep() {
    let base = patterned_base(2 * MB);
    let cache_dev = mem(0);
    let cow_dev = mem(0);
    let cache = QcowImage::create(
        cache_dev.clone(),
        CreateOpts::cache(2 * MB, "base", MB),
        Some(base.clone()),
    )
    .unwrap();
    let cow = QcowImage::create(
        cow_dev.clone(),
        CreateOpts::cow(2 * MB, "cache"),
        Some(cache.clone() as SharedDev),
    )
    .unwrap();
    let mut buf = vec![0u8; 4096];
    for off in (0..(128u64 << 10)).step_by(4096) {
        cow.read_at(&mut buf, off).unwrap();
    }
    // CoW divergence is legal; only the cache layer must stay immutable.
    cow.write_at(&[0xEE; 4096], 64 << 10).unwrap();
    cow.close().unwrap();
    cache.close().unwrap();

    let chain = audit_chain(&[cow_dev, cache_dev, base], true);
    assert!(chain.is_clean(), "cow chain: {:?}", chain.all_violations());
}

// ---------------------------------------------------------------------------
// 2. Corruption never panics the auditor; metadata damage is detected.
// ---------------------------------------------------------------------------

/// Serialized bytes of a freshly warmed cache image (built once; each case
/// clones and corrupts its own copy).
fn warm_cache_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let base = patterned_base(256 << 10);
        let dev = Arc::new(MemDev::new());
        let cache = QcowImage::create(
            dev.clone() as SharedDev,
            CreateOpts::cache(256 << 10, "base", 128 << 10),
            Some(base),
        )
        .unwrap();
        let mut buf = vec![0u8; 4096];
        for off in (0..(64u64 << 10)).step_by(4096) {
            cache.read_at(&mut buf, off).unwrap();
        }
        cache.close().unwrap();
        dev.to_vec()
    })
}

/// Offset of the cache extension's `used` field, found by walking the
/// extension frames the same way the auditor does.
fn used_field_offset(raw: &[u8]) -> usize {
    const EXT_CACHE: u32 = 0xCAC8_E001;
    let mut off = 48usize;
    loop {
        let ty = be_u32(&raw[off..]);
        let len = be_u32(&raw[off + 4..]) as usize;
        assert_ne!(ty, 0, "cache extension must exist");
        if ty == EXT_CACHE {
            return off + 16;
        }
        off += 8 + len.next_multiple_of(8);
    }
}

/// Offset of the first allocated L1 entry.
fn first_l1_entry_offset(raw: &[u8]) -> usize {
    let l1_off = be_u64(&raw[32..]) as usize;
    let l1_size = be_u32(&raw[40..]) as usize;
    for i in 0..l1_size {
        if be_u64(&raw[l1_off + i * 8..]) != 0 {
            return l1_off + i * 8;
        }
    }
    panic!("warmed cache must have an allocated L1 entry");
}

proptest! {
    /// Any single bit flip anywhere in the container: the audit completes
    /// without panicking. (Flips in data payload are legitimately silent.)
    #[test]
    fn proptest_bit_flip_never_panics(pos in 0usize..200_000, bit in 0u8..8) {
        let mut raw = warm_cache_bytes().clone();
        let pos = pos % raw.len();
        raw[pos] ^= 1 << bit;
        let dev = MemDev::from_vec(raw);
        let _ = audit_image(&dev);
    }

    /// Garbage splats over random ranges never panic either.
    #[test]
    fn proptest_garbage_splat_never_panics(
        start in 0usize..200_000,
        len in 1usize..4096,
        fill in any::<u8>(),
    ) {
        let mut raw = warm_cache_bytes().clone();
        let start = start % raw.len();
        let end = (start + len).min(raw.len());
        raw[start..end].fill(fill);
        let dev = MemDev::from_vec(raw);
        let _ = audit_image(&dev);
    }

    /// Flipping any bit of the recorded used-size is always detected (the
    /// field matched the recomputed ground truth before the flip).
    #[test]
    fn proptest_used_field_flip_detected(byte in 0usize..8, bit in 0u8..8) {
        let mut raw = warm_cache_bytes().clone();
        let off = used_field_offset(&raw) + byte;
        raw[off] ^= 1 << bit;
        let dev = MemDev::from_vec(raw);
        let rep = audit_image(&dev);
        prop_assert!(!rep.is_clean(), "used-field flip must be flagged");
        prop_assert!(rep.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::UsedSizeMismatch | ViolationKind::QuotaExceeded
        )));
    }

    /// Flipping a sub-alignment bit of an allocated L1 entry makes the
    /// pointer unaligned — always detected.
    #[test]
    fn proptest_l1_alignment_flip_detected(bit in 0u8..9) {
        let mut raw = warm_cache_bytes().clone();
        let off = first_l1_entry_offset(&raw);
        // Entries are big-endian; bit N of the value lives in byte 7 - N/8.
        raw[off + 7 - (bit / 8) as usize] ^= 1 << (bit % 8);
        let dev = MemDev::from_vec(raw);
        let rep = audit_image(&dev);
        prop_assert!(!rep.is_clean(), "L1 misalignment must be flagged");
    }
}

// ---------------------------------------------------------------------------
// 3. Golden fixtures: the library-level version of the CI audit job.
// ---------------------------------------------------------------------------

#[test]
fn golden_fixtures_honour_their_naming_contract() {
    let dir = std::env::temp_dir().join(format!("vmi-audit-fixtures-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let made = vmi_img::fixtures::make_fixtures(&dir).unwrap();
    assert!(made.len() >= 8, "expected the full fixture set");
    for path in &made {
        let name = path.file_name().unwrap().to_str().unwrap();
        let devs = vmi_img::collect_chain_devs(path).unwrap();
        let rep = audit_chain(&devs, true);
        if name.starts_with("ok-") {
            assert!(
                rep.is_clean(),
                "{name} must fsck clean: {:?}",
                rep.all_violations()
            );
        } else {
            assert!(
                !rep.is_clean(),
                "{name} must produce at least one violation"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
