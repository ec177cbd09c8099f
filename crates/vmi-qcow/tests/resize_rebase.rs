//! `resize` (grow) and `rebase -u` semantics.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, CrashDev, CrashPlan, MemDev, SharedDev};
use vmi_qcow::{check, CreateOpts, QcowImage};

const MB: u64 = 1 << 20;

#[test]
fn resize_grows_and_preserves_data() {
    let dev: SharedDev = Arc::new(MemDev::new());
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
    img.write_at(&[7u8; 4096], MB).unwrap();
    // Grow far enough to force an L1 relocation (4 MiB → 8 GiB at 64 KiB
    // clusters: 1 L1 entry → 16).
    let big = img.resize(8 << 30).unwrap();
    assert_eq!(big.virtual_size(), 8 << 30);
    let mut buf = [0u8; 4096];
    big.read_at(&mut buf, MB).unwrap();
    assert_eq!(buf, [7u8; 4096], "old data survives the resize");
    // The new space is writable and reads back.
    big.write_at(&[9u8; 512], 6 << 30).unwrap();
    big.read_at(&mut buf[..512], 6 << 30).unwrap();
    assert_eq!(&buf[..512], &[9u8; 512]);
    let rep = check(&big).unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}

#[test]
fn resize_persists_across_reopen() {
    let dev: SharedDev = Arc::new(MemDev::new());
    {
        let img = QcowImage::create(dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
        img.write_at(&[5u8; 100], 0).unwrap();
        let big = img.resize(64 * MB).unwrap();
        drop(img); // detached: must not clobber the new header
        big.write_at(&[6u8; 100], 32 * MB).unwrap();
        big.close().unwrap();
    }
    let back = QcowImage::open(dev, None, true).unwrap();
    assert_eq!(back.virtual_size(), 64 * MB);
    let mut buf = [0u8; 100];
    back.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [5u8; 100]);
    back.read_at(&mut buf, 32 * MB).unwrap();
    assert_eq!(buf, [6u8; 100]);
}

/// Power cuts around a resize that relocates the L1 (4 MiB → 8 GiB): the
/// first flushes cut with 0–2 of the buffered writes drained, in 64 drain
/// orders. The relocated table is durable before the header that points
/// at it, so every cut state reopens at the old or the new size with the
/// data written before the resize.
#[test]
fn resize_cut_states_all_reopen_with_their_data() {
    let mut failures = Vec::new();
    for seed in 0..64 {
        for n in 0..2 {
            for drain in 0..3 {
                let store: SharedDev = Arc::new(MemDev::new());
                let img =
                    QcowImage::create(store.clone(), CreateOpts::plain(4 * MB), None).unwrap();
                img.write_at(&[7u8; 4096], MB).unwrap();
                img.close().unwrap();
                drop(img);
                let crash = Arc::new(CrashDev::new_writeback(store.clone()));
                crash.set_drain_shuffle(seed);
                let img = QcowImage::open(crash.clone(), None, false).unwrap();
                crash.arm(CrashPlan::NthFlush { n, drain });
                let _ = img.resize(8 << 30);
                let mut buf = [0u8; 4096];
                let reopened = QcowImage::open(store, None, true).and_then(|back| {
                    back.read_at(&mut buf, MB)?;
                    Ok((back.virtual_size(), check(&back)?.is_clean()))
                });
                match reopened {
                    Ok((size, true)) if [4 * MB, 8 << 30].contains(&size) && buf == [7u8; 4096] => {
                    }
                    other => failures.push(format!("seed {seed} n {n} drain {drain}: {other:?}")),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} cut states lost the image:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A resize whose relocated L1 would push a full cache past its quota is
/// refused with the space error before anything is written: the container
/// stays byte-identical and reopens with its data.
#[test]
fn refused_cache_resize_leaves_the_container_untouched() {
    let content: Vec<u8> = (0..(4 * MB) as usize).map(|i| (i % 251) as u8).collect();
    let base: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let store = Arc::new(MemDev::new());
    let cache = QcowImage::create(
        store.clone(),
        CreateOpts::cache(4 * MB, "b", 256 << 10),
        Some(base.clone()),
    )
    .unwrap();
    let mut buf = vec![0u8; (4 * MB) as usize];
    cache.read_at(&mut buf, 0).unwrap();
    assert!(!cache.fill_enabled(), "the cache filled to its quota");
    cache.close().unwrap();
    let before = store.to_vec();
    let err = cache.resize(64 * MB).unwrap_err();
    assert!(err.is_no_space(), "{err}");
    assert!(store.to_vec() == before, "a refused resize writes nothing");
    let back = QcowImage::open(store, Some(base), true).unwrap();
    assert_eq!(back.virtual_size(), 4 * MB);
    back.read_at(&mut buf, 0).unwrap();
    assert!(buf == content, "data intact");
}

#[test]
fn resize_rejects_shrink_and_read_only() {
    let dev: SharedDev = Arc::new(MemDev::new());
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
    assert!(img.resize(2 * MB).is_err());
    img.close().unwrap();
    drop(img);
    let ro = QcowImage::open(dev, None, true).unwrap();
    assert!(ro.resize(8 * MB).is_err());
}

#[test]
fn resize_same_size_is_identity() {
    let img = QcowImage::create(Arc::new(MemDev::new()), CreateOpts::plain(4 * MB), None).unwrap();
    let same = img.resize(4 * MB).unwrap();
    assert_eq!(same.virtual_size(), 4 * MB);
}

#[test]
fn rebase_switches_backing_content() {
    // The Algorithm 1 re-chaining flow: a CoW overlay moved from chaining
    // directly to the base onto chaining to a (content-identical) cache.
    let content: Vec<u8> = (0..(4 * MB) as usize).map(|i| (i % 199) as u8).collect();
    let base_a: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let base_b: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let cow = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cow(4 * MB, "a"),
        Some(Arc::new(vmi_blockdev::ReadOnlyDev::new(base_a)) as SharedDev),
    )
    .unwrap();
    cow.write_at(&[1u8; 512], 0).unwrap();
    let rebased = cow
        .rebase_unsafe(
            Some("b".into()),
            Some(Arc::new(vmi_blockdev::ReadOnlyDev::new(base_b)) as SharedDev),
        )
        .unwrap();
    assert_eq!(rebased.header().backing_file.as_deref(), Some("b"));
    // Local data and pass-through both intact.
    let mut buf = [0u8; 512];
    rebased.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [1u8; 512]);
    rebased.read_at(&mut buf, MB).unwrap();
    assert_eq!(&buf[..], &content[(MB) as usize..(MB) as usize + 512]);
}

#[test]
fn rebase_to_standalone_drops_backing() {
    let base: SharedDev = Arc::new(MemDev::from_vec(vec![3u8; (4 * MB) as usize]));
    let cow = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cow(4 * MB, "b"),
        Some(Arc::new(vmi_blockdev::ReadOnlyDev::new(base)) as SharedDev),
    )
    .unwrap();
    cow.write_at(&[1u8; 512], 0).unwrap();
    let standalone = cow.rebase_unsafe(None, None).unwrap();
    assert!(standalone.backing().is_none());
    let mut buf = [0u8; 512];
    standalone.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [1u8; 512], "local data kept");
    standalone.read_at(&mut buf, MB).unwrap();
    assert_eq!(
        buf, [0u8; 512],
        "unallocated now reads zero (backing dropped)"
    );
}

#[test]
fn rebase_cache_without_backing_rejected() {
    let base: SharedDev = Arc::new(MemDev::from_vec(vec![0u8; (4 * MB) as usize]));
    let cache = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cache(4 * MB, "b", 2 * MB),
        Some(base),
    )
    .unwrap();
    assert!(cache.rebase_unsafe(None, None).is_err());
}

#[test]
fn rebase_preserves_cache_accounting() {
    let content: Vec<u8> = (0..(4 * MB) as usize).map(|i| (i % 197) as u8).collect();
    let base_a: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let base_b: SharedDev = Arc::new(MemDev::from_vec(content));
    let cache = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cache(4 * MB, "a", 2 * MB),
        Some(base_a),
    )
    .unwrap();
    let mut buf = vec![0u8; 65536];
    cache.read_at(&mut buf, 0).unwrap();
    let used = cache.cache_used();
    let rebased = cache.rebase_unsafe(Some("b".into()), Some(base_b)).unwrap();
    assert_eq!(
        rebased.cache_used(),
        used,
        "accounting carried through rebase"
    );
    assert!(rebased.is_cache());
    // Warm reads still warm.
    rebased.read_at(&mut buf, 0).unwrap();
    assert_eq!(rebased.cor_stats().miss_bytes, 0);
}
