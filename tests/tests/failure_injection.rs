//! Failure injection across the chain: transient I/O errors, corrupt
//! metadata, and quota exhaustion must degrade exactly as designed.

use std::sync::Arc;

use vmi_blockdev::{
    BlockDev, BlockErrorKind, ByteRange, FaultDev, FaultPlan, FaultSite, MemDev, SharedDev,
};
use vmi_qcow::{create_cached_chain, CreateOpts, Header, MapResolver, QcowImage};

const VSIZE: u64 = 4 << 20;

fn base_with_content() -> (SharedDev, Vec<u8>) {
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 253) as u8).collect();
    (Arc::new(MemDev::from_vec(content.clone())), content)
}

#[test]
fn base_read_error_propagates_without_corrupting_cache() {
    let (base, _) = base_with_content();
    let faulty = Arc::new(FaultDev::new(base));
    faulty.inject(FaultPlan::Range {
        site: FaultSite::Read,
        range: ByteRange::at(1 << 20, 4096),
        kind: BlockErrorKind::Io,
    });
    let ns = MapResolver::new();
    ns.insert("base", faulty.clone() as SharedDev);
    let cache_dev = ns.create_mem("cache");
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        cache_dev,
        Arc::new(MemDev::new()),
        VSIZE,
        2 << 20,
        9,
        &vmi_obs::Obs::disabled(),
    )
    .unwrap();

    let mut buf = [0u8; 4096];
    // Reads outside the faulted range work and warm the cache.
    cow.read_at(&mut buf, 0).unwrap();
    // The faulted range errors out to the guest.
    let err = cow.read_at(&mut buf, 1 << 20).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Io);
    // The chain stays usable afterwards, and the cache stays clean.
    faulty.clear();
    cow.read_at(&mut buf, 1 << 20).unwrap();
    let cache = cow.backing().unwrap();
    let cache_img = cache
        .as_any()
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .expect("cache layer");
    let rep = vmi_qcow::check(cache_img).unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}

#[test]
fn cache_container_write_error_degrades_instead_of_failing() {
    // A failing cache medium is not a guest error: the read is served from
    // the base and the cache latches degraded (fills stop for good).
    let (base, content) = base_with_content();
    let ns = MapResolver::new();
    ns.insert("base", base);
    let container = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    ns.insert("cache", container.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container.clone() as SharedDev,
        Arc::new(MemDev::new()),
        VSIZE,
        2 << 20,
        9,
        &vmi_obs::Obs::disabled(),
    )
    .unwrap();
    // Arm after creation so header/L1 writes succeed.
    container.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 0,
        kind: BlockErrorKind::Io,
    });
    let mut buf = [0u8; 512];
    cow.read_at(&mut buf, 0).unwrap();
    assert_eq!(
        &buf[..],
        &content[..512],
        "served from base despite fill loss"
    );
    let cache = cow.backing().unwrap();
    let cache_img = cache
        .as_any()
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .expect("cache layer");
    assert!(cache_img.is_degraded(), "fill failure latches degraded");
    // The one-shot fault is gone, but the latch is permanent: further cold
    // reads stay correct without growing the cache.
    let used = cache_img.cache_used();
    cow.read_at(&mut buf, 8192).unwrap();
    assert_eq!(&buf[..], &content[8192..8192 + 512]);
    assert_eq!(cache_img.cache_used(), used, "degraded cache must not fill");
}

#[test]
fn truncated_header_is_rejected() {
    let dev = Arc::new(MemDev::new());
    QcowImage::create(dev.clone(), CreateOpts::plain(VSIZE), None)
        .unwrap()
        .close()
        .unwrap();
    let mut head = vec![0u8; 32];
    dev.read_at(&mut head, 0).unwrap();
    let truncated: SharedDev = Arc::new(MemDev::from_vec(head));
    let err = QcowImage::open(truncated, None, true).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Corrupt);
}

#[test]
fn corrupted_l1_entry_is_rejected_at_open() {
    let dev = Arc::new(MemDev::new());
    {
        let img = QcowImage::create(dev.clone(), CreateOpts::plain(VSIZE), None).unwrap();
        img.write_at(&[1; 512], 0).unwrap();
        img.close().unwrap();
    }
    let header = Header::decode(dev.as_ref() as &dyn BlockDev).unwrap();
    // Smash the first L1 entry with a non-cluster-aligned offset.
    dev.write_at(&0xdead_beefu64.to_be_bytes(), header.l1_table_offset)
        .unwrap();
    let err = QcowImage::open(dev, None, true).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Corrupt);
}

#[test]
fn flipped_magic_is_rejected() {
    let dev = Arc::new(MemDev::new());
    QcowImage::create(dev.clone(), CreateOpts::plain(VSIZE), None)
        .unwrap()
        .close()
        .unwrap();
    dev.write_at(&[0u8; 4], 0).unwrap();
    assert!(QcowImage::open(dev, None, true).is_err());
}

#[test]
fn quota_exhaustion_is_graceful_not_an_error() {
    // The designed degradation: reads succeed forever; only fills stop.
    let (base, content) = base_with_content();
    let ns = MapResolver::new();
    ns.insert("base", base);
    let cache_dev = ns.create_mem("cache");
    let g = vmi_qcow::Geometry::new(9, VSIZE).unwrap();
    let quota = g.cluster_size() + g.l1_table_bytes() + 20 * 512;
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        cache_dev,
        Arc::new(MemDev::new()),
        VSIZE,
        quota,
        9,
        &vmi_obs::Obs::disabled(),
    )
    .unwrap();
    let mut buf = vec![0u8; 8192];
    for i in 0..128u64 {
        cow.read_at(&mut buf, i * 8192).unwrap();
        assert_eq!(
            &buf[..],
            &content[(i * 8192) as usize..(i * 8192 + 8192) as usize],
            "data correct after quota exhaustion"
        );
    }
}

#[test]
fn reread_after_partial_fill_failure_is_consistent() {
    // A fill that dies halfway through a multi-cluster read must not leave
    // a view where re-reads return different data.
    let (base, content) = base_with_content();
    let ns = MapResolver::new();
    ns.insert("base", base);
    let container = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    ns.insert("cache", container.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container.clone() as SharedDev,
        Arc::new(MemDev::new()),
        VSIZE,
        2 << 20,
        9,
        &vmi_obs::Obs::disabled(),
    )
    .unwrap();
    // Fail the 5th container write: some clusters of the request fill, then
    // the fill dies halfway (the read itself succeeds, degraded-mode).
    container.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 4,
        kind: BlockErrorKind::Io,
    });
    let mut buf = vec![0u8; 16384];
    cow.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..], &content[..16384]);
    // After the fault clears, every byte must still be correct: mapped
    // clusters serve from the cache, the rest from the base.
    container.clear();
    buf.fill(0);
    cow.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..], &content[..16384]);
}
