//! Degraded-mode copy-on-read: cache I/O failures must never fail a guest
//! read as long as the backing chain still holds the data. A failed fill or
//! a failed cache-cluster read latches the cache degraded (once), stops
//! further fills, and serves everything from the backing layer. A failed
//! backing fetch is the guest read's own error and leaves the cache as it
//! was.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockErrorKind, FaultDev, FaultPlan, FaultSite, MemDev, SharedDev};
use vmi_obs::{met, Event, ManualClock, Obs, RecorderHandle};
use vmi_qcow::{CreateOpts, QcowImage};

const VSIZE: u64 = 8 << 20;

fn base_with_content() -> (SharedDev, Vec<u8>) {
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 251) as u8).collect();
    (Arc::new(MemDev::from_vec(content.clone())), content)
}

/// A cache whose own container sits on a `FaultDev`, so cache-side I/O can
/// be failed on demand while the base stays healthy.
fn cache_over_faults(obs: Obs) -> (Arc<QcowImage>, Arc<FaultDev>, Vec<u8>) {
    let (base, content) = base_with_content();
    let faults = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    let cache = QcowImage::create_with_obs(
        faults.clone() as SharedDev,
        CreateOpts::cache(VSIZE, "b", VSIZE),
        Some(base),
        obs,
    )
    .unwrap();
    (cache, faults, content)
}

#[test]
fn fill_failure_serves_guest_read_and_latches_degraded() {
    let (cache, faults, content) = cache_over_faults(Obs::disabled());
    // The next write into the cache container dies: the copy-on-read fill
    // for the first cold read cannot land.
    faults.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 0,
        kind: BlockErrorKind::Io,
    });
    let mut buf = vec![0u8; 4096];
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(
        &buf[..],
        &content[..4096],
        "guest data must survive the fill failure"
    );
    assert!(cache.is_degraded(), "failed fill latches degraded mode");
    // Degraded caches stop filling entirely: further cold reads stay
    // correct but never grow the cache.
    let used = cache.cache_used();
    cache.read_at(&mut buf, 1 << 20).unwrap();
    assert_eq!(&buf[..], &content[1 << 20..(1 << 20) + 4096]);
    assert_eq!(cache.cache_used(), used, "degraded cache must not fill");
    // The space-error latch is a separate mechanism and never fired here.
    assert!(cache.fill_enabled(), "quota latch untouched by degradation");
}

#[test]
fn cluster_read_failure_falls_back_to_backing() {
    let (cache, faults, content) = cache_over_faults(Obs::disabled());
    // Warm one run so offset 0 is served from the cache container.
    let mut buf = vec![0u8; 4096];
    cache.read_at(&mut buf, 0).unwrap();
    assert!(cache.cache_used() > 0);
    assert!(!cache.is_degraded());
    // Now every read of the cache container fails: the mapped cluster is
    // unreadable, but the block is (by CoR invariant) a copy of base data.
    faults.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 1,
        kind: BlockErrorKind::Io,
    });
    buf.fill(0);
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(
        &buf[..],
        &content[..4096],
        "read must be re-served from base"
    );
    assert!(cache.is_degraded());
    assert_eq!(cache.degraded_read_bytes(), 4096);
}

#[test]
fn degraded_latch_fires_exactly_once() {
    let (rec, sink) = RecorderHandle::jsonl();
    let obs = rec.attach(Arc::new(ManualClock::new(0)));
    let (cache, faults, _content) = cache_over_faults(obs.clone());
    // Two independent fill failures: only the first may emit the event.
    faults.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 0,
        kind: BlockErrorKind::Io,
    });
    let mut buf = vec![0u8; 4096];
    cache.read_at(&mut buf, 0).unwrap();
    cache.read_at(&mut buf, 1 << 20).unwrap();
    assert!(cache.is_degraded());
    assert_eq!(obs.counter_value(met::CACHE_DEGRADED), 1);
    let degraded_lines: Vec<_> = sink
        .lines()
        .into_iter()
        .filter(|l| l.contains("\"cache_degraded\""))
        .collect();
    assert_eq!(degraded_lines.len(), 1, "{degraded_lines:?}");
    assert!(degraded_lines[0].contains("\"reason\":\"fill_failed\""));
    // And the typed event round-trips from the recorded line.
    match Event::parse_line(&degraded_lines[0]) {
        Ok((_, Event::CacheDegraded { reason, .. })) => assert_eq!(reason, "fill_failed"),
        other => panic!("expected cache_degraded event, got {other:?}"),
    }
}

#[test]
fn degraded_read_fallback_counts_bytes_in_metrics() {
    let (rec, _sink) = RecorderHandle::jsonl();
    let obs = rec.attach(Arc::new(ManualClock::new(0)));
    let (cache, faults, _content) = cache_over_faults(obs.clone());
    let mut buf = vec![0u8; 8192];
    cache.read_at(&mut buf, 0).unwrap();
    faults.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 1,
        kind: BlockErrorKind::Io,
    });
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(obs.counter_value(met::CACHE_DEGRADED), 1);
    assert_eq!(obs.counter_value(met::DEGRADED_READ_BYTES), 8192);
    assert_eq!(cache.degraded_read_bytes(), 8192);
}

#[test]
fn cow_overlay_read_failure_still_propagates() {
    // CoW images have no guarantee their clusters mirror backing data
    // (guest writes live only in the overlay), so a read failure there is
    // fatal — no silent wrong-data fallback.
    let (base, _content) = base_with_content();
    let faults = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    let cow = QcowImage::create(
        faults.clone() as SharedDev,
        CreateOpts::cow(VSIZE, "b"),
        Some(base),
    )
    .unwrap();
    cow.write_at(&[0xAB; 4096], 0).unwrap();
    faults.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 1,
        kind: BlockErrorKind::Io,
    });
    let mut buf = vec![0u8; 4096];
    let err = cow.read_at(&mut buf, 0).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Io);
    assert!(!cow.is_degraded());
}

#[test]
fn backing_fetch_failure_fails_the_read_but_not_the_cache() {
    // A base-side fault is the guest read's error, not the cache's: the
    // cache stays healthy, unfilled, and the reissued read warms it.
    let (base, content) = base_with_content();
    let base_faults = Arc::new(FaultDev::new(base));
    let cache = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cache(VSIZE, "b", VSIZE),
        Some(base_faults.clone() as SharedDev),
    )
    .unwrap();
    let used = cache.cache_used();
    let fills = cache.cor_stats().fill_bytes;
    base_faults.inject(FaultPlan::NthOp {
        site: FaultSite::Read,
        n: 0,
        kind: BlockErrorKind::Io,
    });

    let mut buf = vec![0u8; 4096];
    let err = cache.read_at(&mut buf, 4096).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Io);
    assert!(
        !cache.is_degraded(),
        "a base fault must not latch the cache"
    );
    assert_eq!(cache.cache_used(), used, "nothing filled");
    assert_eq!(cache.cor_stats().fill_bytes, fills);

    cache.read_at(&mut buf, 4096).unwrap();
    assert_eq!(&buf[..], &content[4096..8192]);
    assert!(
        cache.cache_used() > used,
        "the reissued read fills the cache"
    );
    assert_eq!(cache.cor_stats().fill_bytes, fills + 4096);
    assert!(!cache.is_degraded());
}
