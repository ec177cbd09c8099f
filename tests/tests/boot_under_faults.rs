//! The robustness acceptance run: a VM boots through a full chain while the
//! base medium throws transient read faults (ridden out by retry/backoff)
//! and the cache medium dies mid-boot (latching degraded mode). Every guest
//! read must return correct data, the cache must degrade exactly once, the
//! telemetry must show the retries and the degradation, and the whole thing
//! must be bit-for-bit deterministic under the sim clock.

use std::sync::Arc;

use vmi_blockdev::{
    BlockDev, BlockErrorKind, FaultDev, FaultPlan, FaultSite, MemDev, RetryDev, RetryPolicy,
    SharedDev,
};
use vmi_obs::{met, ManualClock, RecorderHandle};
use vmi_qcow::{create_cached_chain, MapResolver, QcowImage};

const VSIZE: u64 = 4 << 20;

struct RunResult {
    lines: Vec<String>,
    retry_attempts: u64,
    caches_degraded: u64,
    base_retries: u64,
}

/// One full boot-under-faults run, everything seeded from `seed`.
fn run_once(seed: u64) -> RunResult {
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 249) as u8).collect();
    let (rec, sink) = RecorderHandle::jsonl();
    let obs = rec.attach(Arc::new(ManualClock::new(0)));

    // Base: flaky NFS-ish medium — every 5th read dies transiently — behind
    // a retry decorator with deterministic backoff.
    let base_faults = Arc::new(FaultDev::new(Arc::new(MemDev::from_vec(content.clone()))));
    base_faults.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 5,
        kind: BlockErrorKind::Io,
    });
    let base = Arc::new(RetryDev::with_obs(
        base_faults as SharedDev,
        RetryPolicy::attempts(4).with_seed(seed).with_jitter(0.25),
        obs.clone(),
    ));

    let ns = MapResolver::new();
    ns.insert("base", base.clone() as SharedDev);
    let container = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    ns.insert("cache", container.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container.clone() as SharedDev,
        Arc::new(MemDev::new()),
        VSIZE,
        VSIZE,
        9,
        &obs,
    )
    .unwrap();

    // Mid-boot cache death: the 41st container write after arming fails,
    // i.e. well after the first fills landed.
    container.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 40,
        kind: BlockErrorKind::Io,
    });

    // "Boot": a deterministic pseudo-random working set through the chain.
    let mut buf = vec![0u8; 4096];
    for i in 0..200u64 {
        let off = (i * 7919 * 512) % (VSIZE - 4096);
        cow.read_at(&mut buf, off).unwrap();
        assert_eq!(
            &buf[..],
            &content[off as usize..off as usize + 4096],
            "guest data wrong at offset {off}"
        );
    }

    let cache = cow.backing().unwrap();
    let cache_img = cache
        .as_any()
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .expect("cache layer");
    assert!(cache_img.is_degraded(), "mid-boot fill failure must latch");
    RunResult {
        lines: sink.lines(),
        retry_attempts: obs.counter_value(met::RETRY_ATTEMPTS),
        caches_degraded: obs.counter_value(met::CACHE_DEGRADED),
        base_retries: base.retries(),
    }
}

#[test]
fn boot_survives_transient_base_faults_and_cache_death() {
    let r = run_once(42);
    assert!(
        r.retry_attempts > 0,
        "transient faults must trigger retries"
    );
    assert_eq!(
        r.base_retries, r.retry_attempts,
        "device and registry agree"
    );
    assert_eq!(r.caches_degraded, 1, "cache degrades exactly once");
    let degraded: Vec<_> = r
        .lines
        .iter()
        .filter(|l| l.contains("\"cache_degraded\""))
        .collect();
    assert_eq!(degraded.len(), 1, "{degraded:?}");
    assert!(
        r.lines.iter().any(|l| l.contains("\"retry_attempt\"")),
        "retry events recorded"
    );
}

#[test]
fn same_seed_gives_identical_event_streams() {
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a.lines, b.lines, "JSONL streams must match bit for bit");
    assert_eq!(a.retry_attempts, b.retry_attempts);

    // A different retry seed reorders jittered delays but not correctness.
    let c = run_once(8);
    assert_eq!(c.caches_degraded, 1);
    assert_eq!(
        a.retry_attempts, c.retry_attempts,
        "attempt count is seed-free"
    );
}
