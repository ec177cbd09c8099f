//! The robustness acceptance run: a VM boots through a full chain while the
//! base medium throws periodic read faults and the cache medium dies
//! mid-boot (latching degraded mode). A base fault surfaces as the `Io`
//! error of the guest read it hits and the reissued read returns the right
//! bytes; the cache must degrade exactly once, and the whole thing must be
//! bit-for-bit deterministic under the sim clock.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockErrorKind, FaultDev, FaultPlan, FaultSite, MemDev, SharedDev};
use vmi_obs::{met, ManualClock, RecorderHandle};
use vmi_qcow::{create_cached_chain, MapResolver, QcowImage};

const VSIZE: u64 = 4 << 20;
/// Reissues of one guest read before the test gives up on it.
const MAX_REISSUES: usize = 4;

struct RunResult {
    lines: Vec<String>,
    caches_degraded: u64,
    failed_reads: u64,
}

/// One full boot-under-faults run; `seed` picks where the working set starts.
fn run_once(seed: u64) -> RunResult {
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 249) as u8).collect();
    let (rec, sink) = RecorderHandle::jsonl();
    let obs = rec.attach(Arc::new(ManualClock::new(0)));

    // Base: a flaky NFS-ish medium — every 5th read fails.
    let base = Arc::new(FaultDev::new(Arc::new(MemDev::from_vec(content.clone()))));
    base.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 5,
        kind: BlockErrorKind::Io,
    });

    let ns = MapResolver::new();
    ns.insert("base", base as SharedDev);
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
    // A read that hits a base fault fails with `Io` and is reissued.
    let mut buf = vec![0u8; 4096];
    let mut failed_reads = 0;
    for i in 0..200u64 {
        let off = ((i + seed) * 7919 * 512) % (VSIZE - 4096);
        let mut tries = 0;
        while let Err(e) = cow.read_at(&mut buf, off) {
            assert_eq!(e.kind(), BlockErrorKind::Io, "base fault at {off}: {e}");
            failed_reads += 1;
            tries += 1;
            assert!(tries < MAX_REISSUES, "read at {off} keeps failing");
        }
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
        caches_degraded: obs.counter_value(met::CACHE_DEGRADED),
        failed_reads,
    }
}

#[test]
fn boot_survives_transient_base_faults_and_cache_death() {
    let r = run_once(42);
    assert!(r.failed_reads > 0, "base faults must reach guest reads");
    assert_eq!(r.caches_degraded, 1, "cache degrades exactly once");
    let degraded: Vec<_> = r
        .lines
        .iter()
        .filter(|l| l.contains("\"cache_degraded\""))
        .collect();
    assert_eq!(degraded.len(), 1, "{degraded:?}");
}

#[test]
fn same_seed_gives_identical_event_streams() {
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a.lines, b.lines, "JSONL streams must match bit for bit");
    assert_eq!(a.failed_reads, b.failed_reads);

    // Another working set still latches the dying cache exactly once.
    let c = run_once(8);
    assert_eq!(c.caches_degraded, 1);
}
