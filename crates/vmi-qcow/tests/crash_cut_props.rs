//! Property tests for crash consistency: arbitrary guest write/flush
//! sequences on arbitrary cluster sizes, cut by a seeded power cut at an
//! arbitrary point (torn write or partial flush drain, optionally with an
//! out-of-order drain), must always leave a medium that [`recover`] makes
//! usable — and every byte that was *not* rewritten after the last
//! successful guest flush must read back exactly as flushed.
//!
//! This is the generative counterpart of the exhaustive crash campaign in
//! `crash_sweep.rs`: the sweep enumerates every cut point of two fixed
//! workloads and checks torn unflushed data reads as pattern-or-zero;
//! these properties fix the cut and randomize the workload.

use std::sync::Arc;

use proptest::prelude::*;
use vmi_blockdev::{BlockDev, CrashDev, CrashPlan, MemDev, SharedDev};
use vmi_qcow::{recover, CreateOpts, QcowImage, RecoveryVerdict};

const VSIZE: u64 = 1 << 20;

/// One scripted guest step: a write, optionally followed by a flush.
#[derive(Debug, Clone)]
struct Step {
    off: u64,
    len: usize,
    fill: u8,
    flush: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u64..VSIZE, 1usize..32 << 10, any::<u8>(), any::<bool>()).prop_map(
        |(off, len, fill, flush)| Step {
            off,
            len,
            fill,
            flush,
        },
    )
}

/// A seeded cut point: tear the n-th durable write, or cut the n-th flush
/// mid-drain. `n` is taken modulo the workload's actual op counts so every
/// drawn cut lands somewhere inside the run.
#[derive(Debug, Clone)]
enum Cut {
    Write { n: u64, keep: usize },
    Flush { n: u64, drain: usize },
}

fn cut_strategy() -> impl Strategy<Value = Cut> {
    prop_oneof![
        (any::<u64>(), 0usize..4096).prop_map(|(n, keep)| Cut::Write { n, keep }),
        (any::<u64>(), 0usize..12).prop_map(|(n, drain)| Cut::Flush { n, drain }),
    ]
}

/// Guest-side ground truth maintained alongside the crashing run.
struct Oracle {
    /// Content as of every acked write.
    acked: Vec<u8>,
    /// Content as of the last successful guest flush.
    flushed: Vec<u8>,
    /// Bytes rewritten since that flush (unconstrained after a crash).
    dirty: Vec<bool>,
    /// Whether any guest flush succeeded.
    flush_succeeded: bool,
}

impl Oracle {
    fn new() -> Self {
        Self {
            acked: vec![0; VSIZE as usize],
            flushed: vec![0; VSIZE as usize],
            dirty: vec![false; VSIZE as usize],
            flush_succeeded: false,
        }
    }
}

/// Run the workload on a write-back [`CrashDev`] armed per `cut`, then
/// recover and check the contract. Returns a violation description.
fn run_case(
    cluster_bits: u32,
    steps: &[Step],
    cut: &Cut,
    shuffle: Option<u64>,
) -> Result<(), String> {
    // Dry pass on a plain MemDev to learn the op counts so the drawn cut
    // index can be folded into range.
    let (writes, flushes) = {
        let dev: SharedDev = Arc::new(MemDev::new());
        let crash = Arc::new(CrashDev::new_writeback(dev));
        let counted: SharedDev = crash.clone();
        run_steps(cluster_bits, steps, &counted, &mut Oracle::new())
            .map_err(|e| format!("crash-free run failed: {e}"))?;
        (crash.durable_writes().max(1), crash.flushes().max(1))
    };
    let plan = match cut {
        Cut::Write { n, keep } => CrashPlan::NthWrite {
            n: n % writes,
            keep: *keep,
        },
        Cut::Flush { n, drain } => CrashPlan::NthFlush {
            n: n % flushes,
            drain: *drain,
        },
    };

    let inner: SharedDev = Arc::new(MemDev::new());
    let crash = Arc::new(CrashDev::new_writeback(inner.clone()));
    if let Some(seed) = shuffle {
        crash.set_drain_shuffle(seed);
    }
    crash.arm(plan);
    let mut oracle = Oracle::new();
    let crash_dev: SharedDev = crash.clone();
    let _ = run_steps(cluster_bits, steps, &crash_dev, &mut oracle);

    let rep = recover(&inner);
    if let RecoveryVerdict::Refetch = rep.verdict {
        if oracle.flush_succeeded {
            return Err(format!(
                "refetch verdict after a successful guest flush (report: {})",
                rep.to_json()
            ));
        }
        return Ok(());
    }

    // A usable verdict must be stable: a second recovery finds nothing.
    let again = recover(&inner);
    if !matches!(again.verdict, RecoveryVerdict::Clean) {
        return Err(format!(
            "recovery is not idempotent: second pass returned {}",
            again.verdict.as_str()
        ));
    }

    let img = QcowImage::open(inner.clone(), None, true)
        .map_err(|e| format!("usable verdict but open failed: {e}"))?;
    let mut got = vec![0u8; VSIZE as usize];
    img.read_at(&mut got, 0)
        .map_err(|e| format!("full readback failed: {e}"))?;
    for (i, &b) in got.iter().enumerate() {
        if !oracle.dirty[i] && b != oracle.flushed[i] {
            return Err(format!(
                "byte {i} reads {b:#04x}, flushed value was {:#04x}",
                oracle.flushed[i]
            ));
        }
    }
    Ok(())
}

/// Create the image and apply the steps, maintaining the oracle. Errors
/// out at the power cut.
fn run_steps(
    cluster_bits: u32,
    steps: &[Step],
    dev: &SharedDev,
    oracle: &mut Oracle,
) -> vmi_blockdev::Result<()> {
    let img = QcowImage::create(
        dev.clone(),
        CreateOpts::plain(VSIZE).with_cluster_bits(cluster_bits),
        None,
    )?;
    for s in steps {
        let len = s.len.min((VSIZE - s.off) as usize);
        let (off, end) = (s.off as usize, s.off as usize + len);
        // Dirty from the moment the write is in flight: a cut mid-write
        // may land any prefix of it durably, so until the next successful
        // flush these bytes are unconstrained.
        oracle.dirty[off..end].fill(true);
        img.write_at(&vec![s.fill; len], s.off)?;
        oracle.acked[off..end].fill(s.fill);
        if s.flush {
            img.flush()?;
            oracle.flushed.copy_from_slice(&oracle.acked);
            oracle.dirty.fill(false);
            oracle.flush_succeeded = true;
        }
    }
    img.close()?;
    oracle.flushed.copy_from_slice(&oracle.acked);
    oracle.dirty.fill(false);
    oracle.flush_succeeded = true;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO drain: every seeded cut recovers, and flushed-and-untouched
    /// bytes survive bit-exactly.
    #[test]
    fn seeded_cuts_recover_and_keep_flushed_data(
        cluster_bits in 9u32..=12,
        steps in proptest::collection::vec(step_strategy(), 1..8),
        cut in cut_strategy(),
    ) {
        if let Err(v) = run_case(cluster_bits, &steps, &cut, None) {
            prop_assert!(false, "{v}");
        }
    }

    /// Out-of-order drain: a seeded shuffle reorders each flush epoch, so
    /// only the barrier placement (never FIFO luck) carries recovery.
    #[test]
    fn shuffled_drain_cuts_recover_too(
        cluster_bits in 9u32..=12,
        steps in proptest::collection::vec(step_strategy(), 1..8),
        cut in cut_strategy(),
        seed in any::<u64>(),
    ) {
        if let Err(v) = run_case(cluster_bits, &steps, &cut, Some(seed)) {
            prop_assert!(false, "{v}");
        }
    }
}
