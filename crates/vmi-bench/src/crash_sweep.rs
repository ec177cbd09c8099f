//! The PR-7 crash campaign: exhaustive power-cut sweep over scripted
//! workloads.
//!
//! Two workloads run on a write-back [`CrashDev`]: a copy-on-read cache
//! fill (the paper's deploy path) and a plain image taking guest writes
//! with interleaved flushes. A counting pass enumerates every durable
//! device write and every flush of the crash-free run; the sweep then
//! replays the workload once per cut point — before, inside (torn at a
//! seeded intra-run byte offset), and after each write, and at each flush
//! with several drain depths, half of the cuts under a seeded drain
//! shuffle. After each cut [`recover`] runs on the surviving medium and
//! the guest-visible bytes are checked against a crash-free oracle:
//!
//! * cache workload — a recovered-usable cache must read exactly what the
//!   backing image holds (copy-on-read never changes guest-visible data);
//!   a `Refetch` verdict is the ordinary cold path, never a data loss;
//! * plain workload — every slot flushed before the cut must read back
//!   exactly; unflushed slots must be pattern-or-zero per byte (no torn
//!   guest data may surface); a `Refetch` after any successful guest
//!   flush would lose acked data and counts as unrecoverable.
//!
//! The gate is the tier-1 test `tests::exhaustive_sweep_meets_the_gate`:
//! every cut point of both workloads, at least 500 of them, zero
//! unrecoverable, and a refetch ratio of at most 0.5.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use vmi_blockdev::{BlockDev, CrashDev, CrashPlan, MemDev, Result, SharedDev};
use vmi_qcow::{recover, CreateOpts, QcowImage, RecoveryVerdict};

/// Virtual size of the images under test.
const VSIZE: u64 = 1 << 20;
/// Cluster bits: 512 B, the paper's traffic-heavy geometry — maximizes
/// metadata writes per guest byte, i.e. cut points per workload.
const CLUSTER_BITS: u32 = 9;
/// Bytes of backing pattern the cache workload copies on read.
const BASE_PATTERN: u64 = 96 << 10;
/// Guest read burst in the cache workload.
const BURST: usize = 8 << 10;
/// Guest write size in the plain workload (spans three 512 B clusters,
/// starting mid-cluster).
const SLOT: usize = 1 << 10;
/// Number of guest writes in the plain workload.
const SLOTS: usize = 16;
/// `keep` value that lands the torn write fully: the cut falls exactly on
/// the write boundary.
const KEEP_ALL: usize = usize::MAX;

/// Aggregate for one workload's sweep.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadSweep {
    /// Workload id: `cache_cor` or `plain_writes`.
    pub name: String,
    /// Durable device writes in the crash-free run (cutting before,
    /// inside and after each one).
    pub durable_writes: u64,
    /// Flushes in the crash-free run (each cut at several drain depths).
    pub flushes: u64,
    /// Power cuts injected.
    pub cut_points: u64,
    /// Cuts recovered with verdict `clean`.
    pub clean: u64,
    /// Cuts recovered with verdict `repaired`.
    pub repaired: u64,
    /// Cuts with verdict `refetch` (cold-path fallback, still recovered).
    pub refetched: u64,
    /// Individual repairs applied across all cuts.
    pub repairs_applied: u64,
    /// Cuts where recovery or the reread invariant failed. Must be zero.
    pub unrecoverable: u64,
    /// First invariant violation, verbatim (empty when none).
    pub first_violation: String,
    /// Mean wall-clock nanoseconds per `recover` call.
    pub mean_recover_ns: u64,
    /// Worst-case recovery time over all cuts.
    pub max_recover_ns: u64,
}

/// The whole campaign: per-workload sweeps plus the gated totals.
#[derive(Debug, Clone, Serialize)]
pub struct CrashSweepReport {
    /// Artifact id.
    pub bench: String,
    /// Cluster size under test.
    pub cluster_bits: u32,
    /// Per-workload sweeps.
    pub workloads: Vec<WorkloadSweep>,
    /// Cut points across all workloads.
    pub total_cut_points: u64,
    /// Unrecoverable cut points across all workloads. The CI gate.
    pub unrecoverable: u64,
    /// `repaired / total` across all workloads.
    pub repair_ratio: f64,
    /// `refetched / total` across all workloads.
    pub refetch_ratio: f64,
}

impl CrashSweepReport {
    /// Pretty JSON of the whole report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") // lint:allow(no-unwrap): infallible for this shape
    }

    /// Human-readable summary for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("crash_sweep: exhaustive power-cut campaign\n");
        for w in &self.workloads {
            out.push_str(&format!(
                "  {:<12} {:>5} cuts ({} writes, {} flushes): {} clean, {} repaired ({} repairs), {} refetched, {} unrecoverable; recover mean {} ns, max {} ns\n",
                w.name,
                w.cut_points,
                w.durable_writes,
                w.flushes,
                w.clean,
                w.repaired,
                w.repairs_applied,
                w.refetched,
                w.unrecoverable,
                w.mean_recover_ns,
                w.max_recover_ns,
            ));
            if !w.first_violation.is_empty() {
                out.push_str(&format!("    FIRST VIOLATION: {}\n", w.first_violation));
            }
        }
        out.push_str(&format!(
            "  total: {} cuts, {} unrecoverable, repair ratio {:.3}, refetch ratio {:.3}\n",
            self.total_cut_points, self.unrecoverable, self.repair_ratio, self.refetch_ratio,
        ));
        out
    }
}

/// The scripted workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Copy-on-read cache fill over a patterned base.
    CacheCor,
    /// Plain image taking guest writes with interleaved flushes.
    PlainWrites,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CacheCor => "cache_cor",
            Kind::PlainWrites => "plain_writes",
        }
    }
}

/// Guest-visible progress the workload made before the cut; the verifier
/// uses it to decide which data the recovered image *must* still hold.
#[derive(Debug, Default)]
struct Progress {
    /// Slots whose guest write returned (plain workload only).
    acked: Vec<usize>,
    /// Slots covered by the last guest flush that returned.
    flushed: Vec<usize>,
}

/// Deterministic xorshift64* for seeded intra-run tear offsets and drain
/// depths.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Backing content oracle: byte `i` of the base image.
fn base_byte(i: u64) -> u8 {
    if i < BASE_PATTERN {
        (i.wrapping_mul(2_654_435_761) >> 13) as u8
    } else {
        0
    }
}

/// A read-only patterned base image on its own (crash-free) device — the
/// storage node's replica, which a power cut on the compute node never
/// touches.
fn fresh_base() -> Result<SharedDev> {
    let dev: SharedDev = Arc::new(MemDev::new());
    let img = QcowImage::create(
        dev.clone(),
        CreateOpts::plain(VSIZE).with_cluster_bits(CLUSTER_BITS),
        None,
    )?;
    let pattern: Vec<u8> = (0..BASE_PATTERN).map(base_byte).collect();
    img.write_at(&pattern, 0)?;
    img.close()?;
    drop(img);
    QcowImage::open(dev, None, true).map(|img| img as SharedDev)
}

/// Guest byte offset of plain-workload slot `i`: spread across the image,
/// starting mid-cluster so every slot spans three 512 B clusters.
fn slot_off(i: usize) -> u64 {
    (i as u64) * (VSIZE / SLOTS as u64) + 256
}

/// Guest data of plain-workload slot `i` (constant per slot, so torn
/// visibility is detectable per byte).
fn slot_pattern(i: usize) -> Vec<u8> {
    vec![(i as u8).wrapping_mul(37).wrapping_add(11); SLOT]
}

/// Run one workload against `container`. Errors out at the power cut;
/// `prog` records how far the guest got.
fn run_workload(kind: Kind, container: SharedDev, prog: &mut Progress) -> Result<()> {
    match kind {
        Kind::CacheCor => {
            let base = fresh_base()?;
            let cache = QcowImage::create(
                container,
                CreateOpts::cache(VSIZE, "base", VSIZE).with_cluster_bits(CLUSTER_BITS),
                Some(base),
            )?;
            let mut buf = vec![0u8; BURST];
            for i in 0..8u64 {
                cache.read_at(&mut buf, i * BURST as u64)?; // copy-on-read fill
                cache.flush()?;
            }
            // One more fill left un-flushed: the tail epoch a cut may lose.
            cache.read_at(&mut buf, 9 * BURST as u64)?;
            cache.close()
        }
        Kind::PlainWrites => {
            let img = QcowImage::create(
                container,
                CreateOpts::plain(VSIZE).with_cluster_bits(CLUSTER_BITS),
                None,
            )?;
            for i in 0..SLOTS {
                img.write_at(&slot_pattern(i), slot_off(i))?;
                prog.acked.push(i);
                if i % 3 == 2 {
                    img.flush()?;
                    prog.flushed = prog.acked.clone();
                }
            }
            img.close()?;
            prog.flushed = prog.acked.clone();
            Ok(())
        }
    }
}

/// Check the recover-then-reread invariant for one cut. Returns a
/// violation description, or `None` when the cut is fully recovered.
fn verify(
    kind: Kind,
    dev: &SharedDev,
    verdict: &RecoveryVerdict,
    prog: &Progress,
) -> Option<String> {
    if let RecoveryVerdict::Refetch = verdict {
        // Refetching a cache is the ordinary cold deploy path. A plain
        // guest image has no replica to refetch from: once a guest flush
        // succeeded, losing the image is data loss.
        if kind == Kind::PlainWrites && !prog.flushed.is_empty() {
            return Some(format!(
                "refetch verdict would lose {} flushed slot(s)",
                prog.flushed.len()
            ));
        }
        return None;
    }
    match kind {
        Kind::CacheCor => {
            let base = match fresh_base() {
                Ok(b) => b,
                Err(e) => return Some(format!("oracle base failed: {e}")),
            };
            let img = match QcowImage::open(dev.clone(), Some(base), false) {
                Ok(img) => img,
                Err(e) => return Some(format!("usable verdict but open failed: {e}")),
            };
            let mut buf = vec![0u8; BURST];
            for i in 0..10u64 {
                let off = i * BURST as u64;
                if let Err(e) = img.read_at(&mut buf, off) {
                    return Some(format!("read at {off} failed: {e}"));
                }
                for (j, &b) in buf.iter().enumerate() {
                    let want = base_byte(off + j as u64);
                    if b != want {
                        return Some(format!(
                            "cache byte {} is {b:#04x}, backing holds {want:#04x}",
                            off + j as u64
                        ));
                    }
                }
            }
            None
        }
        Kind::PlainWrites => {
            let img = match QcowImage::open(dev.clone(), None, true) {
                Ok(img) => img,
                Err(e) => return Some(format!("usable verdict but open failed: {e}")),
            };
            let mut buf = vec![0u8; SLOT];
            for i in 0..SLOTS {
                if let Err(e) = img.read_at(&mut buf, slot_off(i)) {
                    return Some(format!("slot {i} read failed: {e}"));
                }
                let want = slot_pattern(i);
                if prog.flushed.contains(&i) {
                    if buf != want {
                        return Some(format!("flushed slot {i} lost or torn after recovery"));
                    }
                } else {
                    // Unflushed: per-byte pattern-or-zero. The barrier
                    // discipline publishes a cluster entry only after its
                    // data is durable, so partially-written garbage must
                    // never surface.
                    for (j, &b) in buf.iter().enumerate() {
                        if b != want[j] && b != 0 {
                            return Some(format!(
                                "unflushed slot {i} byte {j} reads {b:#04x}: torn data surfaced"
                            ));
                        }
                    }
                }
            }
            None
        }
    }
}

/// Tallies for one workload's sweep, updated per cut.
#[derive(Debug, Default)]
struct Tally {
    cuts: u64,
    clean: u64,
    repaired: u64,
    refetched: u64,
    repairs: u64,
    unrecoverable: u64,
    first_violation: String,
    recover_ns_sum: u64,
    recover_ns_max: u64,
}

impl Tally {
    fn record(&mut self, verdict: &RecoveryVerdict, violation: Option<String>, recover_ns: u64) {
        self.cuts += 1;
        match verdict {
            RecoveryVerdict::Clean => self.clean += 1,
            RecoveryVerdict::Repaired { repairs } => {
                self.repaired += 1;
                self.repairs += u64::from(*repairs);
            }
            RecoveryVerdict::Refetch => self.refetched += 1,
        }
        if let Some(v) = violation {
            self.unrecoverable += 1;
            if self.first_violation.is_empty() {
                self.first_violation = v;
            }
        }
        self.recover_ns_sum += recover_ns;
        self.recover_ns_max = self.recover_ns_max.max(recover_ns);
    }
}

/// Inject one cut: replay `kind` on a fresh write-back [`CrashDev`] armed
/// with `plan`, then recover the surviving medium and verify.
fn run_cut(kind: Kind, plan: CrashPlan, shuffle: Option<u64>, tally: &mut Tally) {
    let inner: SharedDev = Arc::new(MemDev::new());
    let crash = Arc::new(CrashDev::new_writeback(inner.clone()));
    if let Some(seed) = shuffle {
        crash.set_drain_shuffle(seed);
    }
    crash.arm(plan);
    let mut prog = Progress::default();
    let crash_dev: SharedDev = crash.clone();
    // The workload dies at the cut; recovery only sees the durable medium.
    let _ = run_workload(kind, crash_dev, &mut prog);
    let t0 = Instant::now(); // lint:allow(no-raw-clock): the bench reports real recovery latency
    let rep = recover(&inner);
    let recover_ns = t0.elapsed().as_nanos() as u64;
    let violation = verify(kind, &inner, &rep.verdict, &prog);
    tally.record(&rep.verdict, violation, recover_ns);
}

/// Sweep one workload: counting pass, then a cut at every write boundary
/// (plus seeded intra-run tears) and every flush (several drain depths).
/// `stride` samples every `stride`-th write/flush index — 1 is exhaustive
/// (the gate), larger strides keep the other unit tests fast.
fn sweep_workload(kind: Kind, stride: u64) -> Result<WorkloadSweep> {
    // Counting pass: the crash-free run enumerates the cut points and
    // doubles as the oracle check (it must recover clean and verify).
    let inner: SharedDev = Arc::new(MemDev::new());
    let crash = Arc::new(CrashDev::new_writeback(inner.clone()));
    let mut prog = Progress::default();
    let crash_dev: SharedDev = crash.clone();
    run_workload(kind, crash_dev, &mut prog)?;
    let writes = crash.durable_writes();
    let flushes = crash.flushes();
    let rep = recover(&inner);
    if !rep.verdict.is_usable() {
        return Err(vmi_blockdev::BlockError::corrupt(format!(
            "{}: crash-free run does not recover usable",
            kind.name()
        )));
    }
    if let Some(v) = verify(kind, &inner, &rep.verdict, &prog) {
        return Err(vmi_blockdev::BlockError::corrupt(format!(
            "{}: crash-free oracle violated: {v}",
            kind.name()
        )));
    }

    let mut tally = Tally::default();
    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ (kind as u64).wrapping_add(1);
    for n in (0..writes).step_by(stride as usize) {
        // Seeded tear inside the run (unit-truncated by the device).
        let intra = (xorshift(&mut seed) % 4096) as usize;
        for keep in [0, KEEP_ALL, intra] {
            // Half the cuts drain out of order (a disk scheduler): the
            // barriers, not FIFO luck, must carry recovery.
            let shuffle = (n % 2 == 1).then_some(0xC0FF_EE00 ^ n);
            run_cut(kind, CrashPlan::NthWrite { n, keep }, shuffle, &mut tally);
        }
    }
    for n in (0..flushes).step_by(stride as usize) {
        let mid = 1 + (xorshift(&mut seed) % 7) as usize;
        for drain in [0, mid, usize::MAX] {
            let shuffle = (n % 2 == 0).then_some(0xBA55_ED00 ^ n);
            run_cut(kind, CrashPlan::NthFlush { n, drain }, shuffle, &mut tally);
        }
    }

    Ok(WorkloadSweep {
        name: kind.name().to_string(),
        durable_writes: writes,
        flushes,
        cut_points: tally.cuts,
        clean: tally.clean,
        repaired: tally.repaired,
        refetched: tally.refetched,
        repairs_applied: tally.repairs,
        unrecoverable: tally.unrecoverable,
        first_violation: tally.first_violation,
        mean_recover_ns: tally.recover_ns_sum / tally.cuts.max(1),
        max_recover_ns: tally.recover_ns_max,
    })
}

/// Run the full (exhaustive) sweep: every cut point of both workloads.
pub fn run_crash_sweep() -> Result<CrashSweepReport> {
    run_crash_sweep_strided(1)
}

/// [`run_crash_sweep`] sampling every `stride`-th write/flush index.
/// Unit tests use a stride > 1 to stay fast; the gate uses 1.
pub fn run_crash_sweep_strided(stride: u64) -> Result<CrashSweepReport> {
    let stride = stride.max(1);
    let workloads = vec![
        sweep_workload(Kind::CacheCor, stride)?,
        sweep_workload(Kind::PlainWrites, stride)?,
    ];
    let total: u64 = workloads.iter().map(|w| w.cut_points).sum();
    let unrecoverable: u64 = workloads.iter().map(|w| w.unrecoverable).sum();
    let repaired: u64 = workloads.iter().map(|w| w.repaired).sum();
    let refetched: u64 = workloads.iter().map(|w| w.refetched).sum();
    Ok(CrashSweepReport {
        bench: "pr7_crash_sweep".to_string(),
        cluster_bits: CLUSTER_BITS,
        workloads,
        total_cut_points: total,
        unrecoverable,
        repair_ratio: repaired as f64 / total.max(1) as f64,
        refetch_ratio: refetched as f64 / total.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive sweep must explore at least this many cut points; a
    /// workload shrink that silently drops coverage fails the gate.
    const MIN_CUT_POINTS: u64 = 500;
    /// Refetches only come from cuts that land before the image is fully
    /// created (there is nothing to repair yet). If more than this fraction
    /// of cuts refetch, repair coverage regressed.
    const MAX_REFETCH_RATIO: f64 = 0.5;

    /// The campaign's gate: every cut point of both workloads recovers,
    /// coverage does not shrink, and repair (not refetch) carries recovery.
    #[test]
    fn exhaustive_sweep_meets_the_gate() {
        let rep = run_crash_sweep().expect("sweep runs");
        let violations: Vec<String> = rep
            .workloads
            .iter()
            .filter(|w| !w.first_violation.is_empty())
            .map(|w| format!("{}: {}", w.name, w.first_violation))
            .collect();
        assert_eq!(
            rep.unrecoverable,
            0,
            "unrecoverable cut points: {violations:?}\n{}",
            rep.render()
        );
        assert!(
            rep.total_cut_points >= MIN_CUT_POINTS,
            "only {} cut points explored (< {MIN_CUT_POINTS})\n{}",
            rep.total_cut_points,
            rep.render()
        );
        assert!(
            rep.refetch_ratio <= MAX_REFETCH_RATIO,
            "refetch ratio {:.3} > {MAX_REFETCH_RATIO}\n{}",
            rep.refetch_ratio,
            rep.render()
        );
    }

    /// A strided sweep still visits both workloads, finds no
    /// unrecoverable cut, and sees all three verdicts somewhere.
    #[test]
    fn strided_sweep_recovers_every_cut() {
        let rep = run_crash_sweep_strided(9).expect("sweep runs");
        assert_eq!(rep.workloads.len(), 2);
        assert!(rep.total_cut_points > 0);
        for w in &rep.workloads {
            assert_eq!(w.unrecoverable, 0, "{}: {}", w.name, w.first_violation);
            assert!(w.durable_writes > 0);
            assert!(w.flushes > 0);
        }
        assert_eq!(rep.unrecoverable, 0);
        let clean: u64 = rep.workloads.iter().map(|w| w.clean).sum();
        assert!(clean > 0, "some cut points must recover clean");
    }

    /// The report serializes with the gate fields present.
    #[test]
    fn report_json_has_gate_fields() {
        let rep = run_crash_sweep_strided(31).expect("sweep runs");
        let json = rep.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(v["bench"].as_str(), Some("pr7_crash_sweep"));
        assert!(v["total_cut_points"].as_u64().is_some());
        assert_eq!(v["unrecoverable"].as_u64(), Some(0));
        assert!(v["repair_ratio"].as_f64().is_some());
        assert!(!rep.render().is_empty());
    }

    /// Cutting before the very first durable write leaves an empty
    /// container: the cache workload must land on the refetch path.
    #[test]
    fn first_write_cut_refetches_cache() {
        let mut tally = Tally::default();
        run_cut(
            Kind::CacheCor,
            CrashPlan::NthWrite { n: 0, keep: 0 },
            None,
            &mut tally,
        );
        assert_eq!(tally.cuts, 1);
        assert_eq!(tally.refetched, 1);
        assert_eq!(tally.unrecoverable, 0);
    }
}
