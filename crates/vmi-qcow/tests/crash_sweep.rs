//! The crash campaign: an exhaustive power-cut sweep over scripted
//! workloads.
//!
//! Three workloads run on a write-back [`CrashDev`]: a copy-on-read cache
//! fill (the paper's deploy path), a plain image taking guest writes with
//! interleaved flushes, and a CoW layer copying partial clusters up from
//! its backing image, in both write modes. A counting pass enumerates every
//! durable device write and every flush of the crash-free run; the sweep then
//! replays the workload once per cut point — before, inside (torn at a
//! seeded intra-run byte offset), and after each write, and at each flush
//! with several drain depths, half of the cuts under a seeded drain
//! shuffle. After each cut [`recover`] runs on the surviving medium, a
//! usable verdict must be stable (a second `recover` returns `Clean`), and
//! the guest-visible bytes are checked against a crash-free oracle:
//!
//! * cache workload — a recovered-usable cache must read exactly what the
//!   backing image holds (copy-on-read never changes guest-visible data);
//!   a `Refetch` verdict is the ordinary cold path, never a data loss;
//! * plain workload — every slot flushed before the cut must read back
//!   exactly; unflushed slots must be pattern-or-zero per byte (no torn
//!   guest data may surface); a `Refetch` after any successful guest
//!   flush would lose acked data and counts as unrecoverable;
//! * CoW workload — every slot flushed before the cut must read back
//!   exactly; every other byte must be the slot's pattern or the backing
//!   image's byte (a copy-up never surfaces zeroes or torn data); a
//!   `Refetch` after a successful guest flush is unrecoverable, as for the
//!   plain workload.
//!
//! The gate is `exhaustive_sweep_meets_the_gate`: every cut point of every
//! workload, at least 500 of them, zero unrecoverable, and a refetch
//! ratio of at most 0.5. `crash_cut_props` is the generative counterpart:
//! it fixes the cut and randomizes the workload.

use std::sync::Arc;

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
/// Number of guest writes in the CoW workload.
const COW_SLOTS: usize = 12;
/// `keep` value that lands the torn write fully: the cut falls exactly on
/// the write boundary.
const KEEP_ALL: usize = usize::MAX;

/// The exhaustive sweep must explore at least this many cut points; a
/// workload shrink that silently drops coverage fails the gate.
const MIN_CUT_POINTS: u64 = 500;
/// Refetches only come from cuts that land before the image is fully
/// created (there is nothing to repair yet). If more than this fraction
/// of cuts refetch, repair coverage regressed.
const MAX_REFETCH_RATIO: f64 = 0.5;

/// The scripted workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Copy-on-read cache fill over a patterned base.
    CacheCor,
    /// Plain image taking guest writes with interleaved flushes.
    PlainWrites,
    /// CoW layer over a patterned base taking partial-cluster guest writes
    /// with interleaved flushes, in the coalesced or the scalar write mode.
    CowCopyUp { coalesce: bool },
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CacheCor => "cache_cor",
            Kind::PlainWrites => "plain_writes",
            Kind::CowCopyUp { coalesce: true } => "cow_copy_up",
            Kind::CowCopyUp { coalesce: false } => "cow_copy_up_scalar",
        }
    }

    /// Distinct per workload: salts the sweep's tear and drain seeds.
    fn tag(self) -> u64 {
        match self {
            Kind::CacheCor => 0,
            Kind::PlainWrites => 1,
            Kind::CowCopyUp { coalesce: true } => 2,
            Kind::CowCopyUp { coalesce: false } => 3,
        }
    }
}

/// Guest-visible progress the workload made before the cut; the verifier
/// uses it to decide which data the recovered image *must* still hold.
#[derive(Debug, Default)]
struct Progress {
    /// Slots whose guest write returned (write workloads only).
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

/// Guest data byte of slot `i` (constant per slot, so torn visibility is
/// detectable per byte; never zero).
fn slot_byte(i: usize) -> u8 {
    (i as u8).wrapping_mul(37).wrapping_add(11)
}

/// Guest range `(offset, len)` of CoW-workload slot `i`, inside the base's
/// pattern. Every slot starts and ends strictly inside a 512 B cluster, so
/// its copy-up fetches both a head and a tail from the backing image;
/// every third slot also spans two whole clusters, which the coalesced
/// write mode allocates and writes as one run.
fn cow_slot(i: usize) -> (u64, usize) {
    let cs = 1u64 << CLUSTER_BITS;
    let first = i as u64 * 8 * cs;
    let head = 1 + (i as u64 * 97) % (cs / 2);
    let tail = head + 1 + (i as u64 * 61) % (cs - head - 1);
    let last = if i % 3 == 1 { 3 } else { 0 };
    (first + head, ((last * cs + tail) - head) as usize)
}

/// Write slots `0..count` (`slot(i)` gives each range), flushing after
/// every third; `prog` records which writes and flushes returned.
fn write_slots(
    img: &QcowImage,
    count: usize,
    slot: fn(usize) -> (u64, usize),
    prog: &mut Progress,
) -> Result<()> {
    for i in 0..count {
        let (off, len) = slot(i);
        img.write_at(&vec![slot_byte(i); len], off)?;
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
            write_slots(&img, SLOTS, |i| (slot_off(i), SLOT), prog)
        }
        Kind::CowCopyUp { coalesce } => {
            let cow = QcowImage::create(
                container,
                CreateOpts::cow(VSIZE, "base").with_cluster_bits(CLUSTER_BITS),
                Some(fresh_base()?),
            )?;
            cow.set_coalescing(coalesce);
            write_slots(&cow, COW_SLOTS, cow_slot, prog)
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
        // Refetching a cache is the ordinary cold deploy path. A guest
        // image (plain or CoW) has no replica to refetch from: once a guest
        // flush succeeded, losing the image is data loss.
        if kind != Kind::CacheCor && !prog.flushed.is_empty() {
            return Some(format!(
                "refetch verdict would lose {} flushed slot(s)",
                prog.flushed.len()
            ));
        }
        return None;
    }
    // A usable verdict must be stable: a second recovery finds nothing.
    let again = recover(dev).verdict;
    if !matches!(again, RecoveryVerdict::Clean) {
        return Some(format!(
            "recovery is not idempotent: second pass returned {}",
            again.as_str()
        ));
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
                let want = vec![slot_byte(i); SLOT];
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
        Kind::CowCopyUp { .. } => {
            let base = match fresh_base() {
                Ok(b) => b,
                Err(e) => return Some(format!("oracle base failed: {e}")),
            };
            let img = match QcowImage::open(dev.clone(), Some(base), true) {
                Ok(img) => img,
                Err(e) => return Some(format!("usable verdict but open failed: {e}")),
            };
            let mut buf = vec![0u8; BASE_PATTERN as usize];
            if let Err(e) = img.read_at(&mut buf, 0) {
                return Some(format!("read failed: {e}"));
            }
            // Check each slot, then put the base bytes back in its place,
            // so one pass checks that every byte outside the slots is the
            // backing image's.
            for i in 0..COW_SLOTS {
                let (off, len) = cow_slot(i);
                let flushed = prog.flushed.contains(&i);
                for at in off..off + len as u64 {
                    let (b, base) = (buf[at as usize], base_byte(at));
                    if b != slot_byte(i) && (flushed || b != base) {
                        let state = if flushed { "flushed" } else { "unflushed" };
                        return Some(format!(
                            "{state} slot {i} byte {at} reads {b:#04x} (base {base:#04x})"
                        ));
                    }
                    buf[at as usize] = base;
                }
            }
            (0..BASE_PATTERN)
                .find(|&at| buf[at as usize] != base_byte(at))
                .map(|at| {
                    format!(
                        "byte {at} outside every slot reads {:#04x}, backing holds {:#04x}",
                        buf[at as usize],
                        base_byte(at)
                    )
                })
        }
    }
}

/// Tallies for one workload's sweep, updated per cut.
#[derive(Debug, Default)]
struct Tally {
    /// Durable device writes in the crash-free run.
    writes: u64,
    /// Flushes in the crash-free run.
    flushes: u64,
    cuts: u64,
    clean: u64,
    repaired: u64,
    refetched: u64,
    repairs: u64,
    unrecoverable: u64,
    first_violation: String,
}

impl Tally {
    fn record(&mut self, verdict: &RecoveryVerdict, violation: Option<String>) {
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
    let verdict = recover(&inner).verdict;
    let violation = verify(kind, &inner, &verdict, &prog);
    tally.record(&verdict, violation);
}

/// Sweep one workload: counting pass, then a cut at every write boundary
/// (plus seeded intra-run tears) and every flush (several drain depths).
/// `stride` samples every `stride`-th write/flush index — 1 is exhaustive
/// (the gate), larger strides keep the other tests fast.
fn sweep_workload(kind: Kind, stride: usize) -> Tally {
    // Counting pass: the crash-free run enumerates the cut points and
    // doubles as the oracle check (it must recover clean and verify).
    let inner: SharedDev = Arc::new(MemDev::new());
    let crash = Arc::new(CrashDev::new_writeback(inner.clone()));
    let mut prog = Progress::default();
    let crash_dev: SharedDev = crash.clone();
    run_workload(kind, crash_dev, &mut prog).expect("crash-free run completes");
    let verdict = recover(&inner).verdict;
    assert!(
        verdict.is_usable(),
        "{}: crash-free run does not recover usable",
        kind.name()
    );
    if let Some(v) = verify(kind, &inner, &verdict, &prog) {
        panic!("{}: crash-free oracle violated: {v}", kind.name());
    }

    let mut tally = Tally {
        writes: crash.durable_writes(),
        flushes: crash.flushes(),
        ..Tally::default()
    };
    let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ kind.tag().wrapping_add(1);
    for n in (0..tally.writes).step_by(stride) {
        // Seeded tear inside the run (unit-truncated by the device).
        let intra = (xorshift(&mut seed) % 4096) as usize;
        for keep in [0, KEEP_ALL, intra] {
            // Half the cuts drain out of order (a disk scheduler): the
            // barriers, not FIFO luck, must carry recovery.
            let shuffle = (n % 2 == 1).then_some(0xC0FF_EE00 ^ n);
            run_cut(kind, CrashPlan::NthWrite { n, keep }, shuffle, &mut tally);
        }
    }
    for n in (0..tally.flushes).step_by(stride) {
        let mid = 1 + (xorshift(&mut seed) % 7) as usize;
        for drain in [0, mid, usize::MAX] {
            let shuffle = (n % 2 == 0).then_some(0xBA55_ED00 ^ n);
            run_cut(kind, CrashPlan::NthFlush { n, drain }, shuffle, &mut tally);
        }
    }
    tally
}

/// Sweep every workload at `stride`.
fn sweep(stride: usize) -> Vec<(Kind, Tally)> {
    [
        Kind::CacheCor,
        Kind::PlainWrites,
        Kind::CowCopyUp { coalesce: true },
        Kind::CowCopyUp { coalesce: false },
    ]
    .into_iter()
    .map(|kind| (kind, sweep_workload(kind, stride)))
    .collect()
}

/// The campaign's gate: every cut point of every workload recovers,
/// coverage does not shrink, and repair (not refetch) carries recovery.
#[test]
fn exhaustive_sweep_meets_the_gate() {
    let sweeps = sweep(1);
    let report: String = sweeps
        .iter()
        .map(|(kind, t)| format!("\n  {}: {t:?}", kind.name()))
        .collect();
    let total: u64 = sweeps.iter().map(|(_, t)| t.cuts).sum();
    let unrecoverable: u64 = sweeps.iter().map(|(_, t)| t.unrecoverable).sum();
    let refetched: u64 = sweeps.iter().map(|(_, t)| t.refetched).sum();
    let refetch_ratio = refetched as f64 / total.max(1) as f64;
    assert_eq!(unrecoverable, 0, "unrecoverable cut points:{report}");
    assert!(
        total >= MIN_CUT_POINTS,
        "only {total} cut points explored (< {MIN_CUT_POINTS}):{report}"
    );
    assert!(
        refetch_ratio <= MAX_REFETCH_RATIO,
        "refetch ratio {refetch_ratio:.3} > {MAX_REFETCH_RATIO}:{report}"
    );
}

/// A strided sweep still visits every workload, finds no
/// unrecoverable cut, and sees a clean verdict somewhere.
#[test]
fn strided_sweep_recovers_every_cut() {
    let sweeps = sweep(9);
    for (kind, t) in &sweeps {
        assert_eq!(t.unrecoverable, 0, "{}: {}", kind.name(), t.first_violation);
        assert!(t.writes > 0 && t.flushes > 0 && t.cuts > 0, "{t:?}");
    }
    let clean: u64 = sweeps.iter().map(|(_, t)| t.clean).sum();
    assert!(clean > 0, "some cut points must recover clean");
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
