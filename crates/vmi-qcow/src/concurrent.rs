//! Concurrent request layer over [`QcowImage`]: sharded L2 lookup cache +
//! per-extent range locks.
//!
//! [`QcowImage`] is internally consistent under concurrent callers, but it
//! serializes *everything* behind one state mutex held across container and
//! backing I/O — so a second reader stalls for the full device service time
//! of the first. That is exactly the bottleneck the paper's deployment
//! numbers assume away: many guests hammering one shared cache image.
//!
//! [`ConcurrentImage`] restructures the request path without touching the
//! on-disk format or the PR-7 barrier discipline:
//!
//! * **Warm reads run in parallel.** A read over fully-mapped clusters takes
//!   a *shared* range lock, resolves cluster→container mappings from a
//!   sharded, immutable-snapshot L2 cache (no `QcowImage` state lock at
//!   all), coalesces physically contiguous clusters into runs (the PR-5
//!   extent unit), and reads the container directly. Non-overlapping warm
//!   reads never contend.
//! * **Mutations serialize deterministically.** Writes, copy-on-read fills,
//!   and discards take an *exclusive* cluster-aligned range lock plus a
//!   global mutation-order lock, then delegate to the underlying
//!   [`QcowImage`] — whose own state mutex, allocation discipline, and
//!   single `barrier()` choke point are reused unchanged. Before the
//!   exclusive lock drops, the L1 mirror and affected L2 shards are
//!   refreshed so later warm reads see the new mapping.
//! * **Completion order is observable.** Every operation gets a stamp from
//!   one atomic counter, taken before its lock is released. Replaying the
//!   same operations serially in stamp order reproduces the guest bytes and
//!   the final container bit-for-bit (property-tested in
//!   `tests/concurrent_props.rs`).
//!
//! Lock ordering (deadlock-free because it is acyclic and each request
//! acquires exactly one range atomically): range lock → mutation-order lock
//! → `QcowImage` state mutex → shard `RwLock` / device. The authoritative
//! ranked form of this hierarchy — covering every lock in the workspace —
//! lives in `LOCK_ORDER.toml` at the repository root; it is enforced
//! statically by `vmi-lint lock-order` and dynamically by the
//! `parking_lot::lockrank` witness (ranks registered in
//! [`ConcurrentImage::new_with_obs`]).
//!
//! Not supported concurrently: `resize` and `rebase` swap whole tables out
//! from under the mirror — quiesce the
//! `ConcurrentImage` (drop in-flight requests) and call those on the inner
//! [`QcowImage`] directly.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{lockrank, rank, Condvar, Mutex, RwLock};
use vmi_blockdev::{BlockDev, BlockError, ByteRange, Result};
use vmi_obs::{Obs, SpanId};

use crate::image::{QcowImage, UNALLOCATED};
use crate::layout::Geometry;
use crate::lookup::contiguous_run;

/// Number of independent L2-cache shards. Requests hash by L1 index, so
/// reads of different table regions never touch the same shard lock.
const SHARDS: usize = 16;

// ----------------------------------------------------------------------
// Range locks
// ----------------------------------------------------------------------

/// Lock mode for a byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Shared,
    Exclusive,
}

fn conflicts(a: &ByteRange, am: Mode, b: &ByteRange, bm: Mode) -> bool {
    (am == Mode::Exclusive || bm == Mode::Exclusive) && a.intersect(b).is_some()
}

#[derive(Debug, Default)]
struct LockState {
    /// Currently granted ranges.
    active: Vec<(ByteRange, Mode, u64)>,
    /// FIFO admission queue: `(ticket, range, mode)`.
    waiting: VecDeque<(u64, ByteRange, Mode)>,
    next_ticket: u64,
}

/// FIFO fair byte-range locks: shared ranges may overlap each other;
/// an exclusive range excludes every overlapping range. Conflicting
/// requests are granted strictly in ticket (arrival) order, which is what
/// makes overlapping mutations serialize *deterministically* rather than
/// by lock-acquisition race.
#[derive(Debug, Default)]
struct RangeLocks {
    st: Mutex<LockState>,
    cv: Condvar,
}

impl RangeLocks {
    fn acquire(&self, range: ByteRange, mode: Mode) -> RangeGuard<'_> {
        let mut st = self.st.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiting.push_back((ticket, range, mode));
        loop {
            let blocked_active = st
                .active
                .iter()
                .any(|(r, m, _)| conflicts(r, *m, &range, mode));
            let blocked_earlier = st
                .waiting
                .iter()
                .any(|(t, r, m)| *t < ticket && conflicts(r, *m, &range, mode));
            if !blocked_active && !blocked_earlier {
                st.waiting.retain(|(t, _, _)| *t != ticket);
                st.active.push((range, mode, ticket));
                break;
            }
            self.cv.wait(&mut st);
        }
        // The admission mutex (rank 32) must be released before the logical
        // range rank (30) joins the witness stack: ranks ascend range →
        // admission, because RangeGuard::drop re-enters the admission lock.
        drop(st);
        RangeGuard {
            locks: self,
            ticket,
            _token: rank::held_reentrant(lockrank::QCOW_RANGE),
        }
    }
}

/// Releases its range (and wakes waiters) on drop.
struct RangeGuard<'a> {
    locks: &'a RangeLocks,
    ticket: u64,
    /// Witness token for [`lockrank::QCOW_RANGE`]; re-entrant because one
    /// thread may legally hold several shared/disjoint range guards. Pops
    /// after `Drop::drop` releases the range under the admission lock.
    _token: rank::Held,
}

impl Drop for RangeGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.locks.st.lock();
        st.active.retain(|(_, _, t)| *t != self.ticket);
        drop(st);
        self.locks.cv.notify_all();
    }
}

// ----------------------------------------------------------------------
// Sharded L2 cache
// ----------------------------------------------------------------------

/// One shard of the L2 lookup cache: immutable table snapshots keyed by L1
/// index, plus an epoch that invalidation bumps so a concurrently-loaded
/// stale snapshot is never *cached* (it may still be *used* by the loader,
/// which is safe: a reader only consults entries inside its locked range,
/// and those cannot have changed while the lock is held).
#[derive(Debug, Default)]
struct Shard {
    epoch: AtomicU64,
    map: RwLock<HashMap<usize, Arc<Vec<u64>>>>,
}

// ----------------------------------------------------------------------
// ConcurrentImage
// ----------------------------------------------------------------------

/// Concurrency statistics (see [`ConcurrentImage::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcStats {
    /// Reads served entirely from warm mappings without the image mutex.
    pub warm_reads: u64,
    /// Guest bytes moved by those warm reads.
    pub warm_bytes: u64,
    /// Reads that fell back to the serialized path (cold clusters → CoR,
    /// or a warm-path device hiccup retried authoritatively).
    pub slow_reads: u64,
    /// Serialized mutations (writes + discards).
    pub mutations: u64,
    /// L2 snapshot loads that were *not* cached because a concurrent
    /// invalidation raced the load (correctness backstop, see [`Shard`]).
    pub stale_loads: u64,
}

/// See the [module docs](self): a sharded, range-locked concurrency layer
/// that lets non-overlapping warm reads proceed in parallel over one shared
/// [`QcowImage`] while mutations keep their deterministic serial order.
///
/// Implements [`BlockDev`], so it can stand wherever the image could — in
/// particular as an NBD export device shared by many connections.
pub struct ConcurrentImage {
    img: Arc<QcowImage>,
    geom: Geometry,
    /// Lock-free-read mirror of the L1 table, refreshed under the
    /// mutation-order lock after every serialized mutation.
    l1: RwLock<Vec<u64>>,
    shards: Vec<Shard>,
    locks: RangeLocks,
    /// Serializes every mutating delegate call *and* the mirror refresh +
    /// stamp that follow it, so stamp order equals the image's internal
    /// mutation order.
    mut_order: Mutex<()>,
    stamp: AtomicU64,
    warm_reads: AtomicU64,
    warm_bytes: AtomicU64,
    slow_reads: AtomicU64,
    mutations: AtomicU64,
    stale_loads: AtomicU64,
    obs: Obs,
}

impl std::fmt::Debug for ConcurrentImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentImage")
            .field("img", &self.img)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ConcurrentImage {
    /// Wrap `img`. The wrapper assumes it becomes the image's only mutator;
    /// reads/writes made directly on `img` afterwards are still *safe* but
    /// may be served stale by the warm path until the next wrapped mutation
    /// touches the same range.
    pub fn new(img: Arc<QcowImage>) -> Arc<Self> {
        let obs = img.obs_handle().clone();
        Self::new_with_obs(img, obs)
    }

    /// [`ConcurrentImage::new`] with an explicit observability handle for
    /// the warm path's spans (the serialized path keeps the image's own).
    pub fn new_with_obs(img: Arc<QcowImage>, obs: Obs) -> Arc<Self> {
        let geom = img.geometry();
        let l1 = RwLock::new(img.l1_snapshot());
        l1.set_rank(lockrank::QCOW_L1);
        let shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::default()).collect();
        for s in &shards {
            s.map.set_rank(lockrank::QCOW_SHARD);
        }
        let locks = RangeLocks::default();
        locks.st.set_rank(lockrank::QCOW_RANGE_ADMISSION);
        let mut_order = Mutex::new(());
        mut_order.set_rank(lockrank::QCOW_MUT_ORDER);
        Arc::new(Self {
            img,
            geom,
            l1,
            shards,
            locks,
            mut_order,
            stamp: AtomicU64::new(0),
            warm_reads: AtomicU64::new(0),
            warm_bytes: AtomicU64::new(0),
            slow_reads: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            stale_loads: AtomicU64::new(0),
            obs,
        })
    }

    /// The wrapped image.
    pub fn image(&self) -> &Arc<QcowImage> {
        &self.img
    }

    /// Concurrency counters.
    pub fn stats(&self) -> ConcStats {
        ConcStats {
            warm_reads: self.warm_reads.load(Ordering::Relaxed),
            warm_bytes: self.warm_bytes.load(Ordering::Relaxed),
            slow_reads: self.slow_reads.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            stale_loads: self.stale_loads.load(Ordering::Relaxed),
        }
    }

    /// Completion stamps handed out so far.
    pub fn completed_ops(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Cluster-aligned lock span for a mutation over `[off, end)` (`end`
    /// as checked by [`Geometry::check_range`]): copy-on-read fills and
    /// write allocations only ever touch clusters intersecting the request,
    /// so this span bounds every mapping change.
    fn aligned(&self, off: u64, end: u64) -> ByteRange {
        ByteRange {
            start: self.geom.cluster_start(off),
            end: self.geom.align_up(end),
        }
    }

    // ------------------------------------------------------------------
    // warm mapping resolution
    // ------------------------------------------------------------------

    /// The L2 snapshot under `l1_idx` in *this* layer (`None` when no table
    /// is allocated there), using only the mirror + shard caches (never the
    /// image mutex). Caller must hold a range lock covering every address
    /// it resolves through the table.
    fn l2_for(&self, l1_idx: usize) -> Result<Option<Arc<Vec<u64>>>> {
        // The L1 guard drops with this statement, before any shard lock.
        let l2_off = self.l1.read().get(l1_idx).copied().unwrap_or(UNALLOCATED);
        if l2_off == UNALLOCATED {
            return Ok(None);
        }
        self.l2_table(l1_idx, l2_off).map(Some)
    }

    fn l2_table(&self, l1_idx: usize, l2_off: u64) -> Result<Arc<Vec<u64>>> {
        let shard = &self.shards[l1_idx % SHARDS];
        let epoch = shard.epoch.load(Ordering::Acquire);
        if let Some(t) = shard.map.read().get(&l1_idx) {
            return Ok(Arc::clone(t));
        }
        let table = Arc::new(self.img.load_l2_table(l2_off)?);
        let mut map = shard.map.write();
        if shard.epoch.load(Ordering::Acquire) == epoch {
            map.insert(l1_idx, Arc::clone(&table));
        } else {
            // An invalidation raced our load: the snapshot is fine for the
            // range we hold locked, but must not outlive this request.
            self.stale_loads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(table)
    }

    /// Refresh the L1 mirror and drop shard entries for every L1 index the
    /// mutation span touches. Must run under `mut_order` *and* the span's
    /// exclusive range lock, before either is released.
    fn refresh(&self, span: ByteRange) {
        if span.is_empty() {
            return;
        }
        let first = self.geom.l1_index(span.start);
        let last = self.geom.l1_index(span.end - 1);
        {
            let mut l1 = self.l1.write();
            for idx in first..=last {
                if idx < l1.len() {
                    l1[idx] = self.img.l1_entry(idx);
                }
            }
        }
        for idx in first..=last {
            let shard = &self.shards[idx % SHARDS];
            shard.epoch.fetch_add(1, Ordering::AcqRel);
            shard.map.write().remove(&idx);
        }
    }

    // ------------------------------------------------------------------
    // request paths
    // ------------------------------------------------------------------

    /// Read returning the completion stamp (see the module docs for the
    /// replay-equivalence contract).
    pub fn read_stamped(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<u64> {
        let end = self.geom.check_range(off, buf.len() as u64)?;
        if buf.is_empty() {
            return Ok(self.next_stamp());
        }
        {
            let _g = self
                .locks
                .acquire(ByteRange::at(off, buf.len() as u64), Mode::Shared);
            if let Ok(true) = self.try_warm_read(buf, off, end, parent) {
                // Stamp before the shared lock drops: any overlapping
                // mutation stamps strictly after us.
                return Ok(self.next_stamp());
            }
            // Unmapped cluster in range, or a warm-path device error: retry
            // below through the authoritative serialized path (which handles
            // CoR fills and degraded fallback).
        }
        self.slow_reads.fetch_add(1, Ordering::Relaxed);
        let span = self.aligned(off, end);
        let _g = self.locks.acquire(span, Mode::Exclusive);
        let _om = self.mut_order.lock();
        let res = self.img.read_at_in(buf, off, parent);
        // A cold read may have filled clusters (copy-on-read): publish the
        // new mappings to the warm path before the locks drop.
        self.refresh(span);
        let stamp = self.next_stamp();
        res.map(|()| stamp)
    }

    /// Warm fast path: `Ok(true)` iff every cluster of the request is
    /// mapped in this layer and the container reads succeeded.
    fn try_warm_read(
        &self,
        buf: &mut [u8],
        off: u64,
        end: u64,
        parent: Option<SpanId>,
    ) -> Result<bool> {
        // Resolve to physically contiguous container runs (the PR-5 extent
        // unit, found over the snapshot tables instead of the live ones)
        // before reading anything: one unmapped cluster sends the whole
        // request down the serialized path. Each run resolves one L2
        // snapshot per table it spans, not one lookup per cluster.
        let mut runs: Vec<(u64, usize)> = Vec::new();
        let mut pos = off;
        while pos < end {
            let run = contiguous_run(&self.geom, pos, end - pos, |l1_idx, scan| {
                Ok(scan(self.l2_for(l1_idx)?.as_deref().map(Vec::as_slice)))
            })?;
            let Some((cont, run_bytes, _)) = run else {
                return Ok(false);
            };
            runs.push((cont, run_bytes as usize));
            pos += run_bytes;
        }
        let span = self.obs.span_in(parent, "qcow.read", || {
            format!("layer=warm off={off} len={} runs={}", buf.len(), runs.len())
        });
        let sid = span.id();
        let dev = self.img.container();
        let mut cursor = 0usize;
        for (cont, rlen) in &runs {
            dev.read_run_at_in(&mut buf[cursor..cursor + rlen], *cont, sid)?;
            cursor += rlen;
        }
        self.warm_reads.fetch_add(1, Ordering::Relaxed);
        self.warm_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Write returning the completion stamp.
    pub fn write_stamped(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<u64> {
        let end = self.geom.check_range(off, buf.len() as u64)?;
        if buf.is_empty() {
            return Ok(self.next_stamp());
        }
        self.mutations.fetch_add(1, Ordering::Relaxed);
        let span = self.aligned(off, end);
        let _g = self.locks.acquire(span, Mode::Exclusive);
        let _om = self.mut_order.lock();
        let res = self.img.write_at_in(buf, off, parent);
        self.refresh(span);
        let stamp = self.next_stamp();
        res.map(|()| stamp)
    }

    /// Discard (TRIM) under an exclusive range lock; see
    /// [`QcowImage::discard`] for semantics. Returns clusters discarded.
    pub fn discard(&self, off: u64, len: u64) -> Result<u64> {
        let end = self.geom.check_range(off, len)?;
        if len == 0 {
            return Ok(0);
        }
        self.mutations.fetch_add(1, Ordering::Relaxed);
        let span = self.aligned(off, end);
        let _g = self.locks.acquire(span, Mode::Exclusive);
        let _om = self.mut_order.lock();
        let res = self.img.discard(off, len);
        self.refresh(span);
        let _ = self.next_stamp();
        res
    }
}

impl BlockDev for ConcurrentImage {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.read_stamped(buf, off, None).map(|_| ())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.write_stamped(buf, off, None).map(|_| ())
    }

    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.read_stamped(buf, off, parent).map(|_| ())
    }

    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.write_stamped(buf, off, parent).map(|_| ())
    }

    fn len(&self) -> u64 {
        self.geom.virtual_size
    }

    fn set_len(&self, _len: u64) -> Result<()> {
        Err(BlockError::unsupported("images have a fixed virtual size"))
    }

    fn flush(&self) -> Result<()> {
        // Serialize with mutations so a flush observed "after" a write in
        // completion order really does cover that write's container I/O.
        let _om = self.mut_order.lock();
        // QcowImage::flush is itself the barrier() choke point, so the
        // discipline is preserved through this delegation.
        self.img.flush() // lint:allow(qcow-barrier)
    }

    fn describe(&self) -> String {
        format!("concurrent({})", self.img.describe())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::CreateOpts;
    use vmi_blockdev::{MemDev, SharedDev};

    fn mem() -> SharedDev {
        Arc::new(MemDev::new())
    }

    fn seeded_base(size: u64) -> SharedDev {
        let dev = MemDev::new();
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        dev.write_at(&data, 0).unwrap();
        Arc::new(dev)
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "lets the waiter jump ahead")]
    fn range_locks_shared_overlap_exclusive_excludes() {
        let locks = RangeLocks::default();
        let a = locks.acquire(ByteRange::at(0, 100), Mode::Shared);
        let _b = locks.acquire(ByteRange::at(50, 100), Mode::Shared);
        // Disjoint exclusive proceeds immediately.
        let c = locks.acquire(ByteRange::at(200, 10), Mode::Exclusive);
        drop(c);
        drop(a);
        // Overlapping exclusive waits for the last shared holder.
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _x = locks.acquire(ByteRange::at(60, 10), Mode::Exclusive);
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !done.load(Ordering::SeqCst),
                "exclusive jumped a shared lock"
            );
            drop(_b);
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn warm_read_skips_image_mutex_and_matches() {
        let base = seeded_base(1 << 20);
        let img = QcowImage::create(
            mem(),
            CreateOpts::cache(1 << 20, "base", 4 << 20).with_cluster_bits(12),
            Some(base.clone()),
        )
        .unwrap();
        // Warm the whole image through the serialized path.
        let mut warm = vec![0u8; 1 << 20];
        img.read_at(&mut warm, 0).unwrap();

        let conc = ConcurrentImage::new(img);
        let mut buf = vec![0u8; 8192];
        conc.read_at(&mut buf, 4096).unwrap();
        assert_eq!(&buf[..], &warm[4096..4096 + 8192]);
        let st = conc.stats();
        assert_eq!(st.warm_reads, 1);
        assert_eq!(st.warm_bytes, 8192);
        assert_eq!(st.slow_reads, 0);
    }

    #[test]
    fn cold_read_falls_back_then_next_read_is_warm() {
        let base = seeded_base(1 << 20);
        let img = QcowImage::create(
            mem(),
            CreateOpts::cache(1 << 20, "base", 4 << 20).with_cluster_bits(12),
            Some(base),
        )
        .unwrap();
        let conc = ConcurrentImage::new(img);
        let mut buf = vec![0u8; 4096];
        conc.read_at(&mut buf, 64 * 1024).unwrap();
        assert_eq!(conc.stats().slow_reads, 1);
        // The CoR fill published its mapping: same range is now warm.
        let mut again = vec![0u8; 4096];
        conc.read_at(&mut again, 64 * 1024).unwrap();
        assert_eq!(again, buf);
        assert_eq!(conc.stats().warm_reads, 1);
    }

    #[test]
    fn write_invalidates_warm_mapping() {
        let img = QcowImage::create(
            mem(),
            CreateOpts::plain(1 << 20).with_cluster_bits(12),
            None,
        )
        .unwrap();
        let conc = ConcurrentImage::new(img);
        conc.write_at(&[1u8; 4096], 0).unwrap();
        let mut buf = [0u8; 4096];
        conc.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [1u8; 4096]);
        conc.write_at(&[2u8; 4096], 0).unwrap();
        conc.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [2u8; 4096]);
        assert_eq!(conc.stats().mutations, 2);
    }

    #[test]
    fn stamps_are_dense_and_ordered() {
        let img = QcowImage::create(
            mem(),
            CreateOpts::plain(1 << 20).with_cluster_bits(12),
            None,
        )
        .unwrap();
        let conc = ConcurrentImage::new(img);
        let s1 = conc.write_stamped(&[3u8; 512], 0, None).unwrap();
        let mut b = [0u8; 512];
        let s2 = conc.read_stamped(&mut b, 0, None).unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(conc.completed_ops(), 2);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let img = QcowImage::create(
            mem(),
            CreateOpts::plain(1 << 20).with_cluster_bits(12),
            None,
        )
        .unwrap();
        let conc = ConcurrentImage::new(img);
        let mut b = [0u8; 16];
        assert!(conc.read_at(&mut b, (1 << 20) - 8).is_err());
        assert!(conc.write_at(&b, u64::MAX - 4).is_err());
    }

    #[test]
    fn discard_range_wrapping_u64_is_out_of_bounds() {
        let img = QcowImage::create(mem(), CreateOpts::plain(1 << 20), None).unwrap();
        let err = ConcurrentImage::new(img)
            .discard(u64::MAX - 3, 16)
            .unwrap_err();
        assert_eq!(err.kind(), vmi_blockdev::BlockErrorKind::OutOfBounds);
    }

    #[test]
    fn discard_unmaps_and_rearms_warm_path() {
        let base = seeded_base(1 << 20);
        let img = QcowImage::create(
            mem(),
            CreateOpts::cache(1 << 20, "base", 4 << 20).with_cluster_bits(12),
            Some(base.clone()),
        )
        .unwrap();
        let conc = ConcurrentImage::new(img);
        let mut buf = [0u8; 4096];
        conc.read_at(&mut buf, 0).unwrap(); // fill
        conc.read_at(&mut buf, 0).unwrap(); // warm
        assert_eq!(conc.stats().warm_reads, 1);
        assert_eq!(conc.discard(0, 4096).unwrap(), 1);
        // Mapping gone: next read is slow (re-fills), not stale-warm.
        let mut after = [0u8; 4096];
        conc.read_at(&mut after, 0).unwrap();
        assert_eq!(after, buf);
        assert_eq!(conc.stats().slow_reads, 2);
    }

    #[test]
    fn parallel_disjoint_reads_are_consistent() {
        let base = seeded_base(1 << 20);
        let img = QcowImage::create(
            mem(),
            CreateOpts::cache(1 << 20, "base", 4 << 20).with_cluster_bits(12),
            Some(base.clone()),
        )
        .unwrap();
        let mut warm = vec![0u8; 1 << 20];
        img.read_at(&mut warm, 0).unwrap();
        let conc = ConcurrentImage::new(img);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let conc = &conc;
                let warm = &warm;
                s.spawn(move || {
                    for i in 0..32u64 {
                        let off = ((t * 32 + i) * 8192) % ((1 << 20) - 8192);
                        let mut buf = vec![0u8; 8192];
                        conc.read_at(&mut buf, off).unwrap();
                        assert_eq!(&buf[..], &warm[off as usize..off as usize + 8192]);
                    }
                });
            }
        });
        assert_eq!(conc.stats().warm_reads, 128);
    }
}
