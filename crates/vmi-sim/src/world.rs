//! The simulation world: a registry of shared resources plus the
//! *operation clock* that prices one guest I/O as it flows through real
//! image-format code.
//!
//! ## How real I/O gets priced
//!
//! The experiments replay real boot traces through real `vmi-qcow` chains.
//! Data moves synchronously through in-memory devices; *time* is charged on
//! the side: before a guest op is executed, the driver calls
//! [`SimWorld::begin_op`] with the VM's current simulated time; every
//! simulated medium the op touches (NFS mount, local disk, memory) advances
//! the op clock through [`SimWorld::charge_disk`] /
//! [`SimWorld::charge_link`] / [`SimWorld::charge_mem`]; afterwards
//! [`SimWorld::end_op`] yields the op's completion time. Because the event
//! loop executes ops in global simulated-time order, shared-resource
//! queueing (disk FIFO, NIC pipe) and page-cache warmth are observed in the
//! right order across VMs.

use parking_lot::Mutex;
use std::sync::Arc;

use crate::disk::{Disk, DiskSpec, DiskStats};
use crate::net::{Link, LinkStats, NetSpec};
use crate::pagecache::{CacheOutcome, PageCache};
use crate::time::{transfer_ns, Ns};

/// Handle to a registered disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiskId(usize);

/// Handle to a registered network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(usize);

/// Handle to a registered page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheId(usize);

/// Memory bandwidth used for tmpfs / page-cache copies (bytes/s).
pub const MEM_BW_BPS: u64 = 8_000_000_000;

#[derive(Debug, Default)]
struct WorldInner {
    disks: Vec<Disk>,
    links: Vec<Link>,
    caches: Vec<PageCache>,
    /// Current op clock (valid between begin_op/end_op).
    op_now: Ns,
    /// Detects misuse of the op clock.
    op_active: bool,
}

/// Shared, internally synchronized simulation world.
///
/// Clone the `Arc` freely; one world is single-experiment scoped and its
/// methods are called from a single driving thread at a time (the mutex
/// makes cross-thread handoff safe, not concurrent pricing meaningful).
#[derive(Debug, Clone)]
pub struct SimWorld {
    inner: Arc<Mutex<WorldInner>>,
}

impl Default for SimWorld {
    fn default() -> Self {
        let inner = Arc::new(Mutex::new(WorldInner::default()));
        inner.set_rank(parking_lot::lockrank::SIM_WORLD);
        Self { inner }
    }
}

impl SimWorld {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a disk.
    pub fn add_disk(&self, spec: DiskSpec) -> DiskId {
        let mut w = self.inner.lock();
        w.disks.push(Disk::new(spec));
        DiskId(w.disks.len() - 1)
    }

    /// Register a link.
    pub fn add_link(&self, spec: NetSpec) -> LinkId {
        let mut w = self.inner.lock();
        w.links.push(Link::new(spec));
        LinkId(w.links.len() - 1)
    }

    /// Register a page cache.
    pub fn add_cache(&self, capacity_bytes: u64, page_size: u64) -> CacheId {
        let mut w = self.inner.lock();
        w.caches.push(PageCache::new(capacity_bytes, page_size));
        CacheId(w.caches.len() - 1)
    }

    // ------------------------------------------------------------------
    // op clock
    // ------------------------------------------------------------------

    /// Start pricing one guest operation issued at `now`.
    pub fn begin_op(&self, now: Ns) {
        let mut w = self.inner.lock();
        debug_assert!(!w.op_active, "nested begin_op");
        w.op_now = now;
        w.op_active = true;
    }

    /// Finish pricing; returns the operation's completion time.
    pub fn end_op(&self) -> Ns {
        let mut w = self.inner.lock();
        debug_assert!(w.op_active, "end_op without begin_op");
        w.op_active = false;
        w.op_now
    }

    /// Current value of the op clock (between begin/end).
    pub fn op_now(&self) -> Ns {
        self.inner.lock().op_now
    }

    /// An [`vmi_obs::Clock`] view of this world's op clock, for stamping
    /// observability events with simulated time.
    pub fn obs_clock(&self) -> std::sync::Arc<dyn vmi_obs::Clock> {
        std::sync::Arc::new(self.clone())
    }

    /// Run `f` inside a `begin_op(now)`/`end_op()` window, so any
    /// observability events it emits (span starts/ends, counters) are
    /// stamped with simulated time `now` rather than whatever the op clock
    /// last held. For bookkeeping that happens *outside* a priced operation —
    /// e.g. closing a boot-level span at its completion event.
    pub fn with_time<T>(&self, now: Ns, f: impl FnOnce() -> T) -> T {
        self.begin_op(now);
        let out = f();
        self.end_op();
        out
    }

    /// Charge a disk access on the op clock.
    pub fn charge_disk(&self, id: DiskId, offset: u64, bytes: u64, is_write: bool) {
        let mut w = self.inner.lock();
        let now = w.op_now;
        let done = w.disks[id.0].access(now, offset, bytes, is_write);
        w.op_now = done;
    }

    /// Charge a network message on the op clock.
    pub fn charge_link(&self, id: LinkId, bytes: u64) {
        let mut w = self.inner.lock();
        let now = w.op_now;
        let done = w.links[id.0].transfer(now, bytes);
        w.op_now = done;
    }

    /// Charge an uncontended memory copy on the op clock.
    pub fn charge_mem(&self, bytes: u64) {
        let mut w = self.inner.lock();
        w.op_now += transfer_ns(bytes, MEM_BW_BPS);
    }

    /// Advance the op clock to at least `t` (waiting on an in-flight page).
    pub fn wait_until(&self, t: Ns) {
        let mut w = self.inner.lock();
        if w.op_now < t {
            w.op_now = t;
        }
    }

    /// Probe page cache `id` for `(file, page)` at the op clock; on hit the
    /// op clock waits for the page's readiness.
    pub fn cache_probe(&self, id: CacheId, file: u64, page: u64) -> CacheOutcome {
        let mut w = self.inner.lock();
        let out = w.caches[id.0].probe((file, page));
        if let CacheOutcome::Hit { ready_at } = out {
            if w.op_now < ready_at {
                w.op_now = ready_at;
            }
        }
        out
    }

    /// Non-blocking presence check on cache `id` (no LRU/stat side effects,
    /// never advances the op clock).
    pub fn cache_contains(&self, id: CacheId, file: u64, page: u64) -> bool {
        self.inner.lock().caches[id.0].contains((file, page))
    }

    /// Insert into page cache `id` a page that becomes ready at `ready_at`.
    pub fn cache_insert(&self, id: CacheId, file: u64, page: u64, ready_at: Ns) {
        self.inner.lock().caches[id.0].insert((file, page), ready_at);
    }

    // ------------------------------------------------------------------
    // out-of-band (bulk) pricing, used for cache transfers (Fig. 13)
    // ------------------------------------------------------------------

    /// Price a bulk transfer of `bytes` over `link` starting at `now`
    /// without the op clock; returns completion time.
    pub fn bulk_transfer(&self, link: LinkId, now: Ns, bytes: u64) -> Ns {
        self.inner.lock().links[link.0].transfer(now, bytes)
    }

    /// Price a bulk disk access starting at `now`; returns completion time.
    pub fn bulk_disk(&self, disk: DiskId, now: Ns, offset: u64, bytes: u64, is_write: bool) -> Ns {
        self.inner.lock().disks[disk.0].access(now, offset, bytes, is_write)
    }

    // ------------------------------------------------------------------
    // stats
    // ------------------------------------------------------------------

    /// Counters of disk `id`.
    pub fn disk_stats(&self, id: DiskId) -> DiskStats {
        self.inner.lock().disks[id.0].stats()
    }

    /// Counters of link `id`.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        self.inner.lock().links[id.0].stats()
    }

    /// (hits, misses) of cache `id`.
    pub fn cache_stats(&self, id: CacheId) -> (u64, u64) {
        self.inner.lock().caches[id.0].stats()
    }
}

impl vmi_obs::Clock for SimWorld {
    fn now_ns(&self) -> u64 {
        self.op_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MSEC, SEC};

    #[test]
    fn op_clock_chains_resources() {
        let w = SimWorld::new();
        let disk = w.add_disk(DiskSpec {
            seq_bw_bps: 100_000_000,
            seek_ns: 0,
            short_seek_ns: 0,
            short_seek_window: 0,
            per_op_ns: 0,
            adjacency_window: 0,
        });
        let link = w.add_link(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
        });
        w.begin_op(SEC);
        w.charge_disk(disk, 0, 50_000_000, false); // +0.5 s
        w.charge_link(link, 100_000_000); // +1 s
        let done = w.end_op();
        assert_eq!(done, SEC + SEC / 2 + SEC);
    }

    #[test]
    fn contention_visible_across_ops() {
        let w = SimWorld::new();
        let link = w.add_link(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
        });
        // VM A occupies the pipe for 1 s starting at t=0.
        w.begin_op(0);
        w.charge_link(link, 100_000_000);
        assert_eq!(w.end_op(), SEC);
        // VM B issues at t=0.1 s but must queue behind A.
        w.begin_op(100 * MSEC);
        w.charge_link(link, 100_000_000);
        assert_eq!(w.end_op(), 2 * SEC);
    }

    #[test]
    fn cache_hit_waits_for_inflight_page() {
        let w = SimWorld::new();
        let c = w.add_cache(1 << 20, 4096);
        w.begin_op(0);
        assert_eq!(w.cache_probe(c, 1, 0), CacheOutcome::Miss);
        w.cache_insert(c, 1, 0, 700);
        assert_eq!(w.end_op(), 0);
        // Second VM probes at t=100 and must wait until 700.
        w.begin_op(100);
        assert!(matches!(
            w.cache_probe(c, 1, 0),
            CacheOutcome::Hit { ready_at: 700 }
        ));
        assert_eq!(w.end_op(), 700);
    }

    #[test]
    fn mem_charge_is_cheap_but_nonzero() {
        let w = SimWorld::new();
        w.begin_op(0);
        w.charge_mem(8_000_000); // 1 ms at 8 GB/s
        assert_eq!(w.end_op(), MSEC);
    }

    #[test]
    fn bulk_ops_share_resource_state_with_op_clock() {
        let w = SimWorld::new();
        let link = w.add_link(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
        });
        let done = w.bulk_transfer(link, 0, 100_000_000);
        assert_eq!(done, SEC);
        // An op issued at t=0 queues behind the bulk transfer.
        w.begin_op(0);
        w.charge_link(link, 1_000_000);
        assert!(w.end_op() > SEC);
    }
}
