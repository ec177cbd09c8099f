//! Cost hooks for *local* media: compute-node disks and memory.
//!
//! Wrap a container device in [`local_disk_dev`] / [`memory_dev`] before
//! handing it to `vmi-qcow`, and every byte the image code moves is charged
//! to the node's simulated disk (or memory bus) on the op clock.
//!
//! The local-disk model reflects how a host actually serves file I/O:
//!
//! * **Buffered writes** land in the host page cache and are written back
//!   off the critical path — the writer pays a memory copy. The
//!   `sync_writes` flag disables this and stalls every write on the
//!   platter, reproducing the paper's observation that creating a cold
//!   cache *on disk* "significantly slows down the boot process, due to
//!   delays from slow, synchronous writes to the cache image" (§5.1).
//! * **Reads** go through the node's page cache with sequential
//!   **readahead**: the first touch of a page pays the disk; pages
//!   prefetched ahead of a sequential stream become ready in the
//!   background, overlapping guest compute. The paper credits readahead
//!   for a warm cache on the compute node's disk booting within ~1 % of
//!   one in storage memory (§6). Here only the local disk has it — the
//!   NFS mount prefetches nothing — so the model's §6 gap is 22.3 %
//!   (ROADMAP item 19).
//!
//! Which pages are resident, when they become ready and when a stream
//! earns readahead is the crate's one page model; this file only prices
//! what it decides.

use std::sync::Arc;

use vmi_blockdev::{CostHook, LatencyDev, OpKind, SharedDev};
use vmi_sim::{CacheId, DiskId, SimWorld};

use crate::pages::PageModel;

/// Page size of the node page cache / readahead unit.
pub const NODE_PAGE: u64 = 16 * 1024;

/// Readahead window for sequential streams.
pub const READAHEAD: u64 = 512 * 1024;

/// Extra stall per synchronous cache-file write.
pub const SYNC_PENALTY_NS: u64 = 400_000;

/// Charges operations against a node-local disk, through the node's page
/// cache with readahead.
pub struct LocalDiskCost {
    world: SimWorld,
    disk: DiskId,
    /// Placement of this file on the local disk (seek distances between
    /// different files on the same disk).
    file_base: u64,
    /// When set, every write stalls on the platter.
    sync_writes: bool,
    /// This file's pages in the node's page cache (keyed by `file_base`).
    pages: PageModel,
}

impl CostHook for LocalDiskCost {
    fn charge(&self, kind: OpKind, off: u64, len: usize) {
        // A zero-length op moves no bytes and touches no page.
        if len == 0 {
            return;
        }
        let (world, disk, base, len) = (&self.world, self.disk, self.file_base, len as u64);
        match kind {
            OpKind::Read => {
                self.pages.read(
                    off,
                    len,
                    || world.charge_mem(NODE_PAGE.min(len)),
                    |at, bytes| world.charge_disk(disk, base + at, bytes, false),
                );
                // A sequential stream prefetches in the background: bulk
                // disk work that does not block this op.
                self.pages.read_ahead(off, len, |t, at, bytes| {
                    world.bulk_disk(disk, t, base + at, bytes, false)
                });
            }
            OpKind::Write => {
                if self.sync_writes {
                    // Synchronous writes go through to the platter and stall
                    // the writer — the §5.1 cold-cache-on-disk behaviour.
                    world.charge_disk(disk, base + off, len, true);
                    world.wait_until(world.op_now() + SYNC_PENALTY_NS);
                } else {
                    // Buffered write: a memory copy now, writeback later.
                    world.charge_mem(len);
                }
                // Either way the written pages are in the page cache.
                self.pages.written(off, len);
            }
            OpKind::Flush => {}
        }
    }
}

/// Wrap `inner` so its I/O is charged to `disk` at `file_base`, reading
/// through the node page cache `page_cache`.
pub fn local_disk_dev(
    world: SimWorld,
    disk: DiskId,
    file_base: u64,
    inner: SharedDev,
    sync_writes: bool,
    page_cache: CacheId,
) -> SharedDev {
    Arc::new(LatencyDev::new(
        inner,
        LocalDiskCost {
            pages: PageModel::new(
                world.clone(),
                page_cache,
                file_base,
                NODE_PAGE,
                1,
                READAHEAD,
            ),
            world,
            disk,
            file_base,
            sync_writes,
        },
    ))
}

/// Charges operations against the node's memory bus (tmpfs-resident files:
/// in-memory caches, CoW scratch in RAM).
pub struct MemCost {
    world: SimWorld,
}

impl CostHook for MemCost {
    fn charge(&self, kind: OpKind, _off: u64, len: usize) {
        if !matches!(kind, OpKind::Flush) {
            self.world.charge_mem(len as u64);
        }
    }
}

/// Wrap `inner` as a memory-resident file.
pub fn memory_dev(world: SimWorld, inner: SharedDev) -> SharedDev {
    Arc::new(LatencyDev::new(inner, MemCost { world }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::{BlockDev, MemDev};
    use vmi_sim::{DiskSpec, MSEC};

    fn world_disk() -> (SimWorld, DiskId, CacheId) {
        let w = SimWorld::new();
        let d = w.add_disk(DiskSpec {
            seq_bw_bps: 100_000_000,
            seek_ns: 5 * MSEC,
            short_seek_ns: 5 * MSEC,
            short_seek_window: 0,
            per_op_ns: 100_000,
            adjacency_window: 65536,
        });
        let pc = w.add_cache(1 << 30, NODE_PAGE);
        (w, d, pc)
    }

    #[test]
    fn disk_dev_charges_reads() {
        let (w, d, pc) = world_disk();
        let dev = local_disk_dev(
            w.clone(),
            d,
            0,
            Arc::new(MemDev::with_len(1 << 20)),
            false,
            pc,
        );
        w.begin_op(0);
        let mut buf = [0u8; 4096];
        dev.read_at(&mut buf, 512 << 10).unwrap(); // far from head: seeks
        let t = w.end_op();
        assert!(t >= 5 * MSEC);
        assert_eq!(w.disk_stats(d).read_ops, 1);
    }

    #[test]
    fn sync_writes_pay_penalty() {
        let (w, d, pc) = world_disk();
        let base = Arc::new(MemDev::new());
        let plain = local_disk_dev(w.clone(), d, 0, base.clone(), false, pc);
        let synced = local_disk_dev(w.clone(), d, 0, base, true, pc);
        w.begin_op(0);
        plain.write_at(&[0; 512], 0).unwrap();
        let t_plain = w.end_op();
        w.begin_op(t_plain);
        synced.write_at(&[0; 512], 512).unwrap();
        let t_sync = w.end_op() - t_plain;
        assert!(
            t_sync >= t_plain + SYNC_PENALTY_NS / 2,
            "sync write {t_sync} must exceed plain {t_plain}"
        );
    }

    #[test]
    fn buffered_writes_are_memory_speed() {
        let (w, d, pc) = world_disk();
        let dev = local_disk_dev(w.clone(), d, 0, Arc::new(MemDev::new()), false, pc);
        w.begin_op(0);
        dev.write_at(&[0u8; 65536], 0).unwrap();
        let t = w.end_op();
        assert!(t < 100_000, "buffered write must not hit the platter: {t}");
        assert_eq!(w.disk_stats(d).write_ops, 0);
    }

    #[test]
    fn memory_dev_is_fast() {
        let w = SimWorld::new();
        let dev = memory_dev(w.clone(), Arc::new(MemDev::new()));
        w.begin_op(0);
        dev.write_at(&[0u8; 65536], 0).unwrap();
        let mut buf = [0u8; 65536];
        dev.read_at(&mut buf, 0).unwrap();
        let t = w.end_op();
        assert!(t < 100_000, "memory ops are ~µs: {t}");
    }

    #[test]
    fn file_base_separates_files_for_seek_purposes() {
        let (w, d, pc) = world_disk();
        let file = |base| {
            let inner = Arc::new(MemDev::with_len(1 << 20));
            local_disk_dev(w.clone(), d, base, inner, false, pc)
        };
        let (a, b) = (file(0), file(10 << 30));
        w.begin_op(0);
        let mut buf = [0u8; 512];
        a.read_at(&mut buf, 0).unwrap();
        b.read_at(&mut buf, 0).unwrap(); // same file offset, different placement
        w.end_op();
        assert_eq!(w.disk_stats(d).seeks, 1, "jump between files seeks");
    }

    #[test]
    fn page_cache_makes_rereads_free() {
        let (w, d, pc) = world_disk();
        let dev = local_disk_dev(
            w.clone(),
            d,
            0,
            Arc::new(MemDev::with_len(1 << 20)),
            false,
            pc,
        );
        let mut buf = [0u8; 4096];
        w.begin_op(0);
        dev.read_at(&mut buf, 512 << 10).unwrap();
        let t1 = w.end_op();
        assert!(t1 >= 5 * MSEC, "first touch hits the disk");
        w.begin_op(t1);
        dev.read_at(&mut buf, 512 << 10).unwrap();
        let t2 = w.end_op() - t1;
        assert!(t2 < 100_000, "re-read served from page cache: {t2}");
    }

    #[test]
    fn readahead_overlaps_sequential_stream() {
        let (w, d, pc) = world_disk();
        let dev = local_disk_dev(
            w.clone(),
            d,
            0,
            Arc::new(MemDev::with_len(16 << 20)),
            false,
            pc,
        );
        // Read sequentially with "think time" between ops; after the first
        // few reads the prefetcher runs ahead and reads become waits-free.
        let mut buf = [0u8; NODE_PAGE as usize];
        let mut now = 0;
        let mut waits = Vec::new();
        for i in 0..16u64 {
            w.begin_op(now);
            dev.read_at(&mut buf, i * NODE_PAGE).unwrap();
            let done = w.end_op();
            waits.push(done - now);
            now = done + 20 * MSEC; // guest computes 20 ms between reads
        }
        assert!(waits[0] > 0);
        let tail_wait: u64 = waits[8..].iter().sum();
        assert!(
            tail_wait < 8 * MSEC,
            "readahead must hide the tail of a sequential stream: {waits:?}"
        );
    }

    #[test]
    fn written_pages_are_read_back_from_cache() {
        let (w, d, pc) = world_disk();
        let dev = local_disk_dev(w.clone(), d, 0, Arc::new(MemDev::new()), false, pc);
        w.begin_op(0);
        dev.write_at(&[1u8; 4096], 0).unwrap();
        let mut buf = [0u8; 4096];
        dev.read_at(&mut buf, 0).unwrap();
        let t = w.end_op();
        assert!(t < 100_000, "read-own-write served from page cache: {t}");
        assert_eq!(w.disk_stats(d).read_ops, 0);
    }

    #[test]
    fn zero_length_ops_charge_nothing() {
        let (w, d, pc) = world_disk();
        for sync_writes in [false, true] {
            let inner = Arc::new(MemDev::with_len(1 << 20));
            let dev = local_disk_dev(w.clone(), d, 0, inner, sync_writes, pc);
            for off in [0, 100] {
                w.begin_op(7);
                dev.read_at(&mut [], off).unwrap();
                dev.write_at(&[], off).unwrap();
                assert_eq!(w.end_op(), 7, "zero-length ops at {off} take no time");
            }
        }
        assert_eq!(w.disk_stats(d), Default::default());
        assert_eq!(w.cache_stats(pc), (0, 0));
    }
}
