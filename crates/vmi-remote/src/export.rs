//! Server side: an NFS-style export of one image file on the storage node.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vmi_blockdev::SharedDev;
use vmi_sim::{CacheId, DiskId, SimWorld};

/// Where an exported file physically lives on the storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportMedium {
    /// On the storage node's disks; reads miss to the given disk, cached by
    /// the node's page cache.
    Disk(DiskId),
    /// On `tmpfs` (storage-node memory): no disk is ever touched. This is
    /// the §3.3 / Fig. 13 placement for VMI caches.
    Tmpfs,
}

/// Server page size: the granularity at which the storage node reads from
/// its disk and caches pages (kernel readahead unit).
pub const SERVER_PAGE: u64 = 64 * 1024;

/// One exported file.
pub struct NfsExport {
    /// Unique id (keys page-cache entries; distinct per file).
    pub file_id: u64,
    /// The real bytes of the file.
    pub dev: SharedDev,
    /// Physical placement of the file on the storage disk: byte offset the
    /// file starts at (drives seek distances between different VMIs).
    pub disk_base: u64,
    /// Medium the file lives on.
    pub medium: ExportMedium,
    /// The storage node's page cache (shared by all exports of that node).
    pub page_cache: CacheId,
    /// Shared simulation world.
    pub world: SimWorld,
    /// Bytes served to clients (fetch volume at the storage node).
    served_bytes: AtomicU64,
    /// Bytes written by clients.
    received_bytes: AtomicU64,
}

impl NfsExport {
    /// Create an export.
    pub fn new(
        world: SimWorld,
        file_id: u64,
        dev: SharedDev,
        disk_base: u64,
        medium: ExportMedium,
        page_cache: CacheId,
    ) -> Arc<Self> {
        Arc::new(Self {
            file_id,
            dev,
            disk_base,
            medium,
            page_cache,
            world,
            served_bytes: AtomicU64::new(0),
            received_bytes: AtomicU64::new(0),
        })
    }

    /// Charge the server-side cost of producing `[off, off+len)` of this
    /// file on the op clock: page-cache probes, disk reads on miss (or
    /// memory copies for tmpfs).
    pub fn charge_read(&self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.served_bytes.fetch_add(len, Ordering::Relaxed);
        match self.medium {
            ExportMedium::Tmpfs => {
                self.world.charge_mem(len);
            }
            ExportMedium::Disk(disk) => {
                let first = off / SERVER_PAGE;
                let last = (off + len - 1) / SERVER_PAGE;
                for page in first..=last {
                    match self.world.cache_probe(self.page_cache, self.file_id, page) {
                        vmi_sim::CacheOutcome::Hit { .. } => {
                            // op clock already advanced to readiness; pay the
                            // memory copy.
                            self.world.charge_mem(SERVER_PAGE);
                        }
                        vmi_sim::CacheOutcome::Miss => {
                            self.world.charge_disk(
                                disk,
                                self.disk_base + page * SERVER_PAGE,
                                SERVER_PAGE,
                                false,
                            );
                            let ready = self.world.op_now();
                            self.world
                                .cache_insert(self.page_cache, self.file_id, page, ready);
                        }
                    }
                }
            }
        }
    }

    /// Charge the server-side cost of absorbing a client write.
    pub fn charge_write(&self, off: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.received_bytes.fetch_add(len, Ordering::Relaxed);
        match self.medium {
            ExportMedium::Tmpfs => self.world.charge_mem(len),
            ExportMedium::Disk(disk) => {
                // Writes land in the page cache and are written back; charge
                // the disk write directly (NFS commits are synchronous-ish).
                self.world
                    .charge_disk(disk, self.disk_base + off, len, true);
                let first = off / SERVER_PAGE;
                let last = (off + len - 1) / SERVER_PAGE;
                let ready = self.world.op_now();
                for page in first..=last {
                    self.world
                        .cache_insert(self.page_cache, self.file_id, page, ready);
                }
            }
        }
    }

    /// Bytes this export has served to clients.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes.load(Ordering::Relaxed)
    }

    /// Bytes clients have written to this export.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use vmi_blockdev::MemDev;
    use vmi_sim::{DiskSpec, NetSpec};

    fn world_with_disk() -> (SimWorld, DiskId, CacheId) {
        let w = SimWorld::new();
        let d = w.add_disk(DiskSpec {
            seq_bw_bps: 100_000_000,
            seek_ns: 1_000_000,
            short_seek_ns: 1_000_000,
            short_seek_window: 0,
            per_op_ns: 0,
            adjacency_window: SERVER_PAGE,
        });
        let c = w.add_cache(10 << 20, SERVER_PAGE);
        let _ = w.add_link(NetSpec::gbe_1());
        (w, d, c)
    }

    #[test]
    fn first_read_misses_second_hits() {
        let (w, d, c) = world_with_disk();
        let exp = NfsExport::new(
            w.clone(),
            1,
            StdArc::new(MemDev::with_len(1 << 20)),
            0,
            ExportMedium::Disk(d),
            c,
        );
        let far = 512 * 1024; // well beyond the adjacency window from head 0
        w.begin_op(0);
        exp.charge_read(far, 4096);
        let t1 = w.end_op();
        assert!(t1 >= 1_000_000, "first read pays the seek: {t1}");
        w.begin_op(t1);
        exp.charge_read(far, 4096);
        let t2 = w.end_op();
        assert!(
            t2 - t1 < 100_000,
            "second read is a page-cache hit: {}",
            t2 - t1
        );
        assert_eq!(exp.served_bytes(), 8192);
    }

    #[test]
    fn tmpfs_reads_never_touch_disk() {
        let (w, d, c) = world_with_disk();
        let exp = NfsExport::new(
            w.clone(),
            2,
            StdArc::new(MemDev::with_len(1 << 20)),
            0,
            ExportMedium::Tmpfs,
            c,
        );
        w.begin_op(0);
        exp.charge_read(0, 65536);
        let t = w.end_op();
        assert!(t < 100_000, "tmpfs read must be memory-speed: {t}");
        assert_eq!(w.disk_stats(d).read_ops, 0);
    }

    #[test]
    fn write_inserts_pages_into_cache() {
        let (w, d, c) = world_with_disk();
        let exp = NfsExport::new(
            w.clone(),
            3,
            StdArc::new(MemDev::with_len(1 << 20)),
            0,
            ExportMedium::Disk(d),
            c,
        );
        w.begin_op(0);
        exp.charge_write(0, SERVER_PAGE);
        let t1 = w.end_op();
        // A read of the just-written page hits the page cache.
        w.begin_op(t1);
        exp.charge_read(0, SERVER_PAGE);
        let t2 = w.end_op();
        assert_eq!(w.disk_stats(d).read_ops, 0, "read served from cache");
        assert!(t2 > t1);
        assert_eq!(exp.received_bytes(), SERVER_PAGE);
    }

    #[test]
    fn zero_length_charges_are_free() {
        let (w, d, c) = world_with_disk();
        let dev = StdArc::new(MemDev::with_len(1 << 20));
        let exp = NfsExport::new(w.clone(), 4, dev, 0, ExportMedium::Disk(d), c);
        for off in [0, 100] {
            w.begin_op(7);
            exp.charge_read(off, 0);
            exp.charge_write(off, 0);
            assert_eq!(w.end_op(), 7);
        }
        assert_eq!(w.disk_stats(d), Default::default());
        assert_eq!(w.cache_stats(c), (0, 0));
        assert_eq!((exp.served_bytes(), exp.received_bytes()), (0, 0));
    }
}
