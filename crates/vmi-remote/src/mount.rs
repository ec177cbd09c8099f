//! Client side: a compute node's NFS mount of one exported file.
//!
//! [`NfsMount`] is a [`BlockDev`], so a `vmi-qcow` image can use a mounted
//! remote file directly as its backing store — exactly how the paper's
//! compute nodes reach the base image ("the compute nodes mount the NFS
//! location", §5).
//!
//! Cost model per read:
//! * the client caches fetched pages of [`CLIENT_PAGE`] bytes (16 KiB — the
//!   kernel's effective fetch unit with moderate readahead under the tuned
//!   `rwsize` of 64 KiB);
//! * uncached page runs become RPCs of at most [`RWSIZE`] bytes: the server
//!   charges its page-cache/disk path, then the response occupies the
//!   shared storage-node link;
//! * fully client-cached reads are free (no RPC).

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_sim::LinkId;

use crate::export::NfsExport;
use crate::pages::PageModel;

/// Client fetch and caching granularity.
pub const CLIENT_PAGE: u64 = 16 * 1024;

/// Maximum bytes per RPC (the paper tunes NFS `rwsize` to the 64 KiB QCOW2
/// cluster size, §5).
pub const RWSIZE: u64 = 64 * 1024;

/// A mounted remote file.
pub struct NfsMount {
    export: Arc<NfsExport>,
    /// The storage node's NIC (shared by every mount in the experiment).
    link: LinkId,
    /// Client pages. Each mount is read by one VM's sequential ops, so a
    /// page is always ready before it is read again.
    pages: PageModel,
}

impl NfsMount {
    /// Mount `export` over `link`.
    pub fn new(export: Arc<NfsExport>, link: LinkId) -> Arc<Self> {
        let world = export.world.clone();
        // A page cache of the mount's own that never evicts.
        let cache = world.add_cache(u64::MAX, CLIENT_PAGE);
        let rpc = RWSIZE / CLIENT_PAGE;
        let pages = PageModel::new(world, cache, export.file_id, CLIENT_PAGE, rpc, 0);
        Arc::new(Self {
            export,
            link,
            pages,
        })
    }

    /// The mounted export.
    pub fn export(&self) -> &Arc<NfsExport> {
        &self.export
    }
}

impl BlockDev for NfsMount {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        // Move the real bytes first.
        self.export.dev.read_at(buf, off)?;
        if buf.is_empty() {
            return Ok(());
        }
        // Client-cached pages are free; each run of absent pages is one RPC:
        // the server produces the bytes, then they cross the shared NIC.
        self.pages.read(
            off,
            buf.len() as u64,
            || {},
            |at, bytes| {
                self.export.charge_read(at, bytes);
                self.export.world.charge_link(self.link, bytes);
            },
        );
        Ok(())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.export.dev.write_at(buf, off)?;
        if buf.is_empty() {
            return Ok(());
        }
        // The client pages the write covers hold their data at once
        // (write-through with local copy); the data crosses the link and
        // hits the server.
        self.pages.written(off, buf.len() as u64);
        self.export.world.charge_link(self.link, buf.len() as u64);
        self.export.charge_write(off, buf.len() as u64);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.export.dev.len()
    }

    fn set_len(&self, _len: u64) -> Result<()> {
        Err(BlockError::unsupported("resize over NFS mount not modeled"))
    }

    fn flush(&self) -> Result<()> {
        self.export.dev.flush()
    }

    fn describe(&self) -> String {
        format!("nfs({})", self.export.dev.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::ExportMedium;
    use vmi_blockdev::MemDev;
    use vmi_sim::{DiskSpec, NetSpec, SimWorld};

    fn setup(medium_disk: bool) -> (SimWorld, Arc<NfsMount>, LinkId) {
        let w = SimWorld::new();
        let d = w.add_disk(DiskSpec {
            seq_bw_bps: 200_000_000,
            seek_ns: 4_000_000,
            short_seek_ns: 4_000_000,
            short_seek_window: 0,
            per_op_ns: 100_000,
            adjacency_window: 1 << 20,
        });
        let c = w.add_cache(1 << 30, crate::export::SERVER_PAGE);
        let link = w.add_link(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 100_000,
            per_msg_ns: 0,
        });
        let dev = Arc::new(MemDev::with_len(8 << 20));
        dev.write_at(&[0xAB; 1 << 20], 0).unwrap();
        let medium = if medium_disk {
            ExportMedium::Disk(d)
        } else {
            ExportMedium::Tmpfs
        };
        let exp = NfsExport::new(w.clone(), 1, dev, 0, medium, c);
        let m = NfsMount::new(exp, link);
        (w, m, link)
    }

    #[test]
    fn data_flows_correctly() {
        let (w, m, _) = setup(true);
        w.begin_op(0);
        let mut buf = [0u8; 4096];
        m.read_at(&mut buf, 100).unwrap();
        w.end_op();
        assert_eq!(buf, [0xAB; 4096]);
    }

    #[test]
    fn fetch_rounds_to_client_pages_and_caches() {
        let (w, m, link) = setup(true);
        w.begin_op(0);
        let mut buf = [0u8; 4096];
        m.read_at(&mut buf, 0).unwrap();
        w.end_op();
        // 4 KiB read fetched one 16 KiB client page.
        assert_eq!(w.link_stats(link).bytes, CLIENT_PAGE);
        assert_eq!(w.cache_stats(m.pages.cache), (0, 1), "one page cached");
        // Re-read and nearby read inside the same page are free.
        w.begin_op(1_000_000_000);
        m.read_at(&mut buf, 8192).unwrap();
        let done = w.end_op();
        assert_eq!(w.link_stats(link).bytes, CLIENT_PAGE, "no new traffic");
        assert_eq!(
            done, 1_000_000_000,
            "client-cached read takes no simulated time"
        );
    }

    #[test]
    fn large_read_splits_at_rwsize() {
        let (w, m, link) = setup(false);
        w.begin_op(0);
        let mut buf = vec![0u8; 256 * 1024];
        m.read_at(&mut buf, 0).unwrap();
        w.end_op();
        let s = w.link_stats(link);
        assert_eq!(s.bytes, 256 * 1024);
        assert_eq!(s.messages, 4, "256 KiB at rwsize 64 KiB = 4 RPCs");
    }

    #[test]
    fn writes_cross_link_and_reach_server() {
        let (w, m, link) = setup(true);
        w.begin_op(0);
        m.write_at(&[7u8; 8192], 0).unwrap();
        w.end_op();
        assert_eq!(w.link_stats(link).bytes, 8192);
        assert_eq!(m.export().received_bytes(), 8192);
        // The written range is now client-cached: reading it is free.
        w.begin_op(10);
        let mut buf = [0u8; 8192];
        m.read_at(&mut buf, 0).unwrap();
        assert_eq!(w.end_op(), 10);
        assert_eq!(buf, [7u8; 8192]);
    }

    #[test]
    fn contention_between_mounts_shares_the_link() {
        let w = SimWorld::new();
        let c = w.add_cache(1 << 30, crate::export::SERVER_PAGE);
        let link = w.add_link(NetSpec {
            bw_bps: 1_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
        });
        let mk = |id: u64| {
            let dev = Arc::new(MemDev::with_len(1 << 20));
            NfsMount::new(
                NfsExport::new(w.clone(), id, dev, 0, ExportMedium::Tmpfs, c),
                link,
            )
        };
        let (a, b) = (mk(1), mk(2));
        let mut buf = vec![0u8; 65536];
        w.begin_op(0);
        a.read_at(&mut buf, 0).unwrap();
        let ta = w.end_op();
        w.begin_op(0);
        b.read_at(&mut buf, 0).unwrap();
        let tb = w.end_op();
        assert!(
            tb >= ta + 60_000_000,
            "b queues behind a on the slow pipe: {ta} {tb}"
        );
    }
}
