//! Cluster hardware layout: one storage node plus N compute nodes, wired to
//! the shared simulation world.
//!
//! Mirrors the DAS-4/VU testbed of §5: the storage node has a RAID-0 disk
//! pair, ~24 GB of RAM serving as page cache / tmpfs, and one NIC shared by
//! all NFS traffic; each compute node has a local SATA disk and memory.

use std::sync::Arc;

use vmi_blockdev::{SharedDev, SparseDev};

use crate::deploy::{Mode, Placement};
use vmi_remote::{ExportMedium, NfsExport, SERVER_PAGE};
use vmi_sim::{CacheId, DiskId, DiskSpec, LinkId, NetSpec, SimWorld};

/// Spacing between consecutive file placements on a disk: far enough apart
/// that switching files always costs a seek.
pub const FILE_SPACING: u64 = 32 << 30;

/// Capacity of the storage node's page cache (most of its 24 GB RAM).
pub const STORAGE_PAGE_CACHE_BYTES: u64 = 20 << 30;

/// The storage node: disk, page cache, NIC, and an export namespace.
pub struct StorageNode {
    /// Shared world.
    pub world: SimWorld,
    /// The RAID-0 array.
    pub disk: DiskId,
    /// OS page cache over the disk.
    pub page_cache: CacheId,
    /// The node's NIC — every NFS byte crosses this.
    pub nic: LinkId,
    next_file_id: u64,
    next_disk_base: u64,
}

impl StorageNode {
    /// Build a storage node in `world` with a NIC of `net` spec.
    pub fn new(world: &SimWorld, net: NetSpec) -> Self {
        Self {
            world: world.clone(),
            disk: world.add_disk(DiskSpec::das4_storage_raid0()),
            page_cache: world.add_cache(STORAGE_PAGE_CACHE_BYTES, SERVER_PAGE),
            nic: world.add_link(net),
            next_file_id: 1,
            next_disk_base: 0,
        }
    }

    /// Export `dev` from the storage disk (cold in the page cache).
    pub fn export_on_disk(&mut self, dev: SharedDev) -> Arc<NfsExport> {
        let id = self.alloc_file_id();
        let base = self.alloc_disk_base();
        NfsExport::new(
            self.world.clone(),
            id,
            dev,
            base,
            ExportMedium::Disk(self.disk),
            self.page_cache,
        )
    }

    /// Export `dev` from tmpfs (storage-node memory, the §3.3 placement).
    pub fn export_on_tmpfs(&mut self, dev: SharedDev) -> Arc<NfsExport> {
        let id = self.alloc_file_id();
        NfsExport::new(
            self.world.clone(),
            id,
            dev,
            0,
            ExportMedium::Tmpfs,
            self.page_cache,
        )
    }

    /// Create a fresh multi-GiB zero image file on the storage disk and
    /// export it (a synthetic base VMI).
    pub fn create_base_vmi(&mut self, virtual_size: u64) -> Arc<NfsExport> {
        let dev: SharedDev = Arc::new(SparseDev::with_len(virtual_size));
        self.export_on_disk(dev)
    }

    fn alloc_file_id(&mut self) -> u64 {
        let id = self.next_file_id;
        self.next_file_id += 1;
        id
    }

    fn alloc_disk_base(&mut self) -> u64 {
        let b = self.next_disk_base;
        self.next_disk_base += FILE_SPACING;
        b
    }
}

/// Capacity of a compute node's page cache (most of its 24 GB RAM).
pub const NODE_PAGE_CACHE_BYTES: u64 = 20 << 30;

/// A compute node: local disk + memory, plus a local-file placement
/// allocator.
pub struct ComputeNode {
    /// Shared world.
    pub world: SimWorld,
    /// Node index in the cluster.
    pub index: usize,
    /// The node's local SATA disk.
    pub disk: DiskId,
    /// The node's OS page cache (local files read through it, with
    /// readahead overlapping guest compute).
    pub page_cache: CacheId,
    next_file_base: u64,
}

impl ComputeNode {
    /// Build compute node `index` in `world`.
    pub fn new(world: &SimWorld, index: usize) -> Self {
        Self {
            world: world.clone(),
            index,
            disk: world.add_disk(DiskSpec::das4_compute_disk()),
            page_cache: world.add_cache(NODE_PAGE_CACHE_BYTES, vmi_remote::sim_dev::NODE_PAGE),
            next_file_base: 0,
        }
    }

    /// Wrap `inner` as a new file on this node's local disk, read through
    /// the node's page cache.
    pub fn disk_file(&mut self, inner: SharedDev, sync_writes: bool) -> SharedDev {
        let base = self.next_file_base;
        self.next_file_base += FILE_SPACING;
        vmi_remote::local_disk_dev(
            self.world.clone(),
            self.disk,
            base,
            inner,
            sync_writes,
            self.page_cache,
        )
    }

    /// Wrap `inner` as a memory-resident file on this node.
    pub fn mem_file(&self, inner: SharedDev) -> SharedDev {
        vmi_remote::memory_dev(self.world.clone(), inner)
    }

    /// Place the cache `container` of a `mode` deployment on this node.
    /// Cold caches are built in memory (the final arrangement of Fig. 7 —
    /// the storage-memory flow also creates locally first, Fig. 13) or, in
    /// the slow variant of Fig. 8, behind synchronous local-disk writes on
    /// the boot critical path; warm copies sit on the local disk or in
    /// memory. `None` when `mode` keeps no cache on the node: plain QCOW2,
    /// or a warm cache served from storage memory.
    pub(crate) fn cache_file(&mut self, mode: Mode, container: SharedDev) -> Option<SharedDev> {
        let (placement, cold) = match mode {
            Mode::Qcow2 => return None,
            Mode::ColdCache { placement, .. } => (placement, true),
            Mode::WarmCache { placement, .. } => (placement, false),
        };
        match placement {
            Placement::ComputeDisk => Some(self.disk_file(container, cold)),
            Placement::StorageMem if !cold => None,
            Placement::ComputeMem | Placement::StorageMem => Some(self.mem_file(container)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::BlockDev;
    use vmi_remote::NfsMount;

    #[test]
    fn storage_node_allocates_distinct_files() {
        let w = SimWorld::new();
        let mut s = StorageNode::new(&w, NetSpec::gbe_1());
        let a = s.create_base_vmi(1 << 30);
        let b = s.create_base_vmi(1 << 30);
        assert_ne!(a.file_id, b.file_id);
        assert_ne!(a.disk_base, b.disk_base);
    }

    #[test]
    fn tmpfs_export_serves_without_disk() {
        let w = SimWorld::new();
        let mut s = StorageNode::new(&w, NetSpec::ib_32g());
        let dev: SharedDev = Arc::new(SparseDev::with_len(1 << 20));
        let exp = s.export_on_tmpfs(dev);
        let m = NfsMount::new(exp, s.nic);
        w.begin_op(0);
        let mut buf = [0u8; 4096];
        m.read_at(&mut buf, 0).unwrap();
        w.end_op();
        assert_eq!(w.disk_stats(s.disk).read_ops, 0);
    }

    #[test]
    fn compute_node_files_are_spaced() {
        let w = SimWorld::new();
        let mut c = ComputeNode::new(&w, 0);
        let f1 = c.disk_file(Arc::new(SparseDev::with_len(1 << 20)), false);
        let f2 = c.disk_file(Arc::new(SparseDev::with_len(1 << 20)), false);
        w.begin_op(0);
        let mut buf = [0u8; 512];
        f1.read_at(&mut buf, 0).unwrap();
        f2.read_at(&mut buf, 0).unwrap();
        w.end_op();
        assert_eq!(w.disk_stats(c.disk).seeks, 1);
    }
}
