//! Algorithm 1: chaining to the proper cache VMI (§6).
//!
//! ```text
//! Input: Compute node C, Storage node S, VMI Base
//! Output: A VMI to be chained to a CoW image
//! if Cache_base exists in C then
//!     return Cache_base
//! if Cache_base exists in S then
//!     if Cache_base is on disk then
//!         Copy Base_cache to tmpfs
//!     Create NewCache_base on C
//!     Chain NewCache_base to Cache_base
//!     return NewCache_base
//! Create Cache_base on C
//! Chain Cache_base to Base
//! Copy Cache_base to S on VM shutdown
//! return Cache_base
//! ```
//!
//! The decision structure is implemented verbatim over abstract node state
//! so the scheduler, the examples and the ablation benches can all drive it.

use crate::cachepool::{CachePool, Stamp};

/// Where the storage node currently holds a cache for some VMI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageCacheLocation {
    /// In memory (tmpfs): directly chainable.
    Memory,
    /// On the storage disk: must be copied to tmpfs before use.
    Disk,
}

/// Storage-node cache state for placement decisions, keyed by VMI index.
#[derive(Debug, Default)]
pub struct StorageCacheState {
    entries: std::collections::HashMap<usize, StorageCacheLocation>,
}

impl StorageCacheState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a cache for `vmi` at `loc`.
    pub fn set(&mut self, vmi: usize, loc: StorageCacheLocation) {
        self.entries.insert(vmi, loc);
    }

    /// Location of the cache for `vmi`, if present.
    pub fn get(&self, vmi: usize) -> Option<StorageCacheLocation> {
        self.entries.get(&vmi).copied()
    }

    /// Remove the record for `vmi`.
    pub fn remove(&mut self, vmi: usize) {
        self.entries.remove(&vmi);
    }
}

/// The plan Algorithm 1 returns: what to chain the new CoW image to, and
/// which side effects the deployment must perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainPlan {
    /// A warm cache already sits on the compute node: chain straight to it.
    /// (First branch — avoids the network entirely.)
    UseLocalCache,
    /// The storage node holds the cache: create a fresh local cache chained
    /// to the remote one.
    ChainToStorageCache {
        /// The remote cache must first be copied from storage disk to tmpfs.
        copy_to_tmpfs: bool,
    },
    /// No cache anywhere: create one locally, chained to the base, and copy
    /// it to the storage node when the VM shuts down.
    CreateLocalCache {
        /// Side effect on shutdown.
        transfer_to_storage_on_shutdown: bool,
    },
}

/// Run Algorithm 1 for VMI index `base` booting on a node whose local cache
/// pool is `compute`, with storage-side state `storage`. Touches the local
/// pool's recency on a hit.
pub fn choose_chain(
    compute: &mut CachePool,
    storage: &StorageCacheState,
    base: usize,
    now: Stamp,
) -> ChainPlan {
    if compute.touch(base, now).is_some() {
        return ChainPlan::UseLocalCache;
    }
    if let Some(loc) = storage.get(base) {
        return ChainPlan::ChainToStorageCache {
            copy_to_tmpfs: loc == StorageCacheLocation::Disk,
        };
    }
    ChainPlan::CreateLocalCache {
        transfer_to_storage_on_shutdown: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_obs::Obs;

    const CENTOS: usize = 0;

    #[test]
    fn local_cache_wins() {
        let mut pool = CachePool::new(200);
        let obs = Obs::disabled();
        let mut evicted = Vec::new();
        pool.admit(CENTOS, 100, 1, 1, &obs, 0, &mut evicted)
            .unwrap();
        pool.admit(1, 100, 2, 2, &obs, 0, &mut evicted).unwrap();
        let mut storage = StorageCacheState::new();
        storage.set(CENTOS, StorageCacheLocation::Memory);
        // Local beats storage even when both exist ("prefers chaining to a
        // local cache (if it exists) to avoid the network as much as
        // possible").
        assert_eq!(
            choose_chain(&mut pool, &storage, CENTOS, 5),
            ChainPlan::UseLocalCache
        );
        // Recency was updated: the other cache is now the LRU victim.
        pool.admit(2, 100, 6, 6, &obs, 0, &mut evicted).unwrap();
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn storage_memory_cache_chained_directly() {
        let mut pool = CachePool::new(1000);
        let mut storage = StorageCacheState::new();
        storage.set(1, StorageCacheLocation::Memory);
        assert_eq!(
            choose_chain(&mut pool, &storage, 1, 1),
            ChainPlan::ChainToStorageCache {
                copy_to_tmpfs: false
            }
        );
    }

    #[test]
    fn storage_disk_cache_requires_tmpfs_copy() {
        let mut pool = CachePool::new(1000);
        let mut storage = StorageCacheState::new();
        storage.set(2, StorageCacheLocation::Disk);
        assert_eq!(
            choose_chain(&mut pool, &storage, 2, 1),
            ChainPlan::ChainToStorageCache {
                copy_to_tmpfs: true
            }
        );
    }

    #[test]
    fn cold_everything_creates_and_transfers() {
        let mut pool = CachePool::new(1000);
        let storage = StorageCacheState::new();
        assert_eq!(
            choose_chain(&mut pool, &storage, 3, 1),
            ChainPlan::CreateLocalCache {
                transfer_to_storage_on_shutdown: true
            }
        );
    }

    #[test]
    fn removed_storage_entry_falls_through() {
        let mut pool = CachePool::new(1000);
        let mut storage = StorageCacheState::new();
        storage.set(4, StorageCacheLocation::Memory);
        storage.remove(4);
        assert!(matches!(
            choose_chain(&mut pool, &storage, 4, 1),
            ChainPlan::CreateLocalCache { .. }
        ));
    }
}
