//! The in-memory L2 table cache: a bounded, least-recently-used map from L1
//! index to decoded L2 table, and the only code that knows how cached tables
//! and their recency are represented.
//!
//! Tables are write-through (the container is updated before the cached
//! copy), so eviction never loses data — it only costs a re-read on the
//! next touch, exactly like QEMU's `l2-cache-size`.

use std::collections::HashMap;

use crate::layout::Geometry;

/// Default memory budget for the in-memory L2 table cache, in bytes. The
/// per-image table limit is this budget divided by the cluster size (one
/// cached table occupies one cluster's worth of entries), floored at
/// [`MIN_L2_CACHE_TABLES`]. Mirrors QEMU's bounded `l2-cache-size` — an
/// unbounded table cache on a multi-TiB image is an OOM waiting to happen.
pub const DEFAULT_L2_CACHE_BYTES: u64 = 32 << 20;

/// Lower bound on the default L2 cache limit, so huge-cluster images keep a
/// useful working set.
pub const MIN_L2_CACHE_TABLES: usize = 64;

#[derive(Debug)]
struct Slot {
    /// Value of the cache clock at the last touch; unique per slot.
    tick: u64,
    table: Vec<u64>,
}

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct L2Cache {
    slots: HashMap<usize, Slot>,
    clock: u64,
    /// Maximum cached tables (`None` = unbounded).
    limit: Option<usize>,
}

/// The default table limit for `cluster_size`-byte clusters.
pub(crate) fn default_limit(cluster_size: u64) -> usize {
    ((DEFAULT_L2_CACHE_BYTES / cluster_size) as usize).max(MIN_L2_CACHE_TABLES)
}

impl L2Cache {
    /// An empty cache with the default limit for `geom`.
    pub(crate) fn new(geom: &Geometry) -> Self {
        Self {
            slots: HashMap::new(),
            clock: 0,
            limit: Some(default_limit(geom.cluster_size())),
        }
    }

    /// A cache with the default limit for `geom`, holding `tables` in
    /// order, oldest first, up to the limit. Tables past the limit are
    /// dropped, not evicted: nothing is displaced.
    pub(crate) fn with_tables(geom: &Geometry, tables: Vec<(usize, Vec<u64>)>) -> Self {
        let mut cache = Self::new(geom);
        for (l1_idx, table) in tables.into_iter().take(default_limit(geom.cluster_size())) {
            cache.insert(l1_idx, table);
        }
        cache
    }

    pub(crate) fn limit(&self) -> Option<usize> {
        self.limit
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Change the limit (at least one table stays cacheable) and evict down
    /// to it. Returns the number of tables evicted.
    pub(crate) fn set_limit(&mut self, limit: Option<usize>) -> u64 {
        self.limit = limit.map(|l| l.max(1));
        self.evict_to_limit()
    }

    /// The table for `l1_idx`, marked most recently used.
    pub(crate) fn get(&mut self, l1_idx: usize) -> Option<&[u64]> {
        let slot = self.slots.get_mut(&l1_idx)?;
        self.clock += 1;
        slot.tick = self.clock;
        Some(&slot.table)
    }

    /// The table for `l1_idx` for a write-through entry update; recency is
    /// not touched.
    pub(crate) fn peek_mut(&mut self, l1_idx: usize) -> Option<&mut [u64]> {
        self.slots.get_mut(&l1_idx).map(|s| s.table.as_mut_slice())
    }

    /// Cache `table` for `l1_idx` as most recently used, evicting the least
    /// recently used tables beyond the limit. Returns the number evicted.
    pub(crate) fn insert(&mut self, l1_idx: usize, table: Vec<u64>) -> u64 {
        self.clock += 1;
        let tick = self.clock;
        self.slots.insert(l1_idx, Slot { tick, table });
        self.evict_to_limit()
    }

    fn evict_to_limit(&mut self) -> u64 {
        let Some(limit) = self.limit else {
            return 0;
        };
        let mut evicted = 0;
        while self.slots.len() > limit {
            let Some(victim) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(&k, _)| k)
            else {
                break;
            };
            self.slots.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_touched_first() {
        let mut c = L2Cache::new(&Geometry::new(16, 1 << 30).unwrap());
        assert_eq!(c.set_limit(Some(2)), 0);
        assert_eq!(c.insert(0, vec![10]), 0);
        assert_eq!(c.insert(1, vec![11]), 0);
        // A `get` refreshes table 0; `peek_mut` on table 1 does not.
        assert_eq!(c.get(0), Some(&[10][..]));
        c.peek_mut(1).unwrap()[0] = 12;
        assert_eq!(c.peek_mut(1).as_deref(), Some(&[12][..]));
        assert_eq!(c.insert(2, vec![13]), 1);
        assert!(c.peek_mut(1).is_none(), "the untouched table is the victim");
        assert!(c.peek_mut(0).is_some() && c.peek_mut(2).is_some());
        // Shrinking evicts down to the new limit, oldest first.
        assert_eq!(c.set_limit(Some(0)), 1, "limit floors at one table");
        assert_eq!((c.len(), c.limit()), (1, Some(1)));
        assert!(c.peek_mut(2).is_some());
    }
}
