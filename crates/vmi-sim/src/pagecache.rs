//! Node page cache: LRU over `(file, page)` with readiness times.
//!
//! This models the OS page cache on the storage node's 24 GB of RAM — the
//! reason single-VMI boots scale flat on InfiniBand (Fig. 2): the first
//! requester pulls each block off the disk, every later requester hits
//! memory. Each compute node has one too, in front of its local disk.
//! Files on `tmpfs` (VMI caches in storage memory, §3.3 and Fig. 13) never
//! pass through a page cache: they are priced as plain memory copies.
//!
//! Each cached page carries a `ready_at` time: a hit on a page that is
//! still being faulted in waits for the in-flight disk read.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::time::Ns;

/// Cache lookup outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Page present; data available at `ready_at` (≤ now for settled pages).
    Hit {
        /// When the page's content is available.
        ready_at: Ns,
    },
    /// Page absent; caller must fetch from disk and then [`PageCache::insert`].
    Miss,
}

/// Key: (file identifier, page index within file).
pub type PageKey = (u64, u64);

#[derive(Debug, Clone)]
struct Entry {
    ready_at: Ns,
    tick: u64,
}

/// A multiply-rotate hash for page keys (`rustc-hash`'s scheme). Nothing
/// observes the map's iteration order, so a fast unkeyed hash changes no
/// outcome. The final rotate moves the well-mixed high bits down to where
/// the table takes its bucket index.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.wrapping_add(x).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type KeyMap<V> = HashMap<PageKey, V, BuildHasherDefault<KeyHasher>>;

/// Where the pages live.
#[derive(Debug, Clone)]
enum Pages {
    /// Never evicts, so keeps no recency: each page's ready time alone.
    Unbounded(KeyMap<Ns>),
    /// Evicts the least recently used page beyond `capacity` pages.
    Bounded {
        capacity: usize,
        map: KeyMap<Entry>,
        /// LRU order: tick → key (ticks are unique).
        order: BTreeMap<u64, PageKey>,
        next_tick: u64,
    },
}

/// An LRU page cache with byte capacity.
#[derive(Debug, Clone)]
pub struct PageCache {
    pages: Pages,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// A cache of `capacity_bytes` with pages of `page_size` bytes; a
    /// capacity of `u64::MAX` is unbounded.
    pub fn new(capacity_bytes: u64, page_size: u64) -> Self {
        assert!(page_size.is_power_of_two());
        let pages = if capacity_bytes == u64::MAX {
            Pages::Unbounded(KeyMap::default())
        } else {
            Pages::Bounded {
                capacity: (capacity_bytes / page_size) as usize,
                map: KeyMap::default(),
                order: BTreeMap::new(),
                next_tick: 0,
            }
        };
        Self {
            pages,
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the cache, updating recency on hit.
    pub fn probe(&mut self, key: PageKey) -> CacheOutcome {
        let ready_at = match &mut self.pages {
            Pages::Unbounded(map) => map.get(&key).copied(),
            Pages::Bounded {
                map,
                order,
                next_tick,
                ..
            } => map.get_mut(&key).map(|e| {
                *next_tick += 1;
                order.remove(&e.tick);
                order.insert(*next_tick, key);
                e.tick = *next_tick;
                e.ready_at
            }),
        };
        match ready_at {
            Some(ready_at) => {
                self.hits += 1;
                CacheOutcome::Hit { ready_at }
            }
            None => {
                self.misses += 1;
                CacheOutcome::Miss
            }
        }
    }

    /// Non-mutating presence check: no recency update, no hit/miss stats.
    /// Used by prefetchers deciding what still needs fetching.
    pub fn contains(&self, key: PageKey) -> bool {
        match &self.pages {
            Pages::Unbounded(map) => map.contains_key(&key),
            Pages::Bounded { map, .. } => map.contains_key(&key),
        }
    }

    /// Insert a page whose content becomes available at `ready_at`
    /// (the disk fetch's completion time), evicting LRU pages as needed.
    pub fn insert(&mut self, key: PageKey, ready_at: Ns) {
        match &mut self.pages {
            Pages::Unbounded(map) => {
                map.insert(key, ready_at);
            }
            Pages::Bounded {
                capacity,
                map,
                order,
                next_tick,
            } => {
                *next_tick += 1;
                let tick = *next_tick;
                if let Some(old) = map.insert(key, Entry { ready_at, tick }) {
                    order.remove(&old.tick);
                }
                order.insert(tick, key);
                while map.len() > *capacity {
                    let Some((_, k)) = order.pop_first() else {
                        break;
                    };
                    map.remove(&k);
                }
            }
        }
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        match &self.pages {
            Pages::Unbounded(map) => map.len(),
            Pages::Bounded { map, .. } => map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(cap_pages: u64) -> PageCache {
        PageCache::new(cap_pages * 4096, 4096)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = pc(16);
        assert_eq!(c.probe((1, 0)), CacheOutcome::Miss);
        c.insert((1, 0), 500);
        assert_eq!(c.probe((1, 0)), CacheOutcome::Hit { ready_at: 500 });
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = pc(2);
        c.insert((1, 0), 0);
        c.insert((1, 1), 0);
        // Touch page 0 so page 1 is LRU.
        c.probe((1, 0));
        c.insert((1, 2), 0); // evicts (1,1)
        assert_eq!(c.probe((1, 1)), CacheOutcome::Miss);
        assert!(matches!(c.probe((1, 0)), CacheOutcome::Hit { .. }));
        assert!(matches!(c.probe((1, 2)), CacheOutcome::Hit { .. }));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = PageCache::new(u64::MAX, 4096);
        for page in 0..1000 {
            c.insert((1, page), page);
        }
        assert_eq!(c.resident_pages(), 1000);
        assert_eq!(c.probe((1, 0)), CacheOutcome::Hit { ready_at: 0 });
        assert_eq!(c.probe((1, 999)), CacheOutcome::Hit { ready_at: 999 });
        assert!(
            matches!(c.pages, Pages::Unbounded(_)),
            "no LRU order to keep"
        );
    }

    #[test]
    fn reinsert_updates_ready_time() {
        let mut c = pc(4);
        c.insert((1, 0), 100);
        c.insert((1, 0), 900);
        assert_eq!(c.probe((1, 0)), CacheOutcome::Hit { ready_at: 900 });
        assert_eq!(c.resident_pages(), 1);
    }
}
