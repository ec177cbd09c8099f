//! Cache pools with quota and LRU eviction.
//!
//! §3.4: "One of the other tasks of a cache-aware scheduler should be the
//! eviction of VMI caches whenever the allocated cache space is full for a
//! new VMI cache. This can be a policy such as LRU at the node or cloud
//! level." A [`CachePool`] tracks the cache images stored on one medium
//! (a compute node's cache partition, a rack or zone cache tier, or the
//! storage node's memory) and evicts least-recently-used entries to admit
//! new ones.
//!
//! It is the crate's only LRU: the byte-level runners, the scheduler and
//! the scale engine's node caches and cache tiers all use it. A pool holds a
//! handful of images, so entries sit in a `Vec` and every lookup is a linear
//! scan. Keys are VMI indices, rendered to `vmi-{k}` names only inside the
//! lazily evaluated observability closures.
//!
//! Every caller admits a cache once its bytes have landed, so an entry in a
//! pool is usable: the pool keeps no notion of a fill still in flight.

use vmi_obs::{Event, Obs};

/// Logical clock for recency (supplied by the caller; any monotone counter
/// or simulated time works).
pub type Stamp = u64;

/// One stored cache image.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// VMI index the cache belongs to.
    vmi: usize,
    /// Size of the cache image file in bytes.
    size: u64,
    /// Last time this cache was used to boot a VM.
    last_used: Stamp,
}

/// A bounded pool of cache images keyed by VMI index.
#[derive(Debug, Clone)]
pub struct CachePool {
    capacity: u64,
    used: u64,
    entries: Vec<CacheEntry>,
}

impl CachePool {
    /// A pool holding at most `capacity` bytes of cache images.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            entries: Vec::new(),
        }
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    #[inline]
    fn find(&self, vmi: usize) -> Option<usize> {
        self.entries.iter().position(|e| e.vmi == vmi)
    }

    /// Whether a cache for `vmi` is present.
    #[inline]
    pub fn contains(&self, vmi: usize) -> bool {
        self.find(vmi).is_some()
    }

    /// Mark a cache as used now (a VM booted from it). Returns `false` if
    /// the pool holds no such cache.
    #[inline]
    pub fn touch(&mut self, vmi: usize, now: Stamp) -> bool {
        let Some(e) = self.entries.iter_mut().find(|e| e.vmi == vmi) else {
            return false;
        };
        e.last_used = now;
        true
    }

    /// Admit a cache of `size` bytes for `vmi` at `now`, evicting LRU
    /// entries as needed (the least `(last_used, vmi)` goes first). This
    /// is the pool's only eviction: every victim is pushed onto `evicted`
    /// and emits an [`Event::CacheEvict`] tagged with the owning `node`;
    /// the caller counts them. Returns `Err(())` if `size` exceeds
    /// capacity outright (nothing is changed in that case).
    ///
    /// Victims go to a caller's buffer so that a simulator admitting a
    /// million caches can reuse one instead of allocating per eviction.
    #[allow(clippy::result_unit_err)]
    pub fn admit(
        &mut self,
        vmi: usize,
        size: u64,
        now: Stamp,
        obs: &Obs,
        node: u64,
        evicted: &mut Vec<usize>,
    ) -> Result<(), ()> {
        if size > self.capacity {
            return Err(());
        }
        // Replacing an existing entry frees its space first.
        if let Some(i) = self.find(vmi) {
            self.used -= self.entries.swap_remove(i).size;
        }
        while self.used + size > self.capacity {
            let Some(victim) = (0..self.entries.len())
                .min_by_key(|&i| (self.entries[i].last_used, self.entries[i].vmi))
            else {
                // used > 0 with no entries would mean the accounting broke;
                // refuse the admit rather than loop forever.
                return Err(());
            };
            let e = self.entries.swap_remove(victim);
            self.used -= e.size;
            obs.emit(|| Event::CacheEvict {
                node,
                vmi: format!("vmi-{}", e.vmi),
                bytes: e.size,
            });
            evicted.push(e.vmi);
        }
        self.used += size;
        self.entries.push(CacheEntry {
            vmi,
            size,
            last_used: now,
        });
        Ok(())
    }

    /// Drop every cache silently (the medium is gone with its node).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(p: &mut CachePool, vmi: usize, size: u64, now: Stamp) -> Result<Vec<usize>, ()> {
        let mut evicted = Vec::new();
        p.admit(vmi, size, now, &Obs::disabled(), 0, &mut evicted)?;
        Ok(evicted)
    }

    #[test]
    fn admit_within_capacity() {
        let mut p = CachePool::new(300);
        assert_eq!(admit(&mut p, 0, 100, 1), Ok(vec![]));
        assert_eq!(admit(&mut p, 1, 100, 2), Ok(vec![]));
        assert_eq!(p.used(), 200);
        assert!(p.contains(0));
    }

    #[test]
    fn lru_eviction_on_pressure() {
        let mut p = CachePool::new(250);
        admit(&mut p, 0, 100, 1).unwrap();
        admit(&mut p, 1, 100, 2).unwrap();
        p.touch(0, 3); // 1 is now LRU
        let evicted = admit(&mut p, 2, 100, 4).unwrap();
        assert_eq!(evicted, vec![1]);
        assert!(p.contains(0) && p.contains(2) && !p.contains(1));
    }

    #[test]
    fn oversized_admit_rejected_without_change() {
        let mut p = CachePool::new(100);
        admit(&mut p, 0, 60, 1).unwrap();
        assert!(admit(&mut p, 9, 150, 2).is_err());
        assert!(p.contains(0));
        assert_eq!(p.used(), 60);
    }

    #[test]
    fn replacing_entry_frees_old_space() {
        let mut p = CachePool::new(200);
        admit(&mut p, 0, 150, 1).unwrap();
        // Re-admit with a different size: no eviction of others needed.
        admit(&mut p, 0, 180, 2).unwrap();
        assert_eq!(p.used(), 180);
    }

    #[test]
    fn multiple_evictions_for_one_admit() {
        let mut p = CachePool::new(400);
        admit(&mut p, 0, 100, 1).unwrap();
        admit(&mut p, 1, 100, 2).unwrap();
        admit(&mut p, 2, 100, 3).unwrap();
        let evicted = admit(&mut p, 3, 250, 4).unwrap();
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(p.used(), 100 + 250); // 2 + 3
        assert!(p.contains(2) && p.contains(3));
    }

    #[test]
    fn recency_listing() {
        // Victims leave in recency order, least recent first; equal stamps
        // fall back to the VMI index.
        let mut p = CachePool::new(40);
        admit(&mut p, 0, 10, 5).unwrap();
        admit(&mut p, 1, 10, 9).unwrap();
        admit(&mut p, 2, 10, 7).unwrap();
        admit(&mut p, 3, 10, 7).unwrap();
        assert_eq!(admit(&mut p, 4, 40, 10).unwrap(), vec![0, 2, 3, 1]);
        // A touch moves an entry to the back of the line: 0 was the least
        // recent until it was touched, so 1 goes instead.
        let mut p = CachePool::new(200);
        admit(&mut p, 0, 100, 1).unwrap();
        admit(&mut p, 1, 100, 2).unwrap();
        assert!(p.touch(0, 5));
        assert_eq!(admit(&mut p, 2, 100, 6).unwrap(), vec![1]);
    }

    #[test]
    fn touch_missing_returns_false() {
        let mut p = CachePool::new(10);
        assert!(!p.touch(7, 1));
    }

    #[test]
    fn lru_pressure_emits_one_evict_event_per_victim() {
        use std::sync::Arc;
        use vmi_obs::{ManualClock, RecorderHandle};
        let (rec, sink) = RecorderHandle::jsonl();
        let obs = rec.attach(Arc::new(ManualClock::new(0)));
        let mut p = CachePool::new(100);
        let mut evicted = Vec::new();
        p.admit(0, 80, 1, &obs, 3, &mut evicted).unwrap();
        p.admit(1, 80, 2, &obs, 3, &mut evicted).unwrap();
        assert_eq!(evicted, vec![0]);
        let lines = sink.lines();
        let evicts: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"cache_evict\""))
            .collect();
        assert_eq!(evicts.len(), evicted.len(), "{lines:?}");
        assert!(
            evicts[0].contains("\"node\":3") && evicts[0].contains("\"bytes\":80"),
            "{lines:?}"
        );
    }

    #[test]
    fn integer_keys_render_canonical_names() {
        use std::sync::Arc;
        use vmi_obs::{ManualClock, RecorderHandle};
        let (rec, sink) = RecorderHandle::jsonl();
        let obs = rec.attach(Arc::new(ManualClock::new(0)));
        let mut p = CachePool::new(200);
        let mut evicted = Vec::new();
        p.admit(7, 150, 1, &obs, 0, &mut evicted).unwrap();
        assert!(p.contains(7));
        p.admit(9, 100, 2, &obs, 0, &mut evicted).unwrap();
        assert_eq!(evicted, vec![7]);
        assert!(
            sink.lines().iter().any(|l| l.contains("\"vmi\":\"vmi-7\"")),
            "integer keys must render as vmi-N in events"
        );
    }
}
