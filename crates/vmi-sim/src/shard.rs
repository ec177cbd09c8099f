//! The deterministic event heap, content-keyed and shardable for
//! conservative parallel DES (DESIGN.md §16).
//!
//! Ties cannot be broken by insertion order: that is exactly what a
//! *parallel* simulation cannot reproduce, because worker threads create
//! events in nondeterministic real-time order. Events are therefore ordered
//! by a **content key** — [`EventKey`] is `(time, lane, tag, a, b)`, every
//! field derived from the event itself — so the schedule is a pure function
//! of the event *set*, independent of which thread (or which loop
//! iteration) created which event first. Two runs (or a serial and a
//! sharded run) that create the same events observe the same total order.
//!
//! One [`Shard`] on its own is the whole queue of a serial driver:
//! `vmi-cluster`'s byte-level boot engine keys each wake-up `(at, vm)`, so
//! simultaneous wake-ups pop by VM index.
//!
//! Lanes are the unit of state locality (`vmi-cluster` uses one lane per
//! rack). Lanes map to shards in contiguous chunks so a runner can split
//! its per-lane state with `chunks_mut` and hand each worker thread one
//! shard plus its lane slice:
//!
//! * [`ShardedEventQueue::pop_min`] drives the serial reference runner —
//!   strict global key order, one event at a time;
//! * [`ShardedEventQueue::shards_mut`] + [`Shard::drain_until`] drive the
//!   epoch runner: each worker drains its shard's events below the epoch
//!   barrier (in key order) and may push follow-up events at or beyond the
//!   barrier into its own shard while the epoch runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Ns;

/// Content-derived ordering key. Compared lexicographically:
/// `(at, lane, tag, a, b)`.
///
/// Callers must make keys unique (e.g. `a` = node, `b` = boot id or
/// `image << 32 | generation`); two events with equal keys have no defined
/// relative order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Simulated time of the event.
    pub at: Ns,
    /// State-locality lane (rack, node group, …) — decides the shard.
    pub lane: u32,
    /// Event-kind discriminant, so different kinds at one instant order
    /// deterministically.
    pub tag: u8,
    /// First content field (convention: the node involved).
    pub a: u64,
    /// Second content field (convention: boot id, or image/generation).
    pub b: u64,
}

/// Payload wrapper excluded from ordering (keys are unique by contract).
#[derive(Debug)]
struct Payload<T>(T);

impl<T> PartialEq for Payload<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for Payload<T> {}
impl<T> PartialOrd for Payload<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Payload<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// One shard: a key-ordered heap over a contiguous chunk of lanes.
#[derive(Debug)]
pub struct Shard<T> {
    heap: BinaryHeap<Reverse<(EventKey, Payload<T>)>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Shard<T> {
    /// Schedule an event on this shard.
    pub fn push(&mut self, key: EventKey, payload: T) {
        self.heap.push(Reverse((key, Payload(payload))));
    }

    /// Smallest pending key, if any.
    pub fn min_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse((k, _))| *k)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|Reverse((k, p))| (k, p.0))
    }

    /// Pop every event strictly before `barrier` into `out`, in key order.
    pub fn drain_until(&mut self, barrier: Ns, out: &mut Vec<(EventKey, T)>) {
        while self.min_key().is_some_and(|k| k.at < barrier) {
            // min_key above guarantees the pop succeeds.
            if let Some(ev) = self.pop() {
                out.push(ev);
            }
        }
    }

    /// Pending events on this shard.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when this shard has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A set of [`Shard`]s with a contiguous lane→shard map.
#[derive(Debug)]
pub struct ShardedEventQueue<T> {
    shards: Vec<Shard<T>>,
    lanes_per_shard: u32,
}

impl<T> ShardedEventQueue<T> {
    /// A queue with `shards` shards covering `lanes` lanes. Lanes are
    /// assigned to shards in contiguous chunks of `ceil(lanes / shards)`.
    pub fn new(shards: usize, lanes: usize) -> Self {
        let shards = shards.max(1);
        let lanes = lanes.max(1);
        let lanes_per_shard = lanes.div_ceil(shards) as u32;
        let used = lanes.div_ceil(lanes_per_shard as usize);
        Self {
            shards: (0..used).map(|_| Shard::default()).collect(),
            lanes_per_shard,
        }
    }

    /// Which shard owns `lane`.
    pub fn shard_of(&self, lane: u32) -> usize {
        ((lane / self.lanes_per_shard) as usize).min(self.shards.len() - 1)
    }

    /// Lanes per shard (the chunk size of the lane→shard map).
    pub fn lanes_per_shard(&self) -> usize {
        self.lanes_per_shard as usize
    }

    /// Number of shards actually in use.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Schedule an event (routed to its lane's shard).
    pub fn push(&mut self, key: EventKey, payload: T) {
        let s = self.shard_of(key.lane);
        self.shards[s].push(key, payload);
    }

    /// Earliest pending time across all shards.
    pub fn min_time(&self) -> Option<Ns> {
        self.shards
            .iter()
            .filter_map(|s| s.min_key())
            .min()
            .map(|k| k.at)
    }

    /// Pop the globally smallest-keyed event (the serial reference order).
    pub fn pop_min(&mut self) -> Option<(EventKey, T)> {
        let best = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.min_key().map(|k| (k, i)))
            .min()?;
        self.shards[best.1].pop()
    }

    /// Mutable access to the shards, for per-worker epoch draining. The
    /// index in this slice matches [`ShardedEventQueue::shard_of`].
    pub fn shards_mut(&mut self) -> &mut [Shard<T>] {
        &mut self.shards
    }

    /// Total pending events.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` when no events are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: Ns, lane: u32, b: u64) -> EventKey {
        EventKey {
            at,
            lane,
            tag: 0,
            a: 0,
            b,
        }
    }

    #[test]
    fn pop_min_is_global_key_order() {
        let mut q = ShardedEventQueue::new(4, 16);
        q.push(key(30, 9, 0), "c");
        q.push(key(10, 2, 0), "a");
        q.push(key(20, 14, 0), "b");
        q.push(key(10, 7, 0), "a2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_min(), Some((key(10, 2, 0), "a")));
        assert_eq!(q.pop_min(), Some((key(10, 7, 0), "a2")));
        assert_eq!(q.pop_min(), Some((key(20, 14, 0), "b")));
        assert_eq!(q.pop_min(), Some((key(30, 9, 0), "c")));
        assert_eq!(q.pop_min(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_orders_by_lane_then_content() {
        let mut q = ShardedEventQueue::new(2, 8);
        q.push(key(5, 3, 2), 'c');
        q.push(key(5, 3, 1), 'b');
        q.push(key(5, 1, 9), 'a');
        let mut tagged = EventKey {
            at: 5,
            lane: 1,
            tag: 1,
            a: 0,
            b: 0,
        };
        q.push(tagged, 'z');
        tagged.tag = 0;
        tagged.b = 10;
        q.push(tagged, 'y');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_min()).map(|(_, c)| c).collect();
        assert_eq!(order, vec!['a', 'y', 'z', 'b', 'c']);
    }

    #[test]
    fn lane_to_shard_map_is_contiguous_chunks() {
        let q = ShardedEventQueue::<()>::new(3, 10);
        // ceil(10/3) = 4 lanes per shard: [0..4) [4..8) [8..10)
        assert_eq!(q.num_shards(), 3);
        assert_eq!(q.lanes_per_shard(), 4);
        assert_eq!(q.shard_of(0), 0);
        assert_eq!(q.shard_of(3), 0);
        assert_eq!(q.shard_of(4), 1);
        assert_eq!(q.shard_of(9), 2);
    }

    #[test]
    fn one_shard_covers_all_lanes() {
        let mut q = ShardedEventQueue::new(1, 1000);
        q.push(key(1, 999, 0), ());
        q.push(key(2, 0, 0), ());
        assert_eq!(q.num_shards(), 1);
        let shard = &mut q.shards_mut()[0];
        assert_eq!(shard.min_key(), Some(key(1, 999, 0)));
        assert_eq!(shard.len(), 2, "peeking removes nothing");
        assert_eq!(shard.pop(), Some((key(1, 999, 0), ())));
        assert_eq!(shard.min_key(), Some(key(2, 0, 0)));
    }

    #[test]
    fn more_shards_than_lanes_collapses() {
        let q = ShardedEventQueue::<()>::new(8, 3);
        assert!(q.num_shards() <= 3);
        for lane in 0..3 {
            assert!(q.shard_of(lane) < q.num_shards());
        }
    }

    #[test]
    fn drain_until_respects_barrier_and_order() {
        let mut q = ShardedEventQueue::new(2, 4);
        // Lanes 0..2 map to shard 0, lanes 2..4 to shard 1.
        for (at, lane) in [(7u64, 0u32), (3, 2), (9, 2), (3, 0), (12, 0)] {
            q.push(key(at, lane, at), at);
        }
        let mut batch = Vec::new();
        q.shards_mut()[0].drain_until(9, &mut batch);
        let times: Vec<Ns> = batch.iter().map(|(k, _)| k.at).collect();
        assert_eq!(times, vec![3, 7], "below barrier, ascending");
        assert_eq!(q.shards_mut()[0].len(), 1, "the t=12 event stays");
    }

    #[test]
    fn sharded_drain_merge_equals_serial_pop_order() {
        // The epoch loop's invariant in miniature: drain every shard below
        // a barrier, merge-sort the batches by key, and the result is the
        // exact pop_min prefix.
        let events: Vec<(Ns, u32, u64)> = (0..200)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
                (h % 50, (h >> 8) as u32 % 13, i as u64)
            })
            .collect();
        let mut serial = ShardedEventQueue::new(1, 13);
        let mut sharded = ShardedEventQueue::new(4, 13);
        for &(at, lane, b) in &events {
            serial.push(key(at, lane, b), b);
            sharded.push(key(at, lane, b), b);
        }
        let barrier = 25;
        let mut merged = Vec::new();
        for s in sharded.shards_mut() {
            s.drain_until(barrier, &mut merged);
        }
        merged.sort_unstable_by_key(|&(k, _)| k);
        let mut reference = Vec::new();
        while serial.min_time().is_some_and(|t| t < barrier) {
            if let Some(ev) = serial.pop_min() {
                reference.push(ev);
            }
        }
        assert!(!reference.is_empty());
        assert_eq!(merged, reference);
    }
}
