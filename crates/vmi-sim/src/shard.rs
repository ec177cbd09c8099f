//! The deterministic event heap, content-keyed (DESIGN.md §16).
//!
//! Ties are not broken by insertion order. Events are ordered by a
//! **content key** — [`EventKey`] is `(time, lane, tag, a, b)`, every field
//! derived from the event itself — so the schedule is a pure function of
//! the event *set*, independent of which handler (or which loop iteration)
//! created which event first.
//!
//! One [`Shard`] is the whole queue of a serial driver. `vmi-cluster`'s
//! byte-level boot engine keys each wake-up `(at, vm)`, so simultaneous
//! wake-ups pop by VM index; its scale engine keys each event by rack lane,
//! kind, and node plus boot or image generation.

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
    /// State-locality lane (rack, node group, …); orders simultaneous
    /// events before `tag` does.
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

/// A key-ordered event heap.
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
    /// Schedule an event.
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

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let mut q = Shard::default();
        q.push(key(30, 9, 0), "c");
        q.push(key(10, 2, 0), "a");
        q.push(key(20, 14, 0), "b");
        q.push(key(10, 7, 0), "a2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((key(10, 2, 0), "a")));
        assert_eq!(q.pop(), Some((key(10, 7, 0), "a2")));
        assert_eq!(q.pop(), Some((key(20, 14, 0), "b")));
        assert_eq!(q.pop(), Some((key(30, 9, 0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_orders_by_lane_then_content() {
        let mut q = Shard::default();
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
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, c)| c).collect();
        assert_eq!(order, vec!['a', 'y', 'z', 'b', 'c']);
    }

    #[test]
    fn one_shard_covers_all_lanes() {
        let mut q = Shard::default();
        q.push(key(1, 999, 0), ());
        q.push(key(2, 0, 0), ());
        assert_eq!(q.min_key(), Some(key(1, 999, 0)));
        assert_eq!(q.len(), 2, "peeking removes nothing");
        assert_eq!(q.pop(), Some((key(1, 999, 0), ())));
        assert_eq!(q.min_key(), Some(key(2, 0, 0)));
    }
}
