//! Property tests for the simulation substrate: conservation laws and
//! ordering invariants that every resource model must uphold.

use proptest::prelude::*;
use vmi_sim::{CacheOutcome, Disk, DiskSpec, EventKey, Link, NetSpec, PageCache, Shard};

fn arb_disk_spec() -> impl Strategy<Value = DiskSpec> {
    (
        1_000_000u64..1_000_000_000,
        0u64..20_000_000,
        0u64..10_000_000,
        0u64..(1 << 30),
        0u64..(1 << 21),
    )
        .prop_map(|(bw, seek, short, window, adj)| DiskSpec {
            seq_bw_bps: bw,
            seek_ns: seek.max(short),
            short_seek_ns: short,
            short_seek_window: window,
            per_op_ns: 50_000,
            adjacency_window: adj,
        })
}

proptest! {
    /// Disk completions never go backwards and never precede submission;
    /// busy time is conserved.
    #[test]
    fn disk_completions_monotone(
        spec in arb_disk_spec(),
        ops in proptest::collection::vec((0u64..(1 << 34), 512u64..(1 << 20), any::<bool>()), 1..100),
    ) {
        let mut d = Disk::new(spec);
        let mut last_done = 0u64;
        let mut now = 0u64;
        for &(off, bytes, w) in &ops {
            let done = d.access(now, off, bytes, w);
            prop_assert!(done >= now, "completion before submission");
            prop_assert!(done >= last_done, "FIFO order violated");
            last_done = done;
            now += 1000; // arrivals move forward
        }
        let s = d.stats();
        prop_assert_eq!(s.read_ops + s.write_ops, ops.len() as u64);
        prop_assert!(s.busy_ns <= last_done, "busy time cannot exceed makespan");
    }

    /// Link: the pipe is conserved — total occupancy equals busy time and
    /// deliveries are FIFO.
    #[test]
    fn link_fifo_and_conservation(
        bw in 1_000_000u64..1_000_000_000,
        sizes in proptest::collection::vec(1u64..(1 << 22), 1..100),
    ) {
        let mut l = Link::new(NetSpec { bw_bps: bw, latency_ns: 10_000, per_msg_ns: 500 });
        let mut last = 0;
        for (i, &s) in sizes.iter().enumerate() {
            let done = l.transfer(i as u64, s);
            prop_assert!(done >= last);
            last = done;
        }
        let st = l.stats();
        prop_assert_eq!(st.messages, sizes.len() as u64);
        prop_assert_eq!(st.bytes, sizes.iter().sum::<u64>());
    }

    /// Event queue: output is time-sorted and ties pop by content key,
    /// whatever the push order (pushed here in reverse id order).
    #[test]
    fn event_queue_sorted_stable(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = Shard::default();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(EventKey { at: t, lane: 0, tag: 0, a: i as u64, b: 0 }, i);
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((key, id)) = q.pop() {
            let t = key.at;
            if let Some((pt, pid)) = prev {
                prop_assert!(t > pt || (t == pt && id > pid), "unstable: {pt},{pid} then {t},{id}");
            }
            prev = Some((t, id));
        }
    }

    /// Page cache: capacity is respected and a hit
    /// is always preceded by an insert of the same key.
    #[test]
    fn page_cache_capacity_and_hits(
        keys in proptest::collection::vec((0u64..4, 0u64..64), 1..400),
        cap_pages in 1u64..32,
    ) {
        let mut pc = PageCache::new(cap_pages * 4096, 4096);
        let mut inserted = std::collections::HashSet::new();
        for (i, &(f, p)) in keys.iter().enumerate() {
            match pc.probe((f, p)) {
                CacheOutcome::Hit { .. } => {
                    prop_assert!(inserted.contains(&(f, p)), "hit without insert");
                }
                CacheOutcome::Miss => {
                    pc.insert((f, p), i as u64);
                    inserted.insert((f, p));
                }
            }
            prop_assert!(pc.resident_pages() as u64 <= cap_pages, "capacity exceeded");
        }
    }

    /// Determinism: replaying the same access sequence gives the identical
    /// timeline.
    #[test]
    fn disk_replay_is_deterministic(
        spec in arb_disk_spec(),
        ops in proptest::collection::vec((0u64..(1 << 30), 512u64..(1 << 18)), 1..60),
    ) {
        let run = || {
            let mut d = Disk::new(spec);
            ops.iter().map(|&(off, b)| d.access(0, off, b, false)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
