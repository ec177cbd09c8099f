//! Network link model: a shared bandwidth pipe with propagation latency.
//!
//! The storage node's NIC is the shared resource behind Fig. 2's linear
//! slowdown on 1 GbE: once aggregate demand exceeds link capacity, transfer
//! completion times grow with the number of concurrent booters. The pipe
//! serves messages one at a time in arrival order (FIFO): each message
//! occupies it for its per-message cost plus its bytes at link bandwidth,
//! so work is conserved exactly. Latency is propagation only and does not
//! occupy the pipe.

use serde::{Deserialize, Serialize};

use crate::time::{transfer_ns, Ns};

/// Link performance parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Usable bandwidth in bytes/second (after protocol overhead).
    pub bw_bps: u64,
    /// One-way propagation + stack latency per message.
    pub latency_ns: Ns,
    /// Fixed per-message processing cost that *does* occupy the pipe
    /// (interrupts, RPC handling at the server).
    pub per_msg_ns: Ns,
}

impl NetSpec {
    /// Commodity 1 Gb/s Ethernet: ~90 MB/s effective for NFS-style traffic
    /// (protocol + small-RPC overhead), ~120 µs RPC latency.
    pub fn gbe_1() -> Self {
        Self {
            bw_bps: 90_000_000,
            latency_ns: 120_000,
            per_msg_ns: 15_000,
        }
    }

    /// QDR 4× InfiniBand (32 Gb/s signalling): ~3.2 GB/s effective over
    /// IPoIB, ~25 µs latency.
    pub fn ib_32g() -> Self {
        Self {
            bw_bps: 3_200_000_000,
            latency_ns: 25_000,
            per_msg_ns: 4_000,
        }
    }

    /// A top-of-rack switch port as seen by one rack's compute nodes:
    /// 25 GbE-class, ~3 GB/s effective, short intra-rack latency. Used for
    /// the rack tier and compute-to-compute peer fetch of the hierarchical
    /// topologies (DESIGN.md §16).
    pub fn tor_25g() -> Self {
        Self {
            bw_bps: 3_000_000_000,
            latency_ns: 5_000,
            per_msg_ns: 1_000,
        }
    }

    /// A zone aggregation uplink: 100 GbE-class shared by a zone's racks,
    /// ~12 GB/s effective.
    pub fn agg_100g() -> Self {
        Self {
            bw_bps: 12_000_000_000,
            latency_ns: 10_000,
            per_msg_ns: 2_000,
        }
    }

    /// An effectively unconstrained hop (used to flatten tiers out of a
    /// topology without special-casing the fill path): huge bandwidth,
    /// minimal — but nonzero — latency, as `vmi-cluster`'s topologies
    /// require of every link.
    pub fn passthrough() -> Self {
        Self {
            bw_bps: u64::MAX / 4,
            latency_ns: 1_000,
            per_msg_ns: 0,
        }
    }

    /// Human-readable label used in figure output.
    pub fn label(&self) -> &'static str {
        if self.bw_bps >= 1_000_000_000 {
            "32GbIB"
        } else {
            "1GbE"
        }
    }
}

/// Transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages carried.
    pub messages: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Time the pipe was occupied.
    pub busy_ns: Ns,
    /// Messages submitted at a `now` earlier than that of a message the
    /// pipe already took: the FIFO served them in submission order, not
    /// arrival order.
    pub late: u64,
    /// Total of those messages' lag behind the latest earlier submission.
    pub late_ns: Ns,
}

/// A shared FIFO link.
#[derive(Debug, Clone)]
pub struct Link {
    spec: NetSpec,
    next_free: Ns,
    /// Latest submission time so far.
    latest: Ns,
    stats: LinkStats,
}

impl Link {
    /// A new idle link.
    pub fn new(spec: NetSpec) -> Self {
        Self {
            spec,
            next_free: 0,
            latest: 0,
            stats: LinkStats::default(),
        }
    }

    /// Submit a `bytes`-sized message at `now`; returns its delivery time.
    pub fn transfer(&mut self, now: Ns, bytes: u64) -> Ns {
        let service = self.spec.per_msg_ns + transfer_ns(bytes, self.spec.bw_bps);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        if now < self.latest {
            self.stats.late += 1;
            self.stats.late_ns += self.latest - now;
        }
        self.latest = self.latest.max(now);
        let start = self.next_free.max(now);
        self.next_free = start + service;
        self.stats.busy_ns += service;
        // Delivery = pipe exit + propagation.
        self.next_free + self.spec.latency_ns
    }

    /// Counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// The spec this link was built with.
    pub fn spec(&self) -> NetSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SEC;

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let mut l = Link::new(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
        });
        let done = l.transfer(0, 100_000_000);
        assert_eq!(done, SEC);
    }

    #[test]
    fn latency_added_after_pipe_exit() {
        let mut l = Link::new(NetSpec {
            bw_bps: 1_000_000_000,
            latency_ns: 100_000,
            per_msg_ns: 0,
        });
        let done = l.transfer(0, 1000);
        assert_eq!(done, 1_000 + 100_000);
    }

    #[test]
    fn fifo_contention_serializes_pipe_occupancy() {
        let mut l = Link::new(NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 50_000,
            per_msg_ns: 0,
        });
        let a = l.transfer(0, 50_000_000); // 0.5 s pipe
        let b = l.transfer(0, 50_000_000);
        assert_eq!(a, SEC / 2 + 50_000);
        assert_eq!(
            b,
            SEC + 50_000,
            "second message waits for the pipe, latency once"
        );
    }

    #[test]
    fn late_submissions_are_counted_with_their_lag() {
        let mut l = Link::new(NetSpec::gbe_1());
        l.transfer(100, 1000);
        l.transfer(100, 1000);
        l.transfer(40, 1000);
        l.transfer(200, 1000);
        l.transfer(150, 1000);
        let s = l.stats();
        assert_eq!((s.late, s.late_ns), (2, 60 + 50));
    }

    #[test]
    fn presets_sane() {
        assert_eq!(NetSpec::gbe_1().label(), "1GbE");
        assert_eq!(NetSpec::ib_32g().label(), "32GbIB");
        assert!(NetSpec::ib_32g().bw_bps > 20 * NetSpec::gbe_1().bw_bps);
    }

    #[test]
    fn stats_accumulate() {
        let mut l = Link::new(NetSpec::gbe_1());
        l.transfer(0, 1000);
        l.transfer(0, 2000);
        assert_eq!(l.stats().messages, 2);
        assert_eq!(l.stats().bytes, 3000);
    }
}
