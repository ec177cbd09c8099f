//! Network link model: a shared bandwidth pipe with propagation latency.
//!
//! The storage node's NIC is the shared resource behind Fig. 2's linear
//! slowdown on 1 GbE: once aggregate demand exceeds link capacity, transfer
//! completion times grow with the number of concurrent booters. Latency is
//! propagation only and does not occupy the pipe.
//!
//! Two queueing disciplines are provided. [`LinkDiscipline::Fifo`] (the
//! default) serializes messages in arrival order — exact conservation, mild
//! unfairness at message granularity. [`LinkDiscipline::FairShare`]
//! approximates processor sharing: a message's service time is stretched by
//! the number of transfers in flight at its arrival. The model-sensitivity
//! ablation (`abl-discipline`) shows the paper's conclusions hold under
//! either assumption.

use serde::{Deserialize, Serialize};

use crate::time::{transfer_ns, Ns};

/// Queueing discipline of a shared link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LinkDiscipline {
    /// Messages occupy the pipe one at a time, in arrival order.
    #[default]
    Fifo,
    /// Approximate processor sharing: concurrent transfers stretch each
    /// other proportionally to the in-flight count.
    FairShare,
}

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
    /// Queueing discipline.
    pub discipline: LinkDiscipline,
}

impl NetSpec {
    /// The same link under the other discipline (model-sensitivity runs).
    pub fn with_discipline(mut self, discipline: LinkDiscipline) -> Self {
        self.discipline = discipline;
        self
    }
}

impl NetSpec {
    /// Commodity 1 Gb/s Ethernet: ~90 MB/s effective for NFS-style traffic
    /// (protocol + small-RPC overhead), ~120 µs RPC latency.
    pub fn gbe_1() -> Self {
        Self {
            bw_bps: 90_000_000,
            latency_ns: 120_000,
            per_msg_ns: 15_000,
            discipline: LinkDiscipline::Fifo,
        }
    }

    /// QDR 4× InfiniBand (32 Gb/s signalling): ~3.2 GB/s effective over
    /// IPoIB, ~25 µs latency.
    pub fn ib_32g() -> Self {
        Self {
            bw_bps: 3_200_000_000,
            latency_ns: 25_000,
            per_msg_ns: 4_000,
            discipline: LinkDiscipline::Fifo,
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
            discipline: LinkDiscipline::Fifo,
        }
    }

    /// A zone aggregation uplink: 100 GbE-class shared by a zone's racks,
    /// ~12 GB/s effective.
    pub fn agg_100g() -> Self {
        Self {
            bw_bps: 12_000_000_000,
            latency_ns: 10_000,
            per_msg_ns: 2_000,
            discipline: LinkDiscipline::Fifo,
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
            discipline: LinkDiscipline::Fifo,
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
}

/// A shared link.
#[derive(Debug, Clone)]
pub struct Link {
    spec: NetSpec,
    next_free: Ns,
    /// Completion times of in-flight transfers (FairShare only).
    in_flight: Vec<Ns>,
    stats: LinkStats,
}

impl Link {
    /// A new idle link.
    pub fn new(spec: NetSpec) -> Self {
        Self {
            spec,
            next_free: 0,
            in_flight: Vec::new(),
            stats: LinkStats::default(),
        }
    }

    /// Submit a `bytes`-sized message at `now`; returns its delivery time.
    pub fn transfer(&mut self, now: Ns, bytes: u64) -> Ns {
        let service = self.spec.per_msg_ns + transfer_ns(bytes, self.spec.bw_bps);
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        match self.spec.discipline {
            LinkDiscipline::Fifo => {
                let start = self.next_free.max(now);
                self.next_free = start + service;
                self.stats.busy_ns += service;
                // Delivery = pipe exit + propagation.
                self.next_free + self.spec.latency_ns
            }
            LinkDiscipline::FairShare => {
                // Approximate processor sharing: service stretches by the
                // number of transfers still in flight at arrival.
                self.in_flight.retain(|&done| done > now);
                let k = (self.in_flight.len() + 1) as u64;
                let stretched = service * k;
                let done = now + stretched;
                self.in_flight.push(done);
                self.stats.busy_ns += service;
                done + self.spec.latency_ns
            }
        }
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
            discipline: Default::default(),
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
            discipline: Default::default(),
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
            discipline: Default::default(),
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
    fn presets_sane() {
        assert_eq!(NetSpec::gbe_1().label(), "1GbE");
        assert_eq!(NetSpec::ib_32g().label(), "32GbIB");
        assert!(NetSpec::ib_32g().bw_bps > 20 * NetSpec::gbe_1().bw_bps);
    }

    #[test]
    fn fair_share_stretches_under_concurrency() {
        let spec = NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
            discipline: LinkDiscipline::FairShare,
        };
        let mut l = Link::new(spec);
        // A lone transfer runs at full speed.
        let solo = l.transfer(0, 10_000_000); // 0.1 s
        assert_eq!(solo, 100_000_000);
        // Two overlapping transfers each take ~2× as long.
        let mut l = Link::new(spec);
        let a = l.transfer(0, 10_000_000);
        let b = l.transfer(0, 10_000_000);
        assert_eq!(a, 100_000_000, "first arrival sees an empty pipe");
        assert_eq!(b, 200_000_000, "second arrival shares with the first");
    }

    #[test]
    fn fair_share_recovers_when_idle() {
        let spec = NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
            discipline: LinkDiscipline::FairShare,
        };
        let mut l = Link::new(spec);
        l.transfer(0, 10_000_000); // done at 0.1 s
                                   // A transfer arriving after the first completes is unstretched.
        let t = l.transfer(200_000_000, 10_000_000);
        assert_eq!(t, 300_000_000);
    }

    #[test]
    fn disciplines_agree_on_aggregate_throughput() {
        // Saturating either pipe with the same demand drains in comparable
        // total time — the paper's orderings don't hinge on the discipline.
        let mk = |d| NetSpec {
            bw_bps: 100_000_000,
            latency_ns: 0,
            per_msg_ns: 0,
            discipline: d,
        };
        let mut fifo = Link::new(mk(LinkDiscipline::Fifo));
        let mut fair = Link::new(mk(LinkDiscipline::FairShare));
        let mut last_fifo = 0;
        let mut last_fair = 0;
        for _ in 0..64 {
            last_fifo = last_fifo.max(fifo.transfer(0, 10_000_000));
            last_fair = last_fair.max(fair.transfer(0, 10_000_000));
        }
        let ratio = last_fair as f64 / last_fifo as f64;
        assert!((0.5..2.0).contains(&ratio), "makespans comparable: {ratio}");
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
