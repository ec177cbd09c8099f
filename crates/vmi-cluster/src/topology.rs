//! Cache-distribution topologies beyond the paper's two-tier split
//! (DESIGN.md §16).
//!
//! The paper evaluates exactly two cache locations: the compute node's
//! local disk and the storage node's memory. At O(10k) nodes the
//! interesting design space is *hierarchical* (Saurabh et al., PAPERS.md):
//! intermediate cache tiers at the rack and zone level absorb fill traffic
//! before it reaches central storage, and compute-to-compute **peer fetch**
//! lets a cold node fill from a warm neighbour across the top-of-rack
//! switch instead of the storage uplink.
//!
//! A [`Topology`] describes the tree: `nodes` compute nodes grouped into
//! racks of `nodes_per_rack`, racks grouped into zones of `racks_per_zone`,
//! with a [`NetSpec`] per tier link and optional cache capacity at the rack
//! and zone tiers. The paper's flat baseline is [`Topology::flat`]: one
//! rack, one zone, passthrough internal links, storage as the only shared
//! resource.

use vmi_sim::NetSpec;

/// A hierarchical cache-distribution topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Label used in reports and bench artifacts.
    pub name: &'static str,
    /// Compute nodes in the fleet.
    pub nodes: usize,
    /// Nodes per rack (the unit of simulation locality: peer fetch and the
    /// rack cache tier never cross a rack boundary).
    pub nodes_per_rack: usize,
    /// Racks per zone.
    pub racks_per_zone: usize,
    /// Node ↔ top-of-rack link (one per rack, shared by its nodes; also
    /// carries peer-to-peer traffic).
    pub rack_link: NetSpec,
    /// Rack ↔ zone aggregation link (one per zone, shared by its racks).
    pub zone_link: NetSpec,
    /// Zone ↔ central storage link (one, shared by everything).
    pub storage_link: NetSpec,
    /// Cache capacity of each rack tier cache (0 disables the tier).
    pub rack_cache_bytes: u64,
    /// Cache capacity of each zone tier cache (0 disables the tier).
    pub zone_cache_bytes: u64,
    /// Allow a cold node to fill from a warm peer in the same rack.
    pub peer_fetch: bool,
}

impl Topology {
    /// The paper's flat two-tier baseline at `nodes` scale: every fill goes
    /// to central storage over one shared link; no intermediate caches, no
    /// peers. Internal hops are passthrough so the same fill path models
    /// both shapes.
    pub fn flat(nodes: usize) -> Self {
        Self {
            name: "flat",
            nodes,
            nodes_per_rack: 32,
            racks_per_zone: 16,
            rack_link: NetSpec::passthrough(),
            zone_link: NetSpec::passthrough(),
            storage_link: NetSpec::ib_32g(),
            rack_cache_bytes: 0,
            zone_cache_bytes: 0,
            peer_fetch: false,
        }
    }

    /// Hierarchical tiers: real rack/zone links with rack- and zone-level
    /// caches sized to `rack_cache` / `zone_cache` bytes.
    pub fn tiered(nodes: usize, rack_cache: u64, zone_cache: u64) -> Self {
        Self {
            name: "tiered",
            nodes,
            nodes_per_rack: 32,
            racks_per_zone: 16,
            rack_link: NetSpec::tor_25g(),
            zone_link: NetSpec::agg_100g(),
            storage_link: NetSpec::ib_32g(),
            rack_cache_bytes: rack_cache,
            zone_cache_bytes: zone_cache,
            peer_fetch: false,
        }
    }

    /// [`Topology::tiered`] plus compute-to-compute peer fetch.
    pub fn tiered_p2p(nodes: usize, rack_cache: u64, zone_cache: u64) -> Self {
        Self {
            name: "tiered+p2p",
            peer_fetch: true,
            ..Self::tiered(nodes, rack_cache, zone_cache)
        }
    }

    /// Override the per-rack fan-out (rebalances rack count).
    pub fn with_fanout(mut self, nodes_per_rack: usize, racks_per_zone: usize) -> Self {
        self.nodes_per_rack = nodes_per_rack.max(1);
        self.racks_per_zone = racks_per_zone.max(1);
        self
    }

    /// Number of racks (the last may be partial).
    pub fn racks(&self) -> usize {
        self.nodes.div_ceil(self.nodes_per_rack)
    }

    /// Number of zones (the last may be partial).
    pub fn zones(&self) -> usize {
        self.racks().div_ceil(self.racks_per_zone)
    }

    /// Rack of global node id `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.nodes_per_rack
    }

    /// Zone of rack id `rack`.
    pub fn zone_of(&self, rack: usize) -> usize {
        rack / self.racks_per_zone
    }

    /// First global node id of `rack`, and how many nodes it holds.
    pub fn rack_span(&self, rack: usize) -> (usize, usize) {
        let start = rack * self.nodes_per_rack;
        let count = self.nodes_per_rack.min(self.nodes - start);
        (start, count)
    }

    /// Panic on configurations outside the model: a link with zero latency,
    /// or an empty fleet (no events).
    pub fn validate(&self) {
        assert!(self.nodes >= 1, "topology needs at least one node");
        assert!(self.nodes_per_rack >= 1 && self.racks_per_zone >= 1);
        let links = [self.rack_link, self.zone_link, self.storage_link];
        assert!(
            links.iter().all(|l| l.latency_ns > 0),
            "every link latency must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_arithmetic() {
        let t = Topology::tiered(1000, 1 << 30, 4 << 30);
        assert_eq!(t.racks(), 32, "ceil(1000/32)");
        assert_eq!(t.zones(), 2, "ceil(32/16)");
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(999), 31);
        assert_eq!(t.zone_of(15), 0);
        assert_eq!(t.zone_of(16), 1);
        let (start, count) = t.rack_span(31);
        assert_eq!(start, 992);
        assert_eq!(count, 8, "last rack is partial");
        t.validate();
    }

    #[test]
    fn flat_is_single_shared_storage_with_no_tiers() {
        let t = Topology::flat(64);
        assert_eq!(t.rack_cache_bytes, 0);
        assert_eq!(t.zone_cache_bytes, 0);
        assert!(!t.peer_fetch);
        // Passthrough hops cost ~nothing but keep a positive latency.
        t.validate();
    }

    #[test]
    fn p2p_extends_tiered() {
        let a = Topology::tiered(128, 1, 1);
        let b = Topology::tiered_p2p(128, 1, 1);
        assert!(!a.peer_fetch && b.peer_fetch);
        assert_eq!(a.rack_link, b.rack_link);
        assert_eq!(b.name, "tiered+p2p");
    }

    #[test]
    fn fanout_override() {
        let t = Topology::flat(100).with_fanout(10, 5);
        assert_eq!(t.racks(), 10);
        assert_eq!(t.zones(), 2);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_rejected() {
        let mut t = Topology::flat(4);
        t.storage_link.latency_ns = 0;
        t.rack_link.latency_ns = 0;
        t.zone_link.latency_ns = 0;
        t.validate();
    }
}
