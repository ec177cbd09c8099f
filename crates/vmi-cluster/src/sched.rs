//! Cache-aware cloud scheduling (§3.4).
//!
//! The paper lists OpenNebula's scheduler goals — *packing*, *striping*,
//! *load-aware mapping* — and argues a cache-aware scheduler "should be
//! allocation of VMs to nodes with an existing warm cache. This heuristic
//! can be used in conjunction with any of the above desired strategies."
//!
//! [`Scheduler::place`] implements exactly that: the base policy ranks
//! candidate nodes; the cache-aware overlay first narrows the candidates to
//! nodes holding a warm cache for the requested VMI whenever any such node
//! has capacity.

use vmi_obs::{Event, Obs};

use crate::cachepool::{CachePool, Stamp};

/// Base placement strategy (the OpenNebula options of §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Minimize the number of nodes in use: prefer the most-loaded node
    /// with free capacity.
    Packing,
    /// Spread VMs: prefer the least-loaded node.
    Striping,
    /// Prefer the node with the lowest load metric (a separately reported
    /// utilization, e.g. CPU), not just VM count.
    LoadAware,
}

/// Scheduler's view of one compute node.
#[derive(Debug)]
pub struct NodeState {
    /// Stable node identifier.
    pub id: usize,
    /// VMs currently running.
    pub running_vms: usize,
    /// Maximum VMs the node can host.
    pub capacity: usize,
    /// Reported load in [0, 1] (only consulted by [`Policy::LoadAware`]).
    pub load: f64,
    /// Whether the node is alive. Failed nodes take no placements and
    /// their caches are unreachable until the node is restored.
    pub up: bool,
    /// The node's local VMI-cache pool.
    pub caches: CachePool,
}

impl NodeState {
    /// A node with `capacity` VM slots and `cache_bytes` of cache space.
    pub fn new(id: usize, capacity: usize, cache_bytes: u64) -> Self {
        Self {
            id,
            running_vms: 0,
            capacity,
            load: 0.0,
            up: true,
            caches: CachePool::new(cache_bytes),
        }
    }

    /// Whether another VM fits (a down node never has room).
    pub fn has_room(&self) -> bool {
        self.up && self.running_vms < self.capacity
    }

    /// Take the node down: every running VM is lost and its cache pool is
    /// emptied (node-local media are gone with the node).
    pub fn fail(&mut self) {
        self.up = false;
        self.running_vms = 0;
        self.caches.clear();
    }

    /// Bring a previously failed node back, empty.
    pub fn restore(&mut self) {
        self.up = true;
    }
}

/// The placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// Chosen node id.
    pub node: usize,
    /// Whether the chosen node holds a warm cache for the VMI.
    pub cache_hit: bool,
}

/// A cache-aware scheduler over a fleet of nodes.
#[derive(Debug)]
pub struct Scheduler {
    policy: Policy,
    /// When `true`, prefer warm-cache nodes (the §3.4 heuristic).
    cache_aware: bool,
}

impl Scheduler {
    /// Build a scheduler.
    pub fn new(policy: Policy, cache_aware: bool) -> Self {
        Self {
            policy,
            cache_aware,
        }
    }

    /// Place one VM booting from VMI index `vmi`. Updates the chosen node's
    /// VM count and cache recency. Returns `None` when no node has room.
    /// Each decision emits a [`Event::SchedPlace`]; the VMI is rendered to
    /// a name only inside the lazy event closure, so the hot path stays
    /// allocation-free.
    pub fn place(
        &self,
        nodes: &mut [NodeState],
        vmi: usize,
        now: Stamp,
        obs: &Obs,
    ) -> Option<PlacementDecision> {
        let candidates: Vec<usize> = (0..nodes.len()).filter(|&i| nodes[i].has_room()).collect();
        if candidates.is_empty() {
            return None;
        }
        // Cache-aware narrowing: "allocation of VMs to nodes with an
        // existing warm cache … in conjunction with any of the above".
        let narrowed: Vec<usize> = if self.cache_aware {
            let warm: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| nodes[i].caches.contains(vmi))
                .collect();
            if warm.is_empty() {
                candidates
            } else {
                warm
            }
        } else {
            candidates
        };
        let best = *narrowed.iter().min_by(|&&a, &&b| {
            let (ra, ia) = self.rank(&nodes[a]);
            let (rb, ib) = self.rank(&nodes[b]);
            ra.total_cmp(&rb).then(ia.cmp(&ib))
        })?;
        let node = &mut nodes[best];
        node.running_vms += 1;
        let cache_hit = node.caches.touch(vmi, now);
        let node_id = node.id;
        obs.emit(|| Event::SchedPlace {
            vmi: format!("vmi-{vmi}"),
            node: node_id as u64,
            cache_hit,
        });
        Some(PlacementDecision {
            node: node_id,
            cache_hit,
        })
    }

    /// Lower rank = preferred.
    fn rank(&self, n: &NodeState) -> (f64, usize) {
        match self.policy {
            // Packing prefers fuller nodes (but never full ones — filtered).
            Policy::Packing => (-(n.running_vms as f64), n.id),
            Policy::Striping => (n.running_vms as f64, n.id),
            Policy::LoadAware => (n.load, n.id),
        }
    }

    /// Release one VM slot on `node` (VM terminated).
    pub fn release(nodes: &mut [NodeState], node: usize) {
        if let Some(n) = nodes.iter_mut().find(|n| n.id == node) {
            n.running_vms = n.running_vms.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Vec<NodeState> {
        (0..n).map(|i| NodeState::new(i, 4, 1000)).collect()
    }

    fn place(
        s: &Scheduler,
        nodes: &mut [NodeState],
        vmi: usize,
        now: Stamp,
    ) -> Option<PlacementDecision> {
        s.place(nodes, vmi, now, &Obs::disabled())
    }

    fn warm(node: &mut NodeState, vmi: usize) {
        let id = node.id as u64;
        let admitted = node
            .caches
            .admit(vmi, 100, 0, &Obs::disabled(), id, &mut Vec::new());
        assert!(admitted.is_ok());
    }

    #[test]
    fn striping_spreads() {
        let s = Scheduler::new(Policy::Striping, false);
        let mut nodes = fleet(3);
        let picks: Vec<usize> = (0..6)
            .map(|t| place(&s, &mut nodes, 0, t).unwrap().node)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn packing_fills_one_node_first() {
        let s = Scheduler::new(Policy::Packing, false);
        let mut nodes = fleet(3);
        let picks: Vec<usize> = (0..5)
            .map(|t| place(&s, &mut nodes, 0, t).unwrap().node)
            .collect();
        assert_eq!(
            picks,
            vec![0, 0, 0, 0, 1],
            "node 0 fills to capacity 4 first"
        );
    }

    #[test]
    fn load_aware_prefers_idle() {
        let s = Scheduler::new(Policy::LoadAware, false);
        let mut nodes = fleet(2);
        nodes[0].load = 0.9;
        nodes[1].load = 0.1;
        assert_eq!(place(&s, &mut nodes, 0, 0).unwrap().node, 1);
    }

    #[test]
    fn cache_aware_overrides_base_order() {
        let s = Scheduler::new(Policy::Striping, true);
        let mut nodes = fleet(3);
        warm(&mut nodes[2], 0);
        // Striping alone would pick node 0; cache awareness narrows to node 2.
        let d = place(&s, &mut nodes, 0, 1).unwrap();
        assert_eq!(d.node, 2);
        assert!(d.cache_hit);
    }

    #[test]
    fn cache_aware_falls_back_when_no_warm_node() {
        let s = Scheduler::new(Policy::Striping, true);
        let mut nodes = fleet(2);
        let d = place(&s, &mut nodes, 5, 1).unwrap();
        assert_eq!(d.node, 0);
        assert!(!d.cache_hit);
    }

    #[test]
    fn cache_aware_ignores_full_warm_nodes() {
        let s = Scheduler::new(Policy::Striping, true);
        let mut nodes = fleet(2);
        warm(&mut nodes[1], 0);
        nodes[1].running_vms = 4; // full
        let d = place(&s, &mut nodes, 0, 1).unwrap();
        assert_eq!(d.node, 0, "full warm node cannot take the VM");
        assert!(!d.cache_hit);
    }

    #[test]
    fn returns_none_when_cluster_full() {
        let s = Scheduler::new(Policy::Packing, true);
        let mut nodes = fleet(1);
        for t in 0..4 {
            assert!(place(&s, &mut nodes, 0, t).is_some());
        }
        assert!(place(&s, &mut nodes, 0, 9).is_none());
    }

    #[test]
    fn failed_nodes_take_no_placements() {
        let s = Scheduler::new(Policy::Striping, true);
        let mut nodes = fleet(2);
        warm(&mut nodes[0], 0);
        nodes[0].fail();
        assert!(!nodes[0].has_room());
        assert!(!nodes[0].caches.contains(0), "caches die with the node");
        assert_eq!(nodes[0].caches.used(), 0, "and free their space");
        // Even as the warm node, node 0 is excluded; node 1 takes the VM.
        let d = place(&s, &mut nodes, 0, 1).unwrap();
        assert_eq!(d.node, 1);
        assert!(!d.cache_hit);
        nodes[0].restore();
        assert!(nodes[0].has_room());
        assert_eq!(nodes[0].running_vms, 0, "restored node comes back empty");
    }

    #[test]
    fn release_frees_a_slot() {
        let s = Scheduler::new(Policy::Packing, false);
        let mut nodes = fleet(1);
        for t in 0..4 {
            place(&s, &mut nodes, 0, t).unwrap();
        }
        Scheduler::release(&mut nodes, 0);
        assert!(place(&s, &mut nodes, 0, 10).is_some());
    }
}
