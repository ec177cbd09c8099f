//! Elastic web service: the paper's public-IaaS scenario with a
//! cache-aware scheduler (§3.4) and Algorithm 1 cache placement (§6).
//!
//! A day of load: a web service repeatedly scales out and back in on a
//! 16-node cluster shared with other tenants' VMIs. We run the same
//! request sequence through a cache-*oblivious* striping scheduler and the
//! cache-*aware* one, tracking which placements hit a warm cache and the
//! LRU churn of each node's cache pool.
//!
//! Run with: `cargo run --release -p vmcache-examples --bin elastic_webservice`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmi_cluster::{
    choose_chain, ChainPlan, NodeState, Policy, Scheduler, StorageCacheLocation, StorageCacheState,
};
use vmi_obs::Obs;

const NODES: usize = 16;
const NODE_CACHE_SPACE: u64 = 400; // MB of cache space per node

// The VMI catalog: the web service's two images and two other tenants'.
const FRONTEND: usize = 0;
const BACKEND: usize = 1;
const BATCH: usize = 2;
const CI: usize = 3;
/// Cache image size in MB, indexed by VMI.
const CACHE_MB: [u64; 4] = [94, 101, 207, 40];

/// One simulated day of VM placements; returns (warm hits, total placements,
/// evictions).
fn simulate(cache_aware: bool, seed: u64) -> (usize, usize, usize) {
    let sched = Scheduler::new(Policy::Striping, cache_aware);
    let obs = Obs::disabled();
    let mut nodes: Vec<NodeState> = (0..NODES)
        .map(|i| NodeState::new(i, 4, NODE_CACHE_SPACE))
        .collect();
    let mut storage = StorageCacheState::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = 0u64;
    let (mut hits, mut total, mut evictions) = (0usize, 0usize, 0usize);

    // Interleave: frontend scale-outs (bursts of 2-6 VMs), backend pairs,
    // and other tenants' VMs booting at random.
    for _hour in 0..24 {
        let mut requests: Vec<usize> = Vec::new();
        requests.resize(rng.gen_range(2..6), FRONTEND);
        requests.push(BACKEND);
        for _ in 0..rng.gen_range(1..4) {
            requests.push(if rng.gen_bool(0.5) { BATCH } else { CI });
        }
        for vmi in requests {
            clock += 1;
            total += 1;
            let Some(decision) = sched.place(&mut nodes, vmi, clock, &obs) else {
                continue; // cluster full this instant; request dropped
            };
            if decision.cache_hit {
                hits += 1;
            } else {
                // Algorithm 1 decides how the new chain is built and whether
                // a fresh cache must be admitted into the node pool.
                let node = nodes.iter_mut().find(|n| n.id == decision.node).unwrap();
                let plan = choose_chain(&mut node.caches, &storage, vmi, clock);
                match plan {
                    ChainPlan::UseLocalCache => hits += 1,
                    ChainPlan::ChainToStorageCache { .. } | ChainPlan::CreateLocalCache { .. } => {
                        let (size, id) = (CACHE_MB[vmi], node.id as u64);
                        let mut evicted = Vec::new();
                        let _ = node
                            .caches
                            .admit(vmi, size, clock, clock, &obs, id, &mut evicted);
                        evictions += evicted.len();
                        if matches!(
                            plan,
                            ChainPlan::CreateLocalCache {
                                transfer_to_storage_on_shutdown: true
                            }
                        ) {
                            storage.set(vmi, StorageCacheLocation::Memory);
                        }
                    }
                }
            }
            // VMs terminate after a while; keep load bounded.
            if clock % 3 == 0 {
                Scheduler::release(&mut nodes, rng.gen_range(0..NODES));
            }
        }
    }
    (hits, total, evictions)
}

fn main() {
    println!("elastic web service on a {NODES}-node cloud, 24 simulated hours\n");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>11}",
        "scheduler", "placements", "warm hits", "hit rate", "evictions"
    );
    let mut rates = Vec::new();
    for (label, aware) in [("striping", false), ("cache-aware", true)] {
        let (hits, total, evictions) = simulate(aware, 7);
        let rate = hits as f64 / total as f64;
        rates.push(rate);
        println!(
            "{label:<18} {total:>10} {hits:>12} {:>9.0}% {evictions:>11}",
            rate * 100.0
        );
    }
    println!(
        "\ncache-aware placement lifts the warm-cache hit rate by {:.0} points —",
        (rates[1] - rates[0]) * 100.0
    );
    println!("every hit boots at single-VM speed instead of pulling the image again.");
    assert!(rates[1] > rates[0], "cache awareness must help");
}
