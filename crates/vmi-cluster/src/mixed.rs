//! Beyond-the-paper experiments the paper sketches but does not measure:
//!
//! * **Mixed warm/cold fleets** (§5.3.1: "we do not expect that all the
//!   nodes start from a cold or a warm cache … A cache-aware scheduler
//!   should always prefer the nodes with a warm cache") — a fleet where
//!   only some nodes hold a warm cache, scheduled either cache-obliviously
//!   or cache-aware, measuring the boot-time distribution.
//! * **Hybrid two-level chains** (§6, Algorithm 1's middle branch): a node
//!   with no local cache chains a *new local cache* to a warm cache in the
//!   storage node's memory — the deployment the paper recommends when both
//!   bottlenecks threaten.

use std::sync::Arc;

use vmi_blockdev::{BlockError, Result};
use vmi_obs::RecorderHandle;
use vmi_sim::NetSpec;
use vmi_trace::VmiProfile;

use crate::cluster::Cluster;
use crate::deploy::prepare_warm_cache;
use crate::experiment::WarmStore;
use crate::runner::{Deploy, Request, Runner};
use crate::sched::{Policy, Scheduler};
use crate::vm::{BootStats, VmOutcome};

/// Configuration of a mixed warm/cold scheduling experiment.
#[derive(Debug, Clone)]
pub struct MixedConfig {
    /// Compute nodes (each can host one VM in this experiment).
    pub nodes: usize,
    /// VMs to place (≤ nodes). Partial occupancy is where cache-aware
    /// scheduling matters: an oblivious policy may land VMs on cold nodes
    /// while warm ones sit idle.
    pub vms: usize,
    /// Fraction of nodes that hold a warm cache for the VMI (0.0–1.0).
    pub warm_fraction: f64,
    /// Whether the scheduler prefers warm-cache nodes (§3.4 heuristic).
    pub cache_aware: bool,
    /// Base placement policy.
    pub policy: Policy,
    /// Boot workload.
    pub profile: VmiProfile,
    /// Interconnect.
    pub net: NetSpec,
    /// Cache quota.
    pub quota: u64,
    /// Master seed.
    pub seed: u64,
}

/// Outcome of a mixed experiment.
#[derive(Debug, Clone)]
pub struct MixedOutcome {
    /// Per-VM boot stats.
    pub stats: BootStats,
    /// How many VMs landed on a node with a warm cache.
    pub warm_placements: usize,
    /// Total VMs placed.
    pub total_placements: usize,
}

/// Run a mixed warm/cold fleet: `vms` VMs arrive at once and are scheduled
/// onto `nodes` single-slot nodes, a `warm_fraction` of which hold a warm
/// cache for the (single) VMI. Cache-aware scheduling fills warm nodes
/// first; oblivious scheduling spreads by the base policy and hits warm
/// nodes only by luck.
pub fn run_mixed_experiment(cfg: &MixedConfig) -> Result<MixedOutcome> {
    assert!((0.0..=1.0).contains(&cfg.warm_fraction));
    assert!(
        cfg.vms >= 1 && cfg.vms <= cfg.nodes,
        "vms must be in 1..=nodes"
    );
    let recorder = RecorderHandle::none();
    let cluster = Cluster::new(&cfg.profile, cfg.net, &recorder, cfg.nodes, [cfg.seed]);
    let warm = prepare_warm_cache(&cfg.profile, &cluster.vmis[0].trace, cfg.quota, 9)?;
    let mut runner = Runner::new(cluster, 1, 1 << 30);
    runner.sched = Scheduler::new(cfg.policy, cfg.cache_aware);
    runner.quota = Some(cfg.quota);
    // Warm caches sit on the *last* k nodes, so oblivious striping (which
    // fills low ids first) genuinely misses them. The experiment boots one
    // VMI: index 0 of the cluster's catalog.
    let warm_count = (cfg.nodes as f64 * cfg.warm_fraction).round() as usize;
    for node in cfg.nodes - warm_count..cfg.nodes {
        if !runner.adopt(node, 0, warm.container.clone(), 0) {
            return Err(BlockError::unsupported(
                "warm cache larger than a node's cache capacity",
            ));
        }
    }
    let requests = (0..cfg.vms)
        .map(|_| Request {
            at: 0,
            vmi: 0,
            lifetime_ns: None,
            deploy: Deploy::Scheduled,
        })
        .collect();
    runner.run(requests)?;
    let outcomes: Vec<VmOutcome> = runner.boots().filter_map(|v| v.outcome).collect();
    Ok(MixedOutcome {
        stats: BootStats::from(&outcomes),
        warm_placements: runner.report.warm_boots,
        total_placements: runner.report.placed,
    })
}

/// Boot-time comparison of the hybrid chain against plain QCOW2 on the same
/// cluster; returns (hybrid boot secs, hybrid storage-disk reads).
pub fn run_hybrid_boot(
    profile: &VmiProfile,
    net: NetSpec,
    quota: u64,
    seed: u64,
    store: &Arc<WarmStore>,
) -> Result<(f64, u64)> {
    let recorder = RecorderHandle::none();
    let cluster = Cluster::new(profile, net, &recorder, 1, [seed]);
    let warm = store.get_or_prepare(profile, &cluster.vmis[0].trace, quota, 9)?;
    let mut runner = Runner::new(cluster, 1, 0);
    runner.run(vec![Request {
        at: 0,
        vmi: 0,
        lifetime_ns: None,
        deploy: Deploy::Hybrid {
            node: 0,
            storage_cache: &warm,
            quota,
        },
    }])?;
    let boot_ns: u64 = runner
        .boots()
        .filter_map(|v| Some(v.outcome?.boot_ns))
        .sum();
    let cluster = &runner.cluster;
    Ok((
        boot_ns as f64 / 1e9,
        cluster.world.disk_stats(cluster.storage.disk).read_ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(warm_fraction: f64, cache_aware: bool) -> MixedConfig {
        MixedConfig {
            nodes: 8,
            vms: 8,
            warm_fraction,
            cache_aware,
            policy: Policy::Striping,
            profile: VmiProfile::tiny_test(),
            net: NetSpec::gbe_1(),
            quota: 16 << 20,
            seed: 5,
        }
    }

    #[test]
    fn cache_aware_scheduler_finds_every_warm_node() {
        let out = run_mixed_experiment(&cfg(0.5, true)).unwrap();
        assert_eq!(out.warm_placements, 4, "all four warm nodes must be used");
    }

    #[test]
    fn oblivious_scheduler_misses_warm_nodes_at_partial_occupancy() {
        // Warm caches sit on the high-id nodes; striping fills low ids
        // first, so with 4 VMs on 8 half-warm nodes the oblivious policy
        // lands every VM cold while the aware one lands every VM warm.
        let mut oblivious = cfg(0.5, false);
        oblivious.vms = 4;
        let mut aware = cfg(0.5, true);
        aware.vms = 4;
        let o = run_mixed_experiment(&oblivious).unwrap();
        let a = run_mixed_experiment(&aware).unwrap();
        assert_eq!(o.warm_placements, 0);
        assert_eq!(a.warm_placements, 4);
        assert!(a.stats.mean_ns < o.stats.mean_ns);
    }

    #[test]
    fn warm_fraction_lifts_mean_boot_time() {
        let cold = run_mixed_experiment(&cfg(0.0, true)).unwrap();
        let half = run_mixed_experiment(&cfg(0.5, true)).unwrap();
        let full = run_mixed_experiment(&cfg(1.0, true)).unwrap();
        assert!(full.stats.mean_ns < half.stats.mean_ns);
        assert!(half.stats.mean_ns < cold.stats.mean_ns);
        assert_eq!(full.warm_placements, 8);
        assert_eq!(cold.warm_placements, 0);
    }

    #[test]
    fn hybrid_chain_serves_without_storage_disk() {
        let store = WarmStore::new();
        let (secs, disk_reads) = run_hybrid_boot(
            &VmiProfile::tiny_test(),
            NetSpec::ib_32g(),
            16 << 20,
            5,
            &store,
        )
        .unwrap();
        assert_eq!(
            disk_reads, 0,
            "hybrid chain must never touch the storage disk"
        );
        assert!(secs > 0.05 && secs < 5.0, "boot {secs}s");
    }

    #[test]
    fn hybrid_local_cache_warms_for_the_next_boot() {
        // After a hybrid boot, the local cache holds the working set: a
        // second boot over it reads ~nothing remotely.
        let profile = VmiProfile::tiny_test();
        let recorder = RecorderHandle::none();
        let mut cluster = Cluster::new(&profile, NetSpec::ib_32g(), &recorder, 1, [5]);
        let trace = cluster.vmis[0].trace.clone();
        let warm = prepare_warm_cache(&profile, &trace, 16 << 20, 9).unwrap();
        let (chain, _) = cluster.deploy_hybrid(0, 0, &warm, 16 << 20, 0).unwrap();
        let (world, storage) = (&cluster.world, &cluster.storage);
        crate::deploy::replay_unpriced(chain.as_ref(), &trace).unwrap();
        let nic_after_first = world.link_stats(storage.nic).bytes;
        assert!(nic_after_first > 0);
        // Second replay through the same chain (local cache now warm).
        crate::deploy::replay_unpriced(chain.as_ref(), &trace).unwrap();
        let nic_after_second = world.link_stats(storage.nic).bytes;
        assert!(
            nic_after_second - nic_after_first < nic_after_first / 20,
            "second boot must be served by the local cache: {} then {}",
            nic_after_first,
            nic_after_second - nic_after_first
        );
    }
}
