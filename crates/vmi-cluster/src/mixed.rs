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

use vmi_blockdev::{BlockError, Result, SharedDev, SparseDev};
use vmi_obs::{Obs, RecorderHandle};
use vmi_qcow::{CreateOpts, QcowImage};
use vmi_sim::NetSpec;
use vmi_trace::VmiProfile;

use crate::cluster::{CacheSource, Cluster};
use crate::deploy::{prepare_warm_cache, Mode, Placement, WarmCache};
use crate::experiment::WarmStore;
use crate::sched::{NodeState, Policy, Scheduler};
use crate::vm::{BootStats, VmRun};

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

/// Run a mixed warm/cold fleet: `nodes` VMs are scheduled onto `nodes`
/// single-slot nodes, a `warm_fraction` of which hold a warm cache for the
/// (single) VMI. Cache-aware scheduling fills warm nodes first; oblivious
/// scheduling spreads by the base policy and hits warm nodes only by luck.
pub fn run_mixed_experiment(cfg: &MixedConfig) -> Result<MixedOutcome> {
    assert!((0.0..=1.0).contains(&cfg.warm_fraction));
    assert!(
        cfg.vms >= 1 && cfg.vms <= cfg.nodes,
        "vms must be in 1..=nodes"
    );
    let recorder = RecorderHandle::none();
    let mut cluster = Cluster::new(&cfg.profile, cfg.net, &recorder, cfg.nodes, [cfg.seed]);
    let warm = prepare_warm_cache(&cfg.profile, &cluster.vmis[0].trace, cfg.quota, 9)?;

    // Scheduler's fleet view: single VM slot per node; warm caches sit on
    // the *last* k nodes so oblivious striping (which fills low ids first)
    // genuinely misses them.
    let warm_count = (cfg.nodes as f64 * cfg.warm_fraction).round() as usize;
    let mut fleet: Vec<NodeState> = (0..cfg.nodes)
        .map(|i| NodeState::new(i, 1, 1 << 30))
        .collect();
    let obs = Obs::disabled();
    // The experiment boots one VMI: index 0 of the cluster's catalog.
    for node in fleet.iter_mut().rev().take(warm_count) {
        let id = node.id as u64;
        if node
            .caches
            .admit(0, warm.file_size, 0, 0, &obs, id, &mut Vec::new())
            .is_err()
        {
            return Err(BlockError::unsupported(
                "warm cache larger than a node's cache capacity",
            ));
        }
    }
    let sched = Scheduler::new(cfg.policy, cfg.cache_aware);

    // Place one VM per request; build each VM's chain according to whether
    // its node is warm.
    let mut vms = Vec::with_capacity(cfg.vms);
    let mut warm_placements = 0;
    for t in 0..cfg.vms {
        let Some(decision) = sched.place(&mut fleet, 0, t as u64, &obs) else {
            return Err(BlockError::unsupported(
                "fleet has no capacity for the next request",
            ));
        };
        let (mode, cache) = if decision.cache_hit {
            warm_placements += 1;
            (
                Mode::WarmCache {
                    placement: Placement::ComputeDisk,
                    quota: cfg.quota,
                    cluster_bits: 9,
                },
                CacheSource::fork_of(&warm.container),
            )
        } else {
            (
                Mode::ColdCache {
                    placement: Placement::ComputeMem,
                    quota: cfg.quota,
                    cluster_bits: 9,
                },
                CacheSource::fresh(),
            )
        };
        vms.push(cluster.deploy(decision.node, 0, mode, cache, 0)?.1);
    }

    let outcomes = cluster.run(vms)?;
    Ok(MixedOutcome {
        stats: BootStats::from(&outcomes),
        warm_placements,
        total_placements: cfg.vms,
    })
}

/// Deploy the §6 hybrid chain on node 0 of `cluster`: a *new local cache*
/// chained to `storage_cache` living in the storage node's memory, chained
/// to the base — Algorithm 1's `ChainToStorageCache` branch.
///
/// The local cache starts cold and warms from the remote cache (never from
/// the storage disk).
fn deploy_hybrid(
    cluster: &mut Cluster<'_>,
    storage_cache: &WarmCache,
    local_quota: u64,
) -> Result<(Arc<QcowImage>, VmRun)> {
    // The warm cache is exported from tmpfs; each node mounts it.
    let cache_export = cluster
        .storage
        .export_on_tmpfs(storage_cache.container.clone() as SharedDev);
    let remote_cache_dev = cluster.mount(&cache_export);
    let base_dev = cluster.mount(&cluster.vmis[0].base);
    let vsize = cluster.profile.virtual_size;
    let node = &mut cluster.nodes[0];
    let local_cache_dev = node.mem_file(Arc::new(SparseDev::new()));
    let cow_dev = node.disk_file(Arc::new(SparseDev::new()), false);
    cluster.boot(0, 0, 0, || {
        // Open the remote warm cache read-only (shared).
        let remote_cache = QcowImage::open(remote_cache_dev, Some(base_dev), true)?;
        // Local cache chained to the remote cache (Algorithm 1: "Create
        // NewCache_base on C; Chain NewCache_base to Cache_base").
        let local_cache = QcowImage::create(
            local_cache_dev,
            CreateOpts::cache(vsize, "storage-cache", local_quota),
            Some(remote_cache as SharedDev),
        )?;
        // CoW on the node's disk over the local cache.
        QcowImage::create(
            cow_dev,
            CreateOpts::cow(vsize, "local-cache"),
            Some(local_cache as SharedDev),
        )
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
    let mut cluster = Cluster::new(profile, net, &recorder, 1, [seed]);
    let warm = store.get_or_prepare(profile, &cluster.vmis[0].trace, quota, 9)?;
    let (_, run) = deploy_hybrid(&mut cluster, &warm, quota)?;
    let outcomes = cluster.run(vec![run])?;
    Ok((
        outcomes[0].boot_ns as f64 / 1e9,
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
        let (chain, _) = deploy_hybrid(&mut cluster, &warm, 16 << 20).unwrap();
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
