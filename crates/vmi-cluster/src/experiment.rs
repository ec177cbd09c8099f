//! End-to-end boot experiments: the harness every figure is generated from.
//!
//! One [`ExperimentConfig`] describes a point on a paper graph: how many
//! compute nodes boot simultaneously, from how many distinct VMIs, over
//! which network, with which deployment [`Mode`]. [`run_experiment`] builds
//! the whole simulated cluster (storage node, NFS exports, per-node image
//! chains), replays every boot on the shared timeline, and reports boot
//! times plus the storage-side traffic/disk counters the paper plots.

use std::sync::Arc;

use vmi_blockdev::{Result, SharedDev};
use vmi_obs::{MetricsSnapshot, RecorderHandle};
use vmi_qcow::QcowImage;
use vmi_remote::NfsExport;
use vmi_sim::{DiskStats, LinkStats, NetSpec};
use vmi_trace::{BootTrace, VmiProfile};

use crate::cluster::{CacheSource, Cluster};
use crate::deploy::{prepare_warm_cache, Mode, Placement, WarmCache};
use crate::runner::{Deploy, Request, Runner};
use crate::vm::{BootStats, VmOutcome};

/// Memoizes warm-cache preparation across experiment points: warming a
/// CentOS cache is an offline boot replay, and a figure sweep re-uses the
/// same `(profile, trace seed, quota, cluster)` warm cache at every x value.
pub struct WarmStore {
    map: parking_lot::Mutex<WarmMap>,
}

impl Default for WarmStore {
    fn default() -> Self {
        let map = parking_lot::Mutex::new(WarmMap::new());
        map.set_rank(parking_lot::lockrank::CLUSTER_WARM);
        Self { map }
    }
}

/// Key: (profile name, trace seed, quota, cluster_bits).
type WarmMap = std::collections::HashMap<(String, u64, u64, u32), Arc<WarmCache>>;

impl std::fmt::Debug for WarmStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WarmStore({} entries)", self.map.lock().len())
    }
}

impl WarmStore {
    /// An empty store.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Fetch or build the warm cache for `(profile, trace, quota, bits)`.
    pub fn get_or_prepare(
        &self,
        profile: &VmiProfile,
        trace: &BootTrace,
        quota: u64,
        cluster_bits: u32,
    ) -> Result<Arc<WarmCache>> {
        let key = (profile.name.clone(), trace.seed, quota, cluster_bits);
        if let Some(w) = self.map.lock().get(&key) {
            return Ok(w.clone());
        }
        let w = Arc::new(prepare_warm_cache(profile, trace, quota, cluster_bits)?);
        self.map.lock().insert(key, w.clone());
        Ok(w)
    }
}

/// One experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of compute nodes, each booting one VM simultaneously.
    pub nodes: usize,
    /// Number of distinct VMIs; node `i` boots VMI `i % vmis`.
    pub vmis: usize,
    /// Boot workload.
    pub profile: VmiProfile,
    /// Interconnect between storage and compute nodes.
    pub net: NetSpec,
    /// Deployment mode.
    pub mode: Mode,
    /// Master seed (drives the per-VMI trace seeds).
    pub seed: u64,
    /// Optional shared warm-cache memo (figure sweeps reuse warm-ups).
    pub warm_store: Option<Arc<WarmStore>>,
    /// Event recorder for this run. The default records nothing and keeps
    /// every instrumentation site a single branch; set via
    /// [`RecorderHandle::jsonl`] to capture a replayable event stream.
    pub recorder: RecorderHandle,
}

impl ExperimentConfig {
    /// A convenience constructor with the paper's defaults: CentOS profile,
    /// 1 GbE, QCOW2 baseline.
    pub fn new(nodes: usize, vmis: usize) -> Self {
        Self {
            nodes,
            vmis,
            profile: VmiProfile::centos_6_3(),
            net: NetSpec::gbe_1(),
            mode: Mode::Qcow2,
            seed: 42,
            warm_store: None,
            recorder: RecorderHandle::none(),
        }
    }
}

/// Everything measured at one experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Per-VM results (boot times include cache transfer where the paper
    /// includes it).
    pub outcomes: Vec<VmOutcome>,
    /// Aggregate boot statistics.
    pub stats: BootStats,
    /// Storage-node NIC counters — "observed traffic at the storage node"
    /// (Figs. 9/10).
    pub storage_nic: LinkStats,
    /// Storage-node disk counters (the Fig. 3 bottleneck).
    pub storage_disk: DiskStats,
    /// Storage page-cache (hits, misses).
    pub storage_page_cache: (u64, u64),
    /// Per-VM cache image file size after the boot, if a cache was used.
    pub cache_file_sizes: Vec<u64>,
    /// The run's metrics registry, present when a recorder was attached:
    /// copy-on-read hit, miss and fill bytes, space errors, degraded
    /// caches, coalesced runs and the per-op latency histogram
    /// ([`vmi_obs::met`] names them). Render with
    /// [`MetricsSnapshot::to_prometheus`].
    pub metrics: Option<MetricsSnapshot>,
}

impl ExperimentOutcome {
    /// Mean boot time in seconds (the y axis of every boot-time figure).
    pub fn mean_boot_secs(&self) -> f64 {
        self.stats.mean_secs()
    }

    /// Total bytes that crossed the storage NIC, in MB (Fig. 9/10's y axis).
    pub fn storage_traffic_mb(&self) -> f64 {
        self.storage_nic.bytes as f64 / 1e6
    }
}

/// Trace seed for VMI `v` under master seed `seed`: stable and distinct.
pub fn vmi_seed(seed: u64, v: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(v as u64 * 7919 + 1)
}

/// The offline-warmed cache of one VMI ([`Mode::WarmCache`] only): warming
/// is a boot replay shared by every node of the VMI, memoized in the
/// config's [`WarmStore`] when it has one.
fn warm_cache(cfg: &ExperimentConfig, trace: &BootTrace) -> Result<Option<Arc<WarmCache>>> {
    let Mode::WarmCache {
        quota,
        cluster_bits,
        ..
    } = cfg.mode
    else {
        return Ok(None);
    };
    Ok(Some(match &cfg.warm_store {
        Some(store) => store.get_or_prepare(&cfg.profile, trace, quota, cluster_bits)?,
        None => Arc::new(prepare_warm_cache(
            &cfg.profile,
            trace,
            quota,
            cluster_bits,
        )?),
    }))
}

/// The cache layer directly under a CoW top image, if the chain has one.
fn cache_layer(chain: &QcowImage) -> Option<&QcowImage> {
    let q = chain.backing()?.as_any()?.downcast_ref::<QcowImage>()?;
    q.is_cache().then_some(q)
}

/// Fig. 13/14 cold flow: ship creator `i`'s cache from compute memory to the
/// storage tmpfs and add the transfer to its boot time.
fn transfer_cache(cluster: &Cluster<'_>, i: usize, chain: &QcowImage, outcome: &mut VmOutcome) {
    let (world, obs) = (&cluster.world, &cluster.obs);
    let size = cache_layer(chain).map_or(0, QcowImage::file_size);
    let tsp = world.with_time(outcome.done_at, || {
        obs.span("net.transfer", || format!("node={i} bytes={size}"))
    });
    let done = world.bulk_transfer(cluster.storage.nic, outcome.done_at, size);
    world.with_time(done, || drop(tsp));
    let extra = done - outcome.done_at;
    outcome.done_at = done;
    outcome.boot_ns += extra;
    outcome.io_wait_ns += extra;
}

/// Run one experiment point. Deterministic for a given config.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<ExperimentOutcome> {
    assert!(cfg.nodes >= 1, "need at least one compute node");
    assert!(
        (1..=cfg.nodes).contains(&cfg.vmis),
        "vmis must be in 1..=nodes"
    );
    let seeds = (0..cfg.vmis).map(|v| vmi_seed(cfg.seed, v));
    let mut cluster = Cluster::new(&cfg.profile, cfg.net, &cfg.recorder, cfg.nodes, seeds);
    let warm: Vec<Option<Arc<WarmCache>>> = cluster
        .vmis
        .iter()
        .map(|vmi| warm_cache(cfg, &vmi.trace))
        .collect::<Result<_>>()?;
    // A warm cache kept in storage memory is one tmpfs export per VMI,
    // shared read-only by its nodes (Fig. 13 bottom).
    let in_storage_mem = matches!(
        cfg.mode,
        Mode::WarmCache {
            placement: Placement::StorageMem,
            ..
        }
    );
    let warm_exports: Vec<Option<Arc<NfsExport>>> = warm
        .iter()
        .map(|w| {
            let w = w.as_ref().filter(|_| in_storage_mem)?;
            Some(
                cluster
                    .storage
                    .export_on_tmpfs(w.container.clone() as SharedDev),
            )
        })
        .collect();
    // The Fig. 13 cold flow: only the *first* node per VMI (node ids
    // `0..vmis`) creates and transfers the cache; the rest proceed with
    // normal QCOW2 (§5.3.2).
    let cold_storage_mem = matches!(
        cfg.mode,
        Mode::ColdCache {
            placement: Placement::StorageMem,
            ..
        }
    );

    let requests = (0..cfg.nodes)
        .map(|node| {
            let vmi = node % cfg.vmis;
            let mode = if cold_storage_mem && node >= cfg.vmis {
                Mode::Qcow2
            } else {
                cfg.mode
            };
            let cache = match (&warm_exports[vmi], &warm[vmi]) {
                (Some(export), _) => CacheSource::Shared(export),
                (None, Some(w)) => CacheSource::Fork(&w.container),
                (None, None) => CacheSource::fresh(),
            };
            Request {
                at: 0,
                vmi,
                lifetime_ns: None,
                deploy: Deploy::Pinned { node, mode, cache },
            }
        })
        .collect();
    let mut runner = Runner::new(cluster, 1, 0);
    runner.run(requests)?;
    let (mut outcomes, chains): (Vec<VmOutcome>, Vec<Arc<QcowImage>>) = runner
        .boots()
        .filter_map(|v| Some((v.outcome?, v.chain.clone()?)))
        .unzip();
    let cluster = &runner.cluster;

    if cold_storage_mem {
        // Creators transfer in the order their boots finish.
        let mut order: Vec<usize> = (0..cfg.vmis).collect();
        order.sort_by_key(|&i| outcomes[i].done_at);
        for i in order {
            transfer_cache(cluster, i, &chains[i], &mut outcomes[i]);
        }
    }

    let (world, storage) = (&cluster.world, &cluster.storage);
    Ok(ExperimentOutcome {
        stats: BootStats::from(&outcomes),
        outcomes,
        storage_nic: world.link_stats(storage.nic),
        storage_disk: world.disk_stats(storage.disk),
        storage_page_cache: world.cache_stats(storage.page_cache),
        cache_file_sizes: chains
            .iter()
            .filter_map(|c| cache_layer(c).map(QcowImage::file_size))
            .collect(),
        metrics: cluster.obs.metrics_snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(nodes: usize, vmis: usize, mode: Mode, net: NetSpec) -> ExperimentConfig {
        ExperimentConfig {
            nodes,
            vmis,
            profile: VmiProfile::tiny_test(),
            net,
            mode,
            seed: 7,
            warm_store: None,
            recorder: RecorderHandle::none(),
        }
    }

    const QUOTA: u64 = 16 << 20;

    #[test]
    fn qcow2_single_node_runs() {
        let out = run_experiment(&tiny(1, 1, Mode::Qcow2, NetSpec::gbe_1())).unwrap();
        assert_eq!(out.outcomes.len(), 1);
        // Boot time ≈ think (100 ms) + I/O; sanity bounds.
        let secs = out.mean_boot_secs();
        assert!(secs > 0.09 && secs < 5.0, "boot {secs}s");
        assert!(out.storage_nic.bytes > 0);
    }

    #[test]
    fn warm_cache_eliminates_storage_traffic() {
        let mode = Mode::WarmCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        };
        let out = run_experiment(&tiny(2, 1, mode, NetSpec::gbe_1())).unwrap();
        assert_eq!(
            out.storage_nic.bytes, 0,
            "fully warm local caches never hit the network"
        );
        assert_eq!(out.cache_file_sizes.len(), 2);
    }

    #[test]
    fn warm_faster_than_qcow2_on_saturated_net() {
        // The tiny profile moves only ~3 MB per boot, so saturating a real
        // 1 GbE at 8 nodes is impossible; use a scaled-down pipe with the
        // same *relative* pressure as 64 × CentOS over 1 GbE.
        let slow = NetSpec {
            bw_bps: 4_000_000,
            latency_ns: 120_000,
            per_msg_ns: 15_000,
        };
        let nodes = 8;
        let q = run_experiment(&tiny(nodes, 1, Mode::Qcow2, slow)).unwrap();
        let w = run_experiment(&tiny(
            nodes,
            1,
            Mode::WarmCache {
                placement: Placement::ComputeDisk,
                quota: QUOTA,
                cluster_bits: 9,
            },
            slow,
        ))
        .unwrap();
        assert!(
            w.mean_boot_secs() < 0.5 * q.mean_boot_secs(),
            "warm {} !≪ qcow2 {}",
            w.mean_boot_secs(),
            q.mean_boot_secs()
        );
    }

    #[test]
    fn cold_cache_traffic_at_least_qcow2_with_big_clusters() {
        let q = run_experiment(&tiny(1, 1, Mode::Qcow2, NetSpec::gbe_1())).unwrap();
        let c64 = run_experiment(&tiny(
            1,
            1,
            Mode::ColdCache {
                placement: Placement::ComputeMem,
                quota: QUOTA,
                cluster_bits: 16,
            },
            NetSpec::gbe_1(),
        ))
        .unwrap();
        let c512 = run_experiment(&tiny(
            1,
            1,
            Mode::ColdCache {
                placement: Placement::ComputeMem,
                quota: QUOTA,
                cluster_bits: 9,
            },
            NetSpec::gbe_1(),
        ))
        .unwrap();
        // Fig. 9: 64 KiB cold cache amplifies traffic; 512 B does not.
        assert!(
            c64.storage_traffic_mb() > 1.2 * q.storage_traffic_mb(),
            "cold-64K {} !> qcow2 {}",
            c64.storage_traffic_mb(),
            q.storage_traffic_mb()
        );
        assert!(
            c512.storage_traffic_mb() < 1.15 * q.storage_traffic_mb(),
            "cold-512B {} too high vs qcow2 {}",
            c512.storage_traffic_mb(),
            q.storage_traffic_mb()
        );
    }

    #[test]
    fn cold_on_disk_slower_than_cold_in_mem() {
        let disk = run_experiment(&tiny(
            1,
            1,
            Mode::ColdCache {
                placement: Placement::ComputeDisk,
                quota: QUOTA,
                cluster_bits: 9,
            },
            NetSpec::gbe_1(),
        ))
        .unwrap();
        let mem = run_experiment(&tiny(
            1,
            1,
            Mode::ColdCache {
                placement: Placement::ComputeMem,
                quota: QUOTA,
                cluster_bits: 9,
            },
            NetSpec::gbe_1(),
        ))
        .unwrap();
        assert!(
            disk.mean_boot_secs() > 1.3 * mem.mean_boot_secs(),
            "sync disk writes must hurt: disk {} vs mem {}",
            disk.mean_boot_secs(),
            mem.mean_boot_secs()
        );
    }

    #[test]
    fn warm_storage_mem_avoids_storage_disk() {
        let out = run_experiment(&tiny(
            4,
            2,
            Mode::WarmCache {
                placement: Placement::StorageMem,
                quota: QUOTA,
                cluster_bits: 9,
            },
            NetSpec::ib_32g(),
        ))
        .unwrap();
        assert_eq!(
            out.storage_disk.read_ops, 0,
            "warm tmpfs caches bypass the disk"
        );
        assert!(
            out.storage_nic.bytes > 0,
            "but the data still crosses the network"
        );
    }

    #[test]
    fn cold_storage_mem_has_one_creator_per_vmi() {
        let out = run_experiment(&tiny(
            4,
            2,
            Mode::ColdCache {
                placement: Placement::StorageMem,
                quota: QUOTA,
                cluster_bits: 9,
            },
            NetSpec::ib_32g(),
        ))
        .unwrap();
        // Two creators (one per VMI) carry the cache transfer; two run plain
        // QCOW2. Cache layers exist only on creators.
        assert_eq!(out.cache_file_sizes.len(), 2);
    }

    #[test]
    fn deterministic_outcome() {
        let cfg = tiny(3, 2, Mode::Qcow2, NetSpec::gbe_1());
        let a = run_experiment(&cfg).unwrap();
        let b = run_experiment(&cfg).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.storage_nic, b.storage_nic);
    }

    #[test]
    #[should_panic(expected = "vmis must be in")]
    fn rejects_more_vmis_than_nodes() {
        let _ = run_experiment(&tiny(2, 3, Mode::Qcow2, NetSpec::gbe_1()));
    }

    #[test]
    fn one_cold_boot_costs_the_same_through_every_runner() {
        use crate::cloud::{default_pool_bytes, run_cloud, CloudConfig, VmRequest};
        use crate::mixed::{run_mixed_experiment, MixedConfig};
        use crate::sched::Policy;

        let (seed, net) = (7, NetSpec::gbe_1());
        let cold = Mode::ColdCache {
            placement: Placement::ComputeMem,
            quota: QUOTA,
            cluster_bits: 9,
        };
        let boot_ns = run_experiment(&tiny(1, 1, cold, net)).unwrap().outcomes[0].boot_ns;

        let profile = VmiProfile::tiny_test();
        let cloud = run_cloud(
            &CloudConfig {
                nodes: 1,
                slots_per_node: 1,
                node_cache_bytes: default_pool_bytes(&profile, 1),
                vmis: 1,
                profile: profile.clone(),
                net,
                quota: QUOTA,
                use_caches: true,
                cache_aware: true,
                policy: Policy::Striping,
                seed,
                node_failures: vec![],
                recorder: RecorderHandle::none(),
            },
            &[VmRequest {
                at: 0,
                vmi: 0,
                lifetime_ns: 0,
            }],
        )
        .unwrap();
        assert_eq!((cloud.placed, cloud.cold_boots), (1, 1));
        assert_eq!(cloud.mean_boot_secs, boot_ns as f64 / 1e9);

        // `mixed` takes its trace seed raw.
        let mixed = run_mixed_experiment(&MixedConfig {
            nodes: 1,
            vms: 1,
            warm_fraction: 0.0,
            cache_aware: true,
            policy: Policy::Striping,
            profile,
            net,
            quota: QUOTA,
            seed: vmi_seed(seed, 0),
        })
        .unwrap();
        assert_eq!(mixed.warm_placements, 0);
        assert_eq!((mixed.stats.min_ns, mixed.stats.max_ns), (boot_ns, boot_ns));
    }

    /// The simulated model, pinned: every mode the chain builder accepts on
    /// both interconnects, plus the hybrid chain. A change to how any
    /// simulated medium prices I/O moves a value here.
    #[test]
    fn simulated_model_is_pinned() {
        use crate::mixed::run_hybrid_boot;

        let mut modes = vec![Mode::Qcow2];
        for placement in [
            Placement::ComputeDisk,
            Placement::ComputeMem,
            Placement::StorageMem,
        ] {
            let (quota, cluster_bits) = (QUOTA, 9);
            modes.push(Mode::ColdCache {
                placement,
                quota,
                cluster_bits,
            });
            modes.push(Mode::WarmCache {
                placement,
                quota,
                cluster_bits,
            });
        }
        let store = WarmStore::new();
        let mut got = Vec::new();
        for net in [NetSpec::gbe_1(), NetSpec::ib_32g()] {
            for &mode in &modes {
                let mut cfg = tiny(4, 2, mode, net);
                cfg.warm_store = Some(store.clone());
                let out = run_experiment(&cfg).unwrap();
                let boot: u64 = out.outcomes.iter().map(|o| o.boot_ns).sum();
                let (nic, disk) = (out.storage_nic, out.storage_disk);
                got.push(format!(
                    "{} {}: boot={boot} nic=({}, {}, {}) disk=({}, {}, {}) pc={:?} sizes={:?}",
                    net.label(),
                    mode.label(),
                    nic.messages,
                    nic.bytes,
                    nic.busy_ns,
                    disk.read_ops,
                    disk.seeks,
                    disk.busy_ns,
                    out.storage_page_cache,
                    out.cache_file_sizes,
                ));
            }
            let (secs, reads) =
                run_hybrid_boot(&VmiProfile::tiny_test(), net, QUOTA, 7, &store).unwrap();
            got.push(format!(
                "{} hybrid: boot={secs:?} disk_reads={reads}",
                net.label()
            ));
        }
        let want = [
            "1GbE QCOW2: boot=2200779287 nic=(452, 12353536, 144041248) \
             disk=(125, 100, 424736250) pc=(385, 125) sizes=[]",
            "1GbE Cold cache (compute disk): boot=3965641240 nic=(452, 12353536, 144041248) \
             disk=(125, 106, 449336250) pc=(385, 125) sizes=[2402304, 2400256, 2402304, 2400256]",
            "1GbE Warm cache (compute disk): boot=517877710 nic=(0, 0, 0) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "1GbE Cold cache (compute mem): boot=2197348803 nic=(452, 12353536, 144041248) \
             disk=(125, 100, 424736250) pc=(385, 125) sizes=[2402304, 2400256, 2402304, 2400256]",
            "1GbE Warm cache (compute mem): boot=401613184 nic=(0, 0, 0) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "1GbE Cold cache (storage mem): boot=2259079267 nic=(454, 17156096, 197433025) \
             disk=(125, 100, 424736250) pc=(385, 125) sizes=[2402304, 2400256]",
            "1GbE Warm cache (storage mem): boot=874598938 nic=(470, 9633792, 114091916) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "1GbE hybrid: boot=0.138831272 disk_reads=0",
            "32GbIB QCOW2: boot=1977950840 nic=(452, 12353536, 5668480) \
             disk=(125, 102, 432936250) pc=(385, 125) sizes=[]",
            "32GbIB Cold cache (compute disk): boot=3760726186 nic=(452, 12353536, 5668480) \
             disk=(125, 108, 467536250) pc=(385, 125) sizes=[2402304, 2400256, 2402304, 2400256]",
            "32GbIB Warm cache (compute disk): boot=517877710 nic=(0, 0, 0) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "32GbIB Cold cache (compute mem): boot=1978717932 nic=(452, 12353536, 5668480) \
             disk=(125, 102, 432936250) pc=(385, 125) sizes=[2402304, 2400256, 2402304, 2400256]",
            "32GbIB Warm cache (compute mem): boot=401613184 nic=(0, 0, 0) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "32GbIB Cold cache (storage mem): boot=1980079959 nic=(454, 17156096, 7177280) \
             disk=(125, 102, 432936250) pc=(385, 125) sizes=[2402304, 2400256]",
            "32GbIB Warm cache (storage mem): boot=447902404 nic=(470, 9633792, 4890560) \
             disk=(0, 0, 0) pc=(0, 0) sizes=[2402304, 2400256, 2402304, 2400256]",
            "32GbIB hybrid: boot=0.103955277 disk_reads=0",
        ];
        assert_eq!(got, want);
    }
}
