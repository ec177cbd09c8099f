//! End-to-end boot experiments: the harness every figure is generated from.
//!
//! One [`ExperimentConfig`] describes a point on a paper graph: how many
//! compute nodes boot simultaneously, from how many distinct VMIs, over
//! which network, with which deployment [`Mode`]. [`run_experiment`] builds
//! the whole simulated cluster (storage node, NFS exports, per-node image
//! chains), replays every boot on the shared timeline, and reports boot
//! times plus the storage-side traffic/disk counters the paper plots.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, Result, SharedDev, SparseDev};
use vmi_obs::{MetricsSnapshot, Obs, RecorderHandle};
use vmi_qcow::QcowImage;
use vmi_remote::{MountOpts, NfsExport, NfsMount};
use vmi_sim::{DiskStats, LinkStats, NetSpec, SimWorld};
use vmi_trace::{BootTrace, VmiProfile};

use crate::deploy::{build_chain, prepare_warm_cache, ChainSpec, Mode, Placement, WarmCache};
use crate::node::{ComputeNode, StorageNode};
use crate::telemetry::Telemetry;
use crate::vm::{run_boots_with_obs, BootStats, VmOutcome, VmRun};

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
    /// Cache-layer and latency telemetry (per-cache hit ratios always;
    /// latency percentiles when a recorder was attached).
    pub telemetry: Telemetry,
    /// Full metrics-registry snapshot, present when a recorder was attached
    /// (the parallel runner merges per-node registries: counters and
    /// histogram buckets summed, gauges taken at their max). Render with
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

/// Per-VMI inputs shared by every node that boots the VMI.
struct VmiInputs {
    trace: Arc<BootTrace>,
    /// Offline-warmed cache ([`Mode::WarmCache`] only).
    warm: Option<Arc<WarmCache>>,
}

/// The deterministic inputs of an experiment point, prepared up front
/// (warming is an offline replay shared by every node of the VMI).
fn prepare_inputs(cfg: &ExperimentConfig) -> Result<Vec<VmiInputs>> {
    assert!(cfg.nodes >= 1, "need at least one compute node");
    assert!(
        (1..=cfg.nodes).contains(&cfg.vmis),
        "vmis must be in 1..=nodes"
    );
    (0..cfg.vmis)
        .map(|v| {
            let trace = Arc::new(vmi_trace::generate(&cfg.profile, vmi_seed(cfg.seed, v)));
            let warm = match cfg.mode {
                Mode::WarmCache {
                    quota,
                    cluster_bits,
                    ..
                } => Some(match &cfg.warm_store {
                    Some(store) => {
                        store.get_or_prepare(&cfg.profile, &trace, quota, cluster_bits)?
                    }
                    None => Arc::new(prepare_warm_cache(
                        &cfg.profile,
                        &trace,
                        quota,
                        cluster_bits,
                    )?),
                }),
                _ => None,
            };
            Ok(VmiInputs { trace, warm })
        })
        .collect()
}

/// Whether `mode` is the Fig. 13 cold flow, where only the *first* node per
/// VMI (node ids `0..vmis`) creates and transfers the cache and the rest run
/// plain QCOW2 (§5.3.2).
fn cold_storage_mem(mode: Mode) -> bool {
    matches!(
        mode,
        Mode::ColdCache {
            placement: Placement::StorageMem,
            ..
        }
    )
}

/// The tmpfs export of a warm cache kept in storage memory (Fig. 13
/// bottom); `None` for every other mode.
fn warm_tmpfs_export(
    cfg: &ExperimentConfig,
    storage: &mut StorageNode,
    vmi: &VmiInputs,
) -> Option<Arc<NfsExport>> {
    let in_storage_mem = matches!(
        cfg.mode,
        Mode::WarmCache {
            placement: Placement::StorageMem,
            ..
        }
    );
    let warm = vmi.warm.as_ref().filter(|_| in_storage_mem)?;
    Some(storage.export_on_tmpfs(warm.container.clone() as SharedDev))
}

/// The node body both runners share: provision node `i`'s cache and CoW
/// containers for the configured mode and build its chain. Chain creation is
/// part of the measured boot (the paper times from "invoking KVM").
fn deploy_node(
    cfg: &ExperimentConfig,
    storage: &StorageNode,
    obs: &Obs,
    i: usize,
    vmi: &VmiInputs,
    base: &Arc<NfsExport>,
    warm_export: Option<&Arc<NfsExport>>,
) -> Result<(Arc<QcowImage>, VmRun)> {
    let world = &storage.world;
    let mount = |export: &Arc<NfsExport>| -> SharedDev {
        NfsMount::new(export.clone(), storage.nic, MountOpts::default())
    };
    let mut node = ComputeNode::new(world, i);
    let mode = if cold_storage_mem(cfg.mode) && i >= cfg.vmis {
        Mode::Qcow2 // non-creators proceed with normal QCOW2
    } else {
        cfg.mode
    };
    let (cache_dev, cache_read_only) = match (warm_export, &vmi.warm) {
        // A warm cache shared from storage memory: mounted read-only.
        (Some(export), _) => (Some(mount(export)), true),
        (None, Some(w)) => (node.cache_file(mode, Arc::new(w.container.fork())), false),
        (None, None) => (node.cache_file(mode, Arc::new(SparseDev::new())), false),
    };
    let cow_dev = node.disk_file(Arc::new(SparseDev::new()), false);

    world.begin_op(0);
    let csp = obs.span("chain.build", || format!("node={i}"));
    let chain = build_chain(ChainSpec {
        mode,
        profile: &cfg.profile,
        base_dev: mount(base),
        cache_dev,
        cow_dev,
        cache_read_only,
        obs: obs.clone(),
    })?;
    drop(csp);
    let setup_ns = world.end_op();
    let run = VmRun {
        chain: chain.clone() as SharedDev,
        trace: vmi.trace.clone(),
        start_at: 0,
        setup_ns,
    };
    Ok((chain, run))
}

/// Fig. 13/14 cold flow: ship creator `i`'s cache from compute memory to the
/// storage tmpfs and add the transfer to its boot time.
fn transfer_cache(
    storage: &StorageNode,
    obs: &Obs,
    i: usize,
    chain: &Arc<QcowImage>,
    outcome: &mut VmOutcome,
) {
    let world = &storage.world;
    let size = cache_layer_file_size(chain).unwrap_or(0);
    let tsp = world.with_time(outcome.done_at, || {
        obs.span("net.transfer", || format!("node={i} bytes={size}"))
    });
    let done = world.bulk_transfer(storage.nic, outcome.done_at, size);
    world.with_time(done, || drop(tsp));
    let extra = done - outcome.done_at;
    outcome.done_at = done;
    outcome.boot_ns += extra;
    outcome.io_wait_ns += extra;
}

/// Run one experiment point. Deterministic for a given config.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<ExperimentOutcome> {
    let vmis = prepare_inputs(cfg)?;
    let world = SimWorld::new();
    let obs = cfg.recorder.attach(world.obs_clock());
    let mut storage = StorageNode::new(&world, cfg.net);
    // Base exports first, then the tmpfs exports of the storage-memory
    // placement: one of each per VMI, shared by its nodes.
    let base_exports: Vec<_> = (0..cfg.vmis)
        .map(|_| storage.create_base_vmi(cfg.profile.virtual_size))
        .collect();
    let warm_exports: Vec<_> = vmis
        .iter()
        .map(|vmi| warm_tmpfs_export(cfg, &mut storage, vmi))
        .collect();

    let mut vms: Vec<VmRun> = Vec::with_capacity(cfg.nodes);
    let mut chains: Vec<Arc<QcowImage>> = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let v = i % cfg.vmis;
        let (chain, run) = deploy_node(
            cfg,
            &storage,
            &obs,
            i,
            &vmis[v],
            &base_exports[v],
            warm_exports[v].as_ref(),
        )?;
        chains.push(chain);
        vms.push(run);
    }

    let mut outcomes = run_boots_with_obs(&world, vms, &obs)?;

    if cold_storage_mem(cfg.mode) {
        // Creators transfer in the order their boots finish.
        let mut order: Vec<usize> = (0..cfg.vmis).collect();
        order.sort_by_key(|&i| outcomes[i].done_at);
        for i in order {
            transfer_cache(&storage, &obs, i, &chains[i], &mut outcomes[i]);
        }
    }

    Ok(collect_outcome(&storage, &obs, &chains, outcomes))
}

/// Everything measured in `storage`'s world once its boots are done.
fn collect_outcome(
    storage: &StorageNode,
    obs: &Obs,
    chains: &[Arc<QcowImage>],
    outcomes: Vec<VmOutcome>,
) -> ExperimentOutcome {
    let world = &storage.world;
    ExperimentOutcome {
        stats: BootStats::from(&outcomes),
        outcomes,
        storage_nic: world.link_stats(storage.nic),
        storage_disk: world.disk_stats(storage.disk),
        storage_page_cache: world.cache_stats(storage.page_cache),
        cache_file_sizes: chains.iter().filter_map(cache_layer_file_size).collect(),
        telemetry: Telemetry::collect(chains, obs),
        metrics: obs.metrics_snapshot(),
    }
}

/// File size of the cache layer under a CoW top image, if any.
fn cache_layer_file_size(chain: &Arc<QcowImage>) -> Option<u64> {
    let backing = chain.backing()?;
    let q = backing.as_any()?.downcast_ref::<QcowImage>()?;
    q.is_cache().then(|| q.file_size())
}

/// Everything one node thread brings back, merged by node id afterwards.
struct NodeRun {
    /// The node's own world, measured like a one-node serial run.
    out: ExperimentOutcome,
    op_hist: Option<vmi_obs::HistogramSnapshot>,
    /// Per-node event stream (empty without a recorder), already in
    /// node-local time order.
    events: Vec<(u64, vmi_obs::Event)>,
    /// Registry hit/miss fallback (cloud-style aggregates without caches).
    hit_counter: u64,
    miss_counter: u64,
}

/// Run one experiment point with **one thread per compute node**.
///
/// Semantics differ from [`run_experiment`] in exactly one way: each node
/// gets its own simulated world and its own *replica* of the storage node,
/// so cross-node queueing on the shared storage link is not modeled — this
/// is the contention-free upper bound (every node sees an idle server). Use
/// it for embarrassingly parallel sweeps (per-node cache behaviour, traffic
/// totals, CoR statistics); use the serial runner when the figure being
/// reproduced *is* the contention (Fig. 3's shared-link collapse).
///
/// Determinism: per-node sim clocks all start at zero and node results are
/// merged **sorted by node id** — outcomes, per-cache telemetry rows,
/// cache file sizes, and the recorded JSONL stream (grouped by node, time
/// ordered within each node) are bit-identical for a given config and seed,
/// regardless of thread scheduling.
pub fn run_experiment_parallel(cfg: &ExperimentConfig) -> Result<ExperimentOutcome> {
    let vmis = prepare_inputs(cfg)?;

    let runs: Vec<Result<NodeRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.nodes)
            .map(|i| {
                let vmi = &vmis[i % cfg.vmis];
                s.spawn(move || run_node(cfg, i, vmi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(BlockError::unsupported("node thread panicked")),
            })
            .collect()
    });
    let runs: Vec<NodeRun> = runs.into_iter().collect::<Result<_>>()?;

    // Deterministic merge, sorted by node id (the vec is already in id
    // order — thread completion order never matters).
    let outcomes: Vec<VmOutcome> = runs.iter().map(|r| r.out.outcomes[0]).collect();
    let mut storage_nic = LinkStats::default();
    let mut storage_disk = DiskStats::default();
    let mut storage_page_cache = (0u64, 0u64);
    for out in runs.iter().map(|r| &r.out) {
        storage_nic.messages += out.storage_nic.messages;
        storage_nic.bytes += out.storage_nic.bytes;
        storage_nic.busy_ns += out.storage_nic.busy_ns;
        storage_disk.read_ops += out.storage_disk.read_ops;
        storage_disk.write_ops += out.storage_disk.write_ops;
        storage_disk.read_bytes += out.storage_disk.read_bytes;
        storage_disk.write_bytes += out.storage_disk.write_bytes;
        storage_disk.seeks += out.storage_disk.seeks;
        storage_disk.busy_ns += out.storage_disk.busy_ns;
        storage_page_cache.0 += out.storage_page_cache.0;
        storage_page_cache.1 += out.storage_page_cache.1;
    }
    let cache_file_sizes: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.out.cache_file_sizes.iter().copied())
        .collect();
    let telemetry = merge_telemetry(&runs);
    let metrics = merge_metrics(&runs);

    // Re-emit the per-node streams into the caller's recorder, node by node,
    // with the original per-node timestamps.
    if cfg.recorder.is_set() {
        let clock = Arc::new(vmi_obs::ManualClock::new(0));
        let obs = cfg.recorder.attach(clock.clone());
        for r in &runs {
            for (t, ev) in &r.events {
                clock.set(*t);
                obs.emit(|| ev.clone());
            }
        }
    }

    Ok(ExperimentOutcome {
        stats: BootStats::from(&outcomes),
        outcomes,
        storage_nic,
        storage_disk,
        storage_page_cache,
        cache_file_sizes,
        telemetry,
        metrics,
    })
}

/// One node's slice of [`run_experiment_parallel`]: its own world, its own
/// storage replica, one boot.
fn run_node(cfg: &ExperimentConfig, i: usize, vmi: &VmiInputs) -> Result<NodeRun> {
    let world = SimWorld::new();
    // Per-node recorder: streams are merged by node id by the caller.
    let (rec, sink) = if cfg.recorder.is_set() {
        let (handle, sink) = vmi_obs::RecorderHandle::jsonl();
        (handle, Some(sink))
    } else {
        (RecorderHandle::none(), None)
    };
    // Node `i` allocates span ids in namespace `i << 48`, so node 0's
    // stream matches the serial runner's and merged streams never collide.
    let obs = rec.attach_with_span_base(world.obs_clock(), (i as u64) << 48);
    let mut storage = StorageNode::new(&world, cfg.net);
    let base = storage.create_base_vmi(cfg.profile.virtual_size);
    let warm_export = warm_tmpfs_export(cfg, &mut storage, vmi);
    let (chain, run) = deploy_node(cfg, &storage, &obs, i, vmi, &base, warm_export.as_ref())?;

    let mut outcome = run_boots_with_obs(&world, vec![run], &obs)?.remove(0);
    if cold_storage_mem(cfg.mode) && i < cfg.vmis {
        transfer_cache(&storage, &obs, i, &chain, &mut outcome);
    }

    Ok(NodeRun {
        out: collect_outcome(&storage, &obs, &[chain], vec![outcome]),
        op_hist: obs.histogram(vmi_obs::met::VM_OP_NS),
        events: sink.map(|s| s.events()).unwrap_or_default(),
        hit_counter: obs.counter_value(vmi_obs::met::CACHE_HIT_BYTES),
        miss_counter: obs.counter_value(vmi_obs::met::CACHE_MISS_BYTES),
    })
}

/// Sum per-node telemetry into one snapshot; ratios are recomputed from the
/// summed byte counts and latency percentiles from the merged histograms.
fn merge_telemetry(runs: &[NodeRun]) -> Telemetry {
    // Pre-size from the node count: growing this per boot is measurable
    // allocation churn at 10k-node scale.
    let mut per_cache: Vec<crate::telemetry::CacheTelemetry> =
        Vec::with_capacity(runs.iter().map(|r| r.out.telemetry.per_cache.len()).sum());
    for r in runs {
        per_cache.extend(r.out.telemetry.per_cache.iter().copied());
    }
    let (hits, misses) = if per_cache.is_empty() {
        (
            runs.iter().map(|r| r.hit_counter).sum(),
            runs.iter().map(|r| r.miss_counter).sum(),
        )
    } else {
        (
            per_cache.iter().map(|c| c.hit_bytes).sum::<u64>(),
            per_cache.iter().map(|c| c.miss_bytes).sum::<u64>(),
        )
    };
    let hist = merge_histograms(runs.iter().filter_map(|r| r.op_hist.as_ref()));
    let sum = |f: fn(&Telemetry) -> u64| runs.iter().map(|r| f(&r.out.telemetry)).sum::<u64>();
    Telemetry {
        per_cache,
        hit_ratio: if misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        fill_bytes: sum(|t| t.fill_bytes),
        space_errors: sum(|t| t.space_errors),
        evictions: sum(|t| t.evictions),
        retry_attempts: sum(|t| t.retry_attempts),
        caches_degraded: sum(|t| t.caches_degraded),
        audit_violations: sum(|t| t.audit_violations),
        runs_coalesced: sum(|t| t.runs_coalesced),
        coalesced_bytes: sum(|t| t.coalesced_bytes),
        l2_evictions: sum(|t| t.l2_evictions),
        node_failures: sum(|t| t.node_failures),
        boots_rescheduled: sum(|t| t.boots_rescheduled),
        node_restarts: sum(|t| t.node_restarts),
        caches_readopted: sum(|t| t.caches_readopted),
        caches_refetched: sum(|t| t.caches_refetched),
        recovery_repairs: sum(|t| t.recovery_repairs),
        p50_op_ns: hist.as_ref().map(|h| h.quantile(0.5)),
        p99_op_ns: hist.as_ref().map(|h| h.quantile(0.99)),
    }
}

/// Merge per-node metrics snapshots into one cluster view: counters and
/// histogram buckets sum, gauges take their max (a gauge like
/// `cache.used_bytes` is a per-node level, and the max is the conservative
/// cluster-wide statement). Names stay sorted for deterministic output.
fn merge_metrics(runs: &[NodeRun]) -> Option<MetricsSnapshot> {
    use std::collections::BTreeMap;
    let mut counters = BTreeMap::<&'static str, u64>::new();
    let mut gauges = BTreeMap::<&'static str, u64>::new();
    let mut hists = BTreeMap::<&'static str, vmi_obs::HistogramSnapshot>::new();
    let mut any = false;
    for r in &mut runs.iter().filter_map(|r| r.out.metrics.as_ref()) {
        any = true;
        for &(name, v) in &r.counters {
            *counters.entry(name).or_insert(0) += v;
        }
        for &(name, v) in &r.gauges {
            let g = gauges.entry(name).or_insert(0);
            *g = (*g).max(v);
        }
        for (name, h) in &r.histograms {
            match hists.entry(name) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if let Some(m) = merge_histograms([e.get() as &_, h].into_iter()) {
                        *e.get_mut() = m;
                    }
                }
            }
        }
    }
    any.then(|| MetricsSnapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms: hists.into_iter().collect(),
    })
}

/// Merge log2-bucket histogram snapshots by summing bucket counts.
///
/// Bucket indices are log2 exponents (0..=64), so a fixed array replaces
/// the per-call `BTreeMap` the merge used to allocate — at scale this runs
/// once per telemetry merge per node with zero heap traffic.
fn merge_histograms<'a>(
    snaps: impl Iterator<Item = &'a vmi_obs::HistogramSnapshot>,
) -> Option<vmi_obs::HistogramSnapshot> {
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut buckets = [0u64; 65];
    let mut any = false;
    for s in snaps {
        any = true;
        count += s.count;
        sum += s.sum;
        for &(k, n) in &s.buckets {
            buckets[(k as usize).min(64)] += n;
        }
    }
    any.then(|| vmi_obs::HistogramSnapshot {
        count,
        sum,
        buckets: buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (k as u32, n))
            .collect(),
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
            discipline: vmi_sim::LinkDiscipline::Fifo,
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
    fn parallel_matches_serial_for_one_node() {
        // With a single node there is no contention to lose: the parallel
        // runner must reproduce the serial outcome exactly.
        for mode in [
            Mode::Qcow2,
            Mode::ColdCache {
                placement: Placement::ComputeMem,
                quota: QUOTA,
                cluster_bits: 9,
            },
            Mode::WarmCache {
                placement: Placement::ComputeDisk,
                quota: QUOTA,
                cluster_bits: 9,
            },
        ] {
            let cfg = tiny(1, 1, mode, NetSpec::gbe_1());
            let a = run_experiment(&cfg).unwrap();
            let b = run_experiment_parallel(&cfg).unwrap();
            assert_eq!(a.outcomes, b.outcomes, "{mode:?}");
            assert_eq!(a.storage_nic, b.storage_nic, "{mode:?}");
            assert_eq!(a.cache_file_sizes, b.cache_file_sizes, "{mode:?}");
            assert_eq!(a.telemetry.per_cache, b.telemetry.per_cache, "{mode:?}");
        }
    }

    #[test]
    fn parallel_runs_are_bit_identical_per_seed() {
        let mode = Mode::WarmCache {
            placement: Placement::ComputeMem,
            quota: QUOTA,
            cluster_bits: 9,
        };
        let run = || {
            let (rec, sink) = vmi_obs::RecorderHandle::jsonl();
            let mut cfg = tiny(6, 2, mode, NetSpec::gbe_1());
            cfg.recorder = rec;
            let out = run_experiment_parallel(&cfg).unwrap();
            (out, sink.lines())
        };
        let (a, lines_a) = run();
        let (b, lines_b) = run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.cache_file_sizes, b.cache_file_sizes);
        assert_eq!(a.storage_nic, b.storage_nic);
        assert_eq!(a.storage_disk, b.storage_disk);
        assert_eq!(
            lines_a, lines_b,
            "merged JSONL is bit-identical across runs"
        );
        assert!(!lines_a.is_empty(), "recorder captured the node streams");
        assert_eq!(a.outcomes.len(), 6);
        assert_eq!(a.telemetry.per_cache.len(), 6, "one cache row per node");
    }

    #[test]
    fn parallel_cold_storage_mem_has_one_creator_per_vmi() {
        let out = run_experiment_parallel(&tiny(
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
        assert_eq!(out.cache_file_sizes.len(), 2);
        assert_eq!(out.outcomes.len(), 4);
    }
}
