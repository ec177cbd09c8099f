//! A cloud controller over the simulated cluster: request arrivals, slot
//! management, cache-aware placement (§3.4), per-node cache pools with LRU
//! eviction, and Algorithm 1 chain building — the paper's "next step of our
//! work is to integrate this scheme into the cloud scheduler" (§8),
//! realized end to end.
//!
//! ## Fidelity note
//!
//! Requests are processed in arrival order and each boot is simulated to
//! completion before the next placement decision. Shared resources
//! (storage NIC, storage disk, page caches) carry their queue state across
//! boots, so temporally overlapping boots still contend; what is
//! approximated is op-level interleaving *between* boots, which is
//! irrelevant at scheduling granularity.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmi_blockdev::{BlockDev, Result, SharedDev, SparseDev};
use vmi_obs::{met, Event, Obs, RecorderHandle};
use vmi_qcow::{recover_with_obs, Header};
use vmi_sim::{NetSpec, Ns};
use vmi_trace::VmiProfile;

use crate::cluster::{CacheSource, Cluster};
use crate::deploy::{Mode, Placement};
use crate::experiment::vmi_seed;
use crate::sched::{NodeState, Policy, Scheduler};
use crate::telemetry::Telemetry;

/// One VM request arriving at the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmRequest {
    /// Arrival time.
    pub at: Ns,
    /// Which VMI to boot (index into the catalog).
    pub vmi: usize,
    /// How long the VM runs after its boot completes.
    pub lifetime_ns: Ns,
}

/// Generate a Poisson-ish request stream with Zipf-like VMI popularity
/// (a few images dominate, as in public clouds). Deterministic from `seed`.
pub fn generate_requests(
    seed: u64,
    count: usize,
    vmis: usize,
    mean_interarrival_ns: Ns,
    mean_lifetime_ns: Ns,
) -> Vec<VmRequest> {
    assert!(vmis >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC10D_AB1E);
    // Zipf weights 1/k.
    let weights: Vec<f64> = (1..=vmis).map(|k| 1.0 / k as f64).collect();
    let wsum: f64 = weights.iter().sum();
    let mut at = 0u64;
    (0..count)
        .map(|_| {
            at += (-(mean_interarrival_ns as f64) * f64::ln(1.0 - rng.gen::<f64>())) as u64;
            let mut t = rng.gen::<f64>() * wsum;
            let mut vmi = vmis - 1;
            for (k, w) in weights.iter().enumerate() {
                if t < *w {
                    vmi = k;
                    break;
                }
                t -= w;
            }
            let lifetime_ns = (-(mean_lifetime_ns as f64) * f64::ln(1.0 - rng.gen::<f64>())) as u64;
            VmRequest {
                at,
                vmi,
                lifetime_ns,
            }
        })
        .collect()
}

/// An injected node failure: `node` dies at simulated time `at`. Every VM
/// running there is lost and the scheduler stops placing on it. A VM
/// booting on the node when it dies is rescheduled onto the next-best
/// placement.
///
/// A *permanent* failure (`restart_after: None`) also loses the node-local
/// cache containers. A *power-cut* failure (`restart_after: Some(downtime)`)
/// models the paper's monetized scenario: the containers survive on local
/// disk — possibly torn mid-flush — and when the node comes back it runs
/// crash recovery over its cache set, re-adopting clean/repaired caches
/// warm and refetching the rest cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFailure {
    /// Which compute node dies.
    pub node: usize,
    /// When it dies.
    pub at: Ns,
    /// `Some(downtime)` brings the node back at `at + downtime` with its
    /// on-disk cache containers intact (modulo crash tearing); `None` is a
    /// permanent loss, containers included.
    pub restart_after: Option<Ns>,
}

impl NodeFailure {
    /// A permanent failure: the node never returns and its local media are
    /// lost with it.
    pub fn permanent(node: usize, at: Ns) -> Self {
        Self {
            node,
            at,
            restart_after: None,
        }
    }

    /// A power-cut failure: the node restarts after `downtime` and recovers
    /// whatever its local disk still holds.
    pub fn power_cut(node: usize, at: Ns, downtime: Ns) -> Self {
        Self {
            node,
            at,
            restart_after: Some(downtime),
        }
    }
}

/// Cloud configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Physical compute nodes.
    pub nodes: usize,
    /// VM slots per node.
    pub slots_per_node: usize,
    /// Cache-pool capacity per node (bytes of cache images).
    pub node_cache_bytes: u64,
    /// VMI catalog size.
    pub vmis: usize,
    /// Boot workload (same profile for every VMI; distinct traces).
    pub profile: VmiProfile,
    /// Interconnect.
    pub net: NetSpec,
    /// Cache quota per cache image.
    pub quota: u64,
    /// Use VMI caches at all (false = plain QCOW2 baseline).
    pub use_caches: bool,
    /// Prefer warm nodes when placing (§3.4).
    pub cache_aware: bool,
    /// Base placement policy.
    pub policy: Policy,
    /// Master seed.
    pub seed: u64,
    /// Injected node failures (empty = every node survives the day).
    pub node_failures: Vec<NodeFailure>,
    /// Event recorder for this run (default: record nothing).
    pub recorder: RecorderHandle,
}

/// What a day in the cloud looked like.
#[derive(Debug, Clone)]
pub struct CloudReport {
    /// Requests that got a slot.
    pub placed: usize,
    /// Requests dropped for lack of capacity at arrival.
    pub rejected: usize,
    /// Boots served by a warm node-local cache.
    pub warm_boots: usize,
    /// Boots that had to pull from the storage node.
    pub cold_boots: usize,
    /// Cache-pool evictions across the fleet.
    pub evictions: usize,
    /// Injected node failures that actually took a node down.
    pub node_failures: usize,
    /// Boots that survived a mid-boot node death by rescheduling.
    pub rescheduled_boots: usize,
    /// Power-cut nodes that came back after their seeded downtime.
    pub node_restarts: usize,
    /// Surviving cache containers re-adopted warm after restart recovery
    /// (verdict `Clean` or `Repaired`).
    pub caches_readopted: usize,
    /// Containers condemned by restart recovery (`Refetch`): dropped, so
    /// the next boot of that VMI on the node pulls cold from storage.
    pub caches_refetched: usize,
    /// Mean boot time in seconds.
    pub mean_boot_secs: f64,
    /// 95th-percentile boot time in seconds.
    pub p95_boot_secs: f64,
    /// Total bytes served by the storage node, in MB.
    pub storage_traffic_mb: f64,
    /// Aggregate cache/latency telemetry (latency percentiles and event
    /// counters require a recorder; `per_cache` is empty for cloud runs —
    /// chains are transient).
    pub telemetry: Telemetry,
}

/// A cache container stranded on a powered-off node's local disk, waiting
/// for the node to restart and recover it: `(node, vmi, container)`.
type DownedCache = (usize, usize, Arc<SparseDev>);

/// Seeded model of what the power cut did to one on-disk cache container.
/// Most survive intact (the close barrier completed before the cut), some
/// lose the used-size write-back (the classic torn close, repairable in
/// place), and some lose the header cluster itself (unrecoverable — the
/// restart refetches them cold). Deterministic per `(seed, node, vmi)`.
fn inject_crash_tear(dev: &Arc<SparseDev>, seed: u64, node: usize, vmi: usize) {
    let mut rng = StdRng::seed_from_u64(vmi_seed(seed, node * 8191 + vmi) ^ 0x09C0_FFEE);
    let p: f64 = rng.gen();
    if p < 0.25 {
        // Cut during the header write: magic gone, nothing trustworthy.
        let _ = dev.write_at(&[0u8; 8], 0);
    } else if p < 0.60 {
        // Cut between the table barriers and the used write-back: tables
        // intact, recorded used-size stale.
        let bogus = 512 + (rng.gen::<u64>() % 4096) * 8;
        let _ = Header::update_cache_used(dev.as_ref(), bogus);
    }
    // else: the close flush completed before the cut; container intact.
}

/// Apply every injected failure *and* pending restart at or before `now`,
/// in event-time order. A failure takes the node down, loses its running
/// VMs, and — for a power-cut failure — strands its cache containers
/// (seeded tearing) until the scheduled restart; a permanent failure drops
/// them. A restart restores the node, runs crash recovery over the
/// stranded containers, re-adopts the usable ones warm, and refetches the
/// rest cold.
#[allow(clippy::too_many_arguments)]
fn advance_fleet(
    failures: &[NodeFailure],
    next: &mut usize,
    restarts: &mut Vec<(Ns, usize)>,
    downed: &mut Vec<DownedCache>,
    now: Ns,
    seed: u64,
    fleet: &mut [NodeState],
    running: &mut Vec<(usize, Ns)>,
    warm_local: &mut HashMap<(usize, usize), Arc<SparseDev>>,
    obs: &Obs,
    report: &mut CloudReport,
) {
    loop {
        let tf = failures.get(*next).map(|f| f.at).filter(|&t| t <= now);
        let tr = restarts.first().map(|r| r.0).filter(|&t| t <= now);
        let restart_first = match (tf, tr) {
            (None, None) => break,
            (Some(tf), Some(tr)) => tr < tf,
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        if restart_first {
            let (at, node) = restarts.remove(0);
            restart_node(node, at, fleet, warm_local, downed, obs, report);
            continue;
        }
        let f = failures[*next];
        *next += 1;
        if !fleet[f.node].up {
            continue;
        }
        fleet[f.node].fail();
        running.retain(|&(n, _)| n != f.node);
        // Harvest (power cut) or drop (permanent) the node's containers;
        // sorted by VMI so the tear injection order is deterministic.
        let mut lost: Vec<(usize, Arc<SparseDev>)> = warm_local
            .iter()
            .filter(|((n, _), _)| *n == f.node)
            .map(|((_, v), d)| (*v, d.clone()))
            .collect();
        lost.sort_unstable_by_key(|&(v, _)| v);
        warm_local.retain(|&(n, _), _| n != f.node);
        if let Some(downtime) = f.restart_after {
            for (v, dev) in lost {
                inject_crash_tear(&dev, seed, f.node, v);
                downed.push((f.node, v, dev));
            }
            let t = f.at + downtime;
            let pos = restarts.partition_point(|&r| r <= (t, f.node));
            restarts.insert(pos, (t, f.node));
        }
        report.node_failures += 1;
        obs.count(met::NODE_FAILURES, 1);
        obs.emit(|| Event::NodeFailed {
            node: f.node as u64,
        });
    }
}

/// Bring a power-cut node back: restore it for placements, recover every
/// stranded cache container, re-adopt the usable ones into the pool (and
/// `warm_local`), refetch the rest.
fn restart_node(
    node: usize,
    now: Ns,
    fleet: &mut [NodeState],
    warm_local: &mut HashMap<(usize, usize), Arc<SparseDev>>,
    downed: &mut Vec<DownedCache>,
    obs: &Obs,
    report: &mut CloudReport,
) {
    fleet[node].restore();
    report.node_restarts += 1;
    obs.count(met::NODE_RESTARTS, 1);
    let mut mine: Vec<(usize, Arc<SparseDev>)> = Vec::new();
    downed.retain(|&(n, v, ref d)| {
        if n == node {
            mine.push((v, d.clone()));
            false
        } else {
            true
        }
    });
    mine.sort_unstable_by_key(|&(v, _)| v);
    let (mut readopted, mut refetched) = (0u64, 0u64);
    for (v, container) in mine {
        let dev: SharedDev = container.clone();
        let rec = recover_with_obs(&dev, obs);
        let mut adopted = false;
        if rec.is_usable() {
            let size = container.len();
            let mut evicted = Vec::new();
            if fleet[node]
                .caches
                .admit(v, size, now, now, obs, node as u64, &mut evicted)
                .is_ok()
            {
                for ev in evicted {
                    warm_local.remove(&(node, ev));
                    report.evictions += 1;
                }
                warm_local.insert((node, v), container);
                adopted = true;
            }
        }
        if adopted {
            readopted += 1;
            obs.count(met::CACHES_READOPTED, 1);
        } else {
            refetched += 1;
            obs.count(met::CACHES_REFETCHED, 1);
        }
    }
    report.caches_readopted += readopted as usize;
    report.caches_refetched += refetched as usize;
    obs.emit(|| Event::NodeRestarted {
        node: node as u64,
        readopted,
        refetched,
    });
}

/// Run the request stream through the cloud. Deterministic.
pub fn run_cloud(cfg: &CloudConfig, requests: &[VmRequest]) -> Result<CloudReport> {
    assert!(cfg.nodes >= 1 && cfg.slots_per_node >= 1 && cfg.vmis >= 1);
    assert!(
        cfg.node_failures.iter().all(|f| f.node < cfg.nodes),
        "injected failure names a node outside the fleet"
    );
    let seeds = (0..cfg.vmis).map(|v| vmi_seed(cfg.seed, v));
    let mut cluster = Cluster::new(&cfg.profile, cfg.net, &cfg.recorder, cfg.nodes, seeds);
    let obs = cluster.obs.clone();

    // Fleet state. Cache pools are keyed by VMI index: the per-request hot
    // path below never formats a "vmi-N" string (names appear only in events).
    let mut fleet: Vec<NodeState> = (0..cfg.nodes)
        .map(|i| NodeState::new(i, cfg.slots_per_node, cfg.node_cache_bytes))
        .collect();
    let sched = Scheduler::new(cfg.policy, cfg.cache_aware);
    // Running VMs: (node, ends_at).
    let mut running: Vec<(usize, Ns)> = Vec::new();
    // Node-local warm cache containers, keyed by (node, vmi).
    let mut warm_local: HashMap<(usize, usize), Arc<SparseDev>> = HashMap::new();

    let mut report = CloudReport {
        placed: 0,
        rejected: 0,
        warm_boots: 0,
        cold_boots: 0,
        evictions: 0,
        node_failures: 0,
        rescheduled_boots: 0,
        node_restarts: 0,
        caches_readopted: 0,
        caches_refetched: 0,
        mean_boot_secs: 0.0,
        p95_boot_secs: 0.0,
        storage_traffic_mb: 0.0,
        telemetry: Telemetry::default(),
    };
    let mut failures: Vec<NodeFailure> = cfg.node_failures.clone();
    failures.sort_by_key(|f| f.at);
    let mut next_failure = 0usize;
    // Pending power-cut restarts `(at, node)` and the cache containers
    // stranded on powered-off nodes until then.
    let mut restarts: Vec<(Ns, usize)> = Vec::new();
    let mut downed: Vec<DownedCache> = Vec::new();
    let mut boot_times: Vec<Ns> = Vec::new();

    for (vm_id, req) in requests.iter().enumerate() {
        advance_fleet(
            &failures,
            &mut next_failure,
            &mut restarts,
            &mut downed,
            req.at,
            cfg.seed,
            &mut fleet,
            &mut running,
            &mut warm_local,
            &obs,
            &mut report,
        );
        // Release slots whose VMs ended before this arrival.
        running.retain(|&(node, ends_at)| {
            if ends_at <= req.at {
                Scheduler::release(&mut fleet, node);
                false
            } else {
                true
            }
        });

        // Place and boot; a node dying mid-boot sends the VM back to the
        // scheduler for the next-best placement, restarted at the failure
        // time (the controller notices the loss and retries).
        let mut start_at = req.at;
        let mut rescheduled_from: Option<usize> = None;
        let booted = loop {
            let Some(decision) = sched.place(&mut fleet, req.vmi, start_at, &obs) else {
                break None;
            };
            let node_idx = decision.node;
            if let Some(from) = rescheduled_from.take() {
                report.rescheduled_boots += 1;
                obs.count(met::BOOT_RESCHEDULES, 1);
                let (vm, to) = (vm_id as u64, node_idx as u64);
                obs.emit(|| Event::BootRescheduled {
                    vm,
                    from_node: from as u64,
                    to_node: to,
                });
            }
            // Decide the chain per Algorithm 1 at node level.
            let warm_hit = cfg.use_caches
                && decision.cache_hit
                && warm_local.contains_key(&(node_idx, req.vmi));
            let (mode, cache) = if !cfg.use_caches {
                (Mode::Qcow2, CacheSource::fresh())
            } else if warm_hit {
                report.warm_boots += 1;
                (
                    Mode::WarmCache {
                        placement: Placement::ComputeDisk,
                        quota: cfg.quota,
                        cluster_bits: 9,
                    },
                    CacheSource::fork_of(&warm_local[&(node_idx, req.vmi)]),
                )
            } else {
                report.cold_boots += 1;
                let fresh = Arc::new(SparseDev::new());
                warm_local.insert((node_idx, req.vmi), fresh.clone());
                (
                    Mode::ColdCache {
                        placement: Placement::ComputeMem,
                        quota: cfg.quota,
                        cluster_bits: 9,
                    },
                    CacheSource::Local(fresh),
                )
            };
            let (_, run) = cluster.deploy(node_idx, req.vmi, mode, cache, start_at)?;
            let outcome = cluster.run(vec![run])?[0];
            // Did the chosen node die while this boot was in flight?
            let killed_at = failures[next_failure..]
                .iter()
                .take_while(|f| f.at < outcome.done_at)
                .find(|f| f.node == node_idx)
                .map(|f| f.at);
            match killed_at {
                Some(at) => {
                    advance_fleet(
                        &failures,
                        &mut next_failure,
                        &mut restarts,
                        &mut downed,
                        at,
                        cfg.seed,
                        &mut fleet,
                        &mut running,
                        &mut warm_local,
                        &obs,
                        &mut report,
                    );
                    start_at = at;
                    rescheduled_from = Some(node_idx);
                }
                None => break Some((node_idx, warm_hit, outcome)),
            }
        };
        let Some((node_idx, warm_hit, outcome)) = booted else {
            report.rejected += 1;
            continue;
        };
        report.placed += 1;
        boot_times.push(outcome.boot_ns);
        running.push((node_idx, outcome.done_at + req.lifetime_ns));

        // Admit the cache this cold boot just filled into the node's pool;
        // evictions drop the corresponding local containers.
        if cfg.use_caches && !warm_hit {
            let node = &mut fleet[node_idx];
            let size = warm_local[&(node_idx, req.vmi)].len();
            // A cache larger than the whole pool is simply not kept.
            let mut evicted = Vec::new();
            let (at, id) = (req.at, node_idx as u64);
            let _ = node
                .caches
                .admit(req.vmi, size, at, at, &obs, id, &mut evicted);
            for v in evicted {
                warm_local.remove(&(node_idx, v));
                report.evictions += 1;
            }
        }
    }

    if !boot_times.is_empty() {
        let sum: u128 = boot_times.iter().map(|&b| b as u128).sum();
        report.mean_boot_secs = sum as f64 / boot_times.len() as f64 / 1e9;
        let mut sorted = boot_times.clone();
        sorted.sort_unstable();
        report.p95_boot_secs = sorted[(sorted.len() - 1) * 95 / 100] as f64 / 1e9;
    }
    report.storage_traffic_mb = cluster.world.link_stats(cluster.storage.nic).bytes as f64 / 1e6;
    report.telemetry = Telemetry::from_parts(Vec::new(), &obs);
    Ok(report)
}

/// Convenience: pool capacity heuristic used by examples/ablations.
pub fn default_pool_bytes(profile: &VmiProfile, images: usize) -> u64 {
    (profile.unique_read_bytes * 2) * images as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(use_caches: bool, cache_aware: bool) -> CloudConfig {
        let profile = VmiProfile::tiny_test();
        CloudConfig {
            nodes: 4,
            slots_per_node: 2,
            node_cache_bytes: default_pool_bytes(&profile, 3),
            vmis: 4,
            profile,
            net: NetSpec::gbe_1(),
            quota: 16 << 20,
            use_caches,
            cache_aware,
            policy: Policy::Striping,
            seed: 9,
            node_failures: vec![],
            recorder: RecorderHandle::none(),
        }
    }

    fn stream() -> Vec<VmRequest> {
        generate_requests(3, 60, 4, 2_000_000_000, 20_000_000_000)
    }

    #[test]
    fn request_generator_is_deterministic_and_sorted() {
        let a = generate_requests(1, 50, 3, 1_000_000, 5_000_000);
        let b = generate_requests(1, 50, 3, 1_000_000, 5_000_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|r| r.vmi < 3));
        // Zipf: VMI 0 is the most popular.
        let count0 = a.iter().filter(|r| r.vmi == 0).count();
        let count2 = a.iter().filter(|r| r.vmi == 2).count();
        assert!(count0 > count2);
    }

    #[test]
    fn caches_warm_up_over_the_day() {
        let rep = run_cloud(&cfg(true, true), &stream()).unwrap();
        assert_eq!(rep.placed + rep.rejected, 60);
        assert!(
            rep.warm_boots > rep.cold_boots,
            "repeat VMIs must hit caches: {rep:?}"
        );
    }

    #[test]
    fn caches_beat_qcow2_on_mean_boot() {
        let with = run_cloud(&cfg(true, true), &stream()).unwrap();
        let without = run_cloud(&cfg(false, false), &stream()).unwrap();
        assert!(
            with.mean_boot_secs < without.mean_boot_secs,
            "{with:?} vs {without:?}"
        );
        assert!(with.storage_traffic_mb < without.storage_traffic_mb);
        assert_eq!(without.warm_boots, 0);
    }

    #[test]
    fn small_pools_cause_evictions() {
        let mut c = cfg(true, true);
        // Room for roughly one cache per node, four VMIs in rotation.
        c.node_cache_bytes = c.profile.unique_read_bytes * 3;
        let rep = run_cloud(&c, &stream()).unwrap();
        assert!(rep.evictions > 0, "pool pressure must evict: {rep:?}");
    }

    #[test]
    fn deterministic_cloud_runs() {
        let a = run_cloud(&cfg(true, true), &stream()).unwrap();
        let b = run_cloud(&cfg(true, true), &stream()).unwrap();
        assert_eq!(a.mean_boot_secs, b.mean_boot_secs);
        assert_eq!(a.warm_boots, b.warm_boots);
        assert_eq!(a.evictions, b.evictions);
    }

    #[test]
    fn node_failure_reschedules_in_flight_boots() {
        let mut c = cfg(true, true);
        let reqs = stream();
        // Kill a node while the day is in full swing: mid-boot VMs must be
        // rescheduled, not lost, and the request accounting must balance.
        let mid = reqs[reqs.len() / 2].at + 1;
        c.node_failures = vec![NodeFailure::permanent(0, mid)];
        let rep = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.placed + rep.rejected, reqs.len());
        assert_eq!(rep.node_failures, 1);
        assert_eq!(rep.telemetry.node_failures, 0, "no recorder, counters 0");
        // Determinism holds with failures injected.
        let rep2 = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.placed, rep2.placed);
        assert_eq!(rep.rescheduled_boots, rep2.rescheduled_boots);
        assert_eq!(rep.mean_boot_secs, rep2.mean_boot_secs);
    }

    #[test]
    fn mid_boot_failure_emits_reschedule_events() {
        use vmi_obs::{Event, RecorderHandle};
        let mut c = cfg(true, true);
        // One slow node fleet: every boot lands on node 0 until it dies.
        c.nodes = 2;
        c.slots_per_node = 8;
        let reqs = generate_requests(3, 20, 2, 2_000_000_000, 60_000_000_000);
        // Fail node 0 one nanosecond after the first request arrives: the
        // first boot (still in flight) must move to node 1.
        c.node_failures = vec![NodeFailure::permanent(0, reqs[0].at + 1)];
        let (rec, sink) = RecorderHandle::jsonl();
        c.recorder = rec;
        let rep = run_cloud(&c, &reqs).unwrap();
        assert!(rep.rescheduled_boots >= 1, "{rep:?}");
        assert_eq!(rep.node_failures, 1);
        assert_eq!(rep.telemetry.node_failures, 1);
        assert_eq!(
            rep.telemetry.boots_rescheduled,
            rep.rescheduled_boots as u64
        );
        let lines = sink.lines();
        let failed: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"node_failed\""))
            .collect();
        assert_eq!(failed.len(), 1);
        let resched: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"boot_rescheduled\""))
            .collect();
        assert_eq!(resched.len(), rep.rescheduled_boots);
        // The reschedule is typed and points away from the dead node.
        match Event::parse_line(resched[0]) {
            Ok((
                _,
                Event::BootRescheduled {
                    from_node, to_node, ..
                },
            )) => {
                assert_eq!(from_node, 0);
                assert_eq!(to_node, 1);
            }
            other => panic!("bad event: {other:?}"),
        }
    }

    #[test]
    fn power_cut_node_restarts_and_readopts_warm_caches() {
        let mut c = cfg(true, true);
        let reqs = stream();
        // Cut power to two nodes a third of the way through the day; both
        // come back two arrivals later with their containers on disk.
        let at = reqs[reqs.len() / 3].at + 1;
        let downtime = reqs[reqs.len() / 3 + 2].at - at;
        c.node_failures = vec![
            NodeFailure::power_cut(0, at, downtime),
            NodeFailure::power_cut(1, at, downtime),
        ];
        let rep = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.placed + rep.rejected, reqs.len());
        assert_eq!(rep.node_failures, 2);
        assert_eq!(rep.node_restarts, 2, "{rep:?}");
        assert!(
            rep.caches_readopted >= 1,
            "restart recovery must re-adopt surviving caches warm: {rep:?}"
        );
        // The seeded tear model also condemns some containers.
        assert!(rep.caches_readopted + rep.caches_refetched > 0, "{rep:?}");
        // Determinism: an identical day replays bit-identically.
        let rep2 = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.placed, rep2.placed);
        assert_eq!(rep.caches_readopted, rep2.caches_readopted);
        assert_eq!(rep.caches_refetched, rep2.caches_refetched);
        assert_eq!(rep.mean_boot_secs, rep2.mean_boot_secs);
    }

    #[test]
    fn restart_emits_events_and_telemetry_and_bit_identical_jsonl() {
        use vmi_obs::{Event, RecorderHandle};
        let run = || {
            let mut c = cfg(true, true);
            let reqs = stream();
            let at = reqs[reqs.len() / 3].at + 1;
            c.node_failures = vec![NodeFailure::power_cut(0, at, 4_000_000_000)];
            let (rec, sink) = RecorderHandle::jsonl();
            c.recorder = rec;
            let rep = run_cloud(&c, &reqs).unwrap();
            (rep, sink.lines())
        };
        let (rep, lines) = run();
        assert_eq!(rep.node_restarts, 1);
        assert_eq!(rep.telemetry.node_restarts, 1);
        assert_eq!(rep.telemetry.caches_readopted, rep.caches_readopted as u64);
        assert_eq!(rep.telemetry.caches_refetched, rep.caches_refetched as u64);
        let restarted: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"node_restarted\""))
            .collect();
        assert_eq!(restarted.len(), 1);
        match Event::parse_line(restarted[0]) {
            Ok((
                _,
                Event::NodeRestarted {
                    node,
                    readopted,
                    refetched,
                },
            )) => {
                assert_eq!(node, 0);
                assert_eq!(readopted, rep.caches_readopted as u64);
                assert_eq!(refetched, rep.caches_refetched as u64);
            }
            other => panic!("bad event: {other:?}"),
        }
        // Every stranded container went through the recovery engine (the
        // warm-open deploy path also recovers, so ≥, not ==).
        let recoveries = lines
            .iter()
            .filter(|l| l.contains("\"recovery_result\""))
            .count();
        assert!(
            recoveries >= rep.caches_readopted + rep.caches_refetched,
            "at least one recovery per stranded container: {recoveries} < {}",
            rep.caches_readopted + rep.caches_refetched
        );
        if rep.telemetry.recovery_repairs > 0 {
            assert!(lines.iter().any(|l| l.contains("\"verdict\":\"repaired\"")));
        }
        // The full merged event stream is bit-identical per seed.
        let (_, lines2) = run();
        assert_eq!(lines, lines2, "restart day JSONL must be reproducible");
    }

    #[test]
    fn power_cut_day_is_pinned() {
        // Small pools (evictions) plus two power cuts (readoption through
        // the pools): the whole event stream and every count are pinned.
        let mut c = cfg(true, true);
        c.node_cache_bytes = c.profile.unique_read_bytes * 3;
        let reqs = stream();
        let at = reqs[reqs.len() / 3].at + 1;
        c.node_failures = vec![
            NodeFailure::power_cut(0, at, 4_000_000_000),
            NodeFailure::power_cut(2, at, 9_000_000_000),
        ];
        let (rec, sink) = RecorderHandle::jsonl();
        c.recorder = rec;
        let rep = run_cloud(&c, &reqs).unwrap();
        let jsonl = sink.lines().join("\n");
        let hash = jsonl.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let got = format!(
            "placed={} rejected={} warm={} cold={} evictions={} failures={} rescheduled={} \
             restarts={} readopted={} refetched={} mean={:?} p95={:?} storage_mb={:?} \
             jsonl={hash:016x}",
            rep.placed,
            rep.rejected,
            rep.warm_boots,
            rep.cold_boots,
            rep.evictions,
            rep.node_failures,
            rep.rescheduled_boots,
            rep.node_restarts,
            rep.caches_readopted,
            rep.caches_refetched,
            rep.mean_boot_secs,
            rep.p95_boot_secs,
            rep.storage_traffic_mb,
        );
        assert_eq!(
            got,
            "placed=48 rejected=12 warm=34 cold=14 evictions=5 failures=2 rescheduled=0 \
             restarts=2 readopted=3 refetched=1 mean=0.15026502789583335 p95=0.198689218 \
             storage_mb=42.76224 jsonl=4cd656cef28042c7"
        );
        assert!(jsonl.contains("\"cache_evict\"") && jsonl.contains("\"vmi\":\"vmi-"));
    }

    #[test]
    fn whole_fleet_down_rejects_remaining_requests() {
        let mut c = cfg(true, true);
        let reqs = stream();
        let mid = reqs[reqs.len() / 2].at;
        c.node_failures = (0..c.nodes)
            .map(|n| NodeFailure::permanent(n, mid))
            .collect();
        let rep = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.node_failures, c.nodes);
        assert!(rep.rejected > 0, "dead fleet must reject: {rep:?}");
        assert_eq!(rep.placed + rep.rejected, reqs.len());
    }

    #[test]
    fn saturated_cloud_rejects() {
        let mut c = cfg(true, true);
        c.nodes = 1;
        c.slots_per_node = 1;
        // Long lifetimes, rapid arrivals: most requests find no slot.
        let reqs = generate_requests(5, 30, 2, 100_000_000, 3_600_000_000_000);
        let rep = run_cloud(&c, &reqs).unwrap();
        assert!(rep.rejected > 0);
        assert_eq!(rep.placed + rep.rejected, 30);
    }
}
