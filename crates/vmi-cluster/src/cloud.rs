//! A cloud controller over the simulated cluster: request arrivals, slot
//! management, cache-aware placement (§3.4), per-node cache pools with LRU
//! eviction, and Algorithm 1 chain building — the paper's "next step of our
//! work is to integrate this scheme into the cloud scheduler" (§8),
//! realized end to end.
//!
//! ## Fidelity note
//!
//! Every arrival, node failure, restart and slot release is an event on the
//! one boot timeline (`runner.rs`), so boots that overlap in time interleave
//! op by op on the storage node, exactly as the simultaneous boots of a
//! paper figure do. Placement sees the fleet as it is at the arrival
//! instant, and a node failure stops the boots in flight there at the
//! failure time. What is still approximated is inside one op: it reserves
//! its whole disk→link chain when it is issued, so each FIFO resource serves
//! requests in submission order rather than arrival order. `LinkStats` and
//! `DiskStats` count how often that reorders requests and by how much.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmi_blockdev::Result;
use vmi_obs::{MetricsSnapshot, RecorderHandle};
use vmi_sim::{NetSpec, Ns};
use vmi_trace::VmiProfile;

use crate::cluster::Cluster;
use crate::experiment::vmi_seed;
use crate::runner::{Deploy, Request, Runner};
use crate::sched::{Policy, Scheduler};

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
#[derive(Debug, Clone, Default)]
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
    /// The run's metrics registry, present when a recorder was attached:
    /// what the image layers did (copy-on-read bytes, space errors,
    /// degraded caches, recovery repairs) and the per-op latency
    /// histogram. Every count above is kept with or without it.
    pub metrics: Option<MetricsSnapshot>,
}

/// Run the request stream through the cloud. Deterministic.
pub fn run_cloud(cfg: &CloudConfig, requests: &[VmRequest]) -> Result<CloudReport> {
    let mut runner = run_day(cfg, requests)?;
    let mut boot_times: Vec<Ns> = runner
        .boots()
        .filter_map(|v| Some(v.outcome?.boot_ns))
        .collect();
    let mut report = std::mem::take(&mut runner.report);
    if !boot_times.is_empty() {
        let sum: u128 = boot_times.iter().map(|&b| b as u128).sum();
        report.mean_boot_secs = sum as f64 / boot_times.len() as f64 / 1e9;
        boot_times.sort_unstable();
        report.p95_boot_secs = p95(&boot_times) as f64 / 1e9;
    }
    let cluster = &runner.cluster;
    report.storage_traffic_mb = cluster.world.link_stats(cluster.storage.nic).bytes as f64 / 1e6;
    report.metrics = cluster.obs.metrics_snapshot();
    Ok(report)
}

/// The runner after a day of `requests` on the cloud `cfg` describes.
pub(crate) fn run_day<'p>(cfg: &'p CloudConfig, requests: &[VmRequest]) -> Result<Runner<'p>> {
    assert!(cfg.nodes >= 1 && cfg.slots_per_node >= 1 && cfg.vmis >= 1);
    assert!(
        cfg.node_failures.iter().all(|f| f.node < cfg.nodes),
        "injected failure names a node outside the fleet"
    );
    let seeds = (0..cfg.vmis).map(|v| vmi_seed(cfg.seed, v));
    let cluster = Cluster::new(&cfg.profile, cfg.net, &cfg.recorder, cfg.nodes, seeds);
    let mut runner = Runner::new(cluster, cfg.slots_per_node, cfg.node_cache_bytes);
    runner.sched = Scheduler::new(cfg.policy, cfg.cache_aware);
    runner.quota = cfg.use_caches.then_some(cfg.quota);
    runner.failures = cfg.node_failures.clone();
    runner.seed = cfg.seed;
    let requests = requests.iter().map(|r| Request {
        at: r.at,
        vmi: r.vmi,
        lifetime_ns: Some(r.lifetime_ns),
        deploy: Deploy::Scheduled,
    });
    runner.run(requests.collect())?;
    Ok(runner)
}

/// The 95th percentile of a sorted, non-empty sample by nearest rank: the
/// smallest value at or above 95 % of the sample.
fn p95(sorted: &[Ns]) -> Ns {
    sorted[(sorted.len() * 95).div_ceil(100) - 1]
}

/// Convenience: pool capacity heuristic used by examples/ablations.
pub fn default_pool_bytes(profile: &VmiProfile, images: usize) -> u64 {
    (profile.unique_read_bytes * 2) * images as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::BlockDev;

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

    /// Small pools (evictions) plus two power cuts (readoption through the
    /// pools).
    fn power_cut_day() -> (CloudConfig, Vec<VmRequest>) {
        let mut c = cfg(true, true);
        c.node_cache_bytes = c.profile.unique_read_bytes * 3;
        let reqs = stream();
        let at = reqs[reqs.len() / 3].at + 1;
        c.node_failures = vec![
            NodeFailure::power_cut(0, at, 4_000_000_000),
            NodeFailure::power_cut(2, at, 9_000_000_000),
        ];
        (c, reqs)
    }

    /// Two nodes, and node 0 dies for good one nanosecond after the first
    /// request arrives, while that boot is still in flight.
    fn in_flight_failure_day() -> (CloudConfig, Vec<VmRequest>) {
        let mut c = cfg(true, true);
        c.nodes = 2;
        c.slots_per_node = 8;
        let reqs = generate_requests(3, 20, 2, 2_000_000_000, 60_000_000_000);
        c.node_failures = vec![NodeFailure::permanent(0, reqs[0].at + 1)];
        (c, reqs)
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
        // Determinism holds with failures injected.
        let rep2 = run_cloud(&c, &reqs).unwrap();
        assert_eq!(rep.placed, rep2.placed);
        assert_eq!(rep.rescheduled_boots, rep2.rescheduled_boots);
        assert_eq!(rep.mean_boot_secs, rep2.mean_boot_secs);
    }

    #[test]
    fn mid_boot_failure_emits_reschedule_events() {
        use vmi_obs::{Event, RecorderHandle};
        // The first boot (still in flight when node 0 dies) must move to
        // node 1.
        let (mut c, reqs) = in_flight_failure_day();
        let (rec, sink) = RecorderHandle::jsonl();
        c.recorder = rec;
        let rep = run_cloud(&c, &reqs).unwrap();
        assert!(rep.rescheduled_boots >= 1, "{rep:?}");
        assert_eq!(rep.node_failures, 1);
        let lines = sink.lines();
        let failed: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"node_failed\""))
            .collect();
        assert_eq!(failed.len(), rep.node_failures);
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
        use vmi_obs::{met, Event, RecorderHandle};
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
        let restarted: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"node_restarted\""))
            .collect();
        assert_eq!(restarted.len(), rep.node_restarts);
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
        let metrics = rep.metrics.as_ref().expect("recorder attached");
        if metrics.counter(met::RECOVERY_REPAIRS) > 0 {
            assert!(lines.iter().any(|l| l.contains("\"verdict\":\"repaired\"")));
        }
        // The full merged event stream is bit-identical per seed.
        let (_, lines2) = run();
        assert_eq!(lines, lines2, "restart day JSONL must be reproducible");
    }

    #[test]
    fn power_cut_day_is_pinned() {
        // The whole event stream and every count are pinned.
        let (mut c, reqs) = power_cut_day();
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
             restarts=2 readopted=3 refetched=1 mean=0.14808835741666665 p95=0.198689218 \
             storage_mb=42.76224 jsonl=cbe05f175656e5f6"
        );
        assert!(jsonl.contains("\"cache_evict\"") && jsonl.contains("\"vmi\":\"vmi-"));
    }

    #[test]
    fn counts_do_not_depend_on_a_recorder() {
        // Every field but the registry itself, with and without tracing.
        let counts = |mut rep: CloudReport| {
            rep.metrics = None;
            format!("{rep:?}")
        };
        for (mut c, reqs) in [power_cut_day(), in_flight_failure_day()] {
            let untraced = run_cloud(&c, &reqs).unwrap();
            c.recorder = RecorderHandle::jsonl().0;
            let traced = run_cloud(&c, &reqs).unwrap();
            assert!(untraced.metrics.is_none() && traced.metrics.is_some());
            assert!(
                untraced.node_failures > 0 && untraced.evictions + untraced.rescheduled_boots > 0
            );
            assert_eq!(counts(untraced), counts(traced));
        }

        let mut point = crate::ExperimentConfig::new(2, 1);
        point.profile = VmiProfile::tiny_test();
        point.mode = crate::Mode::ColdCache {
            placement: crate::Placement::ComputeMem,
            quota: 16 << 20,
            cluster_bits: 9,
        };
        let untraced = crate::run_experiment(&point).unwrap();
        point.recorder = RecorderHandle::jsonl().0;
        let mut traced = crate::run_experiment(&point).unwrap();
        assert!(untraced.metrics.is_none() && traced.metrics.take().is_some());
        assert!(untraced.storage_nic.bytes > 0 && !untraced.cache_file_sizes.is_empty());
        assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    }

    #[test]
    fn p95_is_the_nearest_rank() {
        assert_eq!(p95(&[7]), 7);
        // Two boots: the slower one, not the faster.
        assert_eq!(p95(&[1, 2]), 2);
        assert_eq!(p95(&(1..=20).collect::<Vec<_>>()), 19);
        assert_eq!(p95(&(1..=21).collect::<Vec<_>>()), 20);
        assert_eq!(p95(&(1..=100).collect::<Vec<_>>()), 95);
    }

    #[test]
    fn overlapping_cold_boots_of_one_vmi_leave_one_cache() {
        let mut c = cfg(true, true);
        (c.nodes, c.vmis) = (1, 1);
        let req = |at| VmRequest {
            at,
            vmi: 0,
            lifetime_ns: 0,
        };
        let reqs = [req(0), req(1_000_000), req(5_000_000_000)];
        let runner = run_day(&c, &reqs).unwrap();
        let rep = &runner.report;
        assert_eq!((rep.placed, rep.cold_boots, rep.warm_boots), (3, 2, 1));
        let done: Vec<_> = runner.boots().filter_map(|v| v.outcome).collect();
        assert!(done[0].done_at > 1_000_000, "the first two overlap");
        assert!(done[1].done_at < 5_000_000_000, "the third comes after");
        assert_eq!(runner.warm_local.len(), 1);
        let kept = &runner.warm_local[&(0, 0)];
        assert_eq!(runner.fleet[0].caches.used(), kept.len());
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
