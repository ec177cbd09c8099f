//! The one byte-level runner, driven through `run_cloud`. Simultaneous
//! requests boot exactly as one point of a paper figure does, and a boot on
//! a node that dies stops there. As properties: a short burst of requests
//! over a small fleet, with node failures, accounts for every request,
//! stamps each placement at its instant, replays bit for bit, and never
//! moves more bytes than its boots need.

use std::sync::OnceLock;

use proptest::prelude::*;
use vmi_cluster::{
    run_cloud, run_experiment, CloudConfig, CloudReport, ExperimentConfig, Mode, NodeFailure,
    Policy, VmRequest,
};
use vmi_obs::{Event, RecorderHandle};
use vmi_sim::NetSpec;
use vmi_trace::VmiProfile;

const VMIS: usize = 3;

fn config(nodes: usize, slots: usize, use_caches: bool, failures: Vec<NodeFailure>) -> CloudConfig {
    let profile = VmiProfile::tiny_test();
    CloudConfig {
        nodes,
        slots_per_node: slots,
        node_cache_bytes: profile.unique_read_bytes * 4,
        vmis: VMIS,
        profile,
        net: NetSpec::gbe_1(),
        quota: 16 << 20,
        use_caches,
        cache_aware: true,
        policy: Policy::Striping,
        seed: 11,
        node_failures: failures,
        recorder: RecorderHandle::none(),
    }
}

/// `n` requests for VMI 0, all at t = 0.
fn at_once(n: usize) -> Vec<VmRequest> {
    let req = VmRequest {
        at: 0,
        vmi: 0,
        lifetime_ns: 0,
    };
    vec![req; n]
}

/// One QCOW2 boot per node, all at once (tiny profile, seed 7, one VMI):
/// `run_cloud` gives each the time `run_experiment` gives it.
#[test]
fn simultaneous_requests_boot_as_one_figure_point() {
    for net in [NetSpec::ib_32g(), NetSpec::gbe_1()] {
        for n in [2, 8] {
            let c = CloudConfig {
                vmis: 1,
                seed: 7,
                net,
                ..config(n, 1, false, vec![])
            };
            let cloud = run_cloud(&c, &at_once(n)).unwrap();
            let mut e = ExperimentConfig::new(n, 1);
            (e.profile, e.net, e.mode, e.seed) = (c.profile.clone(), net, Mode::Qcow2, 7);
            let fig = run_experiment(&e).unwrap();
            let label = format!("{} × {n}", net.label());
            assert_eq!(cloud.placed, n, "{label}");
            assert_eq!(cloud.mean_boot_secs, fig.stats.mean_ns / 1e9, "{label}");
            let max = fig.stats.max_ns as f64 / 1e9;
            assert_eq!(cloud.p95_boot_secs, max, "{label}");
            assert_eq!(
                cloud.storage_traffic_mb,
                fig.storage_traffic_mb(),
                "{label}"
            );
        }
    }
}

/// Node 0 dies 1 ms into the only boot: the boot moves to node 1 and the
/// dead one issues no more I/O.
#[test]
fn a_killed_boot_stops_its_io_at_the_failure() {
    let c = CloudConfig {
        vmis: 1,
        seed: 7,
        ..config(2, 1, false, vec![])
    };
    let solo = run_cloud(&c, &at_once(1)).unwrap();
    let failures = vec![NodeFailure::permanent(0, 1_000_000)];
    let failed = run_cloud(
        &CloudConfig {
            node_failures: failures,
            ..c
        },
        &at_once(1),
    )
    .unwrap();
    assert_eq!((failed.placed, failed.rescheduled_boots), (1, 1));
    // Only the chain build was issued on node 0 before the failure.
    let (mb, solo_mb) = (failed.storage_traffic_mb, solo.storage_traffic_mb);
    assert!(mb < solo_mb * 1.05, "{mb} MB vs {solo_mb} MB solo");
    // The rescheduled boot does not queue behind a ghost of the dead one.
    let (secs, solo_secs) = (failed.mean_boot_secs, solo.mean_boot_secs);
    assert!(secs < solo_secs * 1.02, "{secs} s vs {solo_secs} s solo");
}

/// The most storage-NIC bytes one boot of any VMI moves on its own.
fn solo_boot_bytes() -> f64 {
    static SOLO: OnceLock<f64> = OnceLock::new();
    *SOLO.get_or_init(|| {
        (0..VMIS)
            .map(|vmi| {
                let req = VmRequest {
                    at: 0,
                    vmi,
                    lifetime_ns: 0,
                };
                run_cloud(&config(1, 1, false, vec![]), &[req])
                    .map(|r| r.storage_traffic_mb)
                    .unwrap_or(f64::INFINITY)
            })
            .fold(0.0, f64::max)
    })
}

/// One run with a JSONL recorder: the report and the whole event stream.
fn run(cfg: &CloudConfig, reqs: &[VmRequest]) -> (CloudReport, Vec<String>) {
    let (recorder, sink) = RecorderHandle::jsonl();
    let cfg = CloudConfig {
        recorder,
        ..cfg.clone()
    };
    let rep = run_cloud(&cfg, reqs).unwrap_or_else(|e| panic!("run_cloud failed: {e}"));
    (rep, sink.lines())
}

fn arb_requests() -> impl Strategy<Value = Vec<VmRequest>> {
    proptest::collection::vec((0u64..=1_000_000_000, 0..VMIS, 0u64..500_000_000), 1..=12).prop_map(
        |mut reqs| {
            reqs.sort_unstable_by_key(|r| r.0);
            reqs.into_iter()
                .map(|(at, vmi, lifetime_ns)| VmRequest {
                    at,
                    vmi,
                    lifetime_ns,
                })
                .collect()
        },
    )
}

fn arb_failures() -> impl Strategy<Value = Vec<(usize, u64, Option<u64>)>> {
    proptest::collection::vec(
        (
            0usize..4,
            0u64..=1_200_000_000,
            proptest::option::of(1_000_000u64..1_000_000_000),
        ),
        0..=2,
    )
}

proptest! {
    #[test]
    fn runner_accounts_for_every_request_and_replays_exactly(
        reqs in arb_requests(),
        nodes in 1usize..=4,
        slots in 1usize..=2,
        use_caches in any::<bool>(),
        failures in arb_failures(),
    ) {
        let failures: Vec<NodeFailure> = failures
            .into_iter()
            .map(|(node, at, downtime)| match downtime {
                Some(d) => NodeFailure::power_cut(node % nodes, at, d),
                None => NodeFailure::permanent(node % nodes, at),
            })
            .collect();
        let no_failures = failures.is_empty();
        let cfg = config(nodes, slots, use_caches, failures);
        let (rep, jsonl) = run(&cfg, &reqs);
        prop_assert_eq!(rep.placed + rep.rejected, reqs.len(), "{:?}", rep);
        if use_caches {
            prop_assert_eq!(rep.warm_boots + rep.cold_boots, rep.placed, "{:?}", rep);
        }
        // Placements are stamped at the instant they happen: an arrival, or
        // the failure that sent the request back.
        let instants: Vec<u64> = reqs.iter().map(|r| r.at).chain(cfg.node_failures.iter().map(|f| f.at)).collect();
        for line in jsonl.iter().filter(|l| l.contains("\"sched_place\"")) {
            let stamp = Event::parse_line(line).map(|(t, _)| t);
            prop_assert!(stamp.is_ok_and(|t| instants.contains(&t)), "{line}");
        }
        let (again, jsonl_again) = run(&cfg, &reqs);
        prop_assert_eq!(format!("{rep:?}"), format!("{again:?}"));
        prop_assert!(jsonl == jsonl_again, "the event stream must replay exactly");
        if no_failures && !use_caches {
            let most = rep.placed as f64 * solo_boot_bytes();
            prop_assert!(
                rep.storage_traffic_mb <= most + 1e-9,
                "{} MB moved, {} MB for {} solo boots",
                rep.storage_traffic_mb,
                most,
                rep.placed
            );
        }
    }
}
