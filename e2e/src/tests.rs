//! Tests of the benchmark itself, at `tiny_test` size. Run them with
//! `cargo test --manifest-path e2e/Cargo.toml`; the full-size benchmark is
//! never run by them.

use std::sync::Arc;

use serde_json::Value;
use vmi_blockdev::{BlockDev, CountingDev, IoStatsSnapshot, MemDev, SharedDev};
use vmi_cluster::deploy::{build_chain, ChainSpec, Mode, Placement};
use vmi_obs::Obs;
use vmi_trace::VmiProfile;

use crate::fixture::{Fixture, Scratch, CACHE_CLUSTER_BITS};
use crate::run::{run, run_passes, Cfg};
use crate::spandev::{Recorder, Role};
use crate::workload::Kind;

fn tiny_fixture(dir: &Scratch, seed: u64) -> Fixture {
    Fixture::build(dir, &VmiProfile::tiny_test(), seed).unwrap()
}

/// One cold boot on counted memory devices, each wrapped by `wrap` first.
/// Returns what the devices below saw and what the containers hold.
fn counted_cold_boot(
    fx: &Fixture,
    wrap: &dyn Fn(Role, SharedDev) -> SharedDev,
) -> (Vec<IoStatsSnapshot>, Vec<Vec<u8>>) {
    let containers = [Arc::new(MemDev::new()), Arc::new(MemDev::new())];
    let counted: Vec<Arc<CountingDev>> = vec![
        Arc::new(CountingDev::new(containers[0].clone() as SharedDev)),
        Arc::new(CountingDev::new(containers[1].clone() as SharedDev)),
        Arc::new(CountingDev::new(fx.open_base().unwrap() as SharedDev)),
    ];
    let chain = build_chain(ChainSpec {
        mode: Mode::ColdCache {
            placement: Placement::ComputeMem,
            quota: fx.roomy_quota,
            cluster_bits: CACHE_CLUSTER_BITS,
        },
        profile: &fx.profile,
        cache_dev: Some(wrap(Role::Cache, counted[0].clone())),
        cow_dev: wrap(Role::Cow, counted[1].clone()),
        base_dev: wrap(Role::Base, counted[2].clone()),
        cache_read_only: false,
        obs: Obs::disabled(),
    })
    .unwrap();
    let mut buf = vec![0u8; 1 << 20];
    for op in &fx.ops {
        let b = &mut buf[..op.len as usize];
        if op.write {
            chain.write_at(b, op.off).unwrap();
        } else {
            chain.read_at(b, op.off).unwrap();
        }
    }
    drop(chain);
    (
        counted.iter().map(|c| c.stats().snapshot()).collect(),
        containers.iter().map(|c| c.to_vec()).collect(),
    )
}

#[test]
fn spandev_does_not_change_what_the_layer_below_sees() {
    let dir = Scratch::create().unwrap();
    let fx = tiny_fixture(&dir, 5);
    let rec = Recorder::new(true);
    let bare = counted_cold_boot(&fx, &|_, dev| dev);
    let wrapped = counted_cold_boot(&fx, &|role, dev| rec.wrap(role, dev));
    assert_eq!(bare.0, wrapped.0, "device calls differ under SpanDev");
    assert!(bare.1 == wrapped.1, "container bytes differ under SpanDev");
    assert!(
        bare.0[0].run_writes > 0,
        "the boot never used a run entry point"
    );
}

const SERIAL: [Kind; 4] = [
    Kind::BootCold,
    Kind::BootQuota,
    Kind::BootWarm,
    Kind::GuestRw,
];

#[test]
fn same_seed_same_inputs_and_same_counts() {
    let dir = Scratch::create().unwrap();
    let other_dir = Scratch::create().unwrap();
    assert!(tiny_fixture(&other_dir, 10).ops != tiny_fixture(&other_dir, 9).ops);
    let fx = tiny_fixture(&dir, 9);
    assert!(fx.ops == tiny_fixture(&other_dir, 9).ops);
    for kind in SERIAL {
        let cfg = Cfg::smoke(kind, 9, false);
        let verified = || {
            run_passes(&fx, &dir, &cfg, &[false], 0.0)
                .unwrap()
                .remove(0)
                .verified
        };
        let (a, b) = (verified(), verified());
        let name = kind.name();
        assert_eq!(a.devs, b.devs, "{name}: device calls or bytes differ");
        assert_eq!(a.cor, b.cor, "{name}: cache counters differ");
        assert_eq!(a.store_bytes, b.store_bytes, "{name}");
        assert_eq!(
            (a.ops, a.read_bytes, a.write_bytes),
            (b.ops, b.read_bytes, b.write_bytes),
            "{name}"
        );
        assert!(a.broken.is_empty() && a.mismatches == 0, "{name}: {a:?}");
    }
}

#[test]
fn a_wrong_read_is_reported_and_fails_the_run() {
    for kind in Kind::ALL {
        let cfg = Cfg {
            corrupt_oracle: true,
            ..Cfg::smoke(kind, 3, false)
        };
        let report = run(&cfg).unwrap();
        assert!(report.failed > 0 && !report.correct, "{}", kind.name());
        assert!(!crate::one(&cfg), "{}: exit code would be 0", kind.name());
    }
}

/// The `(name, <key>)` pairs of a list in BENCHMARK.json.
fn declared(contract: &Value, list: &str, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = contract.get(list) else {
        panic!("BENCHMARK.json has no list {list}")
    };
    let text = |item: &Value, key: &str| item.get(key).and_then(Value::as_str).unwrap().to_string();
    items
        .iter()
        .map(|item| (text(item, "name"), text(item, key)))
        .collect()
}

#[test]
fn smoke_runs_print_the_metrics_benchmark_json_names() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract: Value =
        serde_json::from_str(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let workloads: Vec<String> = declared(&contract, "workloads", "why")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    for kind in Kind::ALL {
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&Cfg::smoke(kind, 42, traced)).unwrap();
            assert!(report.correct, "{}: {:?}", kind.name(), report.problems);
            let line: Value = serde_json::from_str(&crate::result_line(&report)).unwrap();
            let Value::Object(fields) = &line else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).unwrap().is_finite());
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().into(),
                    )
                })
                .collect();
            assert_eq!(printed, declared(&contract, section, "unit"), "{section}");
        }
    }
}

#[test]
fn smoke_mode_passes() {
    assert!(crate::smoke(7));
}

#[test]
fn scratch_directory_is_removed_on_drop() {
    let dir = Scratch::create().unwrap();
    let inside = dir.path("file");
    std::fs::write(&inside, b"x").unwrap();
    let root = inside.parent().unwrap().to_path_buf();
    drop(dir);
    assert!(!root.exists());
}
