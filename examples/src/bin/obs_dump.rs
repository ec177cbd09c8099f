//! Observability tour: run a cold and a warm two-node experiment with a
//! JSONL recorder attached, then pretty-print the telemetry snapshot and
//! the head of the event stream.
//!
//! The telemetry tests (`tests/tests/obs_telemetry.rs`) replay the same
//! stream and assert it matches this snapshot.
//!
//! Run with: `cargo run --release -p vmcache-examples --bin obs_dump`
//!
//! `--prometheus` additionally dumps the merged metrics registry of the
//! warm run in the Prometheus text exposition format.

use std::sync::Arc;

use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement, Telemetry, WarmStore};
use vmi_obs::{JsonlSink, RecorderHandle};
use vmi_sim::NetSpec;
use vmi_trace::VmiProfile;

const SHOWN_EVENTS: usize = 24;

fn main() {
    let store = WarmStore::new();
    let sink = JsonlSink::new();
    let recorder = RecorderHandle::of(sink.clone());

    let cold_mode = Mode::ColdCache {
        placement: Placement::ComputeDisk,
        quota: 16 << 20,
        cluster_bits: 9,
    };
    let warm_mode = Mode::WarmCache {
        placement: Placement::ComputeDisk,
        quota: 16 << 20,
        cluster_bits: 9,
    };

    let cold = run(&store, recorder.clone(), cold_mode);
    let cold_lines = sink.len();
    let warm = run(&store, recorder, warm_mode);

    section(
        "cold boot (2 nodes, empty caches)",
        &cold.telemetry,
        cold.mean_boot_secs(),
    );
    section(
        "warm boot (same VMI, persisted caches)",
        &warm.telemetry,
        warm.mean_boot_secs(),
    );

    let lines = sink.lines();
    println!(
        "== event stream: {} events total ({} cold, {} warm); first {} ==",
        lines.len(),
        cold_lines,
        lines.len() - cold_lines,
        SHOWN_EVENTS.min(lines.len())
    );
    for line in lines.iter().take(SHOWN_EVENTS) {
        println!("  {line}");
    }
    if lines.len() > SHOWN_EVENTS {
        println!("  ... {} more", lines.len() - SHOWN_EVENTS);
    }

    if std::env::args().any(|a| a == "--prometheus") {
        match &warm.metrics {
            Some(snap) => {
                println!("\n== warm-run metrics (Prometheus text format) ==");
                print!("{}", snap.to_prometheus());
            }
            None => println!("\n(no metrics: recorder disabled)"),
        }
    }
}

fn run(
    store: &Arc<WarmStore>,
    recorder: RecorderHandle,
    mode: Mode,
) -> vmi_cluster::ExperimentOutcome {
    run_experiment(&ExperimentConfig {
        nodes: 2,
        vmis: 1,
        profile: VmiProfile::tiny_test(),
        net: NetSpec::gbe_1(),
        mode,
        seed: 42,
        warm_store: Some(store.clone()),
        recorder,
    })
    .expect("experiment runs")
}

fn section(title: &str, t: &Telemetry, mean_boot_secs: f64) {
    println!("== {title} ==");
    println!("  mean boot       {mean_boot_secs:.3} s");
    println!("  hit ratio       {:.4}", t.hit_ratio);
    println!("  fill bytes      {}", t.fill_bytes);
    println!("  space errors    {}", t.space_errors);
    println!("  evictions       {}", t.evictions);
    match (t.p50_op_ns, t.p99_op_ns) {
        (Some(p50), Some(p99)) => println!("  op latency      p50 ≤ {p50} ns, p99 ≤ {p99} ns"),
        _ => println!("  op latency      (no recorder)"),
    }
    for (i, c) in t.per_cache.iter().enumerate() {
        println!(
            "  cache[{i}]        hit={} miss={} fill={} rejects={} ratio={:.4}",
            c.hit_bytes,
            c.miss_bytes,
            c.fill_bytes,
            c.fill_rejects,
            c.hit_ratio()
        );
    }
    println!();
}
