//! Observability tour: run a cold and a warm two-node experiment with a
//! JSONL recorder attached, then pretty-print each run's metrics registry
//! and the head of the event stream.
//!
//! The observability tests (`tests/tests/obs_telemetry.rs`) replay the same
//! stream and assert it matches the registry.
//!
//! Run with: `cargo run --release -p vmcache-examples --bin obs_dump`
//!
//! `--prometheus` additionally dumps the merged metrics registry of the
//! warm run in the Prometheus text exposition format.

use std::sync::Arc;

use vmi_cluster::{
    run_experiment, ExperimentConfig, ExperimentOutcome, Mode, Placement, WarmStore,
};
use vmi_obs::{met, JsonlSink, RecorderHandle};
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

    section("cold boot (2 nodes, empty caches)", &cold);
    section("warm boot (same VMI, persisted caches)", &warm);

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

fn run(store: &Arc<WarmStore>, recorder: RecorderHandle, mode: Mode) -> ExperimentOutcome {
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

fn section(title: &str, out: &ExperimentOutcome) {
    let m = out.metrics.as_ref().expect("the recorder keeps a registry");
    let (hits, misses) = (
        m.counter(met::CACHE_HIT_BYTES),
        m.counter(met::CACHE_MISS_BYTES),
    );
    println!("== {title} ==");
    println!("  mean boot       {:.3} s", out.mean_boot_secs());
    println!(
        "  hit ratio       {:.4}",
        hits as f64 / (hits + misses) as f64
    );
    println!("  hit bytes       {hits}");
    println!("  miss bytes      {misses}");
    println!("  fill bytes      {}", m.counter(met::COR_FILL_BYTES));
    println!("  space errors    {}", m.counter(met::SPACE_ERRORS));
    match m.histogram(met::VM_OP_NS) {
        Some(h) => println!(
            "  op latency      p50 ≤ {} ns, p99 ≤ {} ns",
            h.quantile(0.5),
            h.quantile(0.99)
        ),
        None => println!("  op latency      (no ops)"),
    }
    println!();
}
