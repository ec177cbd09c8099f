//! Reconstruct trace trees from span JSONL and report critical paths.
//!
//! Usage: `trace_report (INPUT.jsonl | --demo) [--check] [--out PATH] [--chrome PATH]`
//!
//! Reads a `vmi-obs` JSONL event stream (a file, or `--demo` to record a
//! fresh seeded two-node cold-cache experiment), rebuilds the span forest,
//! and prints per-boot critical paths plus the per-stage latency table.
//! Malformed lines are fatal: each is reported with its 1-based line number
//! and the process exits with status 2. `--check` additionally exits
//! non-zero when the forest has unbalanced spans (or no spans at all).
//! `--out` writes the report JSON; `--chrome` writes a Chrome `trace_event`
//! file loadable in Perfetto / `chrome://tracing`. A bad command line (a
//! flag without its value, an unknown flag, an output path that is the
//! input, or neither an input nor `--demo`) exits with status 2.

use std::path::Path;

use vmi_bench::obs_report::replay_lines_strict;
use vmi_bench::trace_report::{analyze, TraceForest};
use vmi_obs::Event;

const USAGE: &str =
    "usage: trace_report (INPUT.jsonl | --demo) [--check] [--out PATH] [--chrome PATH]";

/// Print `msg` and the usage line, then exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("trace_report: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// True when `a` and `b` name the same file.
fn same_file(a: &str, b: &str) -> bool {
    a == b
        || matches!(
            (Path::new(a).canonicalize(), Path::new(b).canonicalize()),
            (Ok(x), Ok(y)) if x == y
        )
}

fn main() {
    let mut check = false;
    let mut demo = false;
    let mut out: Option<String> = None;
    let mut chrome: Option<String> = None;
    let mut input: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--demo" => demo = true,
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out needs a path")),
                )
            }
            "--chrome" => {
                chrome = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--chrome needs a path")),
                )
            }
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag:?}")),
            _ if input.is_some() => usage_error(&format!("more than one input ({a:?})")),
            _ => input = Some(a),
        }
    }
    if let Some(path) = &input {
        for written in [&out, &chrome].into_iter().flatten() {
            if same_file(path, written) {
                usage_error(&format!("output {written:?} would overwrite the input"));
            }
        }
    }

    let (source, lines) = match (&input, demo) {
        (Some(path), false) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            (
                path.clone(),
                text.lines().map(str::to_string).collect::<Vec<_>>(),
            )
        }
        (None, true) => ("demo".to_string(), record_demo()),
        (Some(_), true) => usage_error("pass either an input file or --demo, not both"),
        (None, false) => usage_error("pass an input file or --demo"),
    };

    let (summary, bad) = replay_lines_strict(&lines);
    if !bad.is_empty() {
        for (line_no, err) in &bad {
            eprintln!("{source}:{line_no}: malformed event line: {err}");
        }
        eprintln!("{}: {} malformed line(s)", source, bad.len());
        std::process::exit(2);
    }

    let events: Vec<(u64, Event)> = lines
        .iter()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Event::parse_line(l).ok())
        .collect();
    let rep = analyze(&events);
    print!("{}", rep.render());
    println!(
        "point events: {} span events: {}+{}",
        summary.events as u64 - summary.span_starts - summary.span_ends,
        summary.span_starts,
        summary.span_ends
    );

    if let Some(path) = &out {
        write_or_die(path, &(rep.to_json() + "\n"));
    }
    if let Some(path) = &chrome {
        let forest = TraceForest::from_events(&events);
        write_or_die(path, &forest.to_chrome_trace());
    }

    if check {
        if rep.spans == 0 {
            eprintln!("FAIL: stream contains no spans");
            std::process::exit(1);
        }
        if rep.unbalanced > 0 {
            eprintln!("FAIL: {} unbalanced span(s)", rep.unbalanced);
            std::process::exit(1);
        }
        println!("OK: {} spans, all balanced", rep.spans);
    }
}

fn write_or_die(path: &str, content: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {path}");
}

/// Record a fresh seeded two-node cold-cache experiment and return its
/// JSONL stream — a self-contained way to produce a real trace (the CI
/// artifact) without shipping fixture files.
fn record_demo() -> Vec<String> {
    use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement};
    use vmi_obs::{JsonlSink, RecorderHandle};

    let sink = JsonlSink::new();
    let cfg = ExperimentConfig {
        nodes: 2,
        vmis: 1,
        profile: vmi_trace::VmiProfile::tiny_test(),
        net: vmi_sim::NetSpec::gbe_1(),
        mode: Mode::ColdCache {
            placement: Placement::ComputeDisk,
            quota: 16 << 20,
            cluster_bits: 9,
        },
        seed: 42,
        warm_store: None,
        recorder: RecorderHandle::of(sink.clone()),
    };
    if let Err(e) = run_experiment(&cfg) {
        eprintln!("demo experiment failed: {e}");
        std::process::exit(2);
    }
    sink.lines()
}
