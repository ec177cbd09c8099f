//! Command-line behaviour of the `figures` and `trace_report` binaries.

use std::path::PathBuf;
use std::process::{Command, Output};

use vmi_obs::Event;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn trace_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .args(args)
        .output()
        .unwrap()
}

/// A two-span stream (one root, one child, both closed) in `dir`.
fn small_trace(dir: &std::path::Path) -> String {
    let events = [
        (
            0,
            Event::SpanStart {
                id: 1,
                parent: 0,
                kind: "boot.vm".into(),
                detail: String::new(),
            },
        ),
        (
            5,
            Event::SpanStart {
                id: 2,
                parent: 1,
                kind: "qcow.read".into(),
                detail: String::new(),
            },
        ),
        (9, Event::SpanEnd { id: 2 }),
        (12, Event::SpanEnd { id: 1 }),
    ];
    let text: String = events
        .iter()
        .map(|(t, ev)| ev.to_json_line(*t) + "\n")
        .collect();
    let path = dir.join("in.jsonl");
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// Assert a usage error: exit status 2 and the usage line on stderr.
fn assert_usage_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage: trace_report"), "stderr: {stderr}");
}

#[test]
fn figures_runs_an_artifact_named_twice_once() {
    let dir = scratch("figures_dedup");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "--out", dir.to_str().unwrap()])
        .args(["table1", "table2", "table1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let runs = |name: &str| {
        stdout
            .lines()
            .filter(|l| l.starts_with(&format!("[{name}:")))
            .count()
    };
    assert_eq!(runs("table1"), 1, "{stdout}");
    assert_eq!(runs("table2"), 1, "{stdout}");
}

#[test]
fn trace_report_analyses_the_given_file() {
    let dir = scratch("trace_report_file");
    let input = small_trace(&dir);
    let report = dir.join("report.json");
    let out = trace_report(&[&input, "--check", "--out", report.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("OK: 2 spans, all balanced"), "{stdout}");
    assert!(report.exists());
}

#[test]
fn trace_report_refuses_to_overwrite_its_input() {
    let dir = scratch("trace_report_overwrite");
    let input = small_trace(&dir);
    let before = std::fs::read(&input).unwrap();
    for flag in ["--out", "--chrome"] {
        assert_usage_error(&trace_report(&[&input, flag, &input]));
        assert_eq!(
            std::fs::read(&input).unwrap(),
            before,
            "{flag} wrote the input"
        );
    }
}

#[test]
fn trace_report_rejects_a_flag_without_its_value() {
    for flag in ["--out", "--chrome"] {
        assert_usage_error(&trace_report(&["--demo", flag]));
    }
}

#[test]
fn trace_report_rejects_an_unknown_flag() {
    assert_usage_error(&trace_report(&["--demo", "--bogus"]));
}

#[test]
fn trace_report_needs_an_input_or_demo() {
    assert_usage_error(&trace_report(&[]));
    assert_usage_error(&trace_report(&["--check"]));
}
