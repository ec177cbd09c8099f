//! Trace-tree reconstruction, critical-path analysis, and Chrome export.
//!
//! An experiment recorded with spans leaves a JSONL stream of
//! `span_start`/`span_end` events (plus the point events PR 3 introduced).
//! This module rebuilds the causal forest — every `boot.vm` root down to the
//! device-I/O leaves — computes each boot's critical path (the greedy
//! longest-child chain), aggregates per-stage latency breakdowns (p50/p99
//! per span kind, and per cache tier for the qcow layers), and exports the
//! whole forest in the Chrome `trace_event` format so a run can be opened
//! directly in Perfetto / `chrome://tracing`. The `trace_report` binary
//! drives it from the command line.

use std::collections::HashMap;

use serde::Serialize;
use vmi_obs::Event;

/// One reconstructed span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Span id: a sequence number of the recording `Obs`, unique within
    /// one recording (two recordings into one sink reuse ids).
    pub id: u64,
    /// Parent id, 0 for roots.
    pub parent: u64,
    /// Span kind (`nbd.request`, `qcow.read`, `dev.fill`, ...).
    pub kind: String,
    /// Free-form `key=value` attributes captured at start.
    pub detail: String,
    /// Start timestamp (simulated or wall ns, per the recording clock).
    pub start_ns: u64,
    /// End timestamp; `None` when the stream ended before the span closed.
    pub end_ns: Option<u64>,
    /// Child span ids, in start order.
    pub children: Vec<u64>,
}

impl Span {
    /// Span duration; unclosed spans count as zero.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }

    /// Value of a `key=value` attribute in `detail`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.detail
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    }

    /// Stage label for latency aggregation: the kind, refined by cache tier
    /// for the qcow layers (`qcow.read[cache]` vs `qcow.read[base]`).
    pub fn stage(&self) -> String {
        match self.attr("layer") {
            Some(layer) => format!("{}[{layer}]", self.kind),
            None => self.kind.clone(),
        }
    }
}

/// The reconstructed forest over one event stream.
#[derive(Debug, Default)]
pub struct TraceForest {
    /// Every span seen, by id.
    pub spans: HashMap<u64, Span>,
    /// Root span ids (parent 0 or parent never seen), in start order.
    pub roots: Vec<u64>,
    /// `span_end` events whose id was never started (or ended twice).
    pub unmatched_ends: u64,
    /// `span_start` events whose id was already started; the first span
    /// with that id is kept.
    duplicate_starts: u64,
}

impl TraceForest {
    /// Rebuild the forest from parsed `(t_ns, event)` pairs.
    pub fn from_events(events: &[(u64, Event)]) -> Self {
        let mut f = TraceForest::default();
        for (t, ev) in events {
            match ev {
                Event::SpanStart {
                    id,
                    parent,
                    kind,
                    detail,
                } => {
                    if f.spans.contains_key(id) {
                        f.duplicate_starts += 1;
                        continue;
                    }
                    f.spans.insert(
                        *id,
                        Span {
                            id: *id,
                            parent: *parent,
                            kind: kind.clone(),
                            detail: detail.clone(),
                            start_ns: *t,
                            end_ns: None,
                            children: Vec::new(),
                        },
                    );
                    if *parent != 0 && f.spans.contains_key(parent) {
                        if let Some(p) = f.spans.get_mut(parent) {
                            p.children.push(*id);
                        }
                    } else {
                        f.roots.push(*id);
                    }
                }
                Event::SpanEnd { id } => match f.spans.get_mut(id) {
                    Some(s) if s.end_ns.is_none() => s.end_ns = Some(*t),
                    _ => f.unmatched_ends += 1,
                },
                _ => {}
            }
        }
        f
    }

    /// Spans that never closed.
    pub fn unclosed(&self) -> u64 {
        self.spans.values().filter(|s| s.end_ns.is_none()).count() as u64
    }

    /// Total balance defects: unmatched ends, duplicate starts and unclosed
    /// starts. A clean run reconstructs with zero.
    pub fn unbalanced(&self) -> u64 {
        self.unmatched_ends + self.duplicate_starts + self.unclosed()
    }

    /// The critical path under `root`: greedily follow the longest-duration
    /// child until a leaf. Returns span ids, root first.
    pub fn critical_path(&self, root: u64) -> Vec<u64> {
        let mut path = Vec::new();
        let mut cur = root;
        while let Some(s) = self.spans.get(&cur) {
            path.push(cur);
            let next = s
                .children
                .iter()
                .filter_map(|c| self.spans.get(c))
                .max_by_key(|c| c.duration_ns());
            match next {
                Some(c) => cur = c.id,
                None => break,
            }
        }
        path
    }

    /// Total duration in the subtree of `root`, grouped by stage label.
    pub fn stage_breakdown(&self, root: u64) -> Vec<(String, u64)> {
        let mut acc: std::collections::BTreeMap<String, u64> = Default::default();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Some(s) = self.spans.get(&id) {
                *acc.entry(s.stage()).or_insert(0) += s.duration_ns();
                stack.extend(&s.children);
            }
        }
        acc.into_iter().collect()
    }

    /// Per-stage latency statistics over every span in the forest.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let mut by_stage: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
        for s in self.spans.values() {
            by_stage.entry(s.stage()).or_default().push(s.duration_ns());
        }
        by_stage
            .into_iter()
            .map(|(stage, mut d)| {
                d.sort_unstable();
                let n = d.len();
                StageStats {
                    stage,
                    count: n as u64,
                    total_ns: d.iter().sum(),
                    p50_ns: d[(n * 50).div_ceil(100) - 1],
                    p99_ns: d[(n * 99).div_ceil(100) - 1],
                    max_ns: d[n - 1],
                }
            })
            .collect()
    }

    /// Export the forest as Chrome `trace_event` JSON (complete `"X"`
    /// events, microsecond timestamps), loadable in Perfetto or
    /// `chrome://tracing`, on one track.
    pub fn to_chrome_trace(&self) -> String {
        #[derive(Serialize)]
        struct ChromeEvent {
            name: String,
            cat: String,
            ph: String,
            ts: f64,
            dur: f64,
            pid: u64,
            tid: u64,
            args: ChromeArgs,
        }
        #[derive(Serialize)]
        struct ChromeArgs {
            id: u64,
            parent: u64,
            detail: String,
        }
        let mut spans: Vec<&Span> = self.spans.values().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let events: Vec<ChromeEvent> = spans
            .iter()
            .map(|s| ChromeEvent {
                name: s.kind.clone(),
                cat: "vmi".to_string(),
                ph: "X".to_string(),
                ts: s.start_ns as f64 / 1000.0,
                dur: s.duration_ns() as f64 / 1000.0,
                pid: 1,
                tid: 0,
                args: ChromeArgs {
                    id: s.id,
                    parent: s.parent,
                    detail: s.detail.clone(),
                },
            })
            .collect();
        let doc = serde::Value::Object(vec![
            (
                "traceEvents".to_string(),
                serde::Serialize::to_value(&events),
            ),
            (
                "displayTimeUnit".to_string(),
                serde::Value::Str("ns".to_string()),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("chrome trace serializes") // lint:allow(no-unwrap): serde on POD structs is infallible
    }
}

/// Latency statistics for one stage (span kind, tier-refined).
#[derive(Debug, Clone, Serialize)]
pub struct StageStats {
    /// Stage label, e.g. `qcow.read[cache]`.
    pub stage: String,
    /// Number of spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Median duration (exact, not bucketed).
    pub p50_ns: u64,
    /// 99th-percentile duration (exact).
    pub p99_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// One hop on a critical path.
#[derive(Debug, Clone, Serialize)]
pub struct CritStep {
    /// Span kind.
    pub kind: String,
    /// Span attributes.
    pub detail: String,
    /// Span duration.
    pub duration_ns: u64,
}

/// Summed subtree duration for one stage of one boot.
#[derive(Debug, Clone, Serialize)]
pub struct StageTotal {
    /// Stage label.
    pub stage: String,
    /// Summed duration.
    pub total_ns: u64,
}

/// One `boot.vm` root, analyzed.
#[derive(Debug, Clone, Serialize)]
pub struct BootReport {
    /// Root span id.
    pub root: u64,
    /// `vm=...` attributes from the root span.
    pub detail: String,
    /// Boot duration (root span duration).
    pub duration_ns: u64,
    /// Critical path, root first.
    pub critical_path: Vec<CritStep>,
    /// Summed subtree duration per stage.
    pub stage_ns: Vec<StageTotal>,
}

/// The whole `trace_report` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct TraceReport {
    /// Artifact id.
    pub bench: String,
    /// Events replayed (all kinds, not only spans).
    pub events: usize,
    /// Spans reconstructed.
    pub spans: u64,
    /// Root spans.
    pub roots: u64,
    /// Balance defects (must be 0 for a complete stream).
    pub unbalanced: u64,
    /// Per-boot analyses, in start order.
    pub boots: Vec<BootReport>,
    /// Forest-wide per-stage latency table.
    pub stages: Vec<StageStats>,
}

/// What [`parse_lines`] returns: the `(t_ns, event)` pairs, and each
/// malformed line's 1-based number with its parse error.
pub type ParsedLines = (Vec<(u64, Event)>, Vec<(usize, String)>);

/// Parse raw JSONL lines into `(t_ns, event)` pairs. Blank lines are
/// skipped; malformed ones come back with their 1-based line number and
/// parse error, so a caller can point at each offender.
pub fn parse_lines(lines: &[String]) -> ParsedLines {
    let mut events = Vec::with_capacity(lines.len());
    let mut bad = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok(pair) => events.push(pair),
            Err(e) => bad.push((i + 1, e.to_string())),
        }
    }
    (events, bad)
}

/// Analyze a parsed event stream.
pub fn analyze(events: &[(u64, Event)]) -> TraceReport {
    let forest = TraceForest::from_events(events);
    let boots: Vec<BootReport> = forest
        .roots
        .iter()
        .filter_map(|id| forest.spans.get(id))
        .filter(|s| s.kind == "boot.vm")
        .map(|s| BootReport {
            root: s.id,
            detail: s.detail.clone(),
            duration_ns: s.duration_ns(),
            critical_path: forest
                .critical_path(s.id)
                .iter()
                .filter_map(|id| forest.spans.get(id))
                .map(|s| CritStep {
                    kind: s.kind.clone(),
                    detail: s.detail.clone(),
                    duration_ns: s.duration_ns(),
                })
                .collect(),
            stage_ns: forest
                .stage_breakdown(s.id)
                .into_iter()
                .map(|(stage, total_ns)| StageTotal { stage, total_ns })
                .collect(),
        })
        .collect();
    TraceReport {
        bench: "pr6_trace_report".to_string(),
        events: events.len(),
        spans: forest.spans.len() as u64,
        roots: forest.roots.len() as u64,
        unbalanced: forest.unbalanced(),
        boots,
        stages: forest.stage_stats(),
    }
}

impl TraceReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes") // lint:allow(no-unwrap): serde on POD structs is infallible
    }

    /// Render an aligned text summary.
    pub fn render(&self) -> String {
        let mut out = String::from("== pr6 trace_report — causal span forest ==\n");
        out.push_str(&format!(
            "events {}  spans {}  roots {}  unbalanced {}\n",
            self.events, self.spans, self.roots, self.unbalanced
        ));
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "{:<20} {:>8} {:>12} {:>12} {:>12}\n",
                "stage", "count", "p50 ns", "p99 ns", "total ns"
            ));
            for s in &self.stages {
                out.push_str(&format!(
                    "{:<20} {:>8} {:>12} {:>12} {:>12}\n",
                    s.stage, s.count, s.p50_ns, s.p99_ns, s.total_ns
                ));
            }
        }
        for b in &self.boots {
            out.push_str(&format!(
                "boot[{}] {} — {} ns, critical path:\n",
                b.root, b.detail, b.duration_ns
            ));
            for step in &b.critical_path {
                out.push_str(&format!(
                    "  {:<16} {:>12} ns  {}\n",
                    step.kind, step.duration_ns, step.detail
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vmi_obs::{JsonlSink, ManualClock, Obs};

    /// Emit a tiny two-boot forest through the real span API.
    fn sample_events() -> Vec<(u64, Event)> {
        let clock = Arc::new(ManualClock::new(0));
        let sink = JsonlSink::new();
        let obs = Obs::new(clock.clone(), sink.clone());

        clock.set(100);
        let boot = obs.span("boot.vm", || "vm=0 ops=2".to_string());
        clock.set(110);
        let op = boot.child("vm.op", || "vm=0 kind=read bytes=512".to_string());
        clock.set(115);
        let q = obs.span_in(op.id(), "qcow.read", || "layer=cache bytes=512".to_string());
        clock.set(140);
        drop(q);
        clock.set(150);
        drop(op);
        // A second, shorter op: the critical path must pick the first.
        clock.set(160);
        let op2 = boot.child("vm.op", || "vm=0 kind=read bytes=64".to_string());
        clock.set(170);
        drop(op2);
        clock.set(200);
        drop(boot);
        sink.events()
    }

    #[test]
    fn forest_reconstructs_and_balances() {
        let events = sample_events();
        let f = TraceForest::from_events(&events);
        assert_eq!(f.roots.len(), 1);
        assert_eq!(f.spans.len(), 4);
        assert_eq!(f.unbalanced(), 0);
        let root = &f.spans[&f.roots[0]];
        assert_eq!(root.kind, "boot.vm");
        assert_eq!(root.duration_ns(), 100);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.attr("vm"), Some("0"));
        assert_eq!(root.attr("ops"), Some("2"));
    }

    #[test]
    fn critical_path_follows_longest_child() {
        let events = sample_events();
        let rep = analyze(&events);
        assert_eq!(rep.unbalanced, 0);
        assert_eq!(rep.boots.len(), 1);
        let path: Vec<&str> = rep.boots[0]
            .critical_path
            .iter()
            .map(|s| s.kind.as_str())
            .collect();
        // boot.vm → the 40 ns op (not the 10 ns one) → its qcow.read.
        assert_eq!(path, vec!["boot.vm", "vm.op", "qcow.read"]);
        assert_eq!(rep.boots[0].critical_path[1].duration_ns, 40);
    }

    #[test]
    fn stage_stats_split_by_tier() {
        let events = sample_events();
        let rep = analyze(&events);
        let stages: Vec<&str> = rep.stages.iter().map(|s| s.stage.as_str()).collect();
        assert!(stages.contains(&"qcow.read[cache]"), "{stages:?}");
        let vm_op = rep.stages.iter().find(|s| s.stage == "vm.op").unwrap();
        assert_eq!(vm_op.count, 2);
        assert_eq!(vm_op.p50_ns, 10);
        assert_eq!(vm_op.p99_ns, 40);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_spans() {
        let events = sample_events();
        let f = TraceForest::from_events(&events);
        let doc: serde_json::Value = serde_json::from_str(&f.to_chrome_trace()).unwrap();
        let evs = doc["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 4);
        assert!(evs.iter().all(|e| e["ph"].as_str() == Some("X")));
        let boot = evs
            .iter()
            .find(|e| e["name"].as_str() == Some("boot.vm"))
            .unwrap();
        assert_eq!(boot["ts"].as_f64().unwrap(), 0.1); // 100 ns = 0.1 µs
        assert_eq!(boot["dur"].as_f64().unwrap(), 0.1);
    }

    /// Two recordings into one sink reuse span ids: each reused start is a
    /// balance defect (and so is its end), and the first span is kept.
    #[test]
    fn reused_span_ids_count_unbalanced_and_keep_the_first_span() {
        let sink = JsonlSink::new();
        for (vm, t0) in [(0, 100), (1, 1000)] {
            let clock = Arc::new(ManualClock::new(t0));
            let obs = Obs::new(clock.clone(), sink.clone());
            let boot = obs.span("boot.vm", || format!("vm={vm}"));
            clock.set(t0 + 10);
            let q = boot.child("qcow.read", || "layer=cache bytes=512".to_string());
            clock.set(t0 + 20);
            drop(q);
            clock.set(t0 + 50);
            drop(boot);
        }
        let events = sink.events();
        assert_eq!(events.len(), 8);
        let f = TraceForest::from_events(&events);
        assert_eq!(f.spans.len(), 2);
        assert_eq!(f.roots, vec![1]);
        assert_eq!(f.unbalanced(), 4, "two reused starts and their ends");
        let rep = analyze(&events);
        assert_eq!(rep.boots.len(), 1);
        assert_eq!(rep.boots[0].detail, "vm=0");
        assert_eq!(f.spans[&1].start_ns, 100);
    }

    #[test]
    fn parse_lines_reports_bad_line_numbers_and_skips_blanks() {
        let lines = vec![
            Event::SpanStart {
                id: 1,
                parent: 0,
                kind: "nbd.request".into(),
                detail: String::new(),
            }
            .to_json_line(5),
            "{broken".to_string(),
            String::new(),
            Event::SpanEnd { id: 1 }.to_json_line(9),
            "also broken".to_string(),
        ];
        let (events, bad) = parse_lines(&lines);
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].0, events[1].0), (5, 9));
        assert!(matches!(events[1].1, Event::SpanEnd { id: 1 }));
        let bad_lines: Vec<usize> = bad.iter().map(|(n, _)| *n).collect();
        assert_eq!(bad_lines, vec![2, 5], "1-based offender line numbers");
    }

    #[test]
    fn truncated_stream_counts_unbalanced() {
        let mut events = sample_events();
        events.pop(); // drop the boot.vm end
        let f = TraceForest::from_events(&events);
        assert_eq!(f.unclosed(), 1);
        assert_eq!(f.unbalanced(), 1);
        // An end for a span that never started.
        events.push((999, Event::SpanEnd { id: 0xDEAD }));
        let f = TraceForest::from_events(&events);
        assert_eq!(f.unbalanced(), 2);
    }
}
