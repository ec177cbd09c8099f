//! Span-tracing acceptance: the causal trace layer must produce
//! bit-identical JSONL for a fixed seed, perfectly nested span trees even
//! under fault injection, span events that survive the wire format round
//! trip for arbitrary attribute strings, and dormant spans that cost at most
//! 2 % of a warm coalesced read.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;
use vmi_bench::trace_report::{parse_lines, TraceForest};
use vmi_blockdev::{
    BlockDev, BlockErrorKind, FaultDev, FaultPlan, FaultSite, MemDev, RetryDev, RetryPolicy,
    SharedDev,
};
use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement, WarmStore};
use vmi_obs::{Event, JsonlSink, ManualClock, Obs, RecorderHandle};
use vmi_qcow::{create_cached_chain, CreateOpts, MapResolver, QcowImage};
use vmi_sim::NetSpec;

const QUOTA: u64 = 16 << 20;

fn cfg(nodes: usize, seed: u64, recorder: RecorderHandle) -> ExperimentConfig {
    ExperimentConfig {
        nodes,
        vmis: 1,
        profile: vmi_trace::VmiProfile::tiny_test(),
        net: NetSpec::gbe_1(),
        mode: Mode::ColdCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        seed,
        warm_store: Some(WarmStore::new()),
        recorder,
    }
}

fn record_serial(nodes: usize, seed: u64) -> Vec<String> {
    let (rec, sink) = RecorderHandle::jsonl();
    run_experiment(&cfg(nodes, seed, rec)).unwrap();
    sink.lines()
}

fn span_lines(lines: &[String]) -> Vec<&String> {
    lines
        .iter()
        .filter(|l| l.contains("\"span_start\"") || l.contains("\"span_end\""))
        .collect()
}

fn forest_of(lines: &[String]) -> TraceForest {
    let events: Vec<(u64, Event)> = lines
        .iter()
        .map(|l| Event::parse_line(l).unwrap())
        .collect();
    TraceForest::from_events(&events)
}

#[test]
fn serial_trace_jsonl_is_bit_identical_per_seed() {
    let a = record_serial(2, 42);
    let b = record_serial(2, 42);
    assert_eq!(a, b, "serial JSONL must match bit for bit");
    assert!(!span_lines(&a).is_empty(), "stream contains span events");

    let c = record_serial(2, 43);
    assert_ne!(a, c, "a different seed perturbs the stream");
}

#[test]
fn experiment_traces_reconstruct_with_zero_unbalanced_spans() {
    for lines in [record_serial(2, 42), record_serial(3, 42)] {
        let (events, bad) = parse_lines(&lines);
        assert!(bad.is_empty(), "stream is parseable: {bad:?}");
        let f = TraceForest::from_events(&events);
        assert_eq!(f.unbalanced(), 0, "every span start has its end");
        assert!(!f.roots.is_empty(), "boots form root spans");
        assert!(
            f.roots
                .iter()
                .any(|r| f.spans[r].kind == "boot.vm" || f.spans[r].kind == "chain.build"),
            "cluster-level roots present"
        );
    }
}

/// The fault-injection rig from `boot_under_faults`, recording spans: base
/// reads fail transiently behind retry/backoff and the cache container dies
/// mid-boot. The trace must stay perfectly nested through both.
#[test]
fn fault_injected_boot_keeps_spans_balanced() {
    const VSIZE: u64 = 4 << 20;
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 249) as u8).collect();
    let sink = JsonlSink::new();
    let obs = vmi_obs::Obs::new(Arc::new(ManualClock::new(0)), sink.clone());

    let base_faults = Arc::new(FaultDev::new(Arc::new(MemDev::from_vec(content.clone()))));
    base_faults.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 5,
        kind: BlockErrorKind::Io,
    });
    let base = Arc::new(RetryDev::with_obs(
        base_faults as SharedDev,
        RetryPolicy::attempts(4).with_seed(7).with_jitter(0.25),
        obs.clone(),
    ));

    let ns = MapResolver::new();
    ns.insert("base", base as SharedDev);
    let container = Arc::new(FaultDev::new(Arc::new(MemDev::new())));
    ns.insert("cache", container.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container.clone() as SharedDev,
        Arc::new(MemDev::new()),
        VSIZE,
        VSIZE,
        9,
        &obs,
    )
    .unwrap();
    container.inject(FaultPlan::NthOp {
        site: FaultSite::Write,
        n: 40,
        kind: BlockErrorKind::Io,
    });

    let mut buf = vec![0u8; 4096];
    for i in 0..200u64 {
        let off = (i * 7919 * 512) % (VSIZE - 4096);
        cow.read_at(&mut buf, off).unwrap();
    }

    let lines = sink.lines();
    let f = forest_of(&lines);
    assert_eq!(
        f.unbalanced(),
        0,
        "faults and retries must not leak open spans"
    );
    assert!(
        f.spans.values().any(|s| s.kind == "retry.backoff"),
        "backoff spans recorded under injected faults"
    );
    assert!(
        f.spans.values().any(|s| s.kind == "qcow.read"),
        "guest reads traced"
    );
}

/// Bytes read per pass of the warm-read workload.
const WARM_TOTAL: u64 = 1 << 20;
/// Guest request size of the warm-read workload.
const WARM_REQ: u64 = 64 << 10;

/// A warm 512 B-cluster coalescing cache chain traced through `obs`: the
/// hot path whose dormant-span cost the overhead gate prices.
fn warm_coalesced_cache(obs: Obs) -> Arc<QcowImage> {
    const VSIZE: u64 = 4 << 20;
    let base = QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        CreateOpts::plain(VSIZE),
        None,
    )
    .unwrap();
    let content: Vec<u8> = (0..2 * WARM_TOTAL as usize)
        .map(|i| (i % 239) as u8 ^ (i / 7919) as u8)
        .collect();
    base.write_at(&content, 0).unwrap();
    let cache = QcowImage::create_with_obs(
        Arc::new(MemDev::new()) as SharedDev,
        CreateOpts::cache(VSIZE, "base", VSIZE).with_cluster_bits(9),
        Some(base as SharedDev),
        obs,
    )
    .unwrap();
    cache.set_coalescing(true);
    let mut warmup = vec![0u8; WARM_TOTAL as usize];
    cache.read_at(&mut warmup, 0).unwrap();
    cache
}

/// One sequential pass of `WARM_REQ` reads over the warm region.
fn warm_pass(cache: &QcowImage, buf: &mut [u8]) {
    for off in (0..WARM_TOTAL).step_by(WARM_REQ as usize) {
        cache.read_at(buf, off).unwrap();
        black_box(&*buf);
    }
}

/// Span sites one warm coalesced 64 KiB guest read crosses, counted from a
/// recorded pass.
fn spans_per_warm_read() -> f64 {
    let sink = JsonlSink::new();
    let cache = warm_coalesced_cache(Obs::new(Arc::new(ManualClock::new(0)), sink.clone()));
    let span_starts = || {
        sink.events()
            .iter()
            .filter(|(_, ev)| matches!(ev, Event::SpanStart { .. }))
            .count()
    };
    let before = span_starts();
    warm_pass(&cache, &mut vec![0u8; WARM_REQ as usize]);
    (span_starts() - before) as f64 / (WARM_TOTAL / WARM_REQ) as f64
}

#[test]
fn warm_coalesced_reads_cross_span_sites() {
    let spans = spans_per_warm_read();
    // Warm mapped path: one qcow.read root plus at least one
    // l2.lookup/dev.read pair per request.
    assert!(spans >= 3.0, "only {spans} span sites per warm read");
    assert!(spans <= 64.0, "{spans} span sites per read is runaway");
}

/// The dormant-tracing contract as a number: span sites per warm read ×
/// the cost of one disabled span call, over the untraced read itself, is at
/// most 2 %. Timing gates only mean something with optimisations on.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; run with --release")]
fn dormant_spans_cost_at_most_2_percent_of_a_warm_read() {
    const SPAN_ITERS: u32 = 4_000_000;
    const PASSES: u32 = 64;

    let obs = Obs::disabled();
    let start = Instant::now();
    for i in 0..SPAN_ITERS {
        black_box(obs.span("bench.noop", || format!("i={i}")));
    }
    let span_ns = start.elapsed().as_nanos() as f64 / f64::from(SPAN_ITERS);

    let cache = warm_coalesced_cache(Obs::disabled());
    let mut buf = vec![0u8; WARM_REQ as usize];
    warm_pass(&cache, &mut buf);
    let start = Instant::now();
    for _ in 0..PASSES {
        warm_pass(&cache, &mut buf);
    }
    let reads = u64::from(PASSES) * (WARM_TOTAL / WARM_REQ);
    let read_ns = start.elapsed().as_nanos() as f64 / reads as f64;

    let spans = spans_per_warm_read();
    let fraction = spans * span_ns / read_ns;
    assert!(
        fraction <= 0.02,
        "dormant spans cost {:.4} % of a warm read ({spans} spans × {span_ns:.3} ns / \
         {read_ns:.1} ns) > 2 %",
        fraction * 100.0
    );
}

/// Arbitrary span-kind strings: dot-namespaced lowercase words.
fn kind_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..12)
        .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
}

/// Arbitrary attribute strings over a palette that stresses the JSONL
/// escaper: quotes, backslashes, control characters, and unicode.
fn detail_strategy() -> impl Strategy<Value = String> {
    const PALETTE: [char; 12] = [
        'a',
        'Z',
        '9',
        ' ',
        '=',
        '"',
        '\\',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '\u{1F600}',
    ];
    proptest::collection::vec(0usize..PALETTE.len(), 0..24)
        .prop_map(|v| v.iter().map(|&i| PALETTE[i]).collect())
}

proptest! {
    /// Span events survive the JSONL wire format for arbitrary ids and
    /// attribute strings (quotes, backslashes, control chars, unicode).
    #[test]
    fn span_event_wire_roundtrip(
        t in any::<u64>(),
        id in 1..u64::MAX,
        parent in any::<u64>(),
        kind in kind_strategy(),
        detail in detail_strategy(),
    ) {
        let ev = Event::SpanStart {
            id,
            parent,
            kind: kind.clone(),
            detail: detail.clone(),
        };
        let line = ev.to_json_line(t);
        let (t2, ev2) = Event::parse_line(&line).unwrap();
        prop_assert_eq!(t2, t);
        prop_assert_eq!(ev2, ev);

        let end = Event::SpanEnd { id };
        let (t3, end2) = Event::parse_line(&end.to_json_line(t)).unwrap();
        prop_assert_eq!(t3, t);
        prop_assert_eq!(end2, end);
    }
}
