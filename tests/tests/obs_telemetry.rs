//! Observability end-to-end: the JSONL event stream and the telemetry
//! section of experiment outcomes must tell the same story as the
//! simulation itself. [`replay`] re-derives the counters from the stream,
//! independently of the live metrics registry, so the two views can be
//! compared.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement, Telemetry, WarmStore};
use vmi_obs::{met, Event, JsonlSink, ManualClock, Obs, RecorderHandle};
use vmi_qcow::{create_cached_chain, MapResolver, QcowImage};
use vmi_sim::NetSpec;

const QUOTA: u64 = 16 << 20;

/// Counters re-derived by replaying an event stream.
#[derive(Debug, Default)]
struct ReplaySummary {
    events: usize,
    hit_bytes: u64,
    miss_bytes: u64,
    fill_bytes: u64,
    chain_opens: u64,
    space_errors: u64,
    evictions: u64,
    retries: u64,
    degradations: u64,
    recovery_repairs: u64,
    node_restarts: u64,
    caches_readopted: u64,
    caches_refetched: u64,
    node_failures: u64,
    reschedules: u64,
    runs_coalesced: u64,
    coalesced_bytes: u64,
}

/// Replay parsed `(timestamp, event)` pairs into a [`ReplaySummary`].
fn replay(events: &[(u64, Event)]) -> ReplaySummary {
    let mut s = ReplaySummary {
        events: events.len(),
        ..Default::default()
    };
    for (_, ev) in events {
        match ev {
            Event::CacheHit { bytes } => s.hit_bytes += bytes,
            Event::CacheMiss { bytes } => s.miss_bytes += bytes,
            Event::CorFill { bytes } => s.fill_bytes += bytes,
            Event::ChainOpen { .. } => s.chain_opens += 1,
            Event::SpaceErrorLatched { .. } => s.space_errors += 1,
            Event::CacheEvict { .. } => s.evictions += 1,
            Event::RetryAttempt { .. } => s.retries += 1,
            Event::CacheDegraded { .. } => s.degradations += 1,
            Event::RecoveryResult { repairs, .. } => s.recovery_repairs += repairs,
            Event::NodeRestarted {
                readopted,
                refetched,
                ..
            } => {
                s.node_restarts += 1;
                s.caches_readopted += readopted;
                s.caches_refetched += refetched;
            }
            Event::NodeFailed { .. } => s.node_failures += 1,
            Event::BootRescheduled { .. } => s.reschedules += 1,
            Event::RunCoalesced { bytes, .. } => {
                s.runs_coalesced += 1;
                s.coalesced_bytes += bytes;
            }
            _ => {}
        }
    }
    s
}

impl ReplaySummary {
    /// Hit ratio over the replayed stream (1.0 when nothing missed).
    fn hit_ratio(&self) -> f64 {
        if self.miss_bytes == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / (self.hit_bytes + self.miss_bytes) as f64
        }
    }

    /// Whether the replayed counters agree with a live telemetry snapshot.
    fn consistent_with(&self, t: &Telemetry) -> bool {
        let t_hits: u64 = t.per_cache.iter().map(|c| c.hit_bytes).sum();
        let t_misses: u64 = t.per_cache.iter().map(|c| c.miss_bytes).sum();
        self.hit_bytes == t_hits
            && self.miss_bytes == t_misses
            && self.fill_bytes == t.fill_bytes
            && self.space_errors == t.space_errors
            && self.evictions == t.evictions
            && self.retries == t.retry_attempts
            && self.degradations == t.caches_degraded
            && self.node_failures == t.node_failures
            && self.reschedules == t.boots_rescheduled
            && self.runs_coalesced == t.runs_coalesced
            && self.coalesced_bytes == t.coalesced_bytes
            && self.recovery_repairs == t.recovery_repairs
            && self.node_restarts == t.node_restarts
            && self.caches_readopted == t.caches_readopted
            && self.caches_refetched == t.caches_refetched
    }
}

#[test]
fn replay_accumulates_by_event_kind() {
    let evs = vec![
        (0, Event::CacheMiss { bytes: 512 }),
        (1, Event::CorFill { bytes: 512 }),
        (2, Event::CacheHit { bytes: 512 }),
        (3, Event::CacheHit { bytes: 100 }),
        (4, Event::SpaceErrorLatched { used: 9, quota: 8 }),
    ];
    let s = replay(&evs);
    assert_eq!(s.events, 5);
    assert_eq!(s.hit_bytes, 612);
    assert_eq!(s.miss_bytes, 512);
    assert_eq!(s.fill_bytes, 512);
    assert_eq!(s.space_errors, 1);
    assert!((s.hit_ratio() - 612.0 / 1124.0).abs() < 1e-12);
}

fn cfg(mode: Mode, store: &Arc<WarmStore>, recorder: RecorderHandle) -> ExperimentConfig {
    ExperimentConfig {
        nodes: 2,
        vmis: 1,
        profile: vmi_trace::VmiProfile::tiny_test(),
        net: NetSpec::gbe_1(),
        mode,
        seed: 11,
        warm_store: Some(store.clone()),
        recorder,
    }
}

#[test]
fn warm_cache_run_is_all_hits_with_no_miss_events() {
    let store = WarmStore::new();
    let (recorder, sink) = RecorderHandle::jsonl();
    let out = run_experiment(&cfg(
        Mode::WarmCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        &store,
        recorder,
    ))
    .unwrap();

    assert_eq!(out.telemetry.hit_ratio, 1.0, "warm boots never miss");
    assert!(!out.telemetry.per_cache.is_empty(), "cache layers reported");
    let events = sink.events();
    assert!(
        events
            .iter()
            .all(|(_, e)| !matches!(e, Event::CacheMiss { .. })),
        "no cache_miss events in a warm run"
    );
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, Event::CacheHit { .. })),
        "warm reads are recorded as hits"
    );
    // The stream and the registry-backed telemetry agree.
    assert!(replay(&events).consistent_with(&out.telemetry));
}

#[test]
fn cold_then_warm_replay_matches_telemetry() {
    // The acceptance flow: one shared JSONL stream across a cold boot and
    // a warm boot of the same VMI. The stream must contain chain_open,
    // cache_miss and cor_fill (cold phase) followed by cache_hit (warm
    // phase), and replaying it must reproduce the telemetry counters.
    let store = WarmStore::new();
    let sink = JsonlSink::new();
    let recorder = RecorderHandle::of(sink.clone());

    let cold = run_experiment(&cfg(
        Mode::ColdCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        &store,
        recorder.clone(),
    ))
    .unwrap();
    let cold_events = sink.events();

    let warm = run_experiment(&cfg(
        Mode::WarmCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        &store,
        recorder,
    ))
    .unwrap();
    let all_events = sink.events();
    let warm_events = &all_events[cold_events.len()..];

    // Cold phase: the chain is opened, reads miss and fill.
    let pos =
        |evs: &[(u64, Event)], pred: fn(&Event) -> bool| evs.iter().position(|(_, e)| pred(e));
    let open = pos(&cold_events, |e| matches!(e, Event::ChainOpen { .. })).expect("chain_open");
    let miss = pos(&cold_events, |e| matches!(e, Event::CacheMiss { .. })).expect("cache_miss");
    let fill = pos(&cold_events, |e| matches!(e, Event::CorFill { .. })).expect("cor_fill");
    assert!(
        open < miss && miss < fill,
        "open={open} miss={miss} fill={fill}"
    );

    // Warm phase: hits, no fills.
    assert!(warm_events
        .iter()
        .any(|(_, e)| matches!(e, Event::CacheHit { .. })));
    assert!(warm_events
        .iter()
        .all(|(_, e)| !matches!(e, Event::CorFill { .. })));

    // Each phase's stream replays to exactly that phase's telemetry.
    assert!(
        replay(&cold_events).consistent_with(&cold.telemetry),
        "cold replay drifted"
    );
    assert!(
        replay(warm_events).consistent_with(&warm.telemetry),
        "warm replay drifted"
    );
    assert_eq!(warm.telemetry.hit_ratio, 1.0);
    assert!(cold.telemetry.fill_bytes > 0, "cold boots fill the cache");
}

#[test]
fn quota_exhaustion_latches_once_and_reads_continue() {
    const VSIZE: u64 = 4 << 20;
    let content: Vec<u8> = (0..VSIZE as usize).map(|i| (i % 251) as u8).collect();
    let base: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let ns = MapResolver::new();
    ns.insert("base", base);
    let cache_dev = ns.create_mem("cache");
    let g = vmi_qcow::Geometry::new(9, VSIZE).unwrap();
    let quota = g.cluster_size() + g.l1_table_bytes() + 20 * 512;

    let sink = JsonlSink::new();
    let obs = Obs::new(Arc::new(ManualClock::new(0)), sink.clone());
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        cache_dev,
        Arc::new(MemDev::new()),
        VSIZE,
        quota,
        9,
        &obs,
    )
    .unwrap();

    let mut buf = vec![0u8; 8192];
    for i in 0..128u64 {
        cow.read_at(&mut buf, i * 8192).unwrap();
        assert_eq!(
            &buf[..],
            &content[(i * 8192) as usize..(i * 8192 + 8192) as usize],
            "reads keep serving correct data after exhaustion"
        );
    }

    let latches = sink
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, Event::SpaceErrorLatched { .. }))
        .count();
    assert_eq!(latches, 1, "the space error latches exactly once");
    assert_eq!(obs.counter_value(met::SPACE_ERRORS), 1);

    // Fills stopped at the latch: the fill counter is frozen while reads go on.
    let fills_at_latch = obs.counter_value(met::COR_FILL_BYTES);
    for i in 0..128u64 {
        cow.read_at(&mut buf, i * 8192).unwrap();
    }
    assert_eq!(
        obs.counter_value(met::COR_FILL_BYTES),
        fills_at_latch,
        "no fill bytes after the latch"
    );

    let cache = cow.backing().unwrap();
    let cache_img = cache
        .as_any()
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .expect("cache layer");
    assert!(
        cache_img.cor_stats().fill_rejects > 0,
        "rejected fills are counted"
    );
}

#[test]
fn replay_summary_matches_registry_counters() {
    // Registry counters and stream replay are two independent code paths;
    // drive both through one cold run and diff them field by field.
    let store = WarmStore::new();
    let (recorder, sink) = RecorderHandle::jsonl();
    let out = run_experiment(&cfg(
        Mode::ColdCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        &store,
        recorder,
    ))
    .unwrap();
    let s: ReplaySummary = replay(&sink.events());
    let t: &Telemetry = &out.telemetry;
    assert_eq!(s.fill_bytes, t.fill_bytes);
    assert_eq!(s.space_errors, t.space_errors);
    assert_eq!(s.evictions, t.evictions);
    assert!(s.chain_opens > 0);
    assert!((s.hit_ratio() - t.hit_ratio).abs() < 1e-12);
}
