//! Observability end-to-end: the JSONL event stream, the run's metrics
//! registry and a cloud run's report must tell the same story as the
//! simulation itself. [`replay`] re-derives the counters from the stream,
//! independently of the live metrics registry and of the report, so the
//! views can be compared.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_cluster::{
    generate_requests, run_cloud, run_experiment, CloudConfig, CloudReport, ExperimentConfig, Mode,
    NodeFailure, Placement, Policy, WarmStore,
};
use vmi_obs::{met, Event, JsonlSink, ManualClock, MetricsSnapshot, Obs, RecorderHandle};
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
    quota_rearms: u64,
    sched_places: u64,
    evictions: u64,
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
            Event::QuotaRearmed { .. } => s.quota_rearms += 1,
            Event::SchedPlace { .. } => s.sched_places += 1,
            Event::CacheEvict { .. } => s.evictions += 1,
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

    /// Whether the replayed counters agree with the run's two records: the
    /// metrics registry `m` for what the image layers did, and a cloud
    /// run's report for what the cluster did. An experiment point (`None`)
    /// has no pools and no failures, so its cluster counts must be 0.
    fn consistent_with(&self, m: &MetricsSnapshot, cloud: Option<&CloudReport>) -> bool {
        let none = CloudReport::default();
        let rep = cloud.unwrap_or(&none);
        self.hit_bytes == m.counter(met::CACHE_HIT_BYTES)
            && self.miss_bytes == m.counter(met::CACHE_MISS_BYTES)
            && self.fill_bytes == m.counter(met::COR_FILL_BYTES)
            && self.space_errors == m.counter(met::SPACE_ERRORS)
            && self.degradations == m.counter(met::CACHE_DEGRADED)
            && self.runs_coalesced == m.counter(met::COALESCED_RUNS)
            && self.coalesced_bytes == m.counter(met::COALESCED_BYTES)
            && self.recovery_repairs == m.counter(met::RECOVERY_REPAIRS)
            && self.evictions == rep.evictions as u64
            && self.node_failures == rep.node_failures as u64
            && self.reschedules == rep.rescheduled_boots as u64
            && self.node_restarts == rep.node_restarts as u64
            && self.caches_readopted == rep.caches_readopted as u64
            && self.caches_refetched == rep.caches_refetched as u64
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

    let metrics = out.metrics.expect("recorder attached");
    assert_eq!(
        metrics.counter(met::CACHE_MISS_BYTES),
        0,
        "warm boots never miss"
    );
    assert_eq!(out.cache_file_sizes.len(), 2, "cache layers reported");
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
    // The stream and the registry agree.
    assert!(replay(&events).consistent_with(&metrics, None));
}

#[test]
fn cold_then_warm_replay_matches_telemetry() {
    // The acceptance flow: one shared JSONL stream across a cold boot and
    // a warm boot of the same VMI. The stream must contain chain_open,
    // cache_miss and cor_fill (cold phase) followed by cache_hit (warm
    // phase), and replaying it must reproduce each run's registry.
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

    // Each phase's stream replays to exactly that phase's registry.
    let cold_metrics = cold.metrics.expect("recorder attached");
    let warm_metrics = warm.metrics.expect("recorder attached");
    assert!(
        replay(&cold_events).consistent_with(&cold_metrics, None),
        "cold replay drifted"
    );
    assert!(
        replay(warm_events).consistent_with(&warm_metrics, None),
        "warm replay drifted"
    );
    assert_eq!(warm_metrics.counter(met::CACHE_MISS_BYTES), 0);
    assert!(
        cold_metrics.counter(met::COR_FILL_BYTES) > 0,
        "cold boots fill the cache"
    );
}

/// A cow → cache → base chain over a patterned 4 MiB base. The cache has
/// 512 B clusters and a quota that holds its header, L1 table and 20 more
/// clusters, so copy-on-read latches after a few reads.
fn tight_quota_chain() -> (Vec<u8>, Arc<QcowImage>, Obs, Arc<JsonlSink>) {
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
    (content, cow, obs, sink)
}

/// The cache layer under `cow`.
fn cache_layer(cow: &QcowImage) -> &QcowImage {
    cow.backing()
        .and_then(|b| b.as_any())
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .expect("cache layer")
}

#[test]
fn quota_exhaustion_latches_once_and_reads_continue() {
    let (content, cow, obs, sink) = tight_quota_chain();
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

    assert!(
        cache_layer(&cow).cor_stats().fill_rejects > 0,
        "rejected fills are counted"
    );
}

#[test]
fn discard_rearms_a_latched_cache_once() {
    let (_, cow, obs, sink) = tight_quota_chain();
    let cache = cache_layer(&cow);
    let mut buf = vec![0u8; 8192];
    for i in 0..128u64 {
        if !cache.fill_enabled() {
            break;
        }
        cow.read_at(&mut buf, i * 8192).unwrap();
    }
    assert!(!cache.fill_enabled(), "the cache latched at its quota");
    let rearms = |sink: &JsonlSink| -> Vec<(usize, Event)> {
        sink.events()
            .into_iter()
            .map(|(_, e)| e)
            .enumerate()
            .filter(|(_, e)| matches!(e, Event::QuotaRearmed { .. }))
            .collect()
    };
    assert!(rearms(&sink).is_empty());

    // Freeing two clusters re-arms copy-on-read, reported once.
    assert_eq!(cache.discard(0, 1024).unwrap(), 2);
    assert!(cache.fill_enabled());
    let after = rearms(&sink);
    assert_eq!(
        after.iter().map(|(_, e)| e.clone()).collect::<Vec<_>>(),
        vec![Event::QuotaRearmed {
            used: cache.cache_used(),
            quota: cache.cache_quota(),
        }]
    );
    assert_eq!(
        obs.counter_value(met::QUOTA_REARMS),
        replay(&sink.events()).quota_rearms
    );

    // The next cold read fills again.
    cow.read_at(&mut buf[..512], 0).unwrap();
    let rearm_at = after[0].0;
    assert!(
        sink.events()[rearm_at..]
            .iter()
            .any(|(_, e)| matches!(e, Event::CorFill { .. })),
        "no cor_fill after the re-arm"
    );

    // A discard while armed is not a re-arm.
    assert_eq!(cache.discard(0, 512).unwrap(), 1);
    assert_eq!(rearms(&sink).len(), 1);
    assert_eq!(obs.counter_value(met::QUOTA_REARMS), 1);
}

/// The power-cut day that `cloud::tests::power_cut_day_is_pinned` pins:
/// every placement is one `sched_place`, its `cache_hit` is set exactly for
/// the warm boots, and the stream replays to the registry and the report.
#[test]
fn sched_place_events_count_placements_and_warm_boots() {
    let profile = vmi_trace::VmiProfile::tiny_test();
    let reqs = generate_requests(3, 60, 4, 2_000_000_000, 20_000_000_000);
    let at = reqs[reqs.len() / 3].at + 1;
    let (recorder, sink) = RecorderHandle::jsonl();
    let cfg = CloudConfig {
        nodes: 4,
        slots_per_node: 2,
        node_cache_bytes: profile.unique_read_bytes * 3,
        vmis: 4,
        profile,
        net: NetSpec::gbe_1(),
        quota: QUOTA,
        use_caches: true,
        cache_aware: true,
        policy: Policy::Striping,
        seed: 9,
        node_failures: vec![
            NodeFailure::power_cut(0, at, 4_000_000_000),
            NodeFailure::power_cut(2, at, 9_000_000_000),
        ],
        recorder,
    };
    let rep = run_cloud(&cfg, &reqs).unwrap();
    assert_eq!((rep.placed, rep.warm_boots), (48, 34), "the pinned day");
    let events = sink.events();
    let summary = replay(&events);
    let metrics = rep.metrics.as_ref().expect("recorder attached");
    assert!(summary.consistent_with(metrics, Some(&rep)));
    assert_eq!(summary.sched_places, rep.placed as u64);
    let warm = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                Event::SchedPlace {
                    cache_hit: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(warm, rep.warm_boots);
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
    let m = out.metrics.expect("recorder attached");
    assert_eq!(s.fill_bytes, m.counter(met::COR_FILL_BYTES));
    assert_eq!(s.space_errors, m.counter(met::SPACE_ERRORS));
    assert_eq!(s.evictions, 0, "an experiment point has no cache pools");
    assert_eq!(s.chain_opens, m.counter(met::CHAIN_OPENS));
    assert!(s.chain_opens > 0);
    let (hits, misses) = (
        m.counter(met::CACHE_HIT_BYTES),
        m.counter(met::CACHE_MISS_BYTES),
    );
    assert!((s.hit_ratio() - hits as f64 / (hits + misses) as f64).abs() < 1e-12);
}
