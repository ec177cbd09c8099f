//! Replay and summarise `vmi-obs` JSONL event streams.
//!
//! An experiment run with a [`vmi_obs::JsonlSink`] recorder leaves behind a
//! replayable event log. This module re-derives the byte counters from that
//! log — independently of the live [`vmi_obs::MetricsRegistry`] — so tests
//! can assert the two views agree, and renders a [`vmi_cluster::Telemetry`]
//! snapshot as an aligned text table next to the paper figures.

use vmi_cluster::Telemetry;
use vmi_obs::Event;

/// Counters re-derived by replaying a JSONL event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Number of events replayed.
    pub events: usize,
    /// Bytes served from cache clusters (`cache_hit` events).
    pub hit_bytes: u64,
    /// Bytes fetched from backing layers (`cache_miss` events).
    pub miss_bytes: u64,
    /// Bytes written by copy-on-read fills (`cor_fill` events).
    pub fill_bytes: u64,
    /// `chain_open` events.
    pub chain_opens: u64,
    /// `space_error_latched` events.
    pub space_errors: u64,
    /// `quota_rearmed` events.
    pub quota_rearms: u64,
    /// `cache_evict` events.
    pub evictions: u64,
    /// `sched_place` events.
    pub placements: u64,
    /// `retry_attempt` events.
    pub retries: u64,
    /// `cache_degraded` events.
    pub degradations: u64,
    /// `recovery_result` events (crash-recovery engine runs).
    pub recoveries: u64,
    /// Repairs carried by `recovery_result` events.
    pub recovery_repairs: u64,
    /// `node_restarted` events.
    pub node_restarts: u64,
    /// Caches re-adopted warm, summed over `node_restarted` events.
    pub caches_readopted: u64,
    /// Caches dropped for refetch, summed over `node_restarted` events.
    pub caches_refetched: u64,
    /// `node_failed` events.
    pub node_failures: u64,
    /// `boot_rescheduled` events.
    pub reschedules: u64,
    /// `audit_violation` events.
    pub audit_violations: u64,
    /// `run_coalesced` events (multi-cluster extents issued as one op).
    pub runs_coalesced: u64,
    /// Bytes carried by `run_coalesced` events.
    pub coalesced_bytes: u64,
    /// Clusters carried by `run_coalesced` events.
    pub coalesced_clusters: u64,
    /// `span_start` events (causal trace spans; see `trace_report` for full
    /// tree reconstruction).
    pub span_starts: u64,
    /// `span_end` events.
    pub span_ends: u64,
}

/// Replay parsed `(timestamp, event)` pairs into a [`ReplaySummary`].
pub fn replay(events: &[(u64, Event)]) -> ReplaySummary {
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
            Event::CacheEvict { .. } => s.evictions += 1,
            Event::SchedPlace { .. } => s.placements += 1,
            Event::BootPhase { .. } => {}
            Event::RetryAttempt { .. } => s.retries += 1,
            Event::CacheDegraded { .. } => s.degradations += 1,
            Event::RecoveryResult { repairs, .. } => {
                s.recoveries += 1;
                s.recovery_repairs += repairs;
            }
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
            Event::AuditViolation { .. } => s.audit_violations += 1,
            Event::RunCoalesced {
                clusters, bytes, ..
            } => {
                s.runs_coalesced += 1;
                s.coalesced_bytes += bytes;
                s.coalesced_clusters += clusters;
            }
            Event::SpanStart { .. } => s.span_starts += 1,
            Event::SpanEnd { .. } => s.span_ends += 1,
        }
    }
    s
}

/// Parse raw JSONL lines and replay them. Lines that fail to parse are
/// counted and returned alongside the summary rather than silently dropped.
pub fn replay_lines(lines: &[String]) -> (ReplaySummary, usize) {
    let (s, bad) = replay_lines_strict(lines);
    (s, bad.len())
}

/// [`replay_lines`], but malformed lines come back with their **1-based line
/// number** and parse error, so a CLI can point at the exact offender and
/// exit nonzero instead of silently skipping it.
pub fn replay_lines_strict(lines: &[String]) -> (ReplaySummary, Vec<(usize, String)>) {
    let mut parsed = Vec::with_capacity(lines.len());
    let mut bad = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::parse_line(line) {
            Ok(pair) => parsed.push(pair),
            Err(e) => bad.push((i + 1, e.to_string())),
        }
    }
    (replay(&parsed), bad)
}

impl ReplaySummary {
    /// Every opened span was closed (a stream cut off mid-request fails
    /// this; the count check is cheap enough to run on any stream).
    pub fn spans_balanced(&self) -> bool {
        self.span_starts == self.span_ends
    }

    /// Hit ratio over the replayed stream (1.0 when nothing missed).
    pub fn hit_ratio(&self) -> f64 {
        if self.miss_bytes == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / (self.hit_bytes + self.miss_bytes) as f64
        }
    }

    /// Whether the replayed byte counters agree with a live telemetry
    /// snapshot (the acceptance check: registry and stream never drift).
    pub fn consistent_with(&self, t: &Telemetry) -> bool {
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

/// Render a telemetry snapshot as an aligned text block.
pub fn render_telemetry(t: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str("== telemetry ==\n");
    out.push_str(&format!("{:<22} {:.4}\n", "hit ratio", t.hit_ratio));
    out.push_str(&format!("{:<22} {}\n", "fill bytes", t.fill_bytes));
    out.push_str(&format!("{:<22} {}\n", "space errors", t.space_errors));
    out.push_str(&format!("{:<22} {}\n", "evictions", t.evictions));
    if t.retry_attempts + t.caches_degraded + t.node_failures + t.boots_rescheduled > 0 {
        out.push_str(&format!("{:<22} {}\n", "retry attempts", t.retry_attempts));
        out.push_str(&format!(
            "{:<22} {}\n",
            "caches degraded", t.caches_degraded
        ));
        out.push_str(&format!("{:<22} {}\n", "node failures", t.node_failures));
        out.push_str(&format!(
            "{:<22} {}\n",
            "boots rescheduled", t.boots_rescheduled
        ));
    }
    if t.node_restarts + t.caches_readopted + t.caches_refetched + t.recovery_repairs > 0 {
        out.push_str(&format!("{:<22} {}\n", "node restarts", t.node_restarts));
        out.push_str(&format!(
            "{:<22} {}\n",
            "caches readopted", t.caches_readopted
        ));
        out.push_str(&format!(
            "{:<22} {}\n",
            "caches refetched", t.caches_refetched
        ));
        out.push_str(&format!(
            "{:<22} {}\n",
            "recovery repairs", t.recovery_repairs
        ));
    }
    if t.runs_coalesced > 0 {
        out.push_str(&format!("{:<22} {}\n", "coalesced runs", t.runs_coalesced));
        out.push_str(&format!(
            "{:<22} {}\n",
            "coalesced bytes", t.coalesced_bytes
        ));
    }
    if t.l2_evictions > 0 {
        out.push_str(&format!("{:<22} {}\n", "l2 evictions", t.l2_evictions));
    }
    if let (Some(p50), Some(p99)) = (t.p50_op_ns, t.p99_op_ns) {
        out.push_str(&format!("{:<22} {} ns\n", "p50 op latency", p50));
        out.push_str(&format!("{:<22} {} ns\n", "p99 op latency", p99));
    }
    for (i, c) in t.per_cache.iter().enumerate() {
        out.push_str(&format!(
            "cache[{i}]: hit={} miss={} fill={} rejects={} ratio={:.4}\n",
            c.hit_bytes,
            c.miss_bytes,
            c.fill_bytes,
            c.fill_rejects,
            c.hit_ratio()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn replay_lines_counts_garbage() {
        let lines = vec![
            Event::CacheHit { bytes: 64 }.to_json_line(7),
            "not json".to_string(),
        ];
        let (s, bad) = replay_lines(&lines);
        assert_eq!(s.hit_bytes, 64);
        assert_eq!(bad, 1);
    }

    #[test]
    fn strict_replay_reports_line_numbers_and_counts_spans() {
        let lines = vec![
            Event::SpanStart {
                id: 1,
                parent: 0,
                kind: "nbd.request".into(),
                detail: String::new(),
            }
            .to_json_line(5),
            "{broken".to_string(),
            String::new(), // blank lines are tolerated, not errors
            Event::SpanEnd { id: 1 }.to_json_line(9),
            "also broken".to_string(),
        ];
        let (s, bad) = replay_lines_strict(&lines);
        assert_eq!(s.span_starts, 1);
        assert_eq!(s.span_ends, 1);
        assert!(s.spans_balanced());
        let bad_lines: Vec<usize> = bad.iter().map(|(n, _)| *n).collect();
        assert_eq!(bad_lines, vec![2, 5], "1-based offender line numbers");
        let (_, count) = replay_lines(&lines);
        assert_eq!(count, 2);
    }

    #[test]
    fn render_includes_per_cache_rows() {
        let t = Telemetry {
            per_cache: vec![vmi_cluster::CacheTelemetry {
                hit_bytes: 10,
                miss_bytes: 0,
                fill_bytes: 0,
                fill_rejects: 0,
            }],
            hit_ratio: 1.0,
            ..Default::default()
        };
        let r = render_telemetry(&t);
        assert!(r.contains("cache[0]"));
        assert!(r.contains("hit ratio"));
    }
}
