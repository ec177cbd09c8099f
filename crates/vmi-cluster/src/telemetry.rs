//! Experiment telemetry: the per-cache and aggregate counters exported in
//! [`ExperimentOutcome`](crate::ExperimentOutcome) and
//! [`CloudReport`](crate::CloudReport).
//!
//! Two sources feed this snapshot:
//!
//! * **Image-layer CoR statistics** ([`vmi_qcow::CorStats`]) are always
//!   available — the per-cache hit/miss/fill byte counts work even with a
//!   disabled [`Obs`] handle.
//! * **Metrics registry counters/histograms** are only populated when the
//!   experiment ran with a recorder attached; the latency percentiles and
//!   cluster-level counters (evictions, space errors) come from there.

use std::sync::Arc;

use vmi_obs::{met, Obs};
use vmi_qcow::QcowImage;

/// Copy-on-read counters of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Guest bytes served from the cache's own clusters.
    pub hit_bytes: u64,
    /// Guest bytes fetched from the backing chain.
    pub miss_bytes: u64,
    /// Bytes written into the cache by copy-on-read fills.
    pub fill_bytes: u64,
    /// Fill attempts rejected by the quota space error.
    pub fill_rejects: u64,
}

impl CacheTelemetry {
    /// Fraction of guest bytes served locally. A cache that saw no traffic
    /// (or only hits) reports 1.0.
    pub fn hit_ratio(&self) -> f64 {
        if self.miss_bytes == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / (self.hit_bytes + self.miss_bytes) as f64
        }
    }
}

/// The telemetry section of an experiment outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// One entry per cache layer, in chain-construction order. Empty when
    /// the run used no caches (or, for cloud runs, per-chain layers are not
    /// retained).
    pub per_cache: Vec<CacheTelemetry>,
    /// Aggregate hit ratio over all caches (1.0 when nothing missed).
    pub hit_ratio: f64,
    /// Total copy-on-read fill bytes across all caches.
    pub fill_bytes: u64,
    /// Space-error latch transitions observed.
    pub space_errors: u64,
    /// Cache-pool evictions (cloud runs with bounded per-node pools).
    pub evictions: u64,
    /// Caches that latched into degraded mode (fill or cluster-read
    /// failure) during the run.
    pub caches_degraded: u64,
    /// Invariant violations found by `vmi-audit` during crash recovery
    /// (every recovery pass is an audit run under the hood).
    pub audit_violations: u64,
    /// Multi-cluster extents served/filled as one device op by the
    /// coalescing I/O engine (recorder required; 0 otherwise).
    pub runs_coalesced: u64,
    /// Bytes moved by those coalesced extents.
    pub coalesced_bytes: u64,
    /// L2 mapping tables evicted from the bounded in-memory table cache.
    pub l2_evictions: u64,
    /// Injected node failures observed (cloud runs).
    pub node_failures: u64,
    /// Boots rescheduled onto another node after a mid-boot node death.
    pub boots_rescheduled: u64,
    /// Failed nodes that came back after their seeded downtime (cloud runs
    /// with restart semantics).
    pub node_restarts: u64,
    /// Caches re-adopted warm after restart recovery said clean/repaired.
    pub caches_readopted: u64,
    /// Caches dropped at restart for a cold refetch (recovery said refetch).
    pub caches_refetched: u64,
    /// Individual repairs applied by the crash-recovery engine.
    pub recovery_repairs: u64,
    /// Median per-request latency through the image chains, ns. Requires a
    /// recorder ([`Obs`] enabled); `None` otherwise.
    pub p50_op_ns: Option<u64>,
    /// 99th-percentile per-request latency, ns (recorder required).
    pub p99_op_ns: Option<u64>,
}

impl Telemetry {
    /// Build the snapshot from the boot chains (always) and the run's `obs`
    /// handle (adds latency percentiles and cluster counters when enabled).
    pub fn collect(chains: &[Arc<QcowImage>], obs: &Obs) -> Self {
        let per_cache: Vec<CacheTelemetry> =
            chains.iter().filter_map(cache_layer_telemetry).collect();
        Self::from_parts(per_cache, obs)
    }

    /// Build from already-gathered per-cache entries plus `obs`. When no
    /// per-cache entries are available (cloud runs drop their transient
    /// chains) the aggregate falls back to the registry counters.
    pub fn from_parts(per_cache: Vec<CacheTelemetry>, obs: &Obs) -> Self {
        let (hits, misses): (u64, u64) = if per_cache.is_empty() && obs.enabled() {
            (
                obs.counter_value(met::CACHE_HIT_BYTES),
                obs.counter_value(met::CACHE_MISS_BYTES),
            )
        } else {
            (
                per_cache.iter().map(|c| c.hit_bytes).sum(),
                per_cache.iter().map(|c| c.miss_bytes).sum(),
            )
        };
        let fill_bytes: u64 = per_cache.iter().map(|c| c.fill_bytes).sum();
        let hit_ratio = if misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let op_hist = obs.histogram(met::VM_OP_NS);
        Self {
            hit_ratio,
            fill_bytes: if obs.enabled() {
                fill_bytes.max(obs.counter_value(met::COR_FILL_BYTES))
            } else {
                fill_bytes
            },
            space_errors: if obs.enabled() {
                obs.counter_value(met::SPACE_ERRORS)
            } else {
                // Without a recorder, each cache with rejected fills latched
                // (at least) once.
                per_cache.iter().filter(|c| c.fill_rejects > 0).count() as u64
            },
            evictions: obs.counter_value(met::CACHE_EVICTIONS),
            caches_degraded: obs.counter_value(met::CACHE_DEGRADED),
            audit_violations: obs.counter_value(met::AUDIT_VIOLATIONS),
            runs_coalesced: obs.counter_value(met::COALESCED_RUNS),
            coalesced_bytes: obs.counter_value(met::COALESCED_BYTES),
            l2_evictions: obs.counter_value(met::L2_EVICTIONS),
            node_failures: obs.counter_value(met::NODE_FAILURES),
            boots_rescheduled: obs.counter_value(met::BOOT_RESCHEDULES),
            node_restarts: obs.counter_value(met::NODE_RESTARTS),
            caches_readopted: obs.counter_value(met::CACHES_READOPTED),
            caches_refetched: obs.counter_value(met::CACHES_REFETCHED),
            recovery_repairs: obs.counter_value(met::RECOVERY_REPAIRS),
            p50_op_ns: op_hist.as_ref().map(|h| h.quantile(0.5)),
            p99_op_ns: op_hist.as_ref().map(|h| h.quantile(0.99)),
            per_cache,
        }
    }
}

/// The cache layer directly under a CoW top image, if the chain has one.
pub(crate) fn cache_layer(chain: &QcowImage) -> Option<&QcowImage> {
    let q = chain.backing()?.as_any()?.downcast_ref::<QcowImage>()?;
    q.is_cache().then_some(q)
}

/// CoR stats of the cache layer under `chain`, if any.
fn cache_layer_telemetry(chain: &Arc<QcowImage>) -> Option<CacheTelemetry> {
    let s = cache_layer(chain)?.cor_stats();
    Some(CacheTelemetry {
        hit_bytes: s.hit_bytes,
        miss_bytes: s.miss_bytes,
        fill_bytes: s.fill_bytes,
        fill_rejects: s.fill_rejects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_edge_cases() {
        assert_eq!(CacheTelemetry::default().hit_ratio(), 1.0);
        let c = CacheTelemetry {
            hit_bytes: 300,
            miss_bytes: 100,
            ..Default::default()
        };
        assert!((c.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aggregate_from_parts_without_obs() {
        let t = Telemetry::from_parts(
            vec![
                CacheTelemetry {
                    hit_bytes: 100,
                    miss_bytes: 0,
                    fill_bytes: 0,
                    fill_rejects: 0,
                },
                CacheTelemetry {
                    hit_bytes: 100,
                    miss_bytes: 100,
                    fill_bytes: 50,
                    fill_rejects: 2,
                },
            ],
            &Obs::disabled(),
        );
        assert!((t.hit_ratio - 200.0 / 300.0).abs() < 1e-12);
        assert_eq!(t.fill_bytes, 50);
        assert_eq!(t.space_errors, 1, "one cache latched");
        assert_eq!(t.p50_op_ns, None, "no recorder, no latency percentiles");
    }

    #[test]
    fn empty_run_is_all_hits() {
        let t = Telemetry::from_parts(vec![], &Obs::disabled());
        assert_eq!(t.hit_ratio, 1.0);
        assert_eq!(t.per_cache, vec![]);
    }
}
