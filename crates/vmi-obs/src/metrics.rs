//! Lock-free metrics: counters, gauges and log2-bucket histograms keyed by
//! `&'static str` metric ids.
//!
//! The hot path is pure relaxed atomics: updating a metric scans a small
//! fixed slot array for its id (pointer comparison first, string fallback)
//! and `fetch_add`s. Registration happens implicitly on first use via a
//! `OnceLock` per slot, so there is no setup phase, no allocation, and no
//! mutex anywhere on the update path. Snapshots are point-in-time copies
//! taken with relaxed loads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Canonical metric ids used across the stack. Any `&'static str` works as
/// an id; these constants keep producers and consumers in sync.
pub mod met {
    /// Guest bytes served from a cache image's own clusters (counter).
    pub const CACHE_HIT_BYTES: &str = "qcow.cache.hit_bytes";
    /// Guest bytes fetched from the backing chain by cache images (counter).
    pub const CACHE_MISS_BYTES: &str = "qcow.cache.miss_bytes";
    /// Bytes written into caches by copy-on-read fills (counter).
    pub const COR_FILL_BYTES: &str = "qcow.cache.fill_bytes";
    /// Quota space errors that latched copy-on-read off (counter).
    pub const SPACE_ERRORS: &str = "qcow.cache.space_errors";
    /// Quota re-arms after discards freed space (counter).
    pub const QUOTA_REARMS: &str = "qcow.cache.quota_rearms";
    /// Image-chain layers opened (counter).
    pub const CHAIN_OPENS: &str = "qcow.chain.opens";
    /// Live cache used-bytes of the most recently updated cache (gauge).
    pub const CACHE_USED_BYTES: &str = "qcow.cache.used_bytes";
    /// Per-guest-request latency through an image chain, ns (histogram).
    pub const VM_OP_NS: &str = "cluster.vm.op_ns";
    /// Per-request NBD server latency, wall ns (histogram).
    pub const NBD_REQUEST_NS: &str = "nbd.request_ns";
    /// Cache images latched into degraded mode (counter).
    pub const CACHE_DEGRADED: &str = "qcow.cache.degraded";
    /// Guest bytes served from backing because the cache was degraded (counter).
    pub const DEGRADED_READ_BYTES: &str = "qcow.cache.degraded_read_bytes";
    /// Invariant-checker (fsck) runs (counter).
    pub const AUDIT_RUNS: &str = "audit.runs";
    /// Invariant violations reported by the checker (counter).
    pub const AUDIT_VIOLATIONS: &str = "audit.violations";
    /// Multi-cluster extents served/filled as a single device op (counter).
    pub const COALESCED_RUNS: &str = "qcow.io.coalesced_runs";
    /// Bytes moved by coalesced multi-cluster extents (counter).
    pub const COALESCED_BYTES: &str = "qcow.io.coalesced_bytes";
    /// L2 mapping tables evicted from the bounded in-memory cache (counter).
    pub const L2_EVICTIONS: &str = "qcow.l2.evictions";
    /// Crash-recovery runs on cache images (counter).
    pub const RECOVERY_RUNS: &str = "qcow.recovery.runs";
    /// Individual repairs applied by the recovery engine (counter).
    pub const RECOVERY_REPAIRS: &str = "qcow.recovery.repairs";
    /// Recoveries that gave up and demanded a refetch (counter).
    pub const RECOVERY_REFETCHES: &str = "qcow.recovery.refetches";
}

/// Slots per metric kind. Overflowing ids are dropped silently (the
/// registry never fails, it just stops learning new names).
const SLOTS: usize = 64;

#[derive(Debug, Default)]
struct Slot {
    name: OnceLock<&'static str>,
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct HistSlot {
    name: OnceLock<&'static str>,
    hist: Histogram,
}

fn slot_array<T: Default>() -> [T; SLOTS] {
    std::array::from_fn(|_| T::default())
}

/// A log2-bucket histogram: bucket `k` counts samples in `[2^k, 2^(k+1))`
/// (sample 0 lands in bucket 0). Tracks count and sum for exact means.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            (63 - v.leading_zeros()) as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, c)| {
                    let n = c.load(Ordering::Relaxed);
                    (n > 0).then_some((k as u32, n))
                })
                .collect(),
        }
    }
}

/// A copied histogram: only non-empty buckets, as `(log2_bucket, count)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0..=1.0`). Resolution is one log2
    /// bucket; the estimate returned is the bucket's inclusive upper edge
    /// `2^(k+1) - 1`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(k, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return 2u64.saturating_pow(k + 1) - 1;
            }
        }
        2u64.saturating_pow(self.buckets.last().map(|&(k, _)| k + 1).unwrap_or(0)) - 1
    }

    /// Fold `other` in, as if both histograms had recorded into one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for &(k, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&k, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (k, n)),
            }
        }
    }

    /// Exact mean of all recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The registry: fixed slot arrays for counters, gauges, histograms.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [Slot; SLOTS],
    gauges: [Slot; SLOTS],
    histograms: [HistSlot; SLOTS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            counters: slot_array(),
            gauges: slot_array(),
            histograms: slot_array(),
        }
    }
}

/// Find (or claim) the slot for `name`. Lock-free: an unclaimed slot is
/// claimed with `OnceLock::set`; losing a registration race to the *same*
/// name still resolves to that slot, losing to a different name moves on.
fn find_slot<'a, T>(
    slots: &'a [T],
    name: &'static str,
    slot_name: impl Fn(&T) -> &OnceLock<&'static str>,
) -> Option<&'a T> {
    for s in slots {
        match slot_name(s).get() {
            Some(n) => {
                if std::ptr::eq(n.as_ptr(), name.as_ptr()) || *n == name {
                    return Some(s);
                }
            }
            None => {
                if slot_name(s).set(name).is_ok() || slot_name(s).get().copied() == Some(name) {
                    return Some(s);
                }
            }
        }
    }
    None
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `id`.
    pub fn counter_add(&self, id: &'static str, delta: u64) {
        if let Some(s) = find_slot(&self.counters, id, |s| &s.name) {
            s.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value of counter `id` (0 if never touched).
    pub fn counter(&self, id: &'static str) -> u64 {
        self.counters
            .iter()
            .find(|s| s.name.get().is_some_and(|n| *n == id))
            .map(|s| s.value.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Set gauge `id` to `value`.
    pub fn gauge_set(&self, id: &'static str, value: u64) {
        if let Some(s) = find_slot(&self.gauges, id, |s| &s.name) {
            s.value.store(value, Ordering::Relaxed);
        }
    }

    /// Current value of gauge `id` (0 if never set).
    pub fn gauge(&self, id: &'static str) -> u64 {
        self.gauges
            .iter()
            .find(|s| s.name.get().is_some_and(|n| *n == id))
            .map(|s| s.value.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Record `sample` into histogram `id`.
    pub fn observe(&self, id: &'static str, sample: u64) {
        if let Some(s) = find_slot(&self.histograms, id, |s| &s.name) {
            s.hist.record(sample);
        }
    }

    /// Snapshot of histogram `id`, if it has ever been observed.
    pub fn histogram(&self, id: &'static str) -> Option<HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|s| s.name.get().is_some_and(|n| *n == id))
            .map(|s| s.hist.snapshot())
    }

    /// Copy every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let copy_slots = |slots: &[Slot]| {
            slots
                .iter()
                .filter_map(|s| s.name.get().map(|&n| (n, s.value.load(Ordering::Relaxed))))
                .collect()
        };
        MetricsSnapshot {
            counters: copy_slots(&self.counters),
            gauges: copy_slots(&self.gauges),
            histograms: self
                .histograms
                .iter()
                .filter_map(|s| s.name.get().map(|&n| (n, s.hist.snapshot())))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(id, value)` for every touched counter, registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(id, value)` for every set gauge.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(id, snapshot)` for every observed histogram.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of counter `id` in this snapshot (0 if absent).
    pub fn counter(&self, id: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == id)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram `id` in this snapshot.
    pub fn histogram(&self, id: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == id)
            .map(|(_, h)| h)
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Metric ids are mapped to Prometheus names by replacing `.` with `_`
    /// (`qcow.cache.hit_bytes` → `qcow_cache_hit_bytes`). Histograms expose
    /// the standard cumulative `_bucket{le="..."}` series (the upper edge of
    /// log2 bucket `k` is `2^(k+1)-1`), `_sum` and `_count`, plus derived
    /// `_p50` / `_p99` gauges so a scrape shows tail latency without
    /// server-side quantile math.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        fn prom_name(id: &str) -> String {
            id.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for &(id, v) in &self.counters {
            let name = prom_name(id);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for &(id, v) in &self.gauges {
            let name = prom_name(id);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (id, h) in &self.histograms {
            let name = prom_name(id);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for &(k, n) in &h.buckets {
                cum += n;
                let le = 2u64.saturating_pow(k + 1) - 1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            let _ = writeln!(out, "# TYPE {name}_p50 gauge");
            let _ = writeln!(out, "{name}_p50 {}", h.quantile(0.5));
            let _ = writeln!(out, "# TYPE {name}_p99 gauge");
            let _ = writeln!(out, "{name}_p99 {}", h.quantile(0.99));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = MetricsRegistry::new();
        m.counter_add(met::CACHE_HIT_BYTES, 512);
        m.counter_add(met::CACHE_HIT_BYTES, 512);
        m.counter_add(met::CACHE_MISS_BYTES, 64);
        m.gauge_set(met::CACHE_USED_BYTES, 9000);
        m.gauge_set(met::CACHE_USED_BYTES, 7000);
        assert_eq!(m.counter(met::CACHE_HIT_BYTES), 1024);
        assert_eq!(m.counter(met::CACHE_MISS_BYTES), 64);
        assert_eq!(m.counter("never.touched"), 0);
        assert_eq!(m.gauge(met::CACHE_USED_BYTES), 7000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6 [64,128)
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 19
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.buckets, vec![(6, 90), (19, 10)]);
        assert_eq!(s.quantile(0.5), (1 << 7) - 1, "p50 in the small bucket");
        assert_eq!(s.quantile(0.99), (1 << 20) - 1, "p99 in the big bucket");
        assert!((s.mean() - (90.0 * 100.0 + 10.0 * 1e6) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }

    #[test]
    fn merged_snapshots_equal_one_histogram() {
        let (a, b, both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [3u64, 100, 100, 1 << 40] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 100, 5000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn zero_sample_lands_in_bucket_zero() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        assert_eq!(h.snapshot().buckets, vec![(0, 2)]);
    }

    #[test]
    fn snapshot_collects_everything() {
        let m = MetricsRegistry::new();
        m.counter_add("a", 1);
        m.gauge_set("b", 2);
        m.observe("c", 3);
        let s = m.snapshot();
        assert_eq!(s.counter("a"), 1);
        assert_eq!(s.gauges, vec![("b", 2)]);
        assert_eq!(s.histogram("c").unwrap().count, 1);
    }

    #[test]
    fn concurrent_hammer_from_eight_threads() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        m.counter_add(met::CACHE_HIT_BYTES, 1);
                        m.counter_add(met::COR_FILL_BYTES, 2);
                        m.observe(met::VM_OP_NS, (t as u64 + 1) * 1000 + i % 7);
                        m.gauge_set(met::CACHE_USED_BYTES, i);
                    }
                });
            }
        });
        assert_eq!(m.counter(met::CACHE_HIT_BYTES), THREADS as u64 * PER_THREAD);
        assert_eq!(
            m.counter(met::COR_FILL_BYTES),
            2 * THREADS as u64 * PER_THREAD
        );
        let h = m.histogram(met::VM_OP_NS).unwrap();
        assert_eq!(h.count, THREADS as u64 * PER_THREAD);
        assert!(m.gauge(met::CACHE_USED_BYTES) < PER_THREAD);
    }

    #[test]
    fn prometheus_exposition_format() {
        let m = MetricsRegistry::new();
        m.counter_add(met::CACHE_HIT_BYTES, 1024);
        m.gauge_set(met::CACHE_USED_BYTES, 4096);
        for _ in 0..90 {
            m.observe(met::VM_OP_NS, 100); // bucket 6, le=127
        }
        for _ in 0..10 {
            m.observe(met::VM_OP_NS, 1_000_000); // bucket 19, le=2^20-1
        }
        let text = m.snapshot().to_prometheus();
        let has = |l: &str| text.lines().any(|x| x == l);
        assert!(has("# TYPE qcow_cache_hit_bytes counter"), "{text}");
        assert!(has("qcow_cache_hit_bytes 1024"), "{text}");
        assert!(has("# TYPE qcow_cache_used_bytes gauge"), "{text}");
        assert!(has("qcow_cache_used_bytes 4096"), "{text}");
        assert!(has("# TYPE cluster_vm_op_ns histogram"), "{text}");
        assert!(has("cluster_vm_op_ns_bucket{le=\"127\"} 90"), "{text}");
        assert!(
            has("cluster_vm_op_ns_bucket{le=\"1048575\"} 100"),
            "buckets are cumulative: {text}"
        );
        assert!(has("cluster_vm_op_ns_bucket{le=\"+Inf\"} 100"), "{text}");
        assert!(has("cluster_vm_op_ns_count 100"), "{text}");
        assert!(
            has(&format!(
                "cluster_vm_op_ns_sum {}",
                90 * 100 + 10 * 1_000_000
            )),
            "{text}"
        );
        assert!(has("cluster_vm_op_ns_p50 127"), "{text}");
        assert!(has("cluster_vm_op_ns_p99 1048575"), "{text}");
    }

    #[test]
    fn registration_overflow_is_silent() {
        // Leak names to get 'static strs beyond the slot count.
        let m = MetricsRegistry::new();
        for i in 0..(SLOTS + 8) {
            let name: &'static str = Box::leak(format!("metric-{i}").into_boxed_str());
            m.counter_add(name, 1);
        }
        assert_eq!(m.snapshot().counters.len(), SLOTS);
    }
}
