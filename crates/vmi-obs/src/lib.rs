//! # vmi-obs — zero-cost-when-disabled observability for the VMI-cache stack
//!
//! Structured events plus lock-free metrics, designed so that production code
//! can be instrumented unconditionally:
//!
//! * [`Obs`] is the handle threaded through every layer. A **disabled** `Obs`
//!   (the default) is a `None` — every instrumentation call is a single
//!   branch, no allocation, no clock read, no event construction (events are
//!   built inside closures that never run when disabled).
//! * An **enabled** `Obs` couples a [`Clock`] (wall time, a manual test
//!   clock, or the simulator's operation clock), a [`MetricsRegistry`] of
//!   relaxed-atomic counters/gauges/log2-histograms, and a [`Recorder`] that
//!   receives typed [`Event`]s — usually a [`JsonlSink`] buffering one JSON
//!   line per event for later replay.
//! * [`RecorderHandle`] is the config-friendly wrapper: it is `Clone +
//!   Default + Debug` so it can sit in experiment config structs, and it is
//!   turned into an `Obs` with [`RecorderHandle::attach`] once the clock
//!   exists.
//! * [`Obs::span`] / [`Obs::span_in`] open **causal spans** — RAII guards
//!   emitting [`Event::SpanStart`]/[`Event::SpanEnd`] pairs with
//!   deterministic ids and explicit parent links (no thread-locals), from
//!   which tools reconstruct per-request trace trees.
//!
//! ```
//! use vmi_obs::{Event, ManualClock, RecorderHandle};
//! use std::sync::Arc;
//!
//! let (handle, sink) = RecorderHandle::jsonl();
//! let clock = Arc::new(ManualClock::new(1_000));
//! let obs = handle.attach(clock.clone());
//!
//! obs.emit(|| Event::CacheHit { bytes: 512 });
//! obs.count(vmi_obs::met::CACHE_HIT_BYTES, 512);
//! clock.advance(500);
//! obs.emit(|| Event::CacheMiss { bytes: 64 });
//!
//! let evs = sink.events();
//! assert_eq!(evs[0], (1_000, Event::CacheHit { bytes: 512 }));
//! assert_eq!(evs[1], (1_500, Event::CacheMiss { bytes: 64 }));
//! assert_eq!(obs.counter_value(vmi_obs::met::CACHE_HIT_BYTES), 512);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod event;
mod metrics;
mod sink;

pub use event::{Event, ParseError};
pub use metrics::met;
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{JsonlSink, NullRecorder, Recorder};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Source of event timestamps, in nanoseconds from an arbitrary origin.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds.
    fn now_ns(&self) -> u64;
}

/// A hand-driven clock for tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock reading `now` nanoseconds.
    pub fn new(now: u64) -> Self {
        Self {
            now: AtomicU64::new(now),
        }
    }

    /// Jump to an absolute time.
    pub fn set(&self, now: u64) {
        self.now.store(now, Ordering::Relaxed);
    }

    /// Move forward by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.now.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Real elapsed time since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl Default for WallClock {
    #[expect(clippy::disallowed_methods, reason = "the one wall-time source")]
    fn default() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl WallClock {
    /// A clock starting at zero now.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

struct ObsInner {
    clock: Arc<dyn Clock>,
    metrics: MetricsRegistry,
    rec: Arc<dyn Recorder>,
    /// Last span id issued; see [`Obs::span`]. Monotonic per `Obs`, so a
    /// fixed seed fully determines every span id in a recorded stream.
    span_seq: AtomicU64,
}

/// The observability handle threaded through instrumented code.
///
/// Cheap to clone (an `Option<Arc>`); the default is **disabled**, which
/// reduces every method to one branch on `None`.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(disabled)"
        })
    }
}

impl Obs {
    /// The no-op handle. All instrumentation is a single branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle recording events to `rec`, stamped by `clock`.
    pub fn new(clock: Arc<dyn Clock>, rec: Arc<dyn Recorder>) -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                clock,
                metrics: MetricsRegistry::new(),
                rec,
                span_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Whether instrumentation is live.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. `make` runs only when enabled, so building the event
    /// (string clones etc.) costs nothing when observability is off.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let ev = make();
            inner.rec.record(inner.clock.now_ns(), &ev);
        }
    }

    /// Add `n` to counter `id`.
    pub fn count(&self, id: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(id, n);
        }
    }

    /// Set gauge `id` to `v`.
    pub fn gauge(&self, id: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge_set(id, v);
        }
    }

    /// Record `v` into histogram `id`.
    pub fn observe(&self, id: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(id, v);
        }
    }

    /// Snapshot of every metric, or `None` when disabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.metrics.snapshot())
    }

    /// Current value of counter `id` (0 when disabled or untouched).
    pub fn counter_value(&self, id: &'static str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.metrics.counter(id))
            .unwrap_or(0)
    }

    /// Snapshot of histogram `id`, if enabled and observed.
    pub fn histogram(&self, id: &'static str) -> Option<HistogramSnapshot> {
        self.inner.as_ref().and_then(|i| i.metrics.histogram(id))
    }

    /// The clock stamping this handle's events, if enabled.
    pub fn clock(&self) -> Option<Arc<dyn Clock>> {
        self.inner.as_ref().map(|i| Arc::clone(&i.clock))
    }

    /// Open a root span of `kind`. Emits [`Event::SpanStart`] now and
    /// [`Event::SpanEnd`] when the returned guard drops; `detail` runs only
    /// when enabled (build attribute strings inside it). When disabled this
    /// is one branch: no allocation, no clock read, no id issued.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, kind: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
        self.span_in(None, kind, detail)
    }

    /// Open a span as a child of `parent` (pass `None` for a root). This is
    /// the explicit — no thread-local — way child operations attach to the
    /// request that caused them: the parent's [`SpanGuard::id`] travels down
    /// the call chain as a plain value.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_in(
        &self,
        parent: Option<SpanId>,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) -> SpanGuard {
        match &self.inner {
            Some(inner) => {
                let id = inner.span_seq.fetch_add(1, Ordering::Relaxed) + 1;
                let parent = parent.map_or(0, |p| p.0);
                inner.rec.record(
                    inner.clock.now_ns(),
                    &Event::SpanStart {
                        id,
                        parent,
                        kind: kind.to_string(),
                        detail: detail(),
                    },
                );
                SpanGuard {
                    obs: self.clone(),
                    id,
                }
            }
            None => SpanGuard {
                obs: Obs::disabled(),
                id: 0,
            },
        }
    }
}

/// Identity of an open span, used to parent child spans explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// RAII guard for one span: created by [`Obs::span`] / [`Obs::span_in`],
/// emits the matching [`Event::SpanEnd`] on drop. A guard from a disabled
/// `Obs` is inert (id 0, nothing emitted).
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    id: u64,
}

impl SpanGuard {
    /// This span's id, to parent children under it — `None` when tracing is
    /// disabled (children then become unparented no-ops too).
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(SpanId(self.id))
    }

    /// Open a child span of this one.
    #[must_use = "the span closes when the guard drops"]
    pub fn child(&self, kind: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
        self.obs.span_in(self.id(), kind, detail)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            let id = self.id;
            self.obs.emit(|| Event::SpanEnd { id });
        }
    }
}

/// A recorder choice that can live inside config structs: `Clone`, `Default`
/// (= no recording), `Debug`. Becomes an [`Obs`] once a clock is available
/// via [`RecorderHandle::attach`].
#[derive(Clone, Default)]
pub struct RecorderHandle {
    rec: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.rec.is_some() {
            "RecorderHandle(set)"
        } else {
            "RecorderHandle(none)"
        })
    }
}

impl RecorderHandle {
    /// No recording: [`attach`](Self::attach) yields a disabled [`Obs`].
    pub fn none() -> Self {
        Self::default()
    }

    /// Record to the given recorder.
    pub fn of(rec: Arc<dyn Recorder>) -> Self {
        Self { rec: Some(rec) }
    }

    /// A handle paired with a fresh [`JsonlSink`] to read events back from.
    pub fn jsonl() -> (Self, Arc<JsonlSink>) {
        let sink = JsonlSink::new();
        (Self::of(sink.clone()), sink)
    }

    /// Build the [`Obs`] handle: enabled iff a recorder was configured.
    pub fn attach(&self, clock: Arc<dyn Clock>) -> Obs {
        match &self.rec {
            Some(rec) => Obs::new(clock, Arc::clone(rec)),
            None => Obs::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        let mut ran = false;
        obs.emit(|| {
            ran = true;
            Event::CacheHit { bytes: 1 }
        });
        assert!(!ran, "event closure must not run when disabled");
        obs.count(met::CACHE_HIT_BYTES, 5);
        obs.observe(met::VM_OP_NS, 5);
        assert_eq!(obs.counter_value(met::CACHE_HIT_BYTES), 0);
        assert!(obs.metrics_snapshot().is_none());
        assert!(obs.histogram(met::VM_OP_NS).is_none());
        assert_eq!(format!("{obs:?}"), "Obs(disabled)");
    }

    #[test]
    fn enabled_obs_records_and_stamps() {
        let clock = Arc::new(ManualClock::new(42));
        let sink = JsonlSink::new();
        let obs = Obs::new(clock.clone(), sink.clone());
        assert!(obs.enabled());
        obs.emit(|| Event::CorFill { bytes: 4096 });
        clock.advance(8);
        obs.emit(|| Event::QuotaRearmed { used: 1, quota: 2 });
        obs.count(met::COR_FILL_BYTES, 4096);
        obs.observe(met::VM_OP_NS, 100);
        let evs = sink.events();
        assert_eq!(evs[0], (42, Event::CorFill { bytes: 4096 }));
        assert_eq!(evs[1], (50, Event::QuotaRearmed { used: 1, quota: 2 }));
        assert_eq!(obs.counter_value(met::COR_FILL_BYTES), 4096);
        assert_eq!(obs.histogram(met::VM_OP_NS).unwrap().count, 1);
        assert_eq!(format!("{obs:?}"), "Obs(enabled)");
    }

    #[test]
    fn recorder_handle_roundtrip() {
        let none = RecorderHandle::none();
        assert!(!none.attach(Arc::new(ManualClock::default())).enabled());
        assert_eq!(format!("{none:?}"), "RecorderHandle(none)");

        let (handle, sink) = RecorderHandle::jsonl();
        assert_eq!(format!("{handle:?}"), "RecorderHandle(set)");
        let obs = handle.attach(Arc::new(ManualClock::new(3)));
        assert!(obs.enabled());
        obs.emit(|| Event::NodeFailed { node: 1 });
        assert_eq!(sink.len(), 1);
        // The handle survives cloning into a second, independent Obs.
        let obs2 = handle.clone().attach(Arc::new(ManualClock::new(4)));
        obs2.emit(|| Event::NodeFailed { node: 2 });
        assert_eq!(sink.len(), 2, "clones share the sink");
    }

    #[test]
    fn wall_clock_advances() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn disabled_span_is_inert() {
        let obs = Obs::disabled();
        let mut ran = false;
        let sp = obs.span("qcow.read", || {
            ran = true;
            String::from("never built")
        });
        assert!(!ran, "detail closure must not run when disabled");
        assert_eq!(sp.id(), None);
        let child = sp.child("dev.read", || unreachable!("disabled child detail"));
        assert_eq!(child.id(), None);
        drop(child);
        drop(sp);
    }

    #[test]
    fn spans_nest_and_balance() {
        let clock = Arc::new(ManualClock::new(100));
        let sink = JsonlSink::new();
        let obs = Obs::new(clock.clone(), sink.clone());
        {
            let root = obs.span("boot.vm", || "vm=0".into());
            clock.advance(10);
            {
                let read = root.child("qcow.read", || "bytes=512".into());
                clock.advance(5);
                let dev = obs.span_in(read.id(), "dev.read", String::new);
                clock.advance(1);
                drop(dev);
            }
            clock.advance(4);
        }
        let evs = sink.events();
        assert_eq!(
            evs[0],
            (
                100,
                Event::SpanStart {
                    id: 1,
                    parent: 0,
                    kind: "boot.vm".into(),
                    detail: "vm=0".into(),
                }
            )
        );
        assert_eq!(
            evs[1],
            (
                110,
                Event::SpanStart {
                    id: 2,
                    parent: 1,
                    kind: "qcow.read".into(),
                    detail: "bytes=512".into(),
                }
            )
        );
        assert_eq!(
            evs[2],
            (
                115,
                Event::SpanStart {
                    id: 3,
                    parent: 2,
                    kind: "dev.read".into(),
                    detail: String::new(),
                }
            )
        );
        assert_eq!(evs[3], (116, Event::SpanEnd { id: 3 }));
        assert_eq!(evs[4], (116, Event::SpanEnd { id: 2 }));
        assert_eq!(evs[5], (120, Event::SpanEnd { id: 1 }));
    }
}
