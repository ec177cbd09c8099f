//! Event recorders: where emitted [`Event`]s go.
//!
//! [`JsonlSink`] keeps one JSON line per event in memory — a replayable
//! stream that tests and tools parse back with [`Event::parse_line`].
//! [`NullRecorder`] drops everything and exists to measure instrumentation
//! overhead.

use std::sync::Arc;

use crate::event::Event;

/// The lock around a sink's buffer: a poisoning `std` mutex, recovered
/// with `into_inner` at every acquisition.
#[expect(
    clippy::disallowed_types,
    reason = "vmi-obs has no dependencies: `parking_lot` as a normal dependency \
              rewrites e2e/Cargo.lock and breaks its --locked build, so the move \
              to the facade waits for a change to the benchmark"
)]
type SinkLock<T> = std::sync::Mutex<T>;

/// Consumer of emitted events. `t_ns` is the [`Clock`](crate::Clock)
/// timestamp at emission.
pub trait Recorder: Send + Sync {
    /// Handle one event.
    fn record(&self, t_ns: u64, ev: &Event);
}

/// Buffers every event as one JSON line (see [`Event::to_json_line`]).
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: SinkLock<Vec<String>>,
}

impl JsonlSink {
    /// A fresh, shareable, empty sink.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The buffer; a panic in another recording thread does not lose it.
    fn buffer(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        self.lines.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Copy of the recorded lines, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.buffer().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.buffer().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parse every recorded line back into `(t_ns, Event)` pairs.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.buffer()
            .iter()
            .filter_map(|l| Event::parse_line(l).ok())
            .collect()
    }
}

impl Recorder for JsonlSink {
    fn record(&self, t_ns: u64, ev: &Event) {
        let line = ev.to_json_line(t_ns);
        self.buffer().push(line);
    }
}

/// Discards every event. Useful for benchmarking the cost of an *enabled*
/// pipeline without I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _t_ns: u64, _ev: &Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_buffers_and_replays() {
        let sink = JsonlSink::new();
        assert!(sink.is_empty());
        sink.record(7, &Event::CacheHit { bytes: 512 });
        sink.record(9, &Event::CacheMiss { bytes: 64 });
        assert_eq!(sink.len(), 2);
        let evs = sink.events();
        assert_eq!(evs[0], (7, Event::CacheHit { bytes: 512 }));
        assert_eq!(evs[1], (9, Event::CacheMiss { bytes: 64 }));
        assert_eq!(sink.lines().len(), 2);
    }

    #[test]
    fn null_recorder_discards() {
        NullRecorder.record(1, &Event::CacheHit { bytes: 1 });
    }
}
