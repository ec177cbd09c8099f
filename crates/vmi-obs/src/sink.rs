//! Event recorders: where emitted [`Event`]s go.
//!
//! [`JsonlSink`] buffers one JSON line per event — a replayable stream that
//! tests and tools can parse back with [`Event::parse_line`]. [`NullRecorder`]
//! drops everything and exists to measure instrumentation overhead.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Event;

/// The lock around a sink's buffers: a poisoning `std` mutex, recovered
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

/// Buffers events as JSON lines (one object per line, see
/// [`Event::to_json_line`]).
///
/// The default ([`JsonlSink::new`]) keeps every line in memory — right for
/// tests and short experiments. Long simulations use
/// [`JsonlSink::with_writer`]: every line streams to a `Write` target and
/// only a bounded tail stays in memory, so the sink's footprint is constant
/// no matter how long the run.
pub struct JsonlSink {
    /// In-memory lines; bounded to the most recent `tail_cap` when set.
    lines: SinkLock<VecDeque<String>>,
    /// `None` = unbounded (buffer-everything mode).
    tail_cap: Option<usize>,
    /// Streaming target receiving every line (plus newline) as it is
    /// recorded.
    writer: Option<SinkLock<Box<dyn Write + Send>>>,
    /// Lines recorded over the sink's lifetime (≥ the buffered tail).
    total: AtomicU64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("total", &self.total.load(Ordering::Relaxed))
            .field("tail_cap", &self.tail_cap)
            .field("streaming", &self.writer.is_some())
            .finish()
    }
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self {
            lines: SinkLock::new(VecDeque::new()),
            tail_cap: None,
            writer: None,
            total: AtomicU64::new(0),
        }
    }
}

impl JsonlSink {
    /// A fresh, shareable sink buffering every line in memory.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A streaming sink: every recorded line is written (newline-terminated)
    /// to `w` immediately, and only the most recent `tail_cap` lines are
    /// kept in memory for inspection ([`lines`](Self::lines) /
    /// [`events`](Self::events) see just that tail;
    /// [`len`](Self::len) still counts the whole stream). Write errors are
    /// swallowed — recording is infallible by contract — but the in-memory
    /// tail keeps working regardless.
    pub fn with_writer(w: impl Write + Send + 'static, tail_cap: usize) -> Arc<Self> {
        Arc::new(Self {
            lines: SinkLock::new(VecDeque::with_capacity(tail_cap.min(4096))),
            tail_cap: Some(tail_cap),
            writer: Some(SinkLock::new(Box::new(w))),
            total: AtomicU64::new(0),
        })
    }

    /// Copy of the buffered lines, in emission order (the full stream in
    /// buffering mode, the bounded tail in streaming mode).
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events recorded over this sink's lifetime.
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Relaxed) as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered lines as one newline-terminated JSONL document.
    pub fn dump(&self) -> String {
        let lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for l in lines.iter() {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Parse every buffered line back into `(t_ns, Event)` pairs.
    pub fn events(&self) -> Vec<(u64, Event)> {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(|l| Event::parse_line(l).ok())
            .collect()
    }

    /// Flush the streaming writer, if any.
    pub fn flush(&self) {
        if let Some(w) = &self.writer {
            let _ = w.lock().unwrap_or_else(|e| e.into_inner()).flush();
        }
    }
}

impl Recorder for JsonlSink {
    fn record(&self, t_ns: u64, ev: &Event) {
        let line = ev.to_json_line(t_ns);
        if let Some(w) = &self.writer {
            let mut w = w.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
        let mut lines = self.lines.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cap) = self.tail_cap {
            while lines.len() >= cap.max(1) {
                lines.pop_front();
            }
            if cap == 0 {
                self.total.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        lines.push_back(line);
        self.total.fetch_add(1, Ordering::Relaxed);
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
        assert_eq!(sink.dump().lines().count(), 2);
    }

    #[test]
    fn null_recorder_discards() {
        NullRecorder.record(1, &Event::CacheHit { bytes: 1 });
    }

    /// `Write` target backed by a shared buffer, so the test can read back
    /// what the sink streamed out.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<SinkLock<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_sink_bounds_memory_but_writes_everything() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::with_writer(buf.clone(), 3);
        for i in 0..10 {
            sink.record(i, &Event::CacheHit { bytes: i });
        }
        sink.flush();
        // The writer saw all ten lines...
        let streamed = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(streamed.lines().count(), 10);
        assert!(streamed.starts_with(r#"{"t":0,"ev":"cache_hit","bytes":0}"#));
        // ...while memory holds only the 3-line tail, and len() counts all.
        assert_eq!(sink.len(), 10);
        let tail = sink.events();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0], (7, Event::CacheHit { bytes: 7 }));
        assert_eq!(tail[2], (9, Event::CacheHit { bytes: 9 }));
        assert_eq!(sink.dump().lines().count(), 3);
        let dbg = format!("{sink:?}");
        assert!(
            dbg.contains("total: 10") && dbg.contains("streaming: true"),
            "{dbg}"
        );
    }

    #[test]
    fn zero_cap_tail_keeps_nothing_but_counts() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::with_writer(buf.clone(), 0);
        sink.record(1, &Event::CacheMiss { bytes: 2 });
        sink.record(2, &Event::CacheMiss { bytes: 3 });
        assert_eq!(sink.len(), 2);
        assert!(sink.lines().is_empty());
        assert_eq!(
            String::from_utf8(buf.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .count(),
            2
        );
    }
}
