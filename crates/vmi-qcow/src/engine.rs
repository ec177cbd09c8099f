//! An explicit submission/completion request engine over any [`BlockDev`].
//!
//! The paper's deployment model has many guests in flight against one image
//! layer; the call-tree API (`read_at` blocks the caller for the full
//! device round trip) cannot express that. [`RequestEngine`] splits the two
//! halves: callers **submit** [`Request`]s (getting an id back immediately)
//! and **collect** [`Completion`]s in whatever order the device finishes
//! them. A pool of worker threads drains the submission queue against the
//! shared device — pair it with [`crate::ConcurrentImage`] and
//! non-overlapping requests genuinely overlap their device service time.
//!
//! Ordering contract: completions are unordered across requests. Callers
//! that need a barrier (a flush covering all prior writes, say) call
//! [`RequestEngine::wait_idle`] first.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{lockrank, Condvar, Mutex};
use vmi_blockdev::{BlockError, Result, SharedDev};

/// One queued I/O operation.
#[derive(Debug, Clone)]
pub enum Request {
    /// Read `len` bytes at `off`; the data arrives in [`Completion::data`].
    Read {
        /// Guest offset.
        off: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `data` at `off`.
    Write {
        /// Guest offset.
        off: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Flush the device (see the module docs for the ordering contract).
    Flush,
}

/// The result of one finished [`Request`].
#[derive(Debug)]
pub struct Completion {
    /// Id returned by [`RequestEngine::submit`].
    pub id: u64,
    /// Read payload (`Some` iff the request was a successful `Read`).
    pub data: Option<Vec<u8>>,
    /// Outcome.
    pub result: Result<()>,
}

#[derive(Default)]
struct EngineState {
    queue: VecDeque<(u64, Request)>,
    done: VecDeque<Completion>,
    inflight: usize,
    stopping: bool,
}

struct Shared {
    dev: SharedDev,
    st: Mutex<EngineState>,
    /// Wakes workers on submit/shutdown.
    submit_cv: Condvar,
    /// Wakes collectors on completion / idle / worker exit.
    complete_cv: Condvar,
    next_id: AtomicU64,
}

/// See the [module docs](self).
pub struct RequestEngine {
    sh: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for RequestEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.sh.st.lock();
        f.debug_struct("RequestEngine")
            .field("workers", &self.workers.lock().len())
            .field("queued", &st.queue.len())
            .field("inflight", &st.inflight)
            .field("completed_pending", &st.done.len())
            .finish()
    }
}

impl RequestEngine {
    /// Spawn an engine with `workers` threads (clamped to ≥ 1) draining
    /// requests against `dev`.
    pub fn new(dev: SharedDev, workers: usize) -> Self {
        let sh = Arc::new(Shared {
            dev,
            st: Mutex::new(EngineState::default()),
            submit_cv: Condvar::new(),
            complete_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
        });
        sh.st.set_rank(lockrank::ENGINE_QUEUE);
        let n = workers.max(1);
        // Thread spawn fails only on resource exhaustion, at which point the
        // process has no useful recovery path.
        #[expect(clippy::expect_used, reason = "no recovery from exhaustion")]
        let workers = (0..n)
            .map(|i| {
                let sh = Arc::clone(&sh);
                std::thread::Builder::new()
                    .name(format!("vmi-engine-{i}"))
                    .spawn(move || worker(&sh))
                    .expect("spawn engine worker")
            })
            .collect();
        let workers = Mutex::new(workers);
        workers.set_rank(lockrank::ENGINE_WORKERS);
        Self { sh, workers }
    }

    /// Queue a request; returns its completion id immediately.
    pub fn submit(&self, req: Request) -> u64 {
        let id = self.sh.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut st = self.sh.st.lock();
        if st.stopping {
            st.done.push_back(Completion {
                id,
                data: None,
                result: Err(BlockError::unsupported("engine is shut down")),
            });
            drop(st);
            self.sh.complete_cv.notify_all();
            return id;
        }
        st.queue.push_back((id, req));
        drop(st);
        self.sh.submit_cv.notify_one();
        id
    }

    /// Pop a finished completion if one is ready.
    pub fn try_next(&self) -> Option<Completion> {
        self.sh.st.lock().done.pop_front()
    }

    /// Block for the next completion, in device-finish order. Returns
    /// `None` only after [`RequestEngine::shutdown`] once everything
    /// queued has been delivered.
    pub fn next_completion(&self) -> Option<Completion> {
        let mut st = self.sh.st.lock();
        loop {
            if let Some(c) = st.done.pop_front() {
                return Some(c);
            }
            if st.stopping && st.queue.is_empty() && st.inflight == 0 {
                return None;
            }
            self.sh.complete_cv.wait(&mut st);
        }
    }

    /// Block until nothing is queued or in flight (delivered-but-uncollected
    /// completions may remain). This is the barrier primitive.
    pub fn wait_idle(&self) {
        let mut st = self.sh.st.lock();
        while !(st.queue.is_empty() && st.inflight == 0) {
            self.sh.complete_cv.wait(&mut st);
        }
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.sh.next_id.load(Ordering::Relaxed)
    }

    /// Stop accepting work, finish what is queued, and join the workers.
    /// Uncollected completions stay retrievable via
    /// [`RequestEngine::try_next`] / [`RequestEngine::next_completion`].
    /// Idempotent and callable from any holder of a shared reference.
    pub fn shutdown(&self) {
        {
            let mut st = self.sh.st.lock();
            if st.stopping {
                return;
            }
            st.stopping = true;
        }
        self.sh.submit_cv.notify_all();
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        self.sh.complete_cv.notify_all();
    }
}

impl Drop for RequestEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(sh: &Shared) {
    loop {
        let (id, req) = {
            let mut st = sh.st.lock();
            loop {
                if let Some(item) = st.queue.pop_front() {
                    st.inflight += 1;
                    break item;
                }
                if st.stopping {
                    drop(st);
                    sh.complete_cv.notify_all();
                    return;
                }
                sh.submit_cv.wait(&mut st);
            }
        };
        let (data, result) = execute(&sh.dev, req);
        let mut st = sh.st.lock();
        st.inflight -= 1;
        st.done.push_back(Completion { id, data, result });
        drop(st);
        sh.complete_cv.notify_all();
    }
}

fn execute(dev: &SharedDev, req: Request) -> (Option<Vec<u8>>, Result<()>) {
    match req {
        Request::Read { off, len } => {
            let mut buf = vec![0u8; len];
            match dev.read_at(&mut buf, off) {
                Ok(()) => (Some(buf), Ok(())),
                Err(e) => (None, Err(e)),
            }
        }
        Request::Write { off, data } => (None, dev.write_at(&data, off)),
        // An explicit client Flush against whatever device is being driven
        // (not necessarily an image); QcowImage routes it through barrier().
        Request::Flush => (None, dev.flush()), // lint:allow(qcow-barrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::{BlockDev, MemDev};

    fn dev_with(len: u64) -> SharedDev {
        let d = MemDev::new();
        d.set_len(len).unwrap();
        Arc::new(d)
    }

    #[test]
    fn submit_and_collect_roundtrip() {
        let dev = dev_with(4096);
        dev.write_at(&[7u8; 64], 128).unwrap();
        let engine = RequestEngine::new(dev, 2);
        let id = engine.submit(Request::Read { off: 128, len: 64 });
        let c = engine.next_completion().expect("one completion");
        assert_eq!(c.id, id);
        assert!(c.result.is_ok());
        assert_eq!(c.data.as_deref(), Some(&[7u8; 64][..]));
    }

    #[test]
    fn many_requests_all_complete_once() {
        let dev = dev_with(1 << 20);
        let engine = RequestEngine::new(dev.clone(), 4);
        let mut ids = std::collections::HashSet::new();
        for i in 0..64u64 {
            ids.insert(engine.submit(Request::Write {
                off: i * 512,
                data: vec![i as u8; 512],
            }));
        }
        engine.wait_idle();
        engine.shutdown();
        let mut seen = std::collections::HashSet::new();
        while let Some(c) = engine.next_completion() {
            assert!(c.result.is_ok());
            assert!(seen.insert(c.id), "duplicate completion {}", c.id);
        }
        assert_eq!(seen, ids);
        let mut b = [0u8; 512];
        dev.read_at(&mut b, 63 * 512).unwrap();
        assert_eq!(b, [63u8; 512]);
    }

    #[test]
    fn errors_surface_in_completions() {
        let dev = dev_with(1024);
        let engine = RequestEngine::new(dev, 1);
        engine.submit(Request::Read { off: 2048, len: 16 });
        let c = engine.next_completion().expect("completion");
        assert!(c.result.is_err());
        assert!(c.data.is_none());
    }

    #[test]
    fn wait_idle_is_a_barrier_for_flush() {
        let dev = dev_with(1 << 16);
        let engine = RequestEngine::new(dev, 4);
        for i in 0..16u64 {
            engine.submit(Request::Write {
                off: i * 1024,
                data: vec![1u8; 1024],
            });
        }
        engine.wait_idle();
        let fid = engine.submit(Request::Flush);
        loop {
            let c = engine.next_completion().expect("completion");
            if c.id == fid {
                assert!(c.result.is_ok());
                break;
            }
        }
    }

    #[test]
    fn submit_after_shutdown_errors_cleanly() {
        let dev = dev_with(1024);
        let engine = RequestEngine::new(dev, 1);
        engine.shutdown();
        engine.submit(Request::Flush);
        let c = engine.next_completion().expect("error completion");
        assert!(c.result.is_err());
        assert!(engine.next_completion().is_none());
    }
}
