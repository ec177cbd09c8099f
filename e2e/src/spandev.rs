//! `SpanDev`: the benchmark's own tracing decorator.
//!
//! Every device the benchmark hands to the program — CoW container, cache
//! container, base attachment, server-side export — is wrapped in a
//! `SpanDev`, in the traced pass and in the untraced one. It forwards every
//! `BlockDev` entry point to the same entry point of the wrapped device, so
//! the layer below sees exactly the calls it would see unwrapped, and adds
//! to a cell of the shared [`Recorder`]: calls and bytes always, busy time
//! only when the recorder is `timed`. A cell is chosen by the device's
//! [`Role`], the I/O kind, and the class of guest operation in progress
//! ([`Phase`]), which the load generator sets before each call into the
//! program. No span is stored one by one: on a serial path the sum of a
//! role's call durations is exactly what a span tree would give for that
//! layer, and a layer's self time is its sum minus its children's.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, Result, SharedDev};
use vmi_obs::SpanId;

/// Which boundary of the stack a wrapped device sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Container of the VM's copy-on-write image.
    Cow,
    /// Container of the cache image.
    Cache,
    /// What the chain reads the base through (an NBD client, or the local
    /// base image in `guest_rw`).
    Base,
    /// The device an NBD server exports, seen from inside the server.
    Export,
}

/// The class of guest operation that caused a device call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Deployment: connect, recovery, chain construction.
    Build,
    /// A guest read.
    Read,
    /// A guest write or flush.
    Write,
}

/// Kind of device call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Io {
    Read,
    Write,
    Flush,
}

const ROLES: usize = 4;
const PHASES: usize = 3;
const IOS: usize = 3;
const CELLS: usize = ROLES * PHASES * IOS;

fn cell_index(role: Role, phase: usize, io: Io) -> usize {
    (role as usize * PHASES + phase) * IOS + io as usize
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    bytes: AtomicU64,
    ns: AtomicU64,
}

/// Totals of one cell or a sum of cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub bytes: u64,
    pub ns: u64,
}

/// A copy of every cell at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot([Tally; CELLS]);

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot([Tally::default(); CELLS])
    }
}

impl Snapshot {
    /// Cell-wise `self - earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.0;
        for (o, e) in out.iter_mut().zip(&earlier.0) {
            o.calls -= e.calls;
            o.bytes -= e.bytes;
            o.ns -= e.ns;
        }
        Snapshot(out)
    }

    /// Sum over the cells of `role` that match `phase` and `io` (`None`
    /// matches all).
    pub fn sum(&self, role: Role, phase: Option<Phase>, io: Option<Io>) -> Tally {
        let mut t = Tally::default();
        for p in 0..PHASES {
            if phase.is_some_and(|want| want as usize != p) {
                continue;
            }
            for i in [Io::Read, Io::Write, Io::Flush] {
                if io.is_some_and(|want| want != i) {
                    continue;
                }
                let c = self.0[cell_index(role, p, i)];
                t.calls += c.calls;
                t.bytes += c.bytes;
                t.ns += c.ns;
            }
        }
        t
    }
}

/// Shared sink of every `SpanDev` of one pass.
pub struct Recorder {
    timed: bool,
    phase: AtomicUsize,
    cells: [Cell; CELLS],
}

impl Recorder {
    /// `timed` = the traced pass: each call is also timed.
    pub fn new(timed: bool) -> Arc<Self> {
        Arc::new(Self {
            timed,
            phase: AtomicUsize::new(Phase::Build as usize),
            cells: std::array::from_fn(|_| Cell::default()),
        })
    }

    /// Wrap `dev` so its calls are recorded under `role`.
    pub fn wrap(self: &Arc<Self>, role: Role, dev: SharedDev) -> SharedDev {
        Arc::new(SpanDev {
            inner: dev,
            role,
            rec: Arc::clone(self),
        })
    }

    /// Declare the class of guest operation the following calls belong to.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as usize, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Snapshot {
        Snapshot(std::array::from_fn(|i| {
            let c = &self.cells[i];
            Tally {
                calls: c.calls.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                ns: c.ns.load(Ordering::Relaxed),
            }
        }))
    }
}

struct SpanDev {
    inner: SharedDev,
    role: Role,
    rec: Arc<Recorder>,
}

impl SpanDev {
    fn record<T>(&self, io: Io, bytes: usize, call: impl FnOnce() -> Result<T>) -> Result<T> {
        let phase = self.rec.phase.load(Ordering::Relaxed);
        let cell = &self.rec.cells[cell_index(self.role, phase, io)];
        let out = if self.rec.timed {
            let start = Instant::now();
            let out = call();
            cell.ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        } else {
            call()
        };
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }
}

impl BlockDev for SpanDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.record(Io::Read, buf.len(), || self.inner.read_at(buf, off))
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.record(Io::Write, buf.len(), || self.inner.write_at(buf, off))
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
    fn flush(&self) -> Result<()> {
        self.record(Io::Flush, 0, || self.inner.flush())
    }
    fn read_at_zero_pad(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        self.record(Io::Read, buf.len(), || {
            self.inner.read_at_zero_pad(buf, off)
        })
    }
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.record(Io::Read, buf.len(), || self.inner.read_run_at(buf, off))
    }
    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.record(Io::Write, buf.len(), || self.inner.write_run_at(buf, off))
    }
    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.record(Io::Read, buf.len(), || {
            self.inner.read_at_in(buf, off, parent)
        })
    }
    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.record(Io::Write, buf.len(), || {
            self.inner.write_at_in(buf, off, parent)
        })
    }
    fn read_run_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.record(Io::Read, buf.len(), || {
            self.inner.read_run_at_in(buf, off, parent)
        })
    }
    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.record(Io::Write, buf.len(), || {
            self.inner.write_run_at_in(buf, off, parent)
        })
    }
    fn read_at_zero_pad_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<SpanId>,
    ) -> Result<usize> {
        self.record(Io::Read, buf.len(), || {
            self.inner.read_at_zero_pad_in(buf, off, parent)
        })
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    // The program downcasts exported and backing devices to find images
    // (TRIM, lock ranks); passing the wrapped device's answer through keeps
    // those paths the ones an unwrapped device would take.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.inner)
    }
}
