//! The [`BlockDev`] trait: the storage interface everything else targets.

use std::sync::Arc;

use crate::{BlockError, Result};

/// A shareable handle to any block device.
pub type SharedDev = Arc<dyn BlockDev>;

/// A half-open byte range `[start, end)` on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte of the range.
    pub end: u64,
}

impl ByteRange {
    /// Construct the range `[start, start + len)`.
    pub fn at(start: u64, len: u64) -> Self {
        Self {
            start,
            end: start + len,
        }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` if the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Intersection with another range, if non-empty.
    pub fn intersect(&self, other: &ByteRange) -> Option<ByteRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(ByteRange { start, end })
    }
}

/// A byte-addressable, growable storage device.
///
/// Semantics (shared by all implementations and relied upon by `vmi-qcow`):
///
/// * `read_at` within `[0, len())` fills the buffer exactly; a read that
///   extends past `len()` fails with `OutOfBounds` — callers that want
///   zero-fill-past-EOF semantics (e.g. reading a cluster that was allocated
///   but only partially written by a growing image file) use
///   [`BlockDev::read_at_zero_pad`].
/// * `write_at` may extend the device: writing past the current end grows it
///   (like a POSIX file), unless the device is fixed-size or read-only.
/// * `flush` orders prior writes before subsequent observation by crash-
///   consistency-sensitive callers; memory devices treat it as a no-op.
///
/// # Concurrency
///
/// `BlockDev: Send + Sync` is a **contract**, not a formality: every method
/// takes `&self`, and callers (the qcow driver under [`crate::SharedDev`],
/// the request engine's worker pool, one NBD connection thread per client)
/// invoke them from many threads at once without external locking. An
/// implementation must therefore be internally synchronized:
///
/// * Each individual operation must be atomic with respect to the device's
///   *own* state — counters, fault plans, crash buffers, file cursors. The
///   in-tree decorators all follow the same pattern: decision + state
///   mutation under one `parking_lot` lock hold (or lone atomics), so an
///   op never observes a decorator mid-decision.
/// * **No torn-byte visibility**: a read racing a write to the same range
///   may see the old bytes, the new bytes, or (for decorators that delegate
///   without holding their lock across the inner call) a mix of complete
///   operations — but never a partially-applied single operation from a
///   device that buffers internally ([`crate::MemDev`] holds its `RwLock`
///   for the whole copy; [`crate::CrashDev`] write-back applies each
///   buffered write under its state lock).
/// * **Cross-operation ordering is the caller's job.** The trait promises
///   nothing about the order in which two concurrent operations land;
///   `vmi-qcow`'s `ConcurrentImage` builds that ordering with byte-range
///   locks above this interface. Decorators likewise only promise that
///   their decision sequence (e.g. `FaultDev` op counting) reflects *some*
///   serialization of the concurrent ops.
///
/// Decorator fine print: a decorator that checks its state and then
/// delegates *outside* the lock (e.g. `CrashDev` write-through reads) may
/// let an inner op complete concurrently with a state flip (a firing power
/// cut); the model counts such an op as having started before the flip.
pub trait BlockDev: Send + Sync {
    /// Read exactly `buf.len()` bytes starting at `off`.
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()>;

    /// Write all of `buf` at `off`, growing the device if needed.
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()>;

    /// Current device length in bytes.
    fn len(&self) -> u64;

    /// `true` when the device currently holds zero bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resize the device. Growing exposes zero bytes; shrinking discards.
    fn set_len(&self, len: u64) -> Result<()>;

    /// Durably order prior writes (no-op for memory devices).
    fn flush(&self) -> Result<()>;

    /// Read, zero-padding any portion that lies past the current end.
    ///
    /// Returns the number of bytes that came from the device (the rest of
    /// the buffer was zeroed).
    fn read_at_zero_pad(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        let len = self.len();
        if off >= len {
            buf.fill(0);
            return Ok(0);
        }
        let avail = ((len - off) as usize).min(buf.len());
        self.read_at(&mut buf[..avail], off)?;
        buf[avail..].fill(0);
        Ok(avail)
    }

    /// Read one physically contiguous *run* — a range the caller has already
    /// coalesced out of several logical units (e.g. consecutive qcow
    /// clusters) — as a single device operation.
    ///
    /// Byte-for-byte identical to [`BlockDev::read_at`]; the separate entry
    /// point exists so decorators can account, price, and fault-check the
    /// run as **one** operation instead of one per logical unit. Plain media
    /// inherit this default, which simply delegates.
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.read_at(buf, off)
    }

    /// Write one physically contiguous run as a single device operation.
    /// See [`BlockDev::read_run_at`] for the contract.
    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.write_at(buf, off)
    }

    /// [`BlockDev::read_at`] with an explicit trace-span parent.
    ///
    /// The `_in` family is how causal tracing crosses device layers without
    /// thread-locals: instrumented callers pass their current span down, and
    /// instrumented devices (image formats) override these to parent their
    /// own spans under it. Plain media inherit the defaults, which ignore the
    /// parent and delegate — identical behaviour, zero cost.
    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        let _ = parent;
        self.read_at(buf, off)
    }

    /// [`BlockDev::write_at`] with an explicit trace-span parent.
    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        let _ = parent;
        self.write_at(buf, off)
    }

    /// [`BlockDev::read_run_at`] with an explicit trace-span parent.
    fn read_run_at_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<vmi_obs::SpanId>,
    ) -> Result<()> {
        let _ = parent;
        self.read_run_at(buf, off)
    }

    /// [`BlockDev::write_run_at`] with an explicit trace-span parent.
    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        let _ = parent;
        self.write_run_at(buf, off)
    }

    /// [`BlockDev::read_at_zero_pad`] with an explicit trace-span parent,
    /// routed through [`BlockDev::read_at_in`] so traced layers below keep
    /// the causal chain.
    fn read_at_zero_pad_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<vmi_obs::SpanId>,
    ) -> Result<usize> {
        let len = self.len();
        if off >= len {
            buf.fill(0);
            return Ok(0);
        }
        let avail = ((len - off) as usize).min(buf.len());
        self.read_at_in(&mut buf[..avail], off, parent)?;
        buf[avail..].fill(0);
        Ok(avail)
    }

    /// A short human-readable description (medium type), for diagnostics.
    fn describe(&self) -> String {
        "blockdev".to_string()
    }

    /// Runtime-type hook: formats layered on top of `BlockDev` (e.g. the
    /// qcow image type) override this to let chain-walking code recover the
    /// concrete type from a `SharedDev`. Plain media return `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Decorator hook: pass-through wrappers (counting, fault, crash,
    /// read-only…) return the device they wrap so structural walks
    /// — in particular the lock-rank probe for backing chains — can see
    /// through them. Leaf media return `None`.
    fn inner_dev(&self) -> Option<&SharedDev> {
        None
    }
}

impl<T: BlockDev + ?Sized> BlockDev for Arc<T> {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        (**self).read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        (**self).write_at(buf, off)
    }
    fn len(&self) -> u64 {
        (**self).len()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        (**self).set_len(len)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
    fn read_at_zero_pad(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        (**self).read_at_zero_pad(buf, off)
    }
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        (**self).read_run_at(buf, off)
    }
    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        (**self).write_run_at(buf, off)
    }
    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        (**self).read_at_in(buf, off, parent)
    }
    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        (**self).write_at_in(buf, off, parent)
    }
    fn read_run_at_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<vmi_obs::SpanId>,
    ) -> Result<()> {
        (**self).read_run_at_in(buf, off, parent)
    }
    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<vmi_obs::SpanId>) -> Result<()> {
        (**self).write_run_at_in(buf, off, parent)
    }
    fn read_at_zero_pad_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<vmi_obs::SpanId>,
    ) -> Result<usize> {
        (**self).read_at_zero_pad_in(buf, off, parent)
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
    fn inner_dev(&self) -> Option<&SharedDev> {
        (**self).inner_dev()
    }
}

/// Validate an access `[off, off+len)` against a device length, producing the
/// standard `OutOfBounds` error on violation. Helper for implementations.
pub(crate) fn check_bounds(off: u64, len: usize, dev_len: u64) -> Result<()> {
    let end = off
        .checked_add(len as u64)
        .ok_or_else(|| BlockError::out_of_bounds(off, len, dev_len))?;
    if end > dev_len {
        return Err(BlockError::out_of_bounds(off, len, dev_len));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDev;

    #[test]
    fn byte_range_basics() {
        let r = ByteRange::at(10, 5);
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(
            r.intersect(&ByteRange::at(12, 10)),
            Some(ByteRange { start: 12, end: 15 })
        );
        assert_eq!(r.intersect(&ByteRange::at(15, 1)), None);
        assert!(ByteRange::at(3, 0).is_empty());
    }

    #[test]
    fn check_bounds_rejects_overflow() {
        assert!(check_bounds(u64::MAX - 1, 16, u64::MAX).is_err());
        assert!(check_bounds(0, 16, 16).is_ok());
        assert!(check_bounds(1, 16, 16).is_err());
    }

    #[test]
    fn zero_pad_read_splits_correctly() {
        let dev = MemDev::new();
        dev.write_at(&[7u8; 8], 0).unwrap();
        let mut buf = [1u8; 16];
        let n = dev.read_at_zero_pad(&mut buf, 4).unwrap();
        assert_eq!(n, 4);
        assert_eq!(&buf[..4], &[7; 4]);
        assert_eq!(&buf[4..], &[0; 12]);
    }

    #[test]
    fn zero_pad_read_entirely_past_end() {
        let dev = MemDev::with_len(8);
        let mut buf = [9u8; 4];
        let n = dev.read_at_zero_pad(&mut buf, 100).unwrap();
        assert_eq!(n, 0);
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn devices_and_decorators_are_send_sync() {
        // The concurrency contract in the trait docs, enforced at compile
        // time for every in-tree device and decorator.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemDev>();
        assert_send_sync::<crate::FileDev>();
        assert_send_sync::<crate::SparseDev>();
        assert_send_sync::<crate::CountingDev>();
        assert_send_sync::<crate::CrashDev>();
        assert_send_sync::<crate::FaultDev>();
        assert_send_sync::<SharedDev>();
    }

    #[test]
    fn arc_dyn_delegates() {
        let dev: SharedDev = Arc::new(MemDev::new());
        dev.write_at(b"abc", 0).unwrap();
        assert_eq!(dev.len(), 3);
        let mut b = [0u8; 3];
        dev.read_at(&mut b, 0).unwrap();
        assert_eq!(&b, b"abc");
    }
}
