//! Cost-model decorator: the bridge between real image I/O and simulated time.
//!
//! The `vmi-sim` crate implements [`CostHook`]s that charge each operation
//! against a simulated resource (a disk's queue, a network link's share).
//! Wrapping an image's backend in a [`LatencyDev`] makes every byte the
//! format code actually moves show up on the simulated timeline — so the
//! experiments measure the *real* access pattern of the real image chain,
//! priced by the model of the medium it would have crossed.

use crate::{BlockDev, Result, SharedDev};

/// Operation classification passed to a [`CostHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read of `len` bytes.
    Read,
    /// A write of `len` bytes.
    Write,
    /// A flush / barrier.
    Flush,
}

/// A pluggable per-operation cost model.
///
/// `charge` is called *after* the wrapped operation succeeds, with the byte
/// range it covered. Implementations typically advance a simulated clock or
/// enqueue work on a simulated resource.
pub trait CostHook: Send + Sync {
    /// Account for one operation of `kind` covering `[off, off + len)`.
    fn charge(&self, kind: OpKind, off: u64, len: usize);
}

/// Decorator that reports every successful operation to a [`CostHook`].
pub struct LatencyDev<H: CostHook> {
    inner: SharedDev,
    hook: H,
}

impl<H: CostHook> LatencyDev<H> {
    /// Wrap `inner`, pricing operations with `hook`.
    pub fn new(inner: SharedDev, hook: H) -> Self {
        Self { inner, hook }
    }

    /// The cost hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }
}

impl<H: CostHook> BlockDev for LatencyDev<H> {
    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.inner)
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.inner.read_at(buf, off)?;
        self.hook.charge(OpKind::Read, off, buf.len());
        Ok(())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.inner.write_at(buf, off)?;
        self.hook.charge(OpKind::Write, off, buf.len());
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()?;
        self.hook.charge(OpKind::Flush, 0, 0);
        Ok(())
    }

    // A coalesced run is one operation: the hook is charged once with the
    // full run length, so per-op overhead is paid once while per-byte cost
    // still covers every byte moved. Run-ness is forwarded so inner
    // decorators classify the op the same way.
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.inner.read_run_at(buf, off)?;
        self.hook.charge(OpKind::Read, off, buf.len());
        Ok(())
    }

    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.inner.write_run_at(buf, off)?;
        self.hook.charge(OpKind::Write, off, buf.len());
        Ok(())
    }

    fn describe(&self) -> String {
        format!("latency({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDev;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Default)]
    struct Recorder(Mutex<Vec<(OpKind, u64, usize)>>);

    impl CostHook for Arc<Recorder> {
        fn charge(&self, kind: OpKind, off: u64, len: usize) {
            self.0.lock().push((kind, off, len));
        }
    }

    #[test]
    fn charges_successful_ops_in_order() {
        let rec = Arc::new(Recorder::default());
        let dev = LatencyDev::new(Arc::new(MemDev::new()), Arc::clone(&rec));
        dev.write_at(&[7; 100], 5).unwrap();
        let mut buf = [0u8; 50];
        dev.read_at(&mut buf, 10).unwrap();
        dev.flush().unwrap();
        assert_eq!(buf, [7; 50], "reads and writes reach the inner device");
        assert_eq!(dev.len(), 105);
        let log = rec.0.lock();
        assert_eq!(
            *log,
            vec![
                (OpKind::Write, 5, 100),
                (OpKind::Read, 10, 50),
                (OpKind::Flush, 0, 0)
            ]
        );
    }

    #[test]
    fn run_op_is_charged_once_at_full_length() {
        let rec = Arc::new(Recorder::default());
        let dev = LatencyDev::new(Arc::new(MemDev::new()), Arc::clone(&rec));
        dev.write_run_at(&[0; 4096], 0).unwrap();
        let mut buf = [0u8; 4096];
        dev.read_run_at(&mut buf, 0).unwrap();
        let log = rec.0.lock();
        assert_eq!(
            *log,
            vec![(OpKind::Write, 0, 4096), (OpKind::Read, 0, 4096)]
        );
    }

    #[test]
    fn failed_op_is_not_charged() {
        let rec = Arc::new(Recorder::default());
        let dev = LatencyDev::new(Arc::new(MemDev::with_len(4)), Arc::clone(&rec));
        let mut buf = [0u8; 16];
        assert!(dev.read_at(&mut buf, 0).is_err());
        assert!(rec.0.lock().is_empty());
    }
}
