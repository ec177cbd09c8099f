//! Deterministic failure injection for tests.
//!
//! The cache read path must degrade gracefully when the cache fill fails
//! mid-boot (quota space errors are the designed case; I/O errors the
//! undesigned one), and a base-side failure must surface as the typed error
//! of the guest read it hits. [`FaultDev`] lets tests fail the Nth read,
//! write or flush, fail every operation touching a byte range, or fail
//! every Nth operation persistently. Every plan is a pure function of the
//! operation sequence after it is armed.

use parking_lot::{lockrank, Mutex};

use crate::{BlockDev, BlockError, BlockErrorKind, ByteRange, Result, SharedDev};

/// Which operation class a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Fail reads only.
    Read,
    /// Fail writes — both scalar `write_at` and coalesced `write_run_at`
    /// (back-compat: plans written before runs existed keep firing on them).
    Write,
    /// Fail coalesced `write_run_at` operations only, leaving scalar writes
    /// alone. Lets tests target the extent-coalesced path specifically.
    WriteRun,
    /// Fail flushes only (models a torn cache flush at VM shutdown).
    Flush,
    /// Fail reads, writes and flushes alike.
    Any,
}

/// Operation class of one call into the device (the thing a [`FaultSite`]
/// filter is matched against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
    WriteRun,
    Flush,
}

impl FaultSite {
    fn matches(self, op: OpClass) -> bool {
        matches!(
            (self, op),
            (FaultSite::Any, _)
                | (FaultSite::Read, OpClass::Read)
                | (FaultSite::Write, OpClass::Write | OpClass::WriteRun)
                | (FaultSite::WriteRun, OpClass::WriteRun)
                | (FaultSite::Flush, OpClass::Flush)
        )
    }
}

/// A programmed fault.
#[derive(Debug, Clone)]
pub enum FaultPlan {
    /// Fail the `n`th matching operation (0-based) counted *from the moment
    /// the plan is armed*, once.
    NthOp {
        /// Which op class counts toward and triggers the fault.
        site: FaultSite,
        /// 0-based index (among matching ops after arming) to fail.
        n: u64,
        /// Error kind to return.
        kind: BlockErrorKind,
    },
    /// Fail every matching operation that intersects `range`. Flush
    /// operations carry no byte range and never match a `Range` plan.
    Range {
        /// Which op class the fault applies to.
        site: FaultSite,
        /// Byte range that triggers the fault.
        range: ByteRange,
        /// Error kind to return.
        kind: BlockErrorKind,
    },
    /// Fail every `n`th matching operation, persistently: ops with 1-based
    /// sequence number divisible by `n` fail. `EveryNth { n: 1 }` fails
    /// every matching op; `n: 3` fails ops #3, #6, #9, ... A flaky medium
    /// whose failure pattern is exactly periodic.
    EveryNth {
        /// Which op class counts toward and triggers the fault.
        site: FaultSite,
        /// Period: every `n`th matching op fails (`n >= 1`).
        n: u64,
        /// Error kind to return.
        kind: BlockErrorKind,
    },
}

impl FaultPlan {
    fn site(&self) -> FaultSite {
        match self {
            FaultPlan::NthOp { site, .. }
            | FaultPlan::Range { site, .. }
            | FaultPlan::EveryNth { site, .. } => *site,
        }
    }
}

/// One armed plan plus its private progress state.
#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    matched: u64,
}

/// Fault-injecting decorator around any [`BlockDev`].
///
/// Thread-safety: the armed plans (including their sequence counters) live
/// under one mutex, and [`FaultDev::check`] runs the whole match-count-fire
/// decision in a single lock hold — concurrent ops draw distinct sequence
/// numbers, so an `NthOp` plan fires exactly once no matter how many
/// threads race it. The order in which racing ops draw numbers is whichever
/// serialization the lock gives.
pub struct FaultDev {
    inner: SharedDev,
    plans: Mutex<Vec<Armed>>,
}

impl FaultDev {
    /// Wrap `inner` with no faults programmed.
    pub fn new(inner: SharedDev) -> Self {
        Self {
            inner,
            plans: {
                let plans = Mutex::new(Vec::new());
                plans.set_rank(lockrank::DEV_FAULT);
                plans
            },
        }
    }

    /// Program a fault. Faults are checked in insertion order; sequence
    /// counting (`NthOp`, `EveryNth`) starts at this call.
    pub fn inject(&self, plan: FaultPlan) {
        self.plans.lock().push(Armed { plan, matched: 0 });
    }

    /// Remove all programmed faults.
    pub fn clear(&self) {
        self.plans.lock().clear();
    }

    fn check(&self, op: OpClass, off: u64, len: usize) -> Result<()> {
        let mut plans = self.plans.lock();
        for i in 0..plans.len() {
            let armed = &mut plans[i];
            if !armed.plan.site().matches(op) {
                continue;
            }
            let fired = match &armed.plan {
                FaultPlan::NthOp { n, kind, .. } => {
                    let seq = armed.matched;
                    armed.matched += 1;
                    (seq == *n).then(|| (*kind, format!("injected fault at op #{seq}")))
                }
                FaultPlan::Range { range, kind, .. } => {
                    // Flush carries no byte range and cannot intersect one.
                    let hit = op != OpClass::Flush
                        && range.intersect(&ByteRange::at(off, len as u64)).is_some();
                    hit.then(|| (*kind, "injected range fault".to_string()))
                }
                FaultPlan::EveryNth { n, kind, .. } => {
                    let n = (*n).max(1);
                    armed.matched += 1;
                    (armed.matched % n == 0)
                        .then(|| (*kind, format!("injected periodic fault (every {n}th op)")))
                }
            };
            if let Some((kind, msg)) = fired {
                // `NthOp` is one-shot; the other plans persist.
                if matches!(armed.plan, FaultPlan::NthOp { .. }) {
                    plans.remove(i);
                }
                return Err(BlockError::new(kind, msg));
            }
        }
        Ok(())
    }
}

impl BlockDev for FaultDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.check(OpClass::Read, off, buf.len())?;
        self.inner.read_at(buf, off)
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.check(OpClass::Write, off, buf.len())?;
        self.inner.write_at(buf, off)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn flush(&self) -> Result<()> {
        self.check(OpClass::Flush, 0, 0)?;
        self.inner.flush()
    }

    // A coalesced run consumes exactly one sequence slot per plan and is
    // range-matched against the whole run, so fault schedules stay
    // deterministic regardless of how callers batch their clusters.
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.check(OpClass::Read, off, buf.len())?;
        self.inner.read_run_at(buf, off)
    }

    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.check(OpClass::WriteRun, off, buf.len())?;
        self.inner.write_run_at(buf, off)
    }

    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.inner)
    }

    fn describe(&self) -> String {
        format!("fault({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDev;
    use std::sync::Arc;

    #[test]
    fn nth_read_fails_once() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::NthOp {
            site: FaultSite::Read,
            n: 1,
            kind: BlockErrorKind::Injected,
        });
        let mut buf = [0u8; 8];
        assert!(dev.read_at(&mut buf, 0).is_ok()); // #0
        assert!(dev.read_at(&mut buf, 0).is_err()); // #1 fires
        assert!(dev.read_at(&mut buf, 0).is_ok()); // one-shot: cleared
    }

    #[test]
    fn writes_do_not_consume_read_sequence() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::NthOp {
            site: FaultSite::Read,
            n: 0,
            kind: BlockErrorKind::Injected,
        });
        dev.write_at(&[1; 8], 0).unwrap(); // unaffected
        let mut buf = [0u8; 8];
        assert!(dev.read_at(&mut buf, 0).is_err());
    }

    #[test]
    fn range_fault_fires_on_overlap_only() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(1024)));
        dev.inject(FaultPlan::Range {
            site: FaultSite::Write,
            range: ByteRange::at(100, 50),
            kind: BlockErrorKind::Io,
        });
        assert!(dev.write_at(&[0; 10], 0).is_ok());
        assert!(dev.write_at(&[0; 10], 95).is_err()); // overlaps [100,150)
        assert!(dev.write_at(&[0; 10], 150).is_ok()); // adjacent, no overlap
        let mut buf = [0u8; 64];
        assert!(dev.read_at(&mut buf, 100).is_ok(), "read site not armed");
    }

    #[test]
    fn clear_removes_all_plans() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::Range {
            site: FaultSite::Any,
            range: ByteRange::at(0, 64),
            kind: BlockErrorKind::Io,
        });
        dev.clear();
        let mut buf = [0u8; 8];
        assert!(dev.read_at(&mut buf, 0).is_ok());
    }

    #[test]
    fn flush_site_faults_flush_only() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::NthOp {
            site: FaultSite::Flush,
            n: 0,
            kind: BlockErrorKind::Io,
        });
        let mut buf = [0u8; 8];
        dev.read_at(&mut buf, 0).unwrap();
        dev.write_at(&[1; 8], 0).unwrap();
        assert!(dev.flush().is_err(), "first flush faults");
        assert!(dev.flush().is_ok(), "one-shot");
    }

    #[test]
    fn any_site_includes_flush() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::NthOp {
            site: FaultSite::Any,
            n: 2,
            kind: BlockErrorKind::Io,
        });
        let mut buf = [0u8; 8];
        dev.read_at(&mut buf, 0).unwrap(); // #0
        dev.write_at(&[1; 8], 0).unwrap(); // #1
        assert!(dev.flush().is_err(), "flush is op #2 under Any");
    }

    #[test]
    fn range_plans_never_match_flush() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::Range {
            site: FaultSite::Any,
            range: ByteRange::at(0, 64),
            kind: BlockErrorKind::Io,
        });
        assert!(dev.flush().is_ok(), "flush has no byte range");
    }

    #[test]
    fn every_nth_is_periodic_and_persistent() {
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::EveryNth {
            site: FaultSite::Read,
            n: 3,
            kind: BlockErrorKind::Injected,
        });
        let mut buf = [0u8; 8];
        let results: Vec<bool> = (0..9).map(|_| dev.read_at(&mut buf, 0).is_ok()).collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
    }

    #[test]
    fn write_run_site_matrix() {
        // Pin the FaultSite × OpClass matrix for the run/scalar write split:
        // Write matches both (back-compat), WriteRun matches runs only, Any
        // matches everything, Read/Flush match neither kind of write.
        let hits = |site: FaultSite| -> (bool, bool) {
            let scalar = {
                let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
                dev.inject(FaultPlan::EveryNth {
                    site,
                    n: 1,
                    kind: BlockErrorKind::Injected,
                });
                dev.write_at(&[0; 8], 0).is_err()
            };
            let run = {
                let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
                dev.inject(FaultPlan::EveryNth {
                    site,
                    n: 1,
                    kind: BlockErrorKind::Injected,
                });
                dev.write_run_at(&[0; 8], 0).is_err()
            };
            (scalar, run)
        };
        assert_eq!(hits(FaultSite::Write), (true, true), "Write matches both");
        assert_eq!(hits(FaultSite::WriteRun), (false, true), "WriteRun: runs");
        assert_eq!(hits(FaultSite::Any), (true, true), "Any matches both");
        assert_eq!(hits(FaultSite::Read), (false, false), "Read matches none");
        assert_eq!(hits(FaultSite::Flush), (false, false), "Flush: none");
    }

    #[test]
    fn write_run_consumes_write_site_sequence() {
        // A coalesced run counts toward a Write-site sequence plan exactly
        // like a scalar write (one slot per run).
        let dev = FaultDev::new(Arc::new(MemDev::with_len(64)));
        dev.inject(FaultPlan::NthOp {
            site: FaultSite::Write,
            n: 1,
            kind: BlockErrorKind::Injected,
        });
        assert!(dev.write_run_at(&[0; 8], 0).is_ok()); // #0
        assert!(dev.write_at(&[0; 8], 8).is_err()); // #1 fires
    }
}
