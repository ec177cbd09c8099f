//! What the five workloads have in common: the unit of work, what a unit
//! reports, and the storage-node side (an NBD server exporting the base).

use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, Result};
use vmi_qcow::{ConcStats, CorStats, QcowImage};

use crate::fixture::{cache_layer, GuestOp, Oracle};
use crate::spandev::{Phase, Recorder, Snapshot};

/// The names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BootCold,
    BootQuota,
    BootWarm,
    ServeWarm,
    GuestRw,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::BootCold,
        Kind::BootQuota,
        Kind::BootWarm,
        Kind::ServeWarm,
        Kind::GuestRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BootCold => "boot_cold",
            Kind::BootQuota => "boot_quota",
            Kind::BootWarm => "boot_warm",
            Kind::ServeWarm => "serve_warm",
            Kind::GuestRw => "guest_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the guest's requests enter the program through an NBD
    /// connection (else they enter at the CoW image).
    pub fn guest_over_nbd(self) -> bool {
        matches!(self, Kind::ServeWarm | Kind::GuestRw)
    }
}

/// What one unit of work did. Times are wall-clock nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// The whole unit: a boot is connect + build + replay.
    pub wall_ns: u64,
    /// `NbdClient::connect` to the base export (boots only).
    pub connect_ns: u64,
    /// `deploy::build_chain` plus creating the container files (boots only).
    pub build_ns: u64,
    /// Sum of the guest requests' latencies.
    pub op_ns: u64,
    /// Of `op_ns`, the share of reads.
    pub read_op_ns: u64,
    /// Median and 99th percentile of the requests' latencies.
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub ops: u64,
    pub errors: u64,
    /// Reads that returned other bytes than the oracle's (verification
    /// unit only).
    pub mismatches: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Cache plus CoW container bytes when the unit ended.
    pub store_bytes: u64,
    /// The cache layer's counters over this unit.
    pub cor: CorStats,
    pub cache_used: u64,
    /// `ConcurrentImage` counters over this unit (`serve_warm` only).
    pub conc: ConcStats,
    /// Device calls of this unit, by role.
    pub devs: Snapshot,
    /// Requests the NBD server served during this unit.
    pub nbd_requests: u64,
    /// Invariants of the verification unit that did not hold.
    pub broken: Vec<String>,
}

impl Unit {
    /// Account one guest request that took `ns`.
    pub fn note_op(&mut self, write: bool, len: u32, ns: u64, ok: bool, lat: &mut Vec<u32>) {
        self.ops += 1;
        self.errors += !ok as u64;
        self.op_ns += ns;
        if write {
            self.write_bytes += len as u64;
        } else {
            self.read_bytes += len as u64;
            self.read_op_ns += ns;
        }
        lat.push(ns.min(u32::MAX as u64) as u32);
    }
}

/// A workload: state that outlives a unit, and the unit itself.
pub trait Workload {
    /// Run one unit. With an oracle it is the verification unit: every read
    /// is compared and the workload's invariants are checked. Latencies of
    /// the guest's requests are appended to `lat` in nanoseconds.
    fn unit(&mut self, verify: Option<&mut Oracle>, lat: &mut Vec<u32>) -> Result<Unit>;
}

/// The guest of the serial workloads: issues one request at a time on its
/// disk, timed, and in the verification unit checked against the oracle.
pub struct Guest {
    rec: Arc<Recorder>,
    buf: Vec<u8>,
    expected: Vec<u8>,
}

impl Guest {
    pub fn new(rec: Arc<Recorder>) -> Self {
        Self {
            rec,
            buf: vec![0u8; 1 << 20],
            expected: Vec::new(),
        }
    }

    pub fn request(
        &mut self,
        disk: &dyn BlockDev,
        write: bool,
        op: GuestOp,
        verify: &mut Option<&mut Oracle>,
        unit: &mut Unit,
        lat: &mut Vec<u32>,
    ) {
        let buf = &mut self.buf[..op.len as usize];
        if let (true, Some(oracle)) = (write, verify.as_deref_mut()) {
            oracle.next_write(buf, op.off);
        }
        self.rec
            .set_phase(if write { Phase::Write } else { Phase::Read });
        let t = Instant::now();
        let result = if write {
            disk.write_at(buf, op.off)
        } else {
            disk.read_at(buf, op.off)
        };
        unit.note_op(write, op.len, ns_since(t), result.is_ok(), lat);
        if let (false, Ok(()), Some(oracle)) = (write, &result, verify.as_deref()) {
            if !oracle.matches(buf, op.off, &mut self.expected) {
                unit.mismatches += 1;
            }
        }
    }
}

pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

pub fn conc_since(now: ConcStats, earlier: ConcStats) -> ConcStats {
    ConcStats {
        warm_reads: now.warm_reads - earlier.warm_reads,
        warm_bytes: now.warm_bytes - earlier.warm_bytes,
        slow_reads: now.slow_reads - earlier.slow_reads,
        mutations: now.mutations - earlier.mutations,
        stale_loads: now.stale_loads - earlier.stale_loads,
    }
}

/// `vmi_qcow::check` on the cache image and on the CoW image of `chain`.
pub fn check_images(chain: &QcowImage, unit: &mut Unit) -> Result<()> {
    for (what, img) in [("cache", cache_layer(chain)?), ("CoW", chain)] {
        let report = vmi_qcow::check(img)?;
        if !report.is_clean() {
            unit.broken
                .push(format!("{what} image fails check: {:?}", report.errors));
        }
    }
    Ok(())
}

pub fn cor_since(now: CorStats, earlier: CorStats) -> CorStats {
    CorStats {
        hit_bytes: now.hit_bytes - earlier.hit_bytes,
        miss_bytes: now.miss_bytes - earlier.miss_bytes,
        fill_bytes: now.fill_bytes - earlier.fill_bytes,
        fill_rejects: now.fill_rejects - earlier.fill_rejects,
    }
}
