//! Rotational-disk model with seek penalties and FIFO queueing.
//!
//! This is the substrate behind the paper's storage-node bottleneck: "the
//! read requests coming from different VMs are mostly random in nature and
//! rotational disks do not handle this well" (§3.3), producing the linear
//! boot-time growth with the number of VMIs (Fig. 3, §2.2: "disk queueing
//! delay at the storage node").
//!
//! The model is a single FIFO server: each access pays a seek penalty when
//! it is not sequential with the previously serviced request, plus a
//! per-operation overhead, plus transfer time at the sequential bandwidth.
//! RAID-0 striping is folded into the spec's bandwidth/seek numbers.

use serde::{Deserialize, Serialize};

use crate::time::{transfer_ns, Ns};

/// Performance parameters of a disk (or RAID array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskSpec {
    /// Sequential bandwidth, bytes/second.
    pub seq_bw_bps: u64,
    /// Full seek + rotational latency for a long-distance access.
    pub seek_ns: Ns,
    /// Short-stroke seek cost for jumps within [`DiskSpec::short_seek_window`]
    /// (head movement inside one file's extent).
    pub short_seek_ns: Ns,
    /// Jumps at or below this distance pay the short seek instead of the
    /// full one.
    pub short_seek_window: u64,
    /// Fixed per-request overhead (controller, kernel path), paid on
    /// non-adjacent accesses.
    pub per_op_ns: Ns,
    /// Accesses within this many bytes of the previous request's end are
    /// considered sequential (track buffer / readahead window).
    pub adjacency_window: u64,
}

impl DiskSpec {
    /// The DAS-4 storage node: two 7200-RPM SATA disks in software RAID-0.
    /// Striping doubles streaming bandwidth; long seeks stay disk-bound but
    /// the pair services them mostly in parallel, halving the effective cost
    /// under interleaved streams.
    pub fn das4_storage_raid0() -> Self {
        Self {
            seq_bw_bps: 220_000_000,
            seek_ns: 4_000_000,
            short_seek_ns: 1_500_000,
            short_seek_window: 1 << 30,
            per_op_ns: 100_000,
            adjacency_window: 1 << 20,
        }
    }

    /// A single compute-node SATA disk.
    pub fn das4_compute_disk() -> Self {
        Self {
            seq_bw_bps: 110_000_000,
            seek_ns: 8_500_000,
            short_seek_ns: 2_000_000,
            short_seek_window: 1 << 30,
            per_op_ns: 150_000,
            adjacency_window: 1 << 20,
        }
    }
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Read operations serviced.
    pub read_ops: u64,
    /// Write operations serviced.
    pub write_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Operations that paid the seek penalty.
    pub seeks: u64,
    /// Total time the server was busy.
    pub busy_ns: Ns,
    /// Accesses submitted at a `now` earlier than that of an access the
    /// disk already took: the FIFO served them in submission order, not
    /// arrival order.
    pub late: u64,
    /// Total of those accesses' lag behind the latest earlier submission.
    pub late_ns: Ns,
}

/// A FIFO disk server.
#[derive(Debug, Clone)]
pub struct Disk {
    spec: DiskSpec,
    /// Completion time of the last queued request.
    next_free: Ns,
    /// Device offset right after the last serviced request.
    head_pos: u64,
    /// Latest submission time so far.
    latest: Ns,
    stats: DiskStats,
}

impl Disk {
    /// A new idle disk.
    pub fn new(spec: DiskSpec) -> Self {
        Self {
            spec,
            next_free: 0,
            head_pos: 0,
            latest: 0,
            stats: DiskStats::default(),
        }
    }

    /// Submit an access at simulated time `now`; returns its completion
    /// time. Requests are serviced strictly in submission order.
    pub fn access(&mut self, now: Ns, offset: u64, bytes: u64, is_write: bool) -> Ns {
        if now < self.latest {
            self.stats.late += 1;
            self.stats.late_ns += self.latest - now;
        }
        self.latest = self.latest.max(now);
        let start = self.next_free.max(now);
        let gap = offset.abs_diff(self.head_pos);
        // Adjacent accesses ride the track buffer / readahead: transfer time
        // only. Non-adjacent ones pay a (short or full) seek plus
        // per-request overhead.
        let mut service = transfer_ns(bytes, self.spec.seq_bw_bps);
        if gap > self.spec.adjacency_window {
            let seek = if gap <= self.spec.short_seek_window {
                self.spec.short_seek_ns
            } else {
                self.spec.seek_ns
            };
            service += seek + self.spec.per_op_ns;
            self.stats.seeks += 1;
        }
        let done = start + service;
        self.next_free = done;
        self.head_pos = offset + bytes;
        self.stats.busy_ns += service;
        if is_write {
            self.stats.write_ops += 1;
            self.stats.write_bytes += bytes;
        } else {
            self.stats.read_ops += 1;
            self.stats.read_bytes += bytes;
        }
        done
    }

    /// Earliest time a new request could start service.
    pub fn next_free(&self) -> Ns {
        self.next_free
    }

    /// Counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The spec this disk was built with.
    pub fn spec(&self) -> DiskSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MSEC, SEC};

    fn fast_spec() -> DiskSpec {
        DiskSpec {
            seq_bw_bps: 100_000_000,
            seek_ns: 5 * MSEC,
            short_seek_ns: 5 * MSEC,
            short_seek_window: 0,
            per_op_ns: 0,
            adjacency_window: 4096,
        }
    }

    #[test]
    fn sequential_stream_avoids_seeks() {
        let mut d = Disk::new(fast_spec());
        let mut t = 0;
        for i in 0..10u64 {
            t = d.access(t, i * 65536, 65536, false);
        }
        // First access seeks (head at 0, request at 0 → gap 0, no seek).
        assert_eq!(d.stats().seeks, 0);
        // 10 × 64 KiB at 100 MB/s ≈ 6.55 ms.
        assert!((t as i64 - 6_553_600).abs() < 1000, "{t}");
    }

    #[test]
    fn random_stream_pays_seeks() {
        let mut d = Disk::new(fast_spec());
        let mut t = 0;
        for i in 0..10u64 {
            t = d.access(t, (10 - i) * (100 << 20), 4096, false);
        }
        assert_eq!(d.stats().seeks, 10);
        assert!(t >= 50 * MSEC);
    }

    #[test]
    fn fifo_queueing_delays_later_arrivals() {
        let mut d = Disk::new(fast_spec());
        // Two requests arrive at t=0; the second waits for the first.
        let a = d.access(0, 0, 50_000_000, false); // 0.5 s transfer
        let b = d.access(0, 50_000_000, 50_000_000, false);
        assert_eq!(a, SEC / 2);
        assert_eq!(b, SEC);
    }

    #[test]
    fn idle_gap_resets_start_time() {
        let mut d = Disk::new(fast_spec());
        d.access(0, 0, 1000, false);
        let done = d.access(10 * SEC, 1000, 1000, false);
        assert!(
            done >= 10 * SEC,
            "request cannot complete before submission"
        );
    }

    #[test]
    fn stats_track_both_directions() {
        let mut d = Disk::new(fast_spec());
        d.access(0, 0, 100, false);
        d.access(0, 100, 200, true);
        let s = d.stats();
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.read_bytes, 100);
        assert_eq!(s.write_bytes, 200);
        assert!(s.busy_ns > 0);
    }

    #[test]
    fn late_submissions_are_counted_with_their_lag() {
        let mut d = Disk::new(fast_spec());
        d.access(10 * MSEC, 0, 512, false);
        d.access(4 * MSEC, 512, 512, false);
        d.access(10 * MSEC, 1024, 512, true);
        d.access(9 * MSEC, 1536, 512, true);
        let s = d.stats();
        assert_eq!((s.late, s.late_ns), (2, 6 * MSEC + MSEC));
    }

    #[test]
    fn das4_specs_have_sane_magnitudes() {
        let st = DiskSpec::das4_storage_raid0();
        // Random 64 KiB reads: ~ (seek + transfer) → ~128 reads/s → ~8 MB/s.
        let per_read = st.seek_ns + st.per_op_ns + transfer_ns(65536, st.seq_bw_bps);
        let mbps = 65536.0 * (SEC as f64 / per_read as f64) / 1e6;
        assert!(
            (5.0..20.0).contains(&mbps),
            "random-read throughput {mbps} MB/s"
        );
    }
}
