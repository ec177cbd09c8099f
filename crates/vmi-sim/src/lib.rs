//! # vmi-sim — deterministic cluster-resource simulation
//!
//! The paper evaluates on a 65-node DAS-4 cluster; this crate is the
//! substituted hardware substrate (DESIGN.md §2): models of the resources
//! whose contention produces every scaling effect in the evaluation —
//!
//! * [`disk::Disk`] — FIFO rotational disk with seek penalties (the
//!   storage-node bottleneck of Fig. 3 / §2.2);
//! * [`net::Link`] — FIFO bandwidth pipe (the 1 GbE bottleneck of Fig. 2),
//!   with presets [`net::NetSpec::gbe_1`] and [`net::NetSpec::ib_32g`];
//! * [`pagecache::PageCache`] — the storage node's RAM (why single-VMI
//!   boots scale flat over InfiniBand), with pinning for tmpfs-resident
//!   cache images (§3.3);
//! * [`world::SimWorld`] — the resource registry plus the *op clock* that
//!   prices real `vmi-qcow` I/O on simulated time;
//! * [`shard::Shard`] — the one deterministic event heap, ordered by a
//!   content-derived [`shard::EventKey`]: it drives both the byte-level
//!   boot engine and the 10k-node scale engine in `vmi-cluster`.
//!
//! Everything is deterministic: same inputs → identical timelines.

//! ```
//! use vmi_sim::{Disk, DiskSpec, SEC};
//! // Random 64 KiB reads on the DAS-4 RAID-0 are seek-bound: ~a few MB/s.
//! let mut disk = Disk::new(DiskSpec::das4_storage_raid0());
//! let mut t = 0;
//! for i in 0..100u64 {
//!     t = disk.access(t, (99 - i) * (1 << 30), 65536, false);
//! }
//! let mbps = 100.0 * 65536.0 / (t as f64 / SEC as f64) / 1e6;
//! assert!(mbps < 40.0, "random reads must be far below streaming speed");
//! ```

#![forbid(unsafe_code)]

pub mod disk;
pub mod net;
pub mod pagecache;
pub mod shard;
pub mod time;
pub mod world;

pub use disk::{Disk, DiskSpec, DiskStats};
pub use net::{Link, LinkDiscipline, LinkStats, NetSpec};
pub use pagecache::{CacheOutcome, PageCache, PageKey};
pub use shard::{EventKey, Shard};
pub use time::{fmt_secs, transfer_ns, Ns, MSEC, SEC, USEC};
pub use world::{CacheId, DiskId, LinkId, SimWorld, MEM_BW_BPS};
