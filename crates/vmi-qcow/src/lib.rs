//! # vmi-qcow — a QCOW2-style image format with VMI-cache copy-on-read
//!
//! This crate is the paper's primary contribution, re-implemented as a
//! standalone Rust library rather than a QEMU patch:
//!
//! * a QCOW2-style container format (big-endian header, header extensions,
//!   two-level L1/L2 cluster mapping, bump cluster allocation, backing-file
//!   chains with copy-on-write) — see [`header`], [`layout`], [`image`];
//! * the **VMI cache extension** (§3–§4): a cache image is a regular image
//!   plus a header extension holding a *quota* and the *current used size*.
//!   Cold reads recurse to the base and are copied into the cache
//!   (copy-on-read) at cluster granularity until the quota is hit, after
//!   which fills latch off with a *space error* while reads keep flowing;
//! * `qemu-img`-style chain building (§4.4) and maintenance ops
//!   ([`ops::info`], [`ops::map`], [`ops::check`], [`ops::commit`],
//!   [`ops::compact`]);
//! * the §4.3 backing-file permission "flag dance" in
//!   [`chain::open_backing`], the one place a backing-file name becomes an
//!   opened layer;
//! * the rest of a production driver's surface: `discard` (TRIM) with
//!   cluster reuse and quota re-arming, grow-only `resize`, unsafe
//!   `rebase` and bounded L2-table caching. Internal snapshots are not part
//!   of it: the paper's chain is the one below, and a header that carries a
//!   snapshot table is refused at open (see [`header`]). Neither is §8's
//!   content dedup across caches.
//!
//! ## The Fig. 4 arrangement
//!
//! ```text
//!   Base ←── Cache (quota, 512 B clusters) ←── CoW ←── VM
//!        read            read|write(CoR fill)      |write (guest)
//! ```
//!
//! ```
//! use std::sync::Arc;
//! use vmi_blockdev::{BlockDev, MemDev};
//! use vmi_obs::Obs;
//! use vmi_qcow::chain::{create_cached_chain, MapResolver};
//!
//! let ns = MapResolver::new();
//! // A 64 MiB base VMI with some "OS data" in it.
//! let base_dev = ns.create_mem("base.img");
//! let base = vmi_qcow::QcowImage::create(
//!     base_dev, vmi_qcow::CreateOpts::plain(64 << 20), None).unwrap();
//! base.write_at(&[7u8; 4096], 1 << 20).unwrap();
//! base.close().unwrap();
//! drop(base);
//!
//! // base ← cache(8 MiB quota) ← cow, then boot-read through the chain.
//! let cache_dev = ns.create_mem("cache.img");
//! let cow = create_cached_chain(
//!     &ns, "base.img", "cache.img", cache_dev, Arc::new(MemDev::new()),
//!     64 << 20, 8 << 20, 9, &Obs::disabled()).unwrap();
//! let mut buf = [0u8; 4096];
//! cow.read_at(&mut buf, 1 << 20).unwrap();
//! assert_eq!(buf, [7u8; 4096]);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod alloc;
pub mod chain;
pub mod concurrent;
pub mod engine;
pub mod header;
pub mod image;
mod l2cache;
pub mod layout;
mod lookup;
mod open;
pub mod ops;
mod read;
pub mod recover;
mod write;

pub use chain::{
    create_cached_chain, create_cow_chain, create_cow_over_cache, create_cow_over_recovered_cache,
    open_backing, open_chain, DevResolver, FsResolver, MapResolver,
};
pub use concurrent::{ConcStats, ConcurrentImage};
pub use engine::{Completion, Request, RequestEngine};
pub use header::{CacheExt, Header};
pub use image::{CorStats, CreateOpts, QcowImage};
pub use layout::{Geometry, DEFAULT_CLUSTER_BITS, MIN_CLUSTER_BITS};
pub use ops::{check, commit, compact, info, map, CheckReport, ImageInfo, MapExtent};
pub use recover::{
    open_cache_recovered, recover, recover_with_obs, RecoveryReport, RecoveryVerdict,
};
