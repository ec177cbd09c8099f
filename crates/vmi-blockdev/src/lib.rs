//! # vmi-blockdev — block device abstractions for VM image storage
//!
//! This crate provides the byte-addressable storage substrate that the rest
//! of the `vmcache` workspace builds on. Every VM image format object
//! (`vmi-qcow`'s images, caches and CoW layers) and every simulated medium
//! (compute-node disk, storage-node memory, NFS-exported file) is ultimately
//! a [`BlockDev`].
//!
//! The design follows the paper's requirement that a VMI cache can be
//! "created/stored on any desired medium (i.e., disk, memory) at any desired
//! location (i.e., storage node, compute node)" (§3): the cache code is
//! written once against the [`BlockDev`] trait and the medium is chosen by
//! the caller.
//!
//! ## Backends
//!
//! * [`MemDev`] — contiguous heap memory; models `tmpfs` / node RAM.
//! * [`SparseDev`] — page-table backed sparse memory for multi-GiB virtual
//!   images whose content is mostly untouched (a base VMI is "several GB"
//!   but a boot reads < 200 MB of it).
//! * [`FileDev`] — a real file on the host filesystem.
//!
//! ## Decorators
//!
//! * [`CountingDev`] — transparent I/O accounting; used to measure the
//!   "observed traffic at the storage node" series of the paper (Fig. 9/10).
//! * [`ReadOnlyDev`] — enforces the read-only backing-image discipline.
//! * [`FaultDev`] — deterministic failure injection for tests.
//! * [`CrashDev`] — seeded power-cut injection: torn-write prefixes,
//!   dropped write-back buffers, and a poisoned device afterwards; the
//!   substrate for crash-consistency sweeps.
//! * [`LatencyDev`] — charges a pluggable cost model per operation; the
//!   simulator uses it to put devices "behind" a disk or network resource.
//!
//! All devices are `Send + Sync` and take `&self`; concurrency is handled
//! with internal `parking_lot` locks so that device handles can be shared
//! across image-chain layers and simulator actors via `Arc`.

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

mod counting;
mod crash;
mod dev;
mod error;
mod fault;
mod file;
mod latency;
mod mem;
mod readonly;
mod sparse;

pub use counting::{CountingDev, IoStats, IoStatsSnapshot, SizeHistogram};
pub use crash::{CrashDev, CrashPlan, ATOMIC_UNIT};
pub use dev::{BlockDev, ByteRange, SharedDev};
pub use error::{BlockError, BlockErrorKind, Result};
pub use fault::{FaultDev, FaultPlan, FaultSite};
pub use file::FileDev;
pub use latency::{CostHook, LatencyDev, OpKind};
pub use mem::MemDev;
pub use readonly::ReadOnlyDev;
pub use sparse::SparseDev;

/// Decode a big-endian `u32` from the first 4 bytes of `b`.
///
/// Centralizes the byte-slice conversions that on-disk format parsers do in
/// bulk (QCOW2 integers are big-endian); callers pass slices produced by
/// `chunks_exact` or fixed-offset indexing, so the length is statically
/// guaranteed by the call site.
#[inline]
pub fn be_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_be_bytes(a)
}

/// Decode a big-endian `u64` from the first 8 bytes of `b`; see [`be_u32`].
#[inline]
pub fn be_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_be_bytes(a)
}

/// The largest read a mapping-table walk makes, unless one cluster is
/// larger: an L1 table is read in pieces of this size ([`read_in_pieces`]),
/// and adjacent L2 tables are read together up to it. A cap in bytes, not in
/// tables, keeps the walk's buffers below glibc's mmap threshold whatever
/// the cluster size: freeing a larger one raises that threshold for the
/// rest of the process.
pub const TABLE_READ_BYTES: u64 = 64 << 10;

/// Read `len` bytes of `dev` at `off` in pieces of at most
/// [`TABLE_READ_BYTES`] through one reused buffer, handing `f` each piece
/// and its offset from `off`, in order. Stops at the first read that fails,
/// after `f` has seen the pieces before it.
pub fn read_in_pieces(
    dev: &dyn BlockDev,
    off: u64,
    len: u64,
    mut f: impl FnMut(u64, &[u8]),
) -> Result<()> {
    if off.checked_add(len).is_none() {
        return Err(BlockError::out_of_bounds(off, len as usize, dev.len()));
    }
    let mut buf = vec![0u8; len.min(TABLE_READ_BYTES) as usize];
    let mut done = 0;
    while done < len {
        let piece = &mut buf[..(len - done).min(TABLE_READ_BYTES) as usize];
        dev.read_at(piece, off + done)?;
        f(done, piece);
        done += piece.len() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_in_pieces_tiles_the_range_and_stops_at_the_first_failed_read() {
        let dev = MemDev::from_vec((0..200u32 << 10).map(|i| i as u8).collect());
        let mut seen = Vec::new();
        read_in_pieces(&dev, 100, 150 << 10, |at, piece| {
            assert_eq!(piece[0], (100 + at) as u8);
            seen.push((at, piece.len()));
        })
        .unwrap();
        assert_eq!(
            seen,
            [(0, 64 << 10), (64 << 10, 64 << 10), (128 << 10, 22 << 10)]
        );

        seen.clear();
        let past_end = read_in_pieces(&dev, 100 << 10, 150 << 10, |at, piece| {
            seen.push((at, piece.len()))
        });
        assert!(past_end.is_err());
        assert_eq!(seen, [(0, 64 << 10)]);

        let wraps = read_in_pieces(&dev, u64::MAX - 10, 100, |_, _| unreachable!());
        assert_eq!(wraps.unwrap_err().kind(), BlockErrorKind::OutOfBounds);
    }
}
