//! The image object: open/create/read/write/close with copy-on-write,
//! backing-chain recursion, and the paper's copy-on-read cache extension.
//!
//! An open [`QcowImage`] is itself a [`BlockDev`], so chains compose
//! naturally: the CoW image's backing is the cache image, whose backing is
//! the base image (Fig. 4), and the guest only ever talks to the top layer.
//!
//! This module owns the types, the accessors, `close` and the [`BlockDev`]
//! surface. The rest of `impl QcowImage` lives in sibling modules, one per
//! seam: `open` (create/open/resize/rebase), `lookup` (L2 lookup over the
//! `l2cache` table cache), `alloc` (allocator, `barrier`, entry writes),
//! `read` (read path + copy-on-read fill) and `write` (write path +
//! discard).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::{lockrank, Mutex};
use vmi_blockdev::{BlockDev, BlockError, Result, SharedDev};
use vmi_obs::{met, Event, Obs, SpanId};

use crate::header::Header;
use crate::l2cache::L2Cache;
pub use crate::l2cache::{DEFAULT_L2_CACHE_BYTES, MIN_L2_CACHE_TABLES};
use crate::layout::Geometry;

/// Sentinel L2/L1 value: unallocated.
pub(crate) const UNALLOCATED: u64 = 0;

/// Options for [`QcowImage::create`].
#[derive(Debug, Clone)]
pub struct CreateOpts {
    /// Virtual disk size. For cache/CoW layers this must equal the base's
    /// virtual size (§4.3: the size field "has to be the same as the base
    /// image's").
    pub size: u64,
    /// log2 of the cluster size. The paper uses 64 KiB (16) for base/CoW
    /// images and 512 B (9) for cache images.
    pub cluster_bits: u32,
    /// Backing file name recorded in the header (resolution to an actual
    /// device happens at open time or via the `backing` field below).
    pub backing_file: Option<String>,
    /// Cache quota in bytes. Non-zero turns the new image into a *cache
    /// image* (§4.3: "If the quota passed to the create function is not
    /// zero, it is assumed that the new image will be used as a cache").
    pub cache_quota: u64,
}

impl CreateOpts {
    /// A plain (non-cache) image of `size` bytes with default clusters.
    pub fn plain(size: u64) -> Self {
        Self {
            size,
            cluster_bits: crate::layout::DEFAULT_CLUSTER_BITS,
            backing_file: None,
            cache_quota: 0,
        }
    }

    /// A CoW overlay of `size` bytes naming `backing` in its header.
    pub fn cow(size: u64, backing: impl Into<String>) -> Self {
        Self {
            backing_file: Some(backing.into()),
            ..Self::plain(size)
        }
    }

    /// A cache image: 512 B clusters (the paper's final arrangement) and a
    /// quota.
    pub fn cache(size: u64, backing: impl Into<String>, quota: u64) -> Self {
        Self {
            size,
            cluster_bits: crate::layout::MIN_CLUSTER_BITS,
            backing_file: Some(backing.into()),
            cache_quota: quota,
        }
    }

    /// Override the cluster size (used by the Fig. 9 experiment that shows
    /// why 64 KiB cache clusters amplify traffic).
    pub fn with_cluster_bits(mut self, bits: u32) -> Self {
        self.cluster_bits = bits;
        self
    }
}

/// Copy-on-read statistics, exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorStats {
    /// Bytes served from this image's own clusters (warm hits).
    pub hit_bytes: u64,
    /// Bytes fetched from the backing chain: by guest reads, and by
    /// copy-on-write merges (the head and tail a partial write leaves
    /// uncovered in its cluster).
    pub miss_bytes: u64,
    /// Bytes written into the cache by copy-on-read fills (≥ miss bytes for
    /// large clusters — the amplification of Fig. 9).
    pub fill_bytes: u64,
    /// Number of fills rejected because the quota was exhausted.
    pub fill_rejects: u64,
}

#[derive(Debug)]
pub(crate) struct MutState {
    /// In-memory copy of the L1 table (write-through to the container).
    pub(crate) l1: Vec<u64>,
    /// Write-through read cache of L2 tables, keyed by L1 index.
    pub(crate) l2: L2Cache,
    /// Bump allocation pointer (end of container file).
    pub(crate) eof: u64,
    /// Bytes of container space used, tracked for cache images
    /// ("the current size of the cache", §4.3).
    pub(crate) cache_used: u64,
    /// Container offsets of discarded clusters, reused by the allocator
    /// before the file is grown. Session-local: clusters still on this list
    /// at close appear as *leaked* to `check` and are reclaimed by
    /// `compact` (mirroring `qemu-img check`'s leak accounting).
    pub(crate) free_clusters: Vec<u64>,
}

/// An open image.
///
/// Cheap to share: all mutable state lives behind a mutex, which a read or
/// write takes once per request and holds across its container and backing
/// I/O ([`crate::ConcurrentImage`] adds parallel warm reads on top).
pub struct QcowImage {
    pub(crate) dev: SharedDev,
    pub(crate) geom: Geometry,
    pub(crate) header: Header,
    pub(crate) backing: Option<SharedDev>,
    pub(crate) read_only: bool,
    /// Copy-on-read enabled (cache image with room left). Starts true for
    /// cache images and latches false on the first quota space error
    /// (§4.3: "we stop writing to the cache for the future cold reads").
    pub(crate) fill_enabled: AtomicBool,
    /// Degraded-mode latch: set once on the first cache I/O failure (a
    /// failed fill or a failed cluster read). A degraded cache stops
    /// filling and serves cluster-read failures from its backing chain;
    /// the guest never sees the fault. Mirrors the space-error latch.
    pub(crate) degraded: AtomicBool,
    /// Set when this handle has been superseded (resize/rebase reopened the
    /// container): Drop must not write back stale header state.
    pub(crate) detached: AtomicBool,
    /// Extent coalescing: serve/fill physically contiguous cluster runs with
    /// one device op instead of one per cluster. On by default; the scalar
    /// path is kept selectable so benches and equivalence tests can compare
    /// the two byte-for-byte.
    pub(crate) coalesce: AtomicBool,
    pub(crate) state: Mutex<MutState>,
    // CoR statistics.
    pub(crate) hit_bytes: AtomicU64,
    pub(crate) miss_bytes: AtomicU64,
    pub(crate) fill_bytes: AtomicU64,
    pub(crate) fill_rejects: AtomicU64,
    /// Guest bytes served from backing after a cache cluster-read failure.
    pub(crate) degraded_read_bytes: AtomicU64,
    /// Observability handle; disabled by default (single branch per call).
    pub(crate) obs: Obs,
}

impl std::fmt::Debug for QcowImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QcowImage")
            .field("geom", &self.geom)
            .field("is_cache", &self.is_cache())
            .field("read_only", &self.read_only)
            .field("has_backing", &self.backing.is_some())
            .finish_non_exhaustive()
    }
}

/// Witness rank for an image's state mutex. Ranks ascend front layer → base
/// along a backing chain (a front layer holds its state mutex across backing
/// reads, see `read_unmapped_run`), so an image ranks one *below* its backing
/// image, clamped to the supported chain depth. Standalone images and images
/// over raw (non-image) backing devices take the base rank.
pub(crate) fn state_rank_for(backing: Option<&SharedDev>) -> u32 {
    // Walk through pass-through decorators (counting, retry, read-only…)
    // to find the backing *image*, if there is one.
    let mut cur = backing;
    while let Some(d) = cur {
        if let Some(img) = d.as_any().and_then(|a| a.downcast_ref::<QcowImage>()) {
            return img.state.rank().saturating_sub(1).max(lockrank::QCOW_STATE);
        }
        cur = d.inner_dev();
    }
    lockrank::QCOW_STATE_TOP
}

impl QcowImage {
    /// Audit the live container with `vmi-audit`, comparing a cache's
    /// recomputed used-size against the in-memory counter (the on-disk
    /// field is stale mid-session by design — §4.3 writes it back at
    /// close). Re-reads every mapping table; `check`, `info` and the
    /// paranoid re-audit are its callers.
    pub(crate) fn audit(&self, st: &MutState) -> vmi_audit::AuditReport {
        let opts = vmi_audit::AuditOpts {
            expected_used: self.header.is_cache().then_some(st.cache_used),
            ..Default::default()
        };
        vmi_audit::audit_image_visit(self.dev.as_ref(), &opts, &Obs::disabled(), &mut ())
    }

    /// Paranoid self-check: [`QcowImage::audit`] after a mutating op.
    /// Active only with the `paranoid` feature in debug builds, so it is
    /// deliberately unfit for release use. Degraded images are skipped —
    /// the latch already marks them as known-inconsistent.
    #[cfg(feature = "paranoid")]
    #[expect(clippy::panic, reason = "paranoid builds abort on broken invariants")]
    pub(crate) fn paranoid_audit(&self, st: &MutState, op: &str) {
        if !cfg!(debug_assertions) || self.is_degraded() {
            return;
        }
        let report = self.audit(st);
        if !report.is_clean() {
            panic!("paranoid audit failed after {op}: {:?}", report.violations)
        }
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    pub(crate) fn paranoid_audit(&self, _st: &MutState, _op: &str) {}

    /// Close the image: flush, and for cache images write the current used
    /// size back into the header (§4.3 `close`).
    pub fn close(&self) -> Result<()> {
        if !self.read_only {
            if self.header.is_cache() {
                // All data and table writes durable before the used-size is
                // published — a crash between the two leaves a stale used
                // field, which `recover` rewrites from the tables.
                self.barrier()?;
                let used = self.state.lock().cache_used;
                Header::update_cache_used(self.dev.as_ref() as &dyn BlockDev, used)?;
            }
            self.barrier()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Virtual disk size in bytes.
    pub fn virtual_size(&self) -> u64 {
        self.geom.virtual_size
    }

    /// The image geometry (cluster math).
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The parsed header (as of open; `cache.used` may be stale — use
    /// [`QcowImage::cache_used`] for the live value).
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// `true` iff this image carries the cache extension.
    pub fn is_cache(&self) -> bool {
        self.header.is_cache()
    }

    /// Quota in bytes, 0 for non-cache images.
    pub fn cache_quota(&self) -> u64 {
        self.header.cache.map(|c| c.quota).unwrap_or(0)
    }

    /// Live used-size accounting (header + tables + data clusters).
    pub fn cache_used(&self) -> u64 {
        self.state.lock().cache_used
    }

    /// Whether copy-on-read fills are still running (latches off on the
    /// first quota space error).
    pub fn fill_enabled(&self) -> bool {
        self.fill_enabled.load(Ordering::Acquire)
    }

    /// Whether this cache has latched into degraded mode (a fill or a
    /// cluster read failed). Degraded caches stop filling and serve
    /// everything they can from their backing chain; the latch never
    /// clears for the lifetime of the handle.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Guest bytes that were served from the backing chain because a
    /// cache cluster read failed.
    pub fn degraded_read_bytes(&self) -> u64 {
        self.degraded_read_bytes.load(Ordering::Relaxed)
    }

    /// Latch this image degraded, emitting the transition exactly once
    /// (the same `swap` discipline as the space-error latch).
    pub(crate) fn latch_degraded(&self, used: u64, reason: &'static str) {
        if !self.degraded.swap(true, Ordering::AcqRel) {
            self.obs.count(met::CACHE_DEGRADED, 1);
            self.obs.emit(|| Event::CacheDegraded {
                reason: reason.to_string(),
                used,
            });
        }
    }

    /// Container bytes used by the image file (the Table 2 metric).
    pub fn file_size(&self) -> u64 {
        self.dev.len()
    }

    /// The container device.
    pub fn container(&self) -> &SharedDev {
        &self.dev
    }

    /// The resolved backing device, if any.
    pub fn backing(&self) -> Option<&SharedDev> {
        self.backing.as_ref()
    }

    /// Whether this handle rejects guest writes.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Copy-on-read counters.
    pub fn cor_stats(&self) -> CorStats {
        CorStats {
            hit_bytes: self.hit_bytes.load(Ordering::Relaxed),
            miss_bytes: self.miss_bytes.load(Ordering::Relaxed),
            fill_bytes: self.fill_bytes.load(Ordering::Relaxed),
            fill_rejects: self.fill_rejects.load(Ordering::Relaxed),
        }
    }

    /// The observability handle attached at create/open time (shared so
    /// layered wrappers can emit into the same stream).
    pub(crate) fn obs_handle(&self) -> &Obs {
        &self.obs
    }

    /// Toggle extent coalescing (on by default). The scalar per-cluster path
    /// is bit-identical in guest data and byte counters; it just issues one
    /// device op per cluster instead of one per contiguous run.
    pub fn set_coalescing(&self, on: bool) {
        self.coalesce.store(on, Ordering::Release);
    }

    /// Whether extent coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalesce.load(Ordering::Acquire)
    }

    /// Record a multi-cluster extent issued as one device op.
    pub(crate) fn note_coalesced(&self, op: &'static str, clusters: u64, bytes: u64) {
        self.obs.count(met::COALESCED_RUNS, 1);
        self.obs.count(met::COALESCED_BYTES, bytes);
        self.obs.emit(|| Event::RunCoalesced {
            op: op.to_string(),
            clusters,
            bytes,
        });
    }

    /// This image's position in a chain, for trace/diagnostic labels.
    pub(crate) fn layer_kind(&self) -> &'static str {
        if self.is_cache() {
            "cache"
        } else if self.backing.is_some() {
            "cow"
        } else {
            "base"
        }
    }
}

impl BlockDev for QcowImage {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.read_at_traced(buf, off, None)
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.write_at_traced(buf, off, None)
    }

    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.read_at_traced(buf, off, parent)
    }

    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.write_at_traced(buf, off, parent)
    }

    fn len(&self) -> u64 {
        self.geom.virtual_size
    }

    fn set_len(&self, _len: u64) -> Result<()> {
        Err(BlockError::unsupported("images have a fixed virtual size"))
    }

    fn flush(&self) -> Result<()> {
        if self.read_only {
            return Ok(());
        }
        // A guest flush is exactly a barrier on the container.
        self.barrier()
    }

    fn describe(&self) -> String {
        format!("qcow[{}]({})", self.layer_kind(), self.dev.describe())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for QcowImage {
    fn drop(&mut self) {
        // Best-effort close: persist the cache's used size (§4.3) — unless
        // this handle was superseded by resize/rebase.
        if !self.detached.load(Ordering::Acquire) {
            let _ = self.close();
        }
    }
}

#[cfg(test)]
mod tests;
