//! The write path: guest writes (in place, or copy-on-write from the
//! backing chain) and `discard`.

use std::sync::atomic::Ordering;

use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_obs::{met, Event, SpanId};

use crate::image::{MutState, QcowImage, UNALLOCATED};

impl QcowImage {
    /// [`BlockDev::write_at`] body, parented under `parent` when tracing.
    pub(crate) fn write_at_traced(
        &self,
        buf: &[u8],
        off: u64,
        parent: Option<SpanId>,
    ) -> Result<()> {
        if self.read_only {
            return Err(BlockError::read_only("write to read-only image"));
        }
        self.geom.check_range(off, buf.len() as u64)?;
        let total = buf.len();
        let root = self.obs.span_in(parent, "qcow.write", || {
            format!("layer={} bytes={total}", self.layer_kind())
        });
        let me = root.id();
        let mut st = self.state.lock();
        if self.coalescing() {
            self.write_at_coalesced(&mut st, buf, off, me)?;
        } else {
            let mut done = 0usize;
            for seg in self.geom.segments(off, buf.len()) {
                self.write_segment(&mut st, &buf[done..done + seg.len], seg.vba, me)?;
                done += seg.len;
            }
        }
        self.paranoid_audit(&st, "write_at");
        Ok(())
    }

    /// Scalar guest write of one per-cluster segment: in place when the
    /// cluster is mapped in this layer, copy-on-write otherwise.
    fn write_segment(
        &self,
        st: &mut MutState,
        data: &[u8],
        vba: u64,
        parent: Option<SpanId>,
    ) -> Result<()> {
        if let Some(off) = self.lookup(st, vba)? {
            let in_cluster = self.geom.in_cluster(vba);
            let dsp = self
                .obs
                .span_in(parent, "dev.write", || format!("bytes={}", data.len()));
            return self.dev.write_at_in(data, off + in_cluster, dsp.id());
        }
        // Copy-on-write: start from the backing chain's copy of the cluster
        // (zeroes without one, or when the write covers it whole), merge,
        // write to a fresh cluster, map it.
        let cs = self.geom.cluster_size() as usize;
        let cluster_vba = self.geom.cluster_start(vba);
        let mut cluster_buf = vec![0u8; cs];
        if let Some(backing) = self.backing.as_ref().filter(|_| data.len() != cs) {
            let bsp = self
                .obs
                .span_in(parent, "backing.fetch", || format!("bytes={cs}"));
            backing.read_at_zero_pad_in(&mut cluster_buf, cluster_vba, bsp.id())?;
            drop(bsp);
            self.miss_bytes.fetch_add(cs as u64, Ordering::Relaxed);
        }
        let in_cluster = (vba - cluster_vba) as usize;
        cluster_buf[in_cluster..in_cluster + data.len()].copy_from_slice(data);
        let (l1_idx, _l2_off) = self.ensure_l2(st, cluster_vba, 1)?;
        let data_off = self.alloc_cluster(st, 0)?;
        let dsp = self
            .obs
            .span_in(parent, "dev.write", || format!("bytes={cs} cow=unmapped"));
        self.dev.write_at_in(&cluster_buf, data_off, dsp.id())?;
        drop(dsp);
        // Merged cluster durable before the L2 entry publishes it.
        self.barrier()?;
        self.set_l2_entries(st, l1_idx, cluster_vba, data_off, 1)
    }

    /// Extent-coalesced guest write. Three extent kinds, longest-first:
    ///
    /// * mapped, physically contiguous — one in-place `write_run_at`
    ///   covering the whole extent (byte-granular; may start and end
    ///   mid-cluster);
    /// * unmapped, cluster-aligned, whole clusters — contiguous allocation,
    ///   one data write, one batched entry write (no backing merge needed);
    /// * unmapped partial clusters — the scalar
    ///   [`QcowImage::write_segment`], one cluster at a time.
    ///
    /// Errors mid-request leave the same partially-applied state the scalar
    /// loop would: clusters before the failure are written, the rest are
    /// not, and the error propagates.
    fn write_at_coalesced(
        &self,
        st: &mut MutState,
        buf: &[u8],
        off: u64,
        parent: Option<SpanId>,
    ) -> Result<()> {
        let cs = self.geom.cluster_size();
        let table_span = cs * self.geom.l2_entries();
        let end = off + buf.len() as u64;
        let mut pos = off;
        while pos < end {
            let remaining = end - pos;
            let lsp = self.obs.span_in(parent, "l2.lookup", String::new);
            let run = self.lookup_run(st, pos, remaining)?;
            drop(lsp);
            if let Some((data_off, run_bytes, clusters)) = run {
                let data = &buf[(pos - off) as usize..][..run_bytes as usize];
                let dsp = self.obs.span_in(parent, "dev.write", || {
                    format!("bytes={run_bytes} clusters={clusters}")
                });
                if clusters >= 2 {
                    self.dev.write_run_at_in(data, data_off, dsp.id())?;
                    drop(dsp);
                    self.note_coalesced("write", clusters, run_bytes);
                } else {
                    self.dev.write_at_in(data, data_off, dsp.id())?;
                    drop(dsp);
                }
                pos += run_bytes;
                continue;
            }
            let in_cluster = self.geom.in_cluster(pos);
            if in_cluster != 0 || remaining < cs {
                // An unmapped partial cluster: scalar copy-on-write merge.
                let n = (cs - in_cluster).min(remaining);
                let data = &buf[(pos - off) as usize..][..n as usize];
                self.write_segment(st, data, pos, parent)?;
                pos += n;
                continue;
            }
            // Unmapped, aligned, at least one whole cluster: count how many
            // consecutive unmapped whole clusters fit under one L2 table.
            let table_end = (pos / table_span + 1) * table_span;
            let max_clusters = (remaining / cs).min((table_end - pos) / cs);
            let mut k = 1u64;
            while k < max_clusters && self.lookup(st, pos + k * cs)?.is_none() {
                k += 1;
            }
            if k == 1 {
                // Single cluster: keep the scalar path (free-list reuse).
                let data = &buf[(pos - off) as usize..][..cs as usize];
                self.write_segment(st, data, pos, parent)?;
                pos += cs;
                continue;
            }
            let (l1_idx, _l2_off) = self.ensure_l2(st, pos, 1)?;
            let (data_off, got) = self.alloc_cluster_run(st, k);
            if got == 0 {
                return Err(self.quota_exhausted(st));
            }
            let data = &buf[(pos - off) as usize..][..(got * cs) as usize];
            self.dev.write_run_at(data, data_off)?;
            // Run data durable before the batched entries publish it.
            self.barrier()?;
            self.set_l2_entries(st, l1_idx, pos, data_off, got)?;
            if got >= 2 {
                self.note_coalesced("write", got, got * cs);
            }
            // got < k: the next loop iteration re-attempts the shortfall and
            // surfaces the quota error exactly where the scalar loop would.
            pos += got * cs;
        }
        Ok(())
    }

    /// Discard (TRIM) the guest range `[off, off + len)`: every cluster
    /// *fully* covered by the range is unmapped from this layer and its
    /// container space queued for reuse. Partially covered edge clusters are
    /// left intact, like a real TRIM with sub-cluster alignment.
    ///
    /// Reads of discarded clusters fall back to the backing chain (or
    /// zeroes). For a cache image, discarding frees quota — if copy-on-read
    /// had latched off on a space error, it is re-armed.
    ///
    /// Returns the number of clusters discarded.
    pub fn discard(&self, off: u64, len: u64) -> Result<u64> {
        if self.read_only {
            return Err(BlockError::read_only("discard on read-only image"));
        }
        let end = self.geom.check_range(off, len)?;
        let cs = self.geom.cluster_size();
        let first = off.div_ceil(cs); // first fully-covered cluster index
        let last = end / cs; // one past the last fully-covered
        let mut st = self.state.lock();
        let mut discarded = 0u64;
        for cluster in first..last {
            let vba = cluster * cs;
            if let Some(data_off) = self.lookup(&mut st, vba)? {
                let l1_idx = self.geom.l1_index(vba);
                self.set_l2_entries(&mut st, l1_idx, vba, UNALLOCATED, 1)?;
                st.free_clusters.push(data_off);
                st.cache_used = st.cache_used.saturating_sub(cs);
                discarded += 1;
            }
        }
        if discarded > 0 && self.header.is_cache() {
            // Freed quota: copy-on-read may resume (§4.3's latch is about
            // "future cold reads" having no room — now there is room again).
            let quota = self.cache_quota();
            if st.cache_used + 2 * cs <= quota {
                // swap: report the false->true transition exactly once.
                if !self.fill_enabled.swap(true, Ordering::Release) {
                    self.obs.count(met::QUOTA_REARMS, 1);
                    let used = st.cache_used;
                    self.obs.emit(|| Event::QuotaRearmed { used, quota });
                }
            }
            self.obs.gauge(met::CACHE_USED_BYTES, st.cache_used);
        }
        self.paranoid_audit(&st, "discard");
        Ok(discarded)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vmi_blockdev::{BlockDev, BlockErrorKind, MemDev};

    use crate::image::{CreateOpts, QcowImage};

    fn plain() -> Arc<QcowImage> {
        QcowImage::create(Arc::new(MemDev::new()), CreateOpts::plain(1 << 20), None).unwrap()
    }

    #[test]
    fn write_range_wrapping_u64_is_out_of_bounds() {
        let err = plain().write_at(&[1u8; 16], u64::MAX - 3).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::OutOfBounds);
    }

    #[test]
    fn discard_range_wrapping_u64_is_out_of_bounds() {
        let err = plain().discard(u64::MAX - 3, 16).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::OutOfBounds);
    }
}
