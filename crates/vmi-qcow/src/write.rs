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
        // Copy-on-write: fetch from the backing chain only the head and tail
        // of the cluster the write leaves uncovered (zeroes without one),
        // merge, write to a fresh cluster, map it.
        let cs = self.geom.cluster_size() as usize;
        let cluster_vba = self.geom.cluster_start(vba);
        let in_cluster = (vba - cluster_vba) as usize;
        let data_end = in_cluster + data.len();
        let mut cluster_buf = vec![0u8; cs];
        if let Some(backing) = self.backing.as_ref() {
            for (from, to) in [(0, in_cluster), (data_end, cs)] {
                if from == to {
                    continue;
                }
                let bytes = to - from;
                let bsp = self
                    .obs
                    .span_in(parent, "backing.fetch", || format!("bytes={bytes}"));
                let at = cluster_vba + from as u64;
                backing.read_at_zero_pad_in(&mut cluster_buf[from..to], at, bsp.id())?;
                drop(bsp);
                self.miss_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        cluster_buf[in_cluster..data_end].copy_from_slice(data);
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

    use vmi_blockdev::{BlockDev, BlockErrorKind, CountingDev, IoStats, MemDev, SharedDev};

    use crate::image::{CreateOpts, QcowImage};

    fn plain() -> Arc<QcowImage> {
        QcowImage::create(Arc::new(MemDev::new()), CreateOpts::plain(1 << 20), None).unwrap()
    }

    const CS: u64 = 64 << 10;
    const VSIZE: u64 = 4 * CS;

    fn pattern(i: u64) -> u8 {
        (i % 251) as u8 ^ (i >> 16) as u8
    }

    /// A 64 KiB-cluster CoW layer over a plain image that holds `pattern`
    /// in `[0, backing_len)`, with the backing's container counted from
    /// here on. `None` gives a CoW with no backing at all.
    fn cow_over(backing_len: Option<u64>, coalesce: bool) -> (Arc<QcowImage>, Arc<IoStats>) {
        let counting = Arc::new(CountingDev::new(Arc::new(MemDev::new())));
        let stats = counting.stats();
        let backing = backing_len.map(|len| {
            let img = QcowImage::create(counting as SharedDev, CreateOpts::plain(len), None);
            let img = img.unwrap();
            img.write_at(&(0..len).map(pattern).collect::<Vec<_>>(), 0)
                .unwrap();
            img as SharedDev
        });
        let opts = match backing {
            Some(_) => CreateOpts::cow(VSIZE, "base"),
            None => CreateOpts::plain(VSIZE),
        };
        let cow = QcowImage::create(Arc::new(MemDev::new()), opts, backing).unwrap();
        cow.set_coalescing(coalesce);
        stats.reset();
        (cow, stats)
    }

    /// Write `len` bytes of 0xEE at `off` into a fresh CoW in both
    /// coalescing modes. Checks the guest image against a flat model and
    /// that the backing served exactly the bytes the write leaves uncovered
    /// in its clusters, in `reads` container reads.
    fn check_copy_up(backing_len: Option<u64>, off: u64, len: u64, reads: u64) {
        let blen = backing_len.unwrap_or(0);
        let mut model: Vec<u8> = (0..VSIZE)
            .map(|i| if i < blen { pattern(i) } else { 0 })
            .collect();
        model[off as usize..][..len as usize].fill(0xEE);
        let first = off / CS * CS;
        let last = (off + len).div_ceil(CS) * CS;
        let kept = |from: u64, to: u64| to.min(blen).saturating_sub(from.min(blen));
        let fetched = kept(first, off) + kept(off + len, last);
        let uncovered = match backing_len {
            Some(_) => (last - first) - len,
            None => 0,
        };
        for coalesce in [false, true] {
            let (cow, stats) = cow_over(backing_len, coalesce);
            cow.write_at(&vec![0xEE; len as usize], off).unwrap();
            let io = stats.snapshot();
            let case = format!("coalesce={coalesce} off={off} len={len}");
            assert_eq!(io.read_bytes, fetched, "{case}: backing bytes read");
            assert_eq!(io.reads, reads, "{case}: backing reads");
            assert_eq!(cow.cor_stats().miss_bytes, uncovered, "{case}: miss bytes");
            let mut guest = vec![0u8; VSIZE as usize];
            cow.read_at(&mut guest, 0).unwrap();
            assert!(guest == model, "{case}: guest bytes");
        }
    }

    #[test]
    fn copy_up_inside_a_cluster_reads_head_and_tail() {
        check_copy_up(Some(VSIZE), CS + 100, 1000, 2);
    }

    #[test]
    fn copy_up_from_a_cluster_start_reads_only_the_tail() {
        check_copy_up(Some(VSIZE), CS, 1000, 1);
    }

    #[test]
    fn copy_up_to_a_cluster_end_reads_only_the_head() {
        check_copy_up(Some(VSIZE), 2 * CS - 1000, 1000, 1);
    }

    #[test]
    fn copy_up_across_two_clusters_reads_one_head_and_one_tail() {
        check_copy_up(Some(VSIZE), CS + 100, CS + 400, 2);
    }

    #[test]
    fn whole_cluster_write_reads_nothing() {
        check_copy_up(Some(VSIZE), CS, CS, 0);
        check_copy_up(Some(VSIZE), CS, 2 * CS, 0);
    }

    #[test]
    fn write_without_backing_merges_zeroes() {
        check_copy_up(None, CS + 100, 1000, 0);
    }

    #[test]
    fn backing_ending_inside_the_cluster_pads_the_tail_with_zeroes() {
        // The backing holds 4 KiB of the second cluster: the head comes
        // whole, the tail only up to the backing's end.
        check_copy_up(Some(CS + 4096), CS + 100, 1000, 2);
        // A tail wholly past the backing's end is zeroes without a read.
        check_copy_up(Some(CS + 4096), CS + 2048, 4096, 1);
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
