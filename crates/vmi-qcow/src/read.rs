//! The read path (§4.3 `read`): serve mapped extents from the container,
//! fetch unmapped runs from the backing chain, and — on a cache image —
//! copy what was fetched into the cache (copy-on-read fill, Fig. 5).

use std::sync::atomic::Ordering;

use vmi_blockdev::{BlockDev, Result};
use vmi_obs::{met, Event, SpanId};

use crate::image::{MutState, QcowImage};

impl QcowImage {
    /// [`BlockDev::read_at`] body, parented under `parent` when tracing.
    ///
    /// Opens one `qcow.read` span per request; each L2 walk and each device
    /// serve gets its own child span, and unmapped runs descend into
    /// `backing.fetch`/`cor.fill` via [`Self::read_unmapped_run`].
    pub(crate) fn read_at_traced(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<SpanId>,
    ) -> Result<()> {
        let end = self.geom.check_range(off, buf.len() as u64)?;
        let total = buf.len();
        let root = self.obs.span_in(parent, "qcow.read", || {
            format!("layer={} bytes={total}", self.layer_kind())
        });
        let me = root.id();
        let cs = self.geom.cluster_size();
        let coalesce = self.coalescing();
        let mut st = self.state.lock();
        let mut pos = off;
        while pos < end {
            // Scalar mode clamps every mapped extent to a single cluster, so
            // both modes share one serve path below.
            let lsp = self.obs.span_in(me, "l2.lookup", String::new);
            let mapped = if coalesce {
                self.lookup_run(&mut st, pos, end - pos)?
            } else {
                self.lookup(&mut st, pos)?.map(|cluster_off| {
                    let in_cluster = self.geom.in_cluster(pos);
                    (
                        cluster_off + in_cluster,
                        (cs - in_cluster).min(end - pos),
                        1,
                    )
                })
            };
            drop(lsp);
            match mapped {
                Some((data_off, run_bytes, clusters)) => {
                    // Serve the whole physically contiguous extent locally,
                    // in one device op.
                    let n = run_bytes as usize;
                    let out = &mut buf[(pos - off) as usize..][..n];
                    let dsp = self
                        .obs
                        .span_in(me, "dev.read", || format!("bytes={n} clusters={clusters}"));
                    let served = if clusters >= 2 {
                        self.dev.read_run_at_in(out, data_off, dsp.id())
                    } else {
                        self.dev.read_at_in(out, data_off, dsp.id())
                    };
                    drop(dsp);
                    match served {
                        Ok(()) => {
                            self.hit_bytes.fetch_add(n as u64, Ordering::Relaxed);
                            if self.header.is_cache() {
                                self.obs.count(met::CACHE_HIT_BYTES, n as u64);
                                self.obs.emit(|| Event::CacheHit { bytes: n as u64 });
                            }
                            if clusters >= 2 {
                                self.note_coalesced("read", clusters, n as u64);
                            }
                        }
                        Err(e) => {
                            // A cache that cannot read its own cluster is not
                            // fatal as long as the backing chain still has the
                            // block: every cached cluster is a copy of backing
                            // data (CoW images have no backing copy to lean
                            // on, so they must propagate).
                            let backing = match (self.header.is_cache(), &self.backing) {
                                (true, Some(b)) => b,
                                _ => return Err(e),
                            };
                            backing.read_at_zero_pad_in(out, pos, me)?;
                            self.latch_degraded(st.cache_used, "read_failed");
                            self.degraded_read_bytes
                                .fetch_add(n as u64, Ordering::Relaxed);
                            self.obs.count(met::DEGRADED_READ_BYTES, n as u64);
                        }
                    }
                    pos += n as u64;
                }
                None => {
                    // Extend across every consecutive unmapped cluster so
                    // the backing chain sees one batched request.
                    let next = self.geom.cluster_start(pos) + cs;
                    let more = self.unmapped_clusters(&mut st, next, end)?;
                    let run_end = (next + more * cs).min(end);
                    let out = &mut buf[(pos - off) as usize..(run_end - off) as usize];
                    self.read_unmapped_run(&mut st, out, pos, me)?;
                    pos = run_end;
                }
            }
        }
        Ok(())
    }

    /// Read a run `[vba, vba + buf.len())` of *unmapped* clusters.
    ///
    /// Non-cache behaviour: pass the whole run down to the backing chain in
    /// one request (or zero-fill without one). Cache behaviour: fetch the
    /// cluster-aligned span covering the run from the backing chain in a
    /// single request — "small writes to the cache need to fetch more data
    /// from the base image to meet the cluster granularity" (§5.1) — fill
    /// every covered cluster (copy-on-read, Fig. 5), then serve the run.
    /// On a quota space error, fills latch off mid-span (§4.3: "we stop
    /// writing to the cache for the future cold reads") while the guest
    /// still gets its data.
    ///
    /// Batching the fetch keeps the cold cache's request pattern toward the
    /// storage node identical to plain QCOW2's, as the paper observes
    /// (Fig. 11: cold ≈ QCOW2).
    fn read_unmapped_run(
        &self,
        st: &mut MutState,
        buf: &mut [u8],
        vba: u64,
        parent: Option<SpanId>,
    ) -> Result<()> {
        let Some(backing) = &self.backing else {
            buf.fill(0);
            return Ok(());
        };
        let want_fill =
            self.header.is_cache() && !self.read_only && self.fill_enabled() && !self.is_degraded();
        // One batched request to the backing chain, accounted as a miss.
        let fetch = |out: &mut [u8], at: u64| -> Result<()> {
            let bytes = out.len() as u64;
            let bsp = self
                .obs
                .span_in(parent, "backing.fetch", || format!("bytes={bytes}"));
            backing.read_at_zero_pad_in(out, at, bsp.id())?;
            drop(bsp);
            self.miss_bytes.fetch_add(bytes, Ordering::Relaxed);
            if self.header.is_cache() {
                self.obs.count(met::CACHE_MISS_BYTES, bytes);
                self.obs.emit(|| Event::CacheMiss { bytes });
            }
            Ok(())
        };
        if !want_fill {
            return fetch(buf, vba);
        }
        let (span_start, span_end) = self.geom.cluster_span(vba, buf.len() as u64);
        // A cluster-aligned run is its own span: fetch straight into the
        // guest's buffer and fill the cache from there. Only a run that
        // starts or ends inside a cluster needs a span buffer of its own.
        let aligned = (span_start, span_end) == (vba, vba + buf.len() as u64);
        let mut span_buf = Vec::new();
        let span: &mut [u8] = if aligned {
            &mut *buf
        } else {
            span_buf = vec![0u8; (span_end - span_start) as usize];
            &mut span_buf
        };
        fetch(span, span_start)?;

        let fsp = self
            .obs
            .span_in(parent, "cor.fill", || format!("bytes={}", span.len()));
        if self.coalescing() {
            self.fill_span_coalesced(st, span, span_start, span_end, fsp.id());
        } else {
            self.fill_span_scalar(st, span, span_start, span_end, fsp.id());
        }
        drop(fsp);
        self.obs.gauge(met::CACHE_USED_BYTES, st.cache_used);
        if !aligned {
            let in_span = (vba - span_start) as usize;
            buf.copy_from_slice(&span_buf[in_span..in_span + buf.len()]);
        }
        Ok(())
    }

    /// Scalar copy-on-read fill: one `fill_cluster` (and hence one container
    /// data write plus one 8-byte entry write) per covered cluster.
    fn fill_span_scalar(
        &self,
        st: &mut MutState,
        span_buf: &[u8],
        span_start: u64,
        span_end: u64,
        parent: Option<SpanId>,
    ) {
        if !self.ensure_span_tables(st, span_start, span_end) {
            return;
        }
        let cs = self.geom.cluster_size();
        let mut cluster_vba = span_start;
        while cluster_vba < span_end {
            let chunk_start = (cluster_vba - span_start) as usize;
            let chunk_len = cs.min(span_end - cluster_vba) as usize;
            // The final cluster of an unaligned virtual size is stored
            // zero-padded to full cluster length, like every other cluster.
            let mut tail_pad;
            let chunk: &[u8] = if chunk_len == cs as usize {
                &span_buf[chunk_start..chunk_start + chunk_len]
            } else {
                tail_pad = vec![0u8; cs as usize];
                tail_pad[..chunk_len]
                    .copy_from_slice(&span_buf[chunk_start..chunk_start + chunk_len]);
                &tail_pad
            };
            let dsp = self
                .obs
                .span_in(parent, "dev.fill", || format!("bytes={chunk_len}"));
            let filled = self.fill_cluster(st, cluster_vba, chunk, dsp.id());
            drop(dsp);
            match filled {
                Ok(()) => self.note_filled(chunk_len as u64),
                Err(e) if e.is_no_space() => {
                    self.latch_space_error(st);
                    break;
                }
                Err(_) => {
                    self.fill_failed(st);
                    break;
                }
            }
            cluster_vba += cs;
        }
    }

    /// Coalesced copy-on-read fill: carve the span into extents bounded by
    /// L2-table coverage, allocate each extent's clusters contiguously at
    /// end-of-file, and land the data with ONE container write plus ONE
    /// batched entry write per extent. Identical byte counters, latch
    /// transitions, and (on a bump-only allocator) container layout to the
    /// scalar path — the per-cluster op overhead of 512-byte clusters
    /// (Fig. 9's read amplification) is what disappears.
    fn fill_span_coalesced(
        &self,
        st: &mut MutState,
        span_buf: &[u8],
        span_start: u64,
        span_end: u64,
        parent: Option<SpanId>,
    ) {
        if !self.ensure_span_tables(st, span_start, span_end) {
            return;
        }
        let cs = self.geom.cluster_size();
        let table_span = self.geom.l2_coverage();
        let mut cluster_vba = span_start;
        while cluster_vba < span_end {
            let table_end = (cluster_vba / table_span + 1) * table_span;
            let chunk_end = span_end.min(table_end);
            let want = (chunk_end - cluster_vba).div_ceil(cs);
            let l1_idx = match self.ensure_l2(st, cluster_vba, 1) {
                Ok((l1_idx, _)) => l1_idx,
                Err(e) if e.is_no_space() => {
                    self.latch_space_error(st);
                    break;
                }
                Err(_) => {
                    self.fill_failed(st);
                    break;
                }
            };
            let (data_off, got) = self.alloc_cluster_run(st, want);
            if got == 0 {
                self.latch_space_error(st);
                break;
            }
            // Bytes of backing data landing in the extent; the write itself
            // is zero-padded to whole clusters like the scalar path.
            let chunk_start = (cluster_vba - span_start) as usize;
            let avail = ((span_end - cluster_vba) as usize).min((got * cs) as usize);
            let dsp = self.obs.span_in(parent, "dev.fill", || {
                format!("bytes={avail} clusters={got}")
            });
            let write_res = if avail == (got * cs) as usize {
                self.dev.write_run_at_in(
                    &span_buf[chunk_start..chunk_start + avail],
                    data_off,
                    dsp.id(),
                )
            } else {
                let mut padded = vec![0u8; (got * cs) as usize];
                padded[..avail].copy_from_slice(&span_buf[chunk_start..chunk_start + avail]);
                self.dev.write_run_at_in(&padded, data_off, dsp.id())
            };
            drop(dsp);
            let res = write_res.and_then(|()| {
                // Extent data durable before the batched entries publish it.
                self.barrier()?;
                self.set_l2_entries(st, l1_idx, cluster_vba, data_off, got)
            });
            match res {
                Ok(()) => {
                    self.note_filled(avail as u64);
                    if got >= 2 {
                        self.note_coalesced("fill", got, avail as u64);
                    }
                }
                Err(_) => {
                    self.fill_failed(st);
                    break;
                }
            }
            if got < want {
                // The quota truncated the extent: same terminal state as the
                // scalar path rejecting the next cluster's allocation.
                self.latch_space_error(st);
                break;
            }
            cluster_vba += got * cs;
        }
    }

    /// Allocate every L2 table the fill of `[span_start, span_end)` needs
    /// before any of its data, so the span's data lands physically
    /// contiguous behind them — `[T1][T2][data…]`, not
    /// `[T1][data][T2][data]` — and a warm re-read of it is one container
    /// read. Both fill modes call this first, so they keep one bump order.
    ///
    /// A table is allocated only if the quota also holds every data cluster
    /// the fill places before the table's first one, plus that one. That is
    /// the test the in-order allocation would meet on reaching the table, so
    /// the quota latches at the same byte either way and no published table
    /// is left mapping nothing. The first table that fails it stops the
    /// lookahead, and the fill loop meets it again in order. Any other error
    /// latches the fill off and returns `false`.
    fn ensure_span_tables(&self, st: &mut MutState, span_start: u64, span_end: u64) -> bool {
        let cs = self.geom.cluster_size();
        let table_span = self.geom.l2_coverage();
        let mut vba = span_start;
        let mut data_before = 0;
        while vba < span_end {
            match self.ensure_l2(st, vba, data_before + 1) {
                Ok(_) => {}
                Err(e) if e.is_no_space() => break,
                Err(_) => {
                    self.fill_failed(st);
                    return false;
                }
            }
            let chunk_end = span_end.min((vba / table_span + 1) * table_span);
            data_before += (chunk_end - vba).div_ceil(cs);
            vba = chunk_end;
        }
        true
    }

    /// A failed fill must never fail the guest read — the data is already
    /// in the fetched span. Latch degraded (stops all future fills) and let
    /// the caller serve from what it fetched.
    fn fill_failed(&self, st: &MutState) {
        self.fill_rejects.fetch_add(1, Ordering::Relaxed);
        self.latch_degraded(st.cache_used, "fill_failed");
    }

    /// Account one successful fill of `bytes` backing bytes.
    fn note_filled(&self, bytes: u64) {
        self.fill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.obs.count(met::COR_FILL_BYTES, bytes);
        self.obs.emit(|| Event::CorFill { bytes });
    }

    /// Reject a fill for lack of quota and latch fills off (§4.3: "we stop
    /// writing to the cache for the future cold reads").
    fn latch_space_error(&self, st: &MutState) {
        self.fill_rejects.fetch_add(1, Ordering::Relaxed);
        // swap: emit the latch transition exactly once even if racing
        // readers hit the quota wall together.
        if self.fill_enabled.swap(false, Ordering::Release) {
            self.obs.count(met::SPACE_ERRORS, 1);
            let used = st.cache_used;
            let quota = self.header.cache.map(|c| c.quota).unwrap_or(0);
            self.obs.emit(|| Event::SpaceErrorLatched { used, quota });
        }
    }

    /// Write one full cluster of backing data into this cache layer.
    fn fill_cluster(
        &self,
        st: &mut MutState,
        cluster_vba: u64,
        data: &[u8],
        parent: Option<SpanId>,
    ) -> Result<()> {
        let (l1_idx, _l2_off) = self.ensure_l2(st, cluster_vba, 1)?;
        let data_off = self.alloc_cluster(st, 0)?;
        self.dev.write_at_in(data, data_off, parent)?;
        // Data durable before the L2 entry publishes it.
        self.barrier()?;
        self.set_l2_entries(st, l1_idx, cluster_vba, data_off, 1)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vmi_blockdev::{BlockDev, BlockErrorKind, MemDev};

    use crate::image::{CreateOpts, QcowImage};

    #[test]
    fn read_range_wrapping_u64_is_out_of_bounds() {
        let img =
            QcowImage::create(Arc::new(MemDev::new()), CreateOpts::plain(1 << 20), None).unwrap();
        let mut buf = [0u8; 16];
        let err = img.read_at(&mut buf, u64::MAX - 3).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::OutOfBounds);
    }
}
