//! Container space and the metadata writes that publish it: the cluster
//! allocator (quota-aware), the [`QcowImage::barrier`] choke point, L2-table
//! creation, and write-through entry updates.

use vmi_blockdev::{BlockDev, BlockError, Result};

use crate::image::{MutState, QcowImage, UNALLOCATED};

impl QcowImage {
    /// Allocate one cluster at end of file. Honours the cache quota when
    /// `self` is a cache image: this is the §4.3 `write` rule ("If there is
    /// enough space, we write the data … If not, we return with a space
    /// error").
    pub(crate) fn alloc_cluster(&self, st: &mut MutState, extra_needed: u64) -> Result<u64> {
        let cs = self.geom.cluster_size();
        if let Some(c) = &self.header.cache {
            if st.cache_used + cs + extra_needed > c.quota {
                return Err(self.quota_exhausted(st));
            }
        }
        // Reuse discarded clusters before growing the file.
        let off = match st.free_clusters.pop() {
            Some(off) => off,
            None => {
                let off = st.eof;
                st.eof += cs;
                off
            }
        };
        st.cache_used += cs;
        Ok(off)
    }

    /// The space error of §4.3 (`BlockErrorKind::NoSpace`).
    pub(crate) fn quota_exhausted(&self, st: &MutState) -> BlockError {
        BlockError::no_space(format!(
            "cache quota {} exhausted (used {})",
            self.cache_quota(),
            st.cache_used
        ))
    }

    /// Write barrier: durably order every prior container write before any
    /// subsequent one. This is the ONLY place `vmi-qcow` may flush its
    /// container (enforced by the `qcow-barrier` source lint), and it is
    /// what makes every crash prefix recoverable:
    ///
    /// * a data cluster is barriered before the L2 entry that publishes it,
    /// * a new L2 table's contents are barriered before the L1 entry that
    ///   publishes the table,
    /// * everything is barriered before the used-size header write at close.
    ///
    /// So a durable table entry always implies durable referenced data, and
    /// any torn tail is by construction unpublished (repairable by zeroing —
    /// see `recover`). On memory-backed containers `flush` is a no-op, so
    /// the barriers cost nothing in simulation.
    pub(crate) fn barrier(&self) -> Result<()> {
        self.dev.flush() // lint:allow(qcow-barrier)
    }

    /// Ensure an L2 table exists for `vba`; returns (l1_idx, l2_offset).
    ///
    /// The caller allocates `data_clusters` data clusters after a new
    /// table, the last of them the table's first mapping; on a cache image
    /// the table is allocated only if the quota holds them all, so no
    /// metadata cluster is stranded with nothing to map.
    pub(crate) fn ensure_l2(
        &self,
        st: &mut MutState,
        vba: u64,
        data_clusters: u64,
    ) -> Result<(usize, u64)> {
        let l1_idx = self.geom.l1_index(vba);
        let existing = st.l1[l1_idx];
        if existing != UNALLOCATED {
            return Ok((l1_idx, existing));
        }
        let l2_off = self.alloc_cluster(st, data_clusters * self.geom.cluster_size())?;
        // Materialize an all-zero L2 table on the container, then point L1
        // at it (write-through).
        let zeros = vec![0u8; self.geom.cluster_size() as usize];
        self.dev.write_at(&zeros, l2_off)?;
        // Table contents durable before L1 publishes the table.
        self.barrier()?;
        self.dev.write_at(
            &l2_off.to_be_bytes(),
            self.header.l1_table_offset + (l1_idx as u64) * 8,
        )?;
        st.l1[l1_idx] = l2_off;
        self.l2_cache_put(
            st,
            l1_idx,
            vec![UNALLOCATED; self.geom.l2_entries() as usize],
        );
        Ok((l1_idx, l2_off))
    }

    /// Allocate up to `want` physically contiguous clusters, honouring the
    /// cache quota. Returns `(start_offset, got)`; `got == 0` means the
    /// quota has no room for even one cluster. Always grows the file —
    /// single clusters from the free list could not be contiguous — so the
    /// scalar path's free-list reuse is the one allocation behaviour the
    /// coalesced path intentionally trades away for contiguity.
    pub(crate) fn alloc_cluster_run(&self, st: &mut MutState, want: u64) -> (u64, u64) {
        let cs = self.geom.cluster_size();
        let got = match &self.header.cache {
            Some(c) => want.min(c.quota.saturating_sub(st.cache_used) / cs),
            None => want,
        };
        let off = st.eof;
        st.eof += got * cs;
        st.cache_used += got * cs;
        (off, got)
    }

    /// Point `count` consecutive L2 entries (starting at `first_vba`'s slot)
    /// at physically consecutive data clusters from `data_off`, with one
    /// write-through container write. The caller guarantees the slots lie
    /// within a single L2 table (runs are chunked at table boundaries).
    pub(crate) fn set_l2_entries(
        &self,
        st: &mut MutState,
        l1_idx: usize,
        first_vba: u64,
        data_off: u64,
        count: u64,
    ) -> Result<()> {
        let l2_off = st.l1[l1_idx];
        debug_assert_ne!(l2_off, UNALLOCATED, "caller must ensure_l2 first");
        let l2_idx = self.geom.l2_index(first_vba);
        debug_assert!(
            l2_idx as u64 + count <= self.geom.l2_entries(),
            "entry run crosses an L2 table boundary"
        );
        let cs = self.geom.cluster_size();
        let entries = (0..count).map(|i| data_off + i * cs);
        let raw: Vec<u8> = entries.clone().flat_map(u64::to_be_bytes).collect();
        let at = l2_off + (l2_idx as u64) * 8;
        if count == 1 {
            self.dev.write_at(&raw, at)?;
        } else {
            self.dev.write_run_at(&raw, at)?;
        }
        if let Some(l2) = st.l2.peek_mut(l1_idx) {
            for (slot, entry) in l2[l2_idx..].iter_mut().zip(entries) {
                *slot = entry;
            }
        }
        Ok(())
    }

    /// Container offsets currently queued for reuse (diagnostics).
    pub fn free_cluster_count(&self) -> usize {
        self.state.lock().free_clusters.len()
    }
}
