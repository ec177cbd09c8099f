//! L2 lookup: from a guest address to the container offset of its cluster,
//! through the [`L2Cache`](crate::l2cache::L2Cache), plus the one extent
//! finder both the image and [`crate::ConcurrentImage`] coalesce runs with.

use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_obs::met;

use crate::image::{MutState, QcowImage, UNALLOCATED};
use crate::layout::{decode_entries, Geometry};

/// Longest physically contiguous mapped extent starting at `vba`.
///
/// `resolve` maps a guest address to the container offset of the cluster
/// holding it (`None` = unmapped, or excluded by the caller). Returns
/// `(container_off, run_bytes, clusters)` where `container_off` already
/// includes the intra-cluster offset of `vba` and `run_bytes <= max_bytes`.
/// The run extends while consecutive virtual clusters resolve to physically
/// consecutive container clusters; `resolve` is never asked about a cluster
/// at or past `vba + max_bytes`. `Ok(None)` when `vba`'s own cluster does
/// not resolve.
pub(crate) fn contiguous_run(
    geom: &Geometry,
    vba: u64,
    max_bytes: u64,
    mut resolve: impl FnMut(u64) -> Result<Option<u64>>,
) -> Result<Option<(u64, u64, u64)>> {
    let Some(first_off) = resolve(vba)? else {
        return Ok(None);
    };
    let cs = geom.cluster_size();
    let in_cluster = geom.in_cluster(vba);
    let mut run_bytes = cs - in_cluster;
    let mut clusters = 1u64;
    let mut next_vba = geom.cluster_start(vba) + cs;
    while run_bytes < max_bytes && next_vba < geom.virtual_size {
        match resolve(next_vba)? {
            Some(off) if off == first_off + clusters * cs => {
                run_bytes += cs;
                clusters += 1;
                next_vba += cs;
            }
            _ => break,
        }
    }
    Ok(Some((
        first_off + in_cluster,
        run_bytes.min(max_bytes),
        clusters,
    )))
}

impl QcowImage {
    /// Bound the number of cached L2 tables (`None` = unbounded). The
    /// default is [`DEFAULT_L2_CACHE_BYTES`](crate::image::DEFAULT_L2_CACHE_BYTES)
    /// worth of tables. Mirrors QEMU's `l2-cache-size` tunable: a small
    /// cache costs re-reads of table clusters on workloads whose footprint
    /// exceeds the covered range — measurable with the `l2_cache` bench.
    pub fn set_l2_cache_limit(&self, limit: Option<usize>) {
        let evicted = self.state.lock().l2.set_limit(limit);
        self.note_l2_evicted(evicted);
    }

    /// The current L2 table-cache limit (`None` = unbounded).
    pub fn l2_cache_limit(&self) -> Option<usize> {
        self.state.lock().l2.limit()
    }

    /// Number of L2 tables currently cached in memory.
    pub fn l2_cache_len(&self) -> usize {
        self.state.lock().l2.len()
    }

    /// Count of guest bytes mapped in this layer (allocated data clusters ×
    /// cluster size). Diagnostic / `check` helper.
    pub fn mapped_bytes(&self) -> u64 {
        let st = self.state.lock();
        let mapped = |l2: &[u64]| l2.iter().filter(|&&e| e != UNALLOCATED).count() as u64;
        let mut clusters = 0u64;
        for (l1_idx, &l2_off) in st.l1.iter().enumerate() {
            if l2_off == UNALLOCATED {
                continue;
            }
            clusters += match st.l2.peek(l1_idx) {
                Some(l2) => mapped(l2),
                // Read the table without caching to keep this cheap-ish.
                None => self.read_l2_table(l2_off).map_or(0, |l2| mapped(&l2)),
            };
        }
        clusters * self.geom.cluster_size()
    }

    /// Whether the cluster containing `vba` is allocated in *this* layer
    /// (metadata probe; never triggers copy-on-read).
    pub fn is_mapped(&self, vba: u64) -> Result<bool> {
        if vba >= self.geom.virtual_size {
            return Err(BlockError::out_of_bounds(vba, 1, self.geom.virtual_size));
        }
        let mut st = self.state.lock();
        Ok(self.lookup(&mut st, vba)?.is_some())
    }

    /// Copy of the in-memory L1 table (for `check`/diagnostics).
    pub fn l1_snapshot(&self) -> Vec<u64> {
        self.state.lock().l1.clone()
    }

    /// A single live L1 entry (container offset of the L2 table for
    /// `idx`, or 0 if unallocated). Cheap: one brief state-lock hold.
    /// Out-of-range indexes read as unallocated. Used by
    /// [`crate::ConcurrentImage`] to refresh its lock-free L1 mirror
    /// after a serialized mutation.
    pub fn l1_entry(&self, idx: usize) -> u64 {
        self.state
            .lock()
            .l1
            .get(idx)
            .copied()
            .unwrap_or(UNALLOCATED)
    }

    /// Read an L2 table at a given container offset (for `check`).
    pub fn l2_snapshot(&self, l2_off: u64) -> Result<Vec<u64>> {
        self.read_l2_table(l2_off)
    }

    pub(crate) fn read_l2_table(&self, l2_off: u64) -> Result<Vec<u64>> {
        let mut raw = vec![0u8; self.geom.cluster_size() as usize];
        self.dev.read_at(&mut raw, l2_off)?;
        Ok(decode_entries(&raw))
    }

    /// Cache `table` for `l1_idx`, counting the tables that displaces.
    pub(crate) fn l2_cache_put(&self, st: &mut MutState, l1_idx: usize, table: Vec<u64>) {
        let evicted = st.l2.insert(l1_idx, table);
        self.note_l2_evicted(evicted);
    }

    fn note_l2_evicted(&self, evicted: u64) {
        if evicted > 0 {
            self.obs.count(met::L2_EVICTIONS, evicted);
        }
    }

    /// Look up the container offset of the data cluster holding `vba`.
    /// Returns `None` when unallocated in this layer.
    pub(crate) fn lookup(&self, st: &mut MutState, vba: u64) -> Result<Option<u64>> {
        let l1_idx = self.geom.l1_index(vba);
        let l2_off = st.l1[l1_idx];
        if l2_off == UNALLOCATED {
            return Ok(None);
        }
        let l2_idx = self.geom.l2_index(vba);
        let entry = match st.l2.get(l1_idx) {
            Some(table) => table[l2_idx],
            None => {
                let table = self.read_l2_table(l2_off)?;
                let entry = table[l2_idx];
                self.l2_cache_put(st, l1_idx, table);
                entry
            }
        };
        Ok((entry != UNALLOCATED).then_some(entry))
    }

    /// [`contiguous_run`] over this image's live tables (faulting them into
    /// the table cache as needed).
    ///
    /// `stop_at_frozen` excludes snapshot-shared clusters from the run (the
    /// in-place write path must copy those one at a time).
    pub(crate) fn lookup_run(
        &self,
        st: &mut MutState,
        vba: u64,
        max_bytes: u64,
        stop_at_frozen: bool,
    ) -> Result<Option<(u64, u64, u64)>> {
        contiguous_run(&self.geom, vba, max_bytes, |vba| {
            let off = self.lookup(st, vba)?;
            Ok(off.filter(|off| !(stop_at_frozen && st.frozen.contains(off))))
        })
    }
}
