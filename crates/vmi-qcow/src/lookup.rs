//! L2 lookup: from a guest address to the container offset of its cluster,
//! through the [`L2Cache`](crate::l2cache::L2Cache), plus the one extent
//! finder both the image and [`crate::ConcurrentImage`] coalesce runs with.

use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_obs::met;

use crate::image::{MutState, QcowImage, UNALLOCATED};
use crate::l2cache::L2Cache;
use crate::layout::{decode_entries, Geometry};

/// A scan lent one L2 table: it gets the table's entries (`None` when no
/// table is allocated there) and says whether the walk goes on into the
/// next table.
pub(crate) type Scan<'a> = &'a mut dyn FnMut(Option<&[u64]>) -> bool;

/// Walk the L2 entries of consecutive clusters, from `vba`'s cluster up to
/// the one holding `end - 1` (and never past the virtual size), for as long
/// as `accept(k, entry)` takes the `k`-th cluster's entry (`UNALLOCATED`
/// when unmapped). Returns how many clusters it took.
///
/// The walk is table-granular: `table(l1_idx, scan)` resolves table
/// `l1_idx` once, calls `scan` on it and returns what `scan` returned, so a
/// run over `k` tables costs `k` table resolves, not one per cluster.
pub(crate) fn scan_entries(
    geom: &Geometry,
    vba: u64,
    end: u64,
    mut table: impl FnMut(usize, Scan<'_>) -> Result<bool>,
    mut accept: impl FnMut(u64, u64) -> bool,
) -> Result<u64> {
    let per_table = geom.l2_entries();
    let first = vba >> geom.d_bits();
    let last = end.min(geom.virtual_size).div_ceil(geom.cluster_size());
    let mut next = first;
    while next < last {
        let l1_idx = next / per_table;
        let stop = last.min((l1_idx + 1) * per_table);
        let mut scan = |entries: Option<&[u64]>| {
            while next < stop {
                let entry = entries.map_or(UNALLOCATED, |t| t[(next % per_table) as usize]);
                if !accept(next - first, entry) {
                    return false;
                }
                next += 1;
            }
            true
        };
        if !table(l1_idx as usize, &mut scan)? {
            break;
        }
    }
    Ok(next - first)
}

/// Longest physically contiguous mapped extent starting at `vba`.
///
/// Walks the tables lent by `table` (see [`scan_entries`]); a cluster joins
/// the run while it is mapped and sits right after the previous one in the
/// container. Returns `(container_off, run_bytes, clusters)` where
/// `container_off` already includes the intra-cluster offset of `vba` and
/// `run_bytes <= max_bytes`. No cluster at or past `vba + max_bytes` is
/// looked at. `Ok(None)` when `vba`'s own cluster does not qualify.
pub(crate) fn contiguous_run(
    geom: &Geometry,
    vba: u64,
    max_bytes: u64,
    table: impl FnMut(usize, Scan<'_>) -> Result<bool>,
) -> Result<Option<(u64, u64, u64)>> {
    let cs = geom.cluster_size();
    let mut first_off = UNALLOCATED;
    let clusters = scan_entries(geom, vba, vba + max_bytes, table, |k, entry| {
        if k == 0 {
            first_off = entry;
        }
        entry != UNALLOCATED && entry == first_off + k * cs
    })?;
    if clusters == 0 {
        return Ok(None);
    }
    let in_cluster = geom.in_cluster(vba);
    Ok(Some((
        first_off + in_cluster,
        (clusters * cs - in_cluster).min(max_bytes),
        clusters,
    )))
}

impl QcowImage {
    /// Bound the number of cached L2 tables (`None` = unbounded). The
    /// default is [`DEFAULT_L2_CACHE_BYTES`](crate::image::DEFAULT_L2_CACHE_BYTES)
    /// worth of tables. Mirrors QEMU's `l2-cache-size` tunable: a small
    /// cache costs re-reads of table clusters on workloads whose footprint
    /// exceeds the covered range (each eviction counts in `met::L2_EVICTIONS`).
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

    /// Read the L2 table at `l2_off` for I/O through it. Every nonzero
    /// entry must be cluster-aligned, start inside the container and lie
    /// outside the header cluster and the L1 table, so a crafted entry
    /// fails the request as `corrupt` instead of sending a guest write
    /// gigabytes past the end of the container or over the L1 table.
    pub(crate) fn load_l2_table(&self, l2_off: u64) -> Result<Vec<u64>> {
        let mut raw = vec![0u8; self.geom.cluster_size() as usize];
        self.dev.read_at(&mut raw, l2_off)?;
        let table = decode_entries(&raw);
        let (cs, len) = (self.geom.cluster_size(), self.dev.len());
        // An aligned nonzero entry is past the header cluster already.
        let l1 = self.header.l1_table_offset;
        let l1_table = l1..l1 + self.geom.l1_table_bytes();
        let bad =
            |&&e: &&u64| e != UNALLOCATED && (e % cs != 0 || e >= len || l1_table.contains(&e));
        match table.iter().find(bad) {
            Some(e) => Err(BlockError::corrupt(format!(
                "invalid L2 entry {e:#x} in table at {l2_off:#x}"
            ))),
            None => Ok(table),
        }
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
        let l2_idx = self.geom.l2_index(vba);
        let mut entry = UNALLOCATED;
        self.scan_table(&st.l1, &mut st.l2, self.geom.l1_index(vba), &mut |t| {
            entry = t.map_or(UNALLOCATED, |t| t[l2_idx]);
            false
        })?;
        Ok((entry != UNALLOCATED).then_some(entry))
    }

    /// Lend live table `l1_idx` to `scan` (see [`scan_entries`]): one table
    /// cache lookup, marking the table most recently used, and a container
    /// read only when the table is not cached.
    fn scan_table(
        &self,
        l1: &[u64],
        l2: &mut L2Cache,
        l1_idx: usize,
        scan: Scan<'_>,
    ) -> Result<bool> {
        let l2_off = l1[l1_idx];
        if l2_off == UNALLOCATED {
            return Ok(scan(None));
        }
        if let Some(table) = l2.get(l1_idx) {
            return Ok(scan(Some(table)));
        }
        let table = self.load_l2_table(l2_off)?;
        let more = scan(Some(&table));
        self.note_l2_evicted(l2.insert(l1_idx, table));
        Ok(more)
    }

    /// [`contiguous_run`] over this image's live tables (faulting them into
    /// the table cache as needed).
    pub(crate) fn lookup_run(
        &self,
        st: &mut MutState,
        vba: u64,
        max_bytes: u64,
    ) -> Result<Option<(u64, u64, u64)>> {
        let MutState { l1, l2, .. } = st;
        contiguous_run(&self.geom, vba, max_bytes, |l1_idx, scan| {
            self.scan_table(l1, l2, l1_idx, scan)
        })
    }

    /// Call `visit(vba, len)` for every run of guest bytes mapped in this
    /// layer, in guest order. A run is physically contiguous, at most
    /// `max_bytes` long (a multiple of the cluster size) and clipped to the
    /// virtual size. The state lock is not held across `visit`, so it may
    /// do I/O through this image.
    pub(crate) fn for_each_mapped_run(
        &self,
        max_bytes: u64,
        mut visit: impl FnMut(u64, usize) -> Result<()>,
    ) -> Result<()> {
        let (cs, vsize) = (self.geom.cluster_size(), self.geom.virtual_size);
        let mut vba = 0;
        loop {
            let run = {
                let mut st = self.state.lock();
                vba += self.unmapped_clusters(&mut st, vba, vsize)? * cs;
                if vba >= vsize {
                    return Ok(());
                }
                self.lookup_run(&mut st, vba, max_bytes)?
            };
            // `vba`'s cluster is mapped, so the run holds at least it.
            let len = run.map_or(cs, |(_, bytes, _)| bytes).min(vsize - vba);
            visit(vba, len as usize)?;
            vba += len;
        }
    }

    /// How many consecutive clusters from `vba`'s, up to the one holding
    /// `end - 1`, are unmapped in this layer.
    pub(crate) fn unmapped_clusters(&self, st: &mut MutState, vba: u64, end: u64) -> Result<u64> {
        let MutState { l1, l2, .. } = st;
        scan_entries(
            &self.geom,
            vba,
            end,
            |l1_idx, scan| self.scan_table(l1, l2, l1_idx, scan),
            |_, entry| entry == UNALLOCATED,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_run_resolves_each_table_once() {
        // 512 B clusters, 64 entries a table; three tables map one
        // physically contiguous run.
        let geom = Geometry::new(9, 1 << 20).unwrap();
        let (cs, per_table) = (geom.cluster_size(), geom.l2_entries());
        let tables: Vec<Vec<u64>> = (0..3)
            .map(|t| {
                (0..per_table)
                    .map(|i| (1 << 20) + (t * per_table + i) * cs)
                    .collect()
            })
            .collect();
        let mut resolved = Vec::new();
        let lend = |l1_idx: usize, scan: Scan<'_>| {
            resolved.push(l1_idx);
            Ok(scan(tables.get(l1_idx).map(Vec::as_slice)))
        };
        let run = contiguous_run(&geom, cs / 2, 3 * per_table * cs - cs, lend);
        let (off, bytes, clusters) = run.unwrap().unwrap();
        assert_eq!(
            (off, bytes, clusters),
            ((1 << 20) + cs / 2, 3 * per_table * cs - cs, 3 * per_table)
        );
        assert_eq!(
            resolved,
            [0, 1, 2],
            "one resolve per table, not per cluster"
        );
    }

    #[test]
    fn scan_stops_at_the_first_rejected_entry() {
        let geom = Geometry::new(9, 1 << 20).unwrap();
        let per_table = geom.l2_entries();
        let mut table = vec![UNALLOCATED; per_table as usize];
        table[5] = 4096;
        let lend = |_: usize, scan: Scan<'_>| Ok(scan(Some(&table)));
        let unmapped = scan_entries(&geom, 512, 1 << 20, lend, |_, e| e == UNALLOCATED);
        assert_eq!(unmapped.unwrap(), 4, "clusters 1..=4 are unmapped");
        // No table at all: every cluster up to `end` is unmapped.
        let none = |_: usize, scan: Scan<'_>| Ok(scan(None));
        let unmapped = scan_entries(&geom, 0, 100 * 512 + 1, none, |_, e| e == UNALLOCATED);
        assert_eq!(unmapped.unwrap(), 101);
    }
}
