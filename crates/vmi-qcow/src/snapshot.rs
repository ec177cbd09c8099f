//! Internal snapshots: record format, table (de)serialization, and the
//! snapshot operations of [`QcowImage`].
//!
//! A snapshot freezes the guest-visible state of an image at a point in
//! time: the active L1 table is copied into fresh clusters and every
//! cluster reachable from it becomes copy-on-write — later guest writes
//! allocate new clusters instead of overwriting shared ones. The snapshot
//! table lives out of line in allocated clusters; the header's `SNAP`
//! extension points at it (see [`crate::header::SnapTabExt`]).
//!
//! This is the mechanism behind the §8 future-work direction of starting
//! VMs "from memory snapshots of already booted virtual machines": a booted
//! image can be snapshotted once and reverted per VM start.

use std::collections::HashSet;

use bytes::{Buf, BufMut};
use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_obs::met;

use crate::header::Header;
use crate::image::{MutState, QcowImage, UNALLOCATED};
use crate::layout::{decode_entries, encode_entries};

/// One snapshot record as stored in the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRec {
    /// Unique id within the image (monotonically assigned).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Container offset of this snapshot's frozen L1 copy.
    pub l1_offset: u64,
    /// Number of L1 entries in the copy.
    pub l1_entries: u32,
}

/// Public view of a snapshot (what `list` returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Snapshot id.
    pub id: u32,
    /// Snapshot name.
    pub name: String,
}

/// Maximum snapshot-name length accepted.
pub const MAX_SNAPSHOT_NAME: usize = 255;

/// Encode the snapshot table.
pub fn encode_table(recs: &[SnapshotRec]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in recs {
        debug_assert!(r.name.len() <= MAX_SNAPSHOT_NAME);
        out.put_u32(r.id);
        out.put_u64(r.l1_offset);
        out.put_u32(r.l1_entries);
        out.put_u16(r.name.len() as u16);
        out.extend_from_slice(r.name.as_bytes());
    }
    out
}

/// Decode a snapshot table of `count` records.
pub fn decode_table(mut raw: &[u8], count: u32) -> Result<Vec<SnapshotRec>> {
    let mut recs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        if raw.len() < 18 {
            return Err(BlockError::corrupt("truncated snapshot table"));
        }
        let id = raw.get_u32();
        let l1_offset = raw.get_u64();
        let l1_entries = raw.get_u32();
        let name_len = raw.get_u16() as usize;
        if name_len > MAX_SNAPSHOT_NAME || raw.len() < name_len {
            return Err(BlockError::corrupt("bad snapshot name length"));
        }
        let name = String::from_utf8(raw[..name_len].to_vec())
            .map_err(|_| BlockError::corrupt("snapshot name not UTF-8"))?;
        raw.advance(name_len);
        recs.push(SnapshotRec {
            id,
            name,
            l1_offset,
            l1_entries,
        });
    }
    Ok(recs)
}

impl QcowImage {
    /// Create an internal snapshot of the current guest-visible state.
    ///
    /// The active L1 is copied into fresh clusters, the snapshot table is
    /// rewritten, and every currently-reachable cluster becomes
    /// copy-on-write. Not supported on cache images (they are transparent
    /// layers) or read-only handles. Returns the snapshot id.
    pub fn create_snapshot(&self, name: impl Into<String>) -> Result<u32> {
        let name = name.into();
        if self.read_only {
            return Err(BlockError::read_only("snapshot of read-only image"));
        }
        if self.header.is_cache() {
            return Err(BlockError::unsupported(
                "cache images do not support snapshots",
            ));
        }
        if self.header.snaptab.is_none() {
            return Err(BlockError::unsupported(
                "image predates snapshot support; run `compact` to upgrade it",
            ));
        }
        if name.len() > MAX_SNAPSHOT_NAME {
            return Err(BlockError::unsupported("snapshot name too long"));
        }
        let mut st = self.state.lock();
        if st.snapshots.iter().any(|r| r.name == name) {
            return Err(BlockError::unsupported(format!(
                "snapshot {name:?} already exists"
            )));
        }
        // Persist a frozen copy of the active L1 at end-of-file (contiguous
        // region, bypassing the free list).
        let l1_bytes = self.geom.l1_table_bytes();
        let copy_off = st.eof;
        st.eof += l1_bytes;
        st.cache_used += l1_bytes;
        let mut raw = encode_entries(&st.l1);
        raw.resize(l1_bytes as usize, 0);
        self.dev.write_at(&raw, copy_off)?;
        let id = st.snapshots.iter().map(|r| r.id).max().unwrap_or(0) + 1;
        let l1_entries = st.l1.len() as u32;
        st.snapshots.push(SnapshotRec {
            id,
            name,
            l1_offset: copy_off,
            l1_entries,
        });
        self.persist_snapshot_table(&mut st)?;
        self.freeze_active_tree(&mut st)?;
        self.obs.count(met::SNAPSHOT_CREATES, 1);
        self.paranoid_audit(&st, "create_snapshot");
        Ok(id)
    }

    /// List snapshots in creation order.
    pub fn list_snapshots(&self) -> Vec<SnapshotInfo> {
        self.state
            .lock()
            .snapshots
            .iter()
            .map(|r| SnapshotInfo {
                id: r.id,
                name: r.name.clone(),
            })
            .collect()
    }

    /// Revert the guest-visible state to snapshot `id`. The snapshot itself
    /// is kept (revert again any time).
    pub fn apply_snapshot(&self, id: u32) -> Result<()> {
        if self.read_only {
            return Err(BlockError::read_only("revert on read-only image"));
        }
        let mut st = self.state.lock();
        let rec = st
            .snapshots
            .iter()
            .find(|r| r.id == id)
            .cloned()
            .ok_or_else(|| BlockError::unsupported(format!("no snapshot with id {id}")))?;
        if rec.l1_entries as usize != st.l1.len() {
            return Err(BlockError::unsupported(
                "snapshot predates a resize; apply is not supported across resizes",
            ));
        }
        // Load the frozen L1 and make it active (memory + container).
        let mut raw = vec![0u8; rec.l1_entries as usize * 8];
        self.dev.read_at(&mut raw, rec.l1_offset)?;
        self.dev.write_at(&raw, self.header.l1_table_offset)?;
        st.l1 = decode_entries(&raw);
        st.l2.clear();
        // The active tree is now shared with the snapshot: refreeze.
        self.recompute_frozen(&mut st)?;
        self.obs.count(met::SNAPSHOT_APPLIES, 1);
        self.paranoid_audit(&st, "apply_snapshot");
        Ok(())
    }

    /// Delete snapshot `id`. Clusters referenced only by it become leaks
    /// (report via `check`; reclaim with `compact` once no snapshots
    /// remain).
    pub fn delete_snapshot(&self, id: u32) -> Result<()> {
        if self.read_only {
            return Err(BlockError::read_only("delete on read-only image"));
        }
        let mut st = self.state.lock();
        let before = st.snapshots.len();
        st.snapshots.retain(|r| r.id != id);
        if st.snapshots.len() == before {
            return Err(BlockError::unsupported(format!("no snapshot with id {id}")));
        }
        self.persist_snapshot_table(&mut st)?;
        self.recompute_frozen(&mut st)?;
        self.obs.count(met::SNAPSHOT_DELETES, 1);
        self.paranoid_audit(&st, "delete_snapshot");
        Ok(())
    }

    /// Count of container clusters referenced by snapshot metadata and
    /// trees (used by `check`'s leak accounting).
    pub fn snapshot_refs(&self) -> Result<HashSet<u64>> {
        let st = self.state.lock();
        let mut refs = HashSet::new();
        let cs = self.geom.cluster_size() as usize;
        for rec in &st.snapshots {
            // The L1 copy region itself, and the tree it pins.
            let l1_end = rec.l1_offset + self.geom.l1_table_bytes();
            refs.extend((rec.l1_offset..l1_end).step_by(cs));
            self.walk_tree(rec.l1_offset, rec.l1_entries as usize, |cluster| {
                refs.insert(cluster);
            })?;
        }
        // The current snapshot table region.
        if let Some((start, end)) = self.snaptab_region(&st) {
            refs.extend((start..end).step_by(cs));
        }
        Ok(refs)
    }

    /// Persist the snapshot table, reusing the existing table region when
    /// the new encoding fits (so table churn does not leak clusters); only
    /// growth allocates a new region (the old one then becomes a leak,
    /// reclaimable by `compact` once all snapshots are gone).
    fn persist_snapshot_table(&self, st: &mut MutState) -> Result<()> {
        let encoded = encode_table(&st.snapshots);
        let existing_region = self.geom.align_up(st.snaptab.len as u64);
        let (offset, len) = if encoded.is_empty() {
            // Keep the (empty) region for reuse by the next snapshot.
            (st.snaptab.offset, 0u32)
        } else if st.snaptab.offset != 0
            && self.geom.align_up(encoded.len() as u64)
                <= existing_region.max(self.geom.cluster_size())
        {
            self.dev.write_at(&encoded, st.snaptab.offset)?;
            (st.snaptab.offset, encoded.len() as u32)
        } else {
            let region = self
                .geom
                .align_up(encoded.len() as u64)
                .max(self.geom.cluster_size());
            let off = st.eof;
            st.eof += region;
            st.cache_used += region;
            self.dev.write_at(&encoded, off)?;
            (off, encoded.len() as u32)
        };
        let tab = crate::header::SnapTabExt {
            offset,
            len,
            count: st.snapshots.len() as u32,
        };
        Header::update_snaptab(self.dev.as_ref() as &dyn BlockDev, tab)?;
        st.snaptab = tab;
        Ok(())
    }

    /// Container byte range of the live snapshot-table region, if one was
    /// ever allocated (kept for reuse even when currently empty).
    fn snaptab_region(&self, st: &MutState) -> Option<(u64, u64)> {
        (st.snaptab.offset != 0).then(|| {
            (
                st.snaptab.offset,
                st.snaptab.offset
                    + self
                        .geom
                        .align_up(st.snaptab.len as u64)
                        .max(self.geom.cluster_size()),
            )
        })
    }

    /// Freeze every cluster reachable from the active L1.
    fn freeze_active_tree(&self, st: &mut MutState) -> Result<()> {
        let MutState { l1, frozen, .. } = st;
        self.walk_l1(l1, |cluster| {
            frozen.insert(cluster);
        })
    }

    /// Rebuild the frozen set from the remaining snapshots' trees.
    pub(crate) fn recompute_frozen(&self, st: &mut MutState) -> Result<()> {
        let mut frozen = HashSet::new();
        for rec in &st.snapshots {
            self.walk_tree(rec.l1_offset, rec.l1_entries as usize, |cluster| {
                frozen.insert(cluster);
            })?;
        }
        st.frozen = frozen;
        Ok(())
    }

    /// Visit every L2-table and data cluster reachable from an L1 stored at
    /// `l1_offset`.
    fn walk_tree(&self, l1_offset: u64, l1_entries: usize, visit: impl FnMut(u64)) -> Result<()> {
        let mut raw = vec![0u8; l1_entries * 8];
        self.dev.read_at(&mut raw, l1_offset)?;
        self.walk_l1(&decode_entries(&raw), visit)
    }

    /// Visit every L2-table and data cluster reachable from the L1 table
    /// `l1`.
    fn walk_l1(&self, l1: &[u64], mut visit: impl FnMut(u64)) -> Result<()> {
        for &l2_off in l1.iter().filter(|&&e| e != UNALLOCATED) {
            visit(l2_off);
            for &doff in self
                .read_l2_table(l2_off)?
                .iter()
                .filter(|&&d| d != UNALLOCATED)
            {
                visit(doff);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let recs = vec![
            SnapshotRec {
                id: 1,
                name: "clean-install".into(),
                l1_offset: 65536,
                l1_entries: 16,
            },
            SnapshotRec {
                id: 7,
                name: "booted".into(),
                l1_offset: 131072,
                l1_entries: 16,
            },
        ];
        let raw = encode_table(&recs);
        let back = decode_table(&raw, 2).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_table() {
        assert!(decode_table(&[], 0).unwrap().is_empty());
        assert!(encode_table(&[]).is_empty());
    }

    #[test]
    fn truncated_table_rejected() {
        let recs = vec![SnapshotRec {
            id: 1,
            name: "x".into(),
            l1_offset: 0,
            l1_entries: 1,
        }];
        let raw = encode_table(&recs);
        assert!(decode_table(&raw[..raw.len() - 1], 1).is_err());
        assert!(decode_table(&raw, 2).is_err(), "count beyond data");
    }
}
