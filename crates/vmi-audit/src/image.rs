//! Single-container audit: the fsck walk over header, L1, and L2 tables.

use std::collections::HashMap;

use vmi_blockdev::{be_u64, BlockDev};
use vmi_obs::{met, Event, Obs};

use crate::format::{parse_header, Geom};
use crate::{AuditOpts, AuditReport, RepairHint, Severity, Violation, ViolationKind};

/// Receives the mapping tables an audit walk reads, as the raw bytes read
/// from the device.
///
/// The walk calls [`TableVisitor::l1`] once, after the L1 table's placement
/// and bounds are checked and it was read, and then [`TableVisitor::l2`] for
/// every L2 table whose L1 entry is aligned and in bounds and which could be
/// read, in L1 order. Whether the entries *inside* a table are sound is the
/// report's business: a caller that trusts the tables must check that the
/// report is clean. A caller that keeps the tables of the last of several
/// walks starts over in `l1`, which opens every walk that reaches the tables.
///
/// Only bytes cross this interface, never decoded entries, so a consumer's
/// own decoder stays independent of the checker's.
pub trait TableVisitor {
    /// The whole L1 table (`l1_size` × 8 bytes).
    fn l1(&mut self, raw: &[u8]);
    /// One L2 table (one cluster), referenced by L1 entry `l1_index`.
    fn l2(&mut self, l1_index: u64, raw: &[u8]);
}

/// The visitor that keeps nothing.
impl TableVisitor for () {
    fn l1(&mut self, _raw: &[u8]) {}
    fn l2(&mut self, _l1_index: u64, _raw: &[u8]) {}
}

/// Words per bitmap page: 512 bytes, 4 096 container clusters.
const PAGE_WORDS: usize = 64;
const PAGE_BITS: u64 = 64 * PAGE_WORDS as u64;

/// The walk's overlap set: a bitmap over container cluster indices whose
/// pages are allocated the first time one of their clusters is inserted, so
/// its memory follows the clusters the tables reference, not the
/// container's apparent length. Walks reference clusters in long ascending
/// runs, so the last page touched is remembered and the page directory is
/// consulted only when a run crosses into another page.
struct ClusterSet {
    /// Page number → index into `pages`.
    dir: HashMap<u64, usize>,
    pages: Vec<[u64; PAGE_WORDS]>,
    /// `(page number, index)` of the last page touched.
    last: (u64, usize),
}

impl ClusterSet {
    fn new() -> Self {
        Self {
            dir: HashMap::new(),
            pages: Vec::new(),
            // No cluster index reaches page u64::MAX.
            last: (u64::MAX, 0),
        }
    }

    /// Add cluster `c`; `false` when it was already in the set.
    fn insert(&mut self, c: u64) -> bool {
        let (page, bit) = (c / PAGE_BITS, c % PAGE_BITS);
        if self.last.0 != page {
            let fresh = self.pages.len();
            let idx = *self.dir.entry(page).or_insert(fresh);
            if idx == fresh {
                self.pages.push([0; PAGE_WORDS]);
            }
            self.last = (page, idx);
        }
        let word = &mut self.pages[self.last.1][(bit / 64) as usize];
        let mask = 1u64 << (bit % 64);
        let absent = *word & mask == 0;
        *word |= mask;
        absent
    }
}

/// Audit one container with default options.
///
/// Never panics and never returns `Err`: problems — including I/O problems
/// reading the container — are reported as [`Violation`]s. The walk collects
/// as many findings as it can (up to [`AuditOpts::max_violations`]) instead
/// of stopping at the first, so one fsck run paints the whole picture.
pub fn audit_image(dev: &dyn BlockDev) -> AuditReport {
    walk(dev, &AuditOpts::default(), &mut ())
}

/// [`audit_image`] with `opts`, emitting an obs event and metrics per
/// violation, that also hands every mapping table the walk reads to
/// `tables` (see [`TableVisitor`]; `&mut ()` keeps none), so a caller that
/// opens the container after a clean audit need not read them a second
/// time.
pub fn audit_image_visit(
    dev: &dyn BlockDev,
    opts: &AuditOpts,
    obs: &Obs,
    tables: &mut dyn TableVisitor,
) -> AuditReport {
    obs.count(met::AUDIT_RUNS, 1);
    let report = walk(dev, opts, tables);
    for v in &report.violations {
        obs.count(met::AUDIT_VIOLATIONS, 1);
        obs.emit(|| Event::AuditViolation {
            kind: v.kind.as_str().to_string(),
            severity: v.severity.as_str().to_string(),
            detail: v.detail.clone(),
        });
    }
    report
}

fn walk(dev: &dyn BlockDev, opts: &AuditOpts, tables: &mut dyn TableVisitor) -> AuditReport {
    let mut rep = AuditReport::default();
    let cap = opts.cap();

    let raw = match parse_header(dev) {
        Ok(r) => r,
        Err(v) => {
            rep.violations.push(v);
            return rep;
        }
    };
    rep.is_cache = raw.cache.is_some();
    if let Some((quota, used)) = raw.cache {
        rep.quota = quota;
        rep.recorded_used = used;
    }

    let geom = match Geom::new(raw.cluster_bits, raw.size) {
        Ok(g) => g,
        Err(v) => {
            rep.violations.push(v);
            return rep;
        }
    };
    let cs = geom.cluster_size();
    if raw.l1_size as u64 != geom.l1_entries() {
        rep.violations.push(Violation::error(
            ViolationKind::L1SizeMismatch,
            format!(
                "l1_size {} does not match geometry ({} entries for size {} at {} B clusters)",
                raw.l1_size,
                geom.l1_entries(),
                raw.size,
                cs
            ),
        ));
        return rep;
    }

    // The container may legitimately be shorter than the last allocated
    // cluster's end (a tail data cluster is grown lazily by writes), so
    // bounds are checked against the cluster-aligned end of file.
    let file_end = geom.align_up(dev.len());

    // L1 placement: cluster-aligned, after the header cluster, in bounds.
    let l1_bytes = geom.l1_table_bytes();
    if raw.l1_table_offset % cs != 0 || raw.l1_table_offset < cs {
        rep.violations.push(Violation::error(
            ViolationKind::L1TableMisplaced,
            format!(
                "L1 table offset {:#x} is {} (cluster size {} B)",
                raw.l1_table_offset,
                if raw.l1_table_offset < cs {
                    "inside the header cluster"
                } else {
                    "not cluster-aligned"
                },
                cs
            ),
        ));
        return rep;
    }
    let mut l1_raw = vec![0u8; raw.l1_size as usize * 8];
    if raw.l1_table_offset + l1_bytes > file_end
        || dev.read_at(&mut l1_raw, raw.l1_table_offset).is_err()
    {
        rep.violations.push(Violation::error(
            ViolationKind::TruncatedL1,
            format!(
                "L1 table at {:#x}+{} extends past container end {:#x}",
                raw.l1_table_offset, l1_bytes, file_end
            ),
        ));
        return rep;
    }
    tables.l1(&l1_raw);

    // Cluster-reference map for overlap detection: the header cluster and
    // the L1 table clusters are implicitly referenced. Every cluster it
    // tracks lies below `file_end`: references at or past it are reported
    // out of bounds and can never alias an in-bounds cluster.
    let mut refs = ClusterSet::new();
    refs.insert(0);
    for c in 0..l1_bytes / cs {
        refs.insert(raw.l1_table_offset / cs + c);
    }
    if let Some((snap_off, snap_len, _count)) = raw.snaptab {
        // checked_add: a crafted pointer near u64::MAX is out of bounds,
        // not an overflow.
        let snap_end = snap_off.checked_add(u64::from(snap_len));
        if snap_len > 0 && (snap_end.is_none_or(|end| end > file_end) || snap_off % cs != 0) {
            rep.violations.push(Violation::error(
                ViolationKind::SnapshotTableInvalid,
                format!(
                    "snapshot table at {snap_off:#x}+{snap_len} is misaligned or out of bounds"
                ),
            ));
        }
        // The snapshot table's own clusters are allocated like any others;
        // only its in-bounds part can overlap anything.
        if snap_len > 0 {
            let end = snap_end.map_or(file_end, |end| end.min(file_end));
            for c in snap_off / cs..end.div_ceil(cs) {
                refs.insert(c);
            }
        }
    }

    let mut l2_tables = 0u64;
    let mut data_clusters = 0u64;
    let push = |rep: &mut AuditReport, v: Violation| {
        if rep.violations.len() < cap {
            rep.violations.push(v);
        }
    };
    let mut l2_raw = vec![0u8; cs as usize];

    for (l1_idx, e) in l1_raw.chunks_exact(8).enumerate() {
        let l2_off = be_u64(e);
        if l2_off == 0 {
            continue;
        }
        l2_tables += 1;
        if l2_off % cs != 0 {
            push(
                &mut rep,
                Violation::error(
                    ViolationKind::L1EntryUnaligned,
                    format!("L1[{l1_idx}] invalid: {l2_off:#x} not aligned to {cs} B clusters"),
                )
                .with_repair(RepairHint::ClearL1Entry {
                    index: l1_idx as u64,
                }),
            );
            continue;
        }
        // checked_add: a crafted entry near u64::MAX must be flagged as
        // out-of-bounds, not overflow the bound computation.
        if l2_off.checked_add(cs).is_none_or(|end| end > file_end) {
            push(
                &mut rep,
                Violation::error(
                    ViolationKind::L1EntryOutOfBounds,
                    format!("L1[{l1_idx}] invalid: {l2_off:#x} past container end {file_end:#x}"),
                )
                .with_repair(RepairHint::ClearL1Entry {
                    index: l1_idx as u64,
                }),
            );
            continue;
        }
        if !refs.insert(l2_off / cs) {
            push(
                &mut rep,
                Violation::error(
                    ViolationKind::OverlappingClusters,
                    format!(
                        "L1[{l1_idx}] L2 table at {l2_off:#x} overlaps an already-referenced cluster"
                    ),
                ),
            );
        }
        if dev.read_at(&mut l2_raw, l2_off).is_err() {
            push(
                &mut rep,
                Violation::error(
                    ViolationKind::TruncatedL2,
                    format!("unreadable L2 table at {l2_off:#x}"),
                ),
            );
            continue;
        }
        tables.l2(l1_idx as u64, &l2_raw);
        for (l2_idx, d) in l2_raw.chunks_exact(8).enumerate() {
            let doff = be_u64(d);
            if doff == 0 {
                continue;
            }
            data_clusters += 1;
            if doff % cs != 0 {
                push(
                    &mut rep,
                    Violation::error(
                        ViolationKind::L2EntryUnaligned,
                        format!(
                            "L2[{l1_idx}][{l2_idx}] invalid: {doff:#x} not aligned to {cs} B clusters"
                        ),
                    )
                    .with_repair(RepairHint::ClearL2Entry {
                        l1_index: l1_idx as u64,
                        l2_index: l2_idx as u64,
                    }),
                );
                continue;
            }
            if doff.checked_add(cs).is_none_or(|end| end > file_end) {
                push(
                    &mut rep,
                    Violation::error(
                        ViolationKind::L2EntryOutOfBounds,
                        format!(
                            "L2[{l1_idx}][{l2_idx}] invalid: {doff:#x} past container end {file_end:#x}"
                        ),
                    )
                    .with_repair(RepairHint::ClearL2Entry {
                        l1_index: l1_idx as u64,
                        l2_index: l2_idx as u64,
                    }),
                );
                continue;
            }
            let vba = geom.vba_of(l1_idx as u64, l2_idx as u64);
            if vba >= raw.size {
                push(
                    &mut rep,
                    Violation::error(
                        ViolationKind::L2EntryOutOfBounds,
                        format!(
                            "L2[{l1_idx}][{l2_idx}] maps guest address {vba:#x} beyond virtual size {:#x}",
                            raw.size
                        ),
                    ),
                );
                continue;
            }
            if !refs.insert(doff / cs) {
                push(
                    &mut rep,
                    Violation::error(
                        ViolationKind::OverlappingClusters,
                        format!(
                            "L2[{l1_idx}][{l2_idx}] data cluster at {doff:#x} overlaps an already-referenced cluster"
                        ),
                    ),
                );
            }
        }
    }
    rep.l2_tables = l2_tables;
    rep.data_clusters = data_clusters;

    // §4.3 accounting ground truth: header cluster + L1 table + every
    // allocated (L2 or data) cluster. The header's recorded value is only a
    // cached copy written back at close.
    let recomputed = cs + l1_bytes + (l2_tables + data_clusters) * cs;
    rep.recomputed_used = recomputed;

    if let Some((quota, recorded)) = raw.cache {
        // A fresh cache legitimately starts above a tiny quota: creation
        // always costs the header cluster + L1 table.
        let initial = cs + l1_bytes;
        if recomputed > quota.max(initial) {
            push(
                &mut rep,
                Violation::error(
                    ViolationKind::QuotaExceeded,
                    format!("referenced clusters ({recomputed} bytes) exceed quota {quota}"),
                )
                .with_repair(RepairHint::DiscardCache),
            );
        } else {
            let expected = opts.expected_used.unwrap_or(recorded);
            if recomputed != expected {
                push(
                    &mut rep,
                    Violation {
                        kind: ViolationKind::UsedSizeMismatch,
                        severity: Severity::Warning,
                        detail: format!(
                            "recorded used {expected} != referenced {recomputed} (torn flush)"
                        ),
                        repair: RepairHint::RewriteUsedSize(recomputed),
                    },
                );
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_set_reports_repeats() {
        let mut set = ClusterSet::new();
        for c in [0, 1, 63, 64, PAGE_BITS - 1, PAGE_BITS, 7 * PAGE_BITS + 5] {
            assert!(set.insert(c), "{c} is new");
            assert!(!set.insert(c), "{c} is a repeat");
        }
        // Revisiting an earlier page after the memo moved on.
        assert!(!set.insert(1));
        assert!(set.insert(2));
        assert_eq!(set.pages.len(), 3);
    }

    #[test]
    fn cluster_set_memory_follows_references_not_extent() {
        // The last cluster of a 1 TiB container of 512 B clusters: one page,
        // not a bitmap over 2^31 clusters.
        let mut set = ClusterSet::new();
        assert!(set.insert(0));
        assert!(set.insert((1u64 << 40) / 512 - 1));
        assert!(set.insert(u64::MAX / 512));
        assert_eq!(set.pages.len(), 3);
        assert_eq!(set.dir.len(), 3);
    }
}
