//! Single-container audit: the fsck walk over header, L1, and L2 tables.

use std::collections::HashMap;

use vmi_blockdev::{be_u64, read_in_pieces, BlockDev, TABLE_READ_BYTES};
use vmi_obs::{met, Event, Obs};

use crate::format::{parse_header, Geom};
use crate::{AuditOpts, AuditReport, RepairHint, Severity, Violation, ViolationKind};

/// Receives the mapping tables an audit walk reads, as the raw bytes read
/// from the device.
///
/// Once the L1 table's placement and bounds are checked, the walk calls
/// [`TableVisitor::begin`] with its length and then hands it over in order,
/// one piece of at most [`TABLE_READ_BYTES`] per [`TableVisitor::l1`] call.
/// After each piece come, through [`TableVisitor::l2`] and in L1 order, the
/// L2 tables its entries name that are aligned, in bounds and readable. A
/// walk whose L1 turns out unreadable part-way has handed over a prefix of
/// it and reports [`ViolationKind::TruncatedL1`] alone. Whether the entries
/// *inside* a table are sound is the report's business: a caller that
/// trusts the tables must check that the report is clean. A caller that
/// keeps the tables of the last of several walks starts over in `begin`,
/// which opens every walk that reaches the tables.
///
/// Only bytes cross this interface, never decoded entries, so a consumer's
/// own decoder stays independent of the checker's.
pub trait TableVisitor {
    /// A walk reached the tables; its L1 table has `l1_entries` entries.
    fn begin(&mut self, l1_entries: usize);
    /// The next piece of the L1 table: a whole number of entries.
    fn l1(&mut self, raw: &[u8]);
    /// One L2 table (one cluster), referenced by L1 entry `l1_index`.
    fn l2(&mut self, l1_index: u64, raw: &[u8]);
}

/// The visitor that keeps nothing.
impl TableVisitor for () {
    fn begin(&mut self, _l1_entries: usize) {}
    fn l1(&mut self, _raw: &[u8]) {}
    fn l2(&mut self, _l1_index: u64, _raw: &[u8]) {}
}

/// The walk's L2 table reads. A table whose next nonzero L1 entries in the
/// same L1 piece name the clusters right behind it is read together with
/// them, in one read of at most [`TABLE_READ_BYTES`] (or one cluster, when
/// clusters are larger), into one reused buffer. Cache fills place their
/// tables ahead of their data, so a fill's tables are adjacent.
struct TableReads {
    buf: Vec<u8>,
    cs: usize,
    /// Container offset of the run in `buf`.
    start: u64,
    /// Tables in the run, and how many of them were handed out.
    len: usize,
    next: usize,
    /// `false` once the run's one read failed: its tables are then read
    /// one by one, so an unreadable table is named as if read alone.
    whole: bool,
}

impl TableReads {
    fn new(cs: u64) -> Self {
        Self {
            buf: vec![0; TABLE_READ_BYTES.max(cs) as usize],
            cs: cs as usize,
            start: 0,
            len: 0,
            next: 0,
            whole: false,
        }
    }

    /// The table at `off` (aligned, and in bounds of `file_end`), followed
    /// in its L1 piece by the entries `ahead`; `None` when unreadable.
    fn table(
        &mut self,
        dev: &dyn BlockDev,
        off: u64,
        ahead: &[u8],
        file_end: u64,
    ) -> Option<&[u8]> {
        let cs = self.cs;
        let planned =
            self.next < self.len && Some(off) == self.start.checked_add((self.next * cs) as u64);
        if !planned {
            let max = self.buf.len() / cs;
            let mut len = 1;
            for e in ahead.chunks_exact(8).map(be_u64).filter(|&e| e != 0) {
                let behind = off.checked_add((len * cs) as u64);
                let in_bounds = e.checked_add(cs as u64).is_some_and(|end| end <= file_end);
                if len == max || Some(e) != behind || !in_bounds {
                    break;
                }
                len += 1;
            }
            (self.start, self.len, self.next) = (off, len, 0);
            self.whole = dev.read_at(&mut self.buf[..len * cs], off).is_ok();
        }
        let i = self.next;
        self.next += 1;
        if self.whole {
            return Some(&self.buf[i * cs..(i + 1) * cs]);
        }
        if !planned && self.len == 1 {
            // The failed read was this table's own.
            return None;
        }
        let table = &mut self.buf[..cs];
        dev.read_at(table, off).ok()?;
        Some(table)
    }
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
    let truncated_l1 = || {
        Violation::error(
            ViolationKind::TruncatedL1,
            format!(
                "L1 table at {:#x}+{} extends past container end {:#x}",
                raw.l1_table_offset, l1_bytes, file_end
            ),
        )
    };
    if raw
        .l1_table_offset
        .checked_add(l1_bytes)
        .is_none_or(|end| end > file_end)
    {
        rep.violations.push(truncated_l1());
        return rep;
    }

    // Cluster-reference map for overlap detection: the header cluster and
    // the L1 table clusters are implicitly referenced. Every cluster it
    // tracks lies below `file_end`: references at or past it are reported
    // out of bounds and can never alias an in-bounds cluster.
    let mut refs = ClusterSet::new();
    refs.insert(0);
    for c in 0..l1_bytes / cs {
        refs.insert(raw.l1_table_offset / cs + c);
    }

    let mut l2_tables = 0u64;
    let mut data_clusters = 0u64;
    let push = |rep: &mut AuditReport, v: Violation| {
        if rep.violations.len() < cap {
            rep.violations.push(v);
        }
    };
    let mut reads = TableReads::new(cs);

    tables.begin(raw.l1_size as usize);
    // Each piece of the L1 is walked, its tables read, before the next is.
    let l1_len = u64::from(raw.l1_size) * 8;
    let l1_read = read_in_pieces(dev, raw.l1_table_offset, l1_len, |start, piece| {
        tables.l1(piece);
        for (i, e) in piece.chunks_exact(8).enumerate() {
            let l1_idx = start / 8 + i as u64;
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
                    .with_repair(RepairHint::ClearL1Entry { index: l1_idx }),
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
                        format!(
                            "L1[{l1_idx}] invalid: {l2_off:#x} past container end {file_end:#x}"
                        ),
                    )
                    .with_repair(RepairHint::ClearL1Entry { index: l1_idx }),
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
            let Some(l2_raw) = reads.table(dev, l2_off, &piece[(i + 1) * 8..], file_end) else {
                push(
                    &mut rep,
                    Violation::error(
                        ViolationKind::TruncatedL2,
                        format!("unreadable L2 table at {l2_off:#x}"),
                    ),
                );
                continue;
            };
            tables.l2(l1_idx, l2_raw);
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
                            l1_index: l1_idx,
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
                            l1_index: l1_idx,
                            l2_index: l2_idx as u64,
                        }),
                    );
                    continue;
                }
                let vba = geom.vba_of(l1_idx, l2_idx as u64);
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
    });
    if l1_read.is_err() {
        // An unreadable L1 is reported alone, as when it is out of bounds:
        // what the pieces before the failed one showed is dropped.
        rep.violations.clear();
        rep.violations.push(truncated_l1());
        return rep;
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
