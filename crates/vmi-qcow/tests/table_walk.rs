//! The open-time table walk reads the L1 in pieces and adjacent L2 tables
//! together, on a cache with a 2 MiB L1 (8 GiB of 512 B clusters):
//!
//! * no read is larger than `TABLE_READ_BYTES` (or one cluster), every L1
//!   byte and every table is read exactly once, and the walk makes one read
//!   per L1 piece plus one per run of adjacent tables;
//! * an unreadable L1 piece, an unreadable table inside a run and a
//!   container cut inside the L1's last piece each give the report an
//!   unreadable or short L1 or table has always given.

use std::sync::Arc;

use parking_lot::Mutex;
use vmi_audit::audit_image;
use vmi_blockdev::{
    be_u64, BlockDev, BlockErrorKind, ByteRange, FaultDev, FaultPlan, FaultSite, MemDev,
    Result as DevResult, SharedDev, SparseDev, TABLE_READ_BYTES,
};
use vmi_obs::Obs;
use vmi_qcow::{open_cache_recovered, CreateOpts, Header, QcowImage};

const VSIZE: u64 = 8 << 30;
const CS: u64 = 512;
/// Guest bytes one L1 piece maps: 8 192 entries of 32 KiB.
const PIECE_SPAN: u64 = TABLE_READ_BYTES / 8 * (CS / 8 * CS);

/// A closed cache over an 8 GiB sparse base, warmed by fills that land in
/// the first, a middle and the last L1 piece, one of them across the
/// boundary between two pieces.
fn warm_cache() -> (Vec<u8>, SharedDev) {
    let base: SharedDev = Arc::new(SparseDev::with_len(VSIZE));
    for (i, off) in [0, PIECE_SPAN - 4096, 3 << 30, VSIZE - 8192]
        .into_iter()
        .enumerate()
    {
        base.write_at(&[i as u8 + 1; 4096], off).unwrap();
    }
    let dev = Arc::new(MemDev::new());
    let cache = QcowImage::create(
        dev.clone() as SharedDev,
        CreateOpts::cache(VSIZE, "base", 64 << 20).with_cluster_bits(9),
        Some(base.clone()),
    )
    .unwrap();
    let fills = [
        (0, 256 << 10),
        (PIECE_SPAN - (64 << 10), 128 << 10),
        ((3 << 30) + 1000, 100 << 10),
        (VSIZE - (64 << 10), 64 << 10),
    ];
    for (off, len) in fills {
        let mut buf = vec![0u8; len];
        cache.read_at(&mut buf, off).unwrap();
    }
    cache.close().unwrap();
    drop(cache);
    (dev.to_vec(), base)
}

/// `(L1 index, table offset)` of every allocated L2 table, in L1 order.
fn tables(dev: &dyn BlockDev) -> Vec<(u64, u64)> {
    let h = Header::decode(dev).unwrap();
    let mut raw = vec![0u8; h.l1_size as usize * 8];
    dev.read_at(&mut raw, h.l1_table_offset).unwrap();
    (0u64..)
        .zip(raw.chunks_exact(8).map(be_u64))
        .filter(|&(_, e)| e != 0)
        .collect()
}

/// Runs of tables that one read covers: each table right behind the one
/// before it, named from the same L1 piece, at most `TABLE_READ_BYTES`.
fn runs(tables: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let per_piece = TABLE_READ_BYTES / 8;
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut prev: Option<(u64, u64)> = None;
    for &(idx, off) in tables {
        match (runs.last_mut(), prev) {
            (Some(run), Some((pidx, poff)))
                if pidx / per_piece == idx / per_piece
                    && off == poff + CS
                    && run.1 < TABLE_READ_BYTES / CS =>
            {
                run.1 += 1
            }
            _ => runs.push((off, 1)),
        }
        prev = Some((idx, off));
    }
    runs
}

/// A device that records the range of every read it serves.
struct Recording {
    inner: SharedDev,
    reads: Mutex<Vec<(u64, u64)>>,
}

impl BlockDev for Recording {
    fn read_at(&self, buf: &mut [u8], off: u64) -> DevResult<()> {
        self.reads.lock().push((off, buf.len() as u64));
        self.inner.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> DevResult<()> {
        self.inner.write_at(buf, off)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> DevResult<()> {
        self.inner.set_len(len)
    }
    fn flush(&self) -> DevResult<()> {
        self.inner.flush()
    }
}

#[test]
fn warm_open_reads_the_l1_in_pieces_and_adjacent_tables_together() {
    let (raw, base) = warm_cache();
    let inner: SharedDev = Arc::new(MemDev::from_vec(raw));
    let header = Header::decode(inner.as_ref()).unwrap();
    let (l1_off, l1_len) = (header.l1_table_offset, u64::from(header.l1_size) * 8);
    assert_eq!(l1_len, 2 << 20);
    let tables = tables(inner.as_ref());
    let runs = runs(&tables);
    assert!(runs.iter().any(|r| r.1 > 1), "some tables are adjacent");
    assert!(runs.len() < tables.len());

    let rec = Arc::new(Recording {
        inner,
        reads: Mutex::new(Vec::new()),
    });
    let cache = open_cache_recovered(rec.clone(), Some(base), false, Obs::disabled())
        .unwrap()
        .expect("clean cache opens");
    let reads = rec.reads.lock().clone();

    let largest = reads.iter().map(|r| r.1).max().unwrap();
    assert!(largest <= TABLE_READ_BYTES.max(CS), "a {largest} B read");

    // The L1 reads tile the table once, in order.
    let mut l1_reads: Vec<_> = reads
        .iter()
        .filter(|&&(o, l)| o < l1_off + l1_len && l1_off < o + l)
        .copied()
        .collect();
    l1_reads.sort_unstable();
    let mut at = l1_off;
    for (o, l) in &l1_reads {
        assert_eq!(*o, at, "L1 read gap or overlap");
        at += l;
    }
    assert_eq!(at, l1_off + l1_len);
    assert_eq!(l1_reads.len() as u64, l1_len.div_ceil(TABLE_READ_BYTES));

    for &(idx, off) in &tables {
        let n = reads
            .iter()
            .filter(|&&(o, l)| o < off + CS && off < o + l)
            .count();
        assert_eq!(n, 1, "L2 table of L1[{idx}] at {off:#x}");
    }
    let header_reads = reads.iter().filter(|r| r.0 < CS).count();
    assert!(header_reads >= 1);
    assert_eq!(reads.len(), header_reads + l1_reads.len() + runs.len());

    // The seeded image serves the fills without a device read for tables.
    rec.reads.lock().clear();
    let mut buf = [0u8; 4096];
    cache.read_at(&mut buf, 3 << 30).unwrap();
    assert_eq!(buf, [3u8; 4096]);
    assert_eq!(rec.reads.lock().len(), 1, "one data read, no table read");
}

/// The audit report of `dev`, one violation per line, then its counts.
fn report(dev: &dyn BlockDev) -> String {
    let rep = audit_image(dev);
    let mut out: Vec<String> = rep.violations.iter().map(|v| v.to_string()).collect();
    out.push(format!(
        "tables {} data {} used {}",
        rep.l2_tables, rep.data_clusters, rep.recomputed_used
    ));
    out.join("\n")
}

fn faulty(raw: Vec<u8>, off: u64, len: u64) -> FaultDev {
    let dev = FaultDev::new(Arc::new(MemDev::from_vec(raw)));
    dev.inject(FaultPlan::Range {
        site: FaultSite::Read,
        range: ByteRange::at(off, len),
        kind: BlockErrorKind::Io,
    });
    dev
}

#[test]
fn clean_walk_report_is_pinned() {
    let (raw, _base) = warm_cache();
    let dev = MemDev::from_vec(raw);
    assert_eq!(report(&dev), "tables 18 data 1097 used 2668544");
}

#[test]
fn unreadable_l1_piece_reports_the_truncated_l1_alone() {
    let (raw, _base) = warm_cache();
    let dev = faulty(raw, 0x200 + TABLE_READ_BYTES + 8, 8);
    assert_eq!(
        report(&dev),
        "[error] truncated_l1: L1 table at 0x200+2097152 extends past container end 0x28b800\n\
         tables 0 data 0 used 0"
    );
}

#[test]
fn unreadable_table_in_a_run_is_named_alone() {
    let (raw, _base) = warm_cache();
    let tables = tables(&MemDev::from_vec(raw.clone()));
    let run = runs(&tables).into_iter().find(|r| r.1 > 2).unwrap();
    assert_eq!(run.0 + CS, 0x200400, "the second table of a run");
    let dev = faulty(raw, 0x200400 + 100, 1);
    assert_eq!(
        report(&dev),
        "[error] truncated_l2: unreadable L2 table at 0x200400\n\
         [warning] used_size_mismatch: recorded used 2668544 != referenced 2635776 (torn flush)\n\
         tables 18 data 1033 used 2635776"
    );
}

#[test]
fn container_cut_inside_the_last_l1_piece_reports_the_truncated_l1_alone() {
    let (raw, _base) = warm_cache();
    let dev = MemDev::from_vec(raw);
    dev.set_len(0x200 + (2 << 20) - 100).unwrap();
    assert_eq!(
        report(&dev),
        "[error] truncated_l1: L1 table at 0x200+2097152 extends past container end 0x200200\n\
         tables 0 data 0 used 0"
    );
}
