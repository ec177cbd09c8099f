//! Property tests pinning the extent-coalesced I/O engine to the scalar
//! per-cluster path: for arbitrary sparse base layouts, cluster sizes, op
//! sequences, and quota latch points, both modes must produce bit-identical
//! guest data, identical copy-on-read accounting, and — because fresh
//! images allocate with the same bump sequence either way — byte-identical
//! cache containers. A last property pins what a copy-on-write merge reads
//! from the backing chain.

use std::sync::Arc;

use proptest::prelude::*;
use vmi_blockdev::{BlockDev, CountingDev, MemDev, SharedDev};
use vmi_obs::Obs;
use vmi_qcow::{CorStats, CreateOpts, QcowImage};

const VSIZE: u64 = 1 << 20;

/// One guest operation against the cache layer.
#[derive(Debug, Clone)]
enum Op {
    Read { off: u64, len: usize },
    Write { off: u64, len: usize, fill: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let span = (0u64..VSIZE, 1usize..64 << 10);
    prop_oneof![
        span.clone().prop_map(|(off, len)| Op::Read { off, len }),
        (span, any::<u8>()).prop_map(|((off, len), fill)| Op::Write { off, len, fill }),
    ]
}

/// Sparse base content: a handful of patterned segments over zeroes.
fn base_strategy() -> impl Strategy<Value = Vec<(u64, usize, u8)>> {
    proptest::collection::vec((0u64..VSIZE, 1usize..16 << 10, 1u8..=255), 0..6)
}

/// The L1 indices of the L2 tables an audit walk reads that hold no
/// nonzero entry.
struct EmptyTables(Vec<u64>);

impl vmi_audit::TableVisitor for EmptyTables {
    fn begin(&mut self, _l1_entries: usize) {}

    fn l1(&mut self, _raw: &[u8]) {}

    fn l2(&mut self, l1_index: u64, raw: &[u8]) {
        if raw.iter().all(|&b| b == 0) {
            self.0.push(l1_index);
        }
    }
}

/// What one mode observed: per-op outcomes, final image, and accounting.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-op result: read data, or the error kind as a string.
    ops: Vec<std::result::Result<Vec<u8>, String>>,
    /// Full guest readback after the sequence.
    image: Vec<u8>,
    stats: CorStats,
    cache_used: u64,
    fill_enabled: bool,
    /// Raw container bytes after close.
    container: Vec<u8>,
}

fn run_mode(
    coalesce: bool,
    cluster_bits: u32,
    base_segs: &[(u64, usize, u8)],
    quota: u64,
    ops: &[Op],
) -> Observed {
    let base = QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        CreateOpts::plain(VSIZE),
        None,
    )
    .unwrap();
    for &(off, len, fill) in base_segs {
        let len = len.min((VSIZE - off) as usize);
        base.write_at(&vec![fill; len], off).unwrap();
    }
    let cache_mem = Arc::new(MemDev::new());
    let cache = QcowImage::create(
        cache_mem.clone() as SharedDev,
        CreateOpts::cache(VSIZE, "b", quota).with_cluster_bits(cluster_bits),
        Some(base as SharedDev),
    )
    .unwrap();
    cache.set_coalescing(coalesce);
    let mut results = Vec::with_capacity(ops.len());
    for op in ops {
        let res = match op {
            Op::Read { off, len } => {
                let len = (*len).min((VSIZE - off) as usize);
                let mut buf = vec![0u8; len];
                cache
                    .read_at(&mut buf, *off)
                    .map(|()| buf)
                    .map_err(|e| format!("{:?}", e.kind()))
            }
            Op::Write { off, len, fill } => {
                let len = (*len).min((VSIZE - off) as usize);
                cache
                    .write_at(&vec![*fill; len], *off)
                    .map(|()| Vec::new())
                    .map_err(|e| format!("{:?}", e.kind()))
            }
        };
        results.push(res);
    }
    let mut image = vec![0u8; VSIZE as usize];
    cache.read_at(&mut image, 0).unwrap();
    let stats = cache.cor_stats();
    let cache_used = cache.cache_used();
    let fill_enabled = cache.fill_enabled();
    cache.close().unwrap();
    Observed {
        ops: results,
        image,
        stats,
        cache_used,
        fill_enabled,
        container: cache_mem.to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Arbitrary sparse layouts and op sequences with an ample quota:
    /// everything down to the container bytes must match.
    #[test]
    fn coalesced_matches_scalar_on_sparse_layouts(
        cluster_bits in 9u32..=12,
        base_segs in base_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let quota = 4 * VSIZE; // never latches
        let scalar = run_mode(false, cluster_bits, &base_segs, quota, &ops);
        let coalesced = run_mode(true, cluster_bits, &base_segs, quota, &ops);
        prop_assert_eq!(&scalar.ops, &coalesced.ops, "per-op outcomes diverged");
        prop_assert_eq!(&scalar.image, &coalesced.image, "guest data diverged");
        prop_assert_eq!(scalar.stats, coalesced.stats);
        prop_assert_eq!(scalar.cache_used, coalesced.cache_used);
        prop_assert_eq!(
            &scalar.container,
            &coalesced.container,
            "container bytes diverged"
        );
    }

    /// Quota latch points: a tight quota hits `no_space` mid-sequence. The
    /// latch must trip at the same byte count and leave identical caches —
    /// coalescing must not fill more (or less) than the scalar path before
    /// rejecting.
    #[test]
    fn quota_latch_is_mode_independent(
        cluster_bits in 9u32..=11,
        quota_clusters in 1u64..64,
        base_segs in base_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let quota = quota_clusters << cluster_bits;
        let scalar = run_mode(false, cluster_bits, &base_segs, quota, &ops);
        let coalesced = run_mode(true, cluster_bits, &base_segs, quota, &ops);
        prop_assert_eq!(
            scalar.fill_enabled,
            coalesced.fill_enabled,
            "latch state diverged"
        );
        prop_assert_eq!(&scalar.ops, &coalesced.ops, "per-op outcomes diverged");
        prop_assert_eq!(&scalar.image, &coalesced.image, "guest data diverged");
        prop_assert_eq!(scalar.stats, coalesced.stats);
        prop_assert_eq!(scalar.cache_used, coalesced.cache_used);
        prop_assert_eq!(&scalar.container, &coalesced.container);
    }

    /// Same tight quotas: every L2 table that reaches the container maps at
    /// least one cluster. Tables allocated ahead of their data must never
    /// take the quota that data needed.
    #[test]
    fn every_published_table_maps_a_cluster(
        coalesce in any::<bool>(),
        cluster_bits in 9u32..=11,
        quota_clusters in 1u64..64,
        base_segs in base_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..10),
    ) {
        let quota = quota_clusters << cluster_bits;
        let observed = run_mode(coalesce, cluster_bits, &base_segs, quota, &ops);
        let container = MemDev::from_vec(observed.container);
        let mut empty = EmptyTables(Vec::new());
        vmi_audit::audit_image_visit(&container, &Default::default(), &Obs::disabled(), &mut empty);
        prop_assert!(empty.0.is_empty(), "L2 tables under L1 {:?} map nothing", empty.0);
    }

    /// Partial writes to a CoW layer over sparse raw backing content, in
    /// either mode: the guest image equals a flat model, and the backing
    /// serves exactly what the first write to each cluster leaves
    /// uncovered (`cs` minus the bytes it covers), never a whole cluster.
    #[test]
    fn copy_up_reads_only_the_uncovered_bytes(
        coalesce in any::<bool>(),
        cluster_bits in 9u32..=16,
        base_segs in base_strategy(),
        writes in proptest::collection::vec((0u64..VSIZE, 1u64..64 << 10, any::<u8>()), 1..10),
    ) {
        let cs = 1u64 << cluster_bits;
        let mut model = vec![0u8; VSIZE as usize];
        for &(off, len, fill) in &base_segs {
            let end = (off + len as u64).min(VSIZE);
            model[off as usize..end as usize].fill(fill);
        }
        let backing = Arc::new(CountingDev::new(Arc::new(MemDev::from_vec(model.clone()))));
        let reads = backing.stats();
        let cow = QcowImage::create(
            Arc::new(MemDev::new()) as SharedDev,
            CreateOpts::cow(VSIZE, "b").with_cluster_bits(cluster_bits),
            Some(backing as SharedDev),
        )
        .unwrap();
        cow.set_coalescing(coalesce);
        reads.reset();
        let mut touched = vec![false; (VSIZE / cs) as usize];
        let mut expected = 0u64;
        for &(off, len, fill) in &writes {
            let end = (off + len).min(VSIZE);
            for c in off / cs..end.div_ceil(cs) {
                if !std::mem::replace(&mut touched[c as usize], true) {
                    let covered = end.min((c + 1) * cs) - off.max(c * cs);
                    expected += cs - covered;
                }
            }
            cow.write_at(&vec![fill; (end - off) as usize], off).unwrap();
            model[off as usize..end as usize].fill(fill);
        }
        prop_assert_eq!(reads.snapshot().read_bytes, expected, "backing bytes read");
        let mut image = vec![0u8; VSIZE as usize];
        cow.read_at(&mut image, 0).unwrap();
        prop_assert!(image == model, "guest image diverged from the flat model");
    }
}
