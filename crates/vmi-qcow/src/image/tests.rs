//! Whole-image behaviour through the public surface: create/open, reads
//! and writes over chains, copy-on-read accounting, the quota latch, and
//! the table-cache bound.

use std::sync::Arc;

use super::*;
use vmi_blockdev::MemDev;

fn mem() -> SharedDev {
    Arc::new(MemDev::new())
}

const MB: u64 = 1 << 20;

#[test]
fn create_open_roundtrip() {
    let dev = mem();
    {
        let img = QcowImage::create(dev.clone(), CreateOpts::plain(64 * MB), None).unwrap();
        img.write_at(b"hello qcow", 12345).unwrap();
        img.close().unwrap();
    }
    let img = QcowImage::open(dev, None, false).unwrap();
    let mut buf = [0u8; 10];
    img.read_at(&mut buf, 12345).unwrap();
    assert_eq!(&buf, b"hello qcow");
}

#[test]
fn unwritten_regions_read_zero() {
    let img = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    let mut buf = [7u8; 64];
    img.read_at(&mut buf, MB).unwrap();
    assert_eq!(buf, [0u8; 64]);
}

#[test]
fn cow_reads_fall_through_to_backing() {
    let base_dev = mem();
    let base = QcowImage::create(base_dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(b"base data", 1000).unwrap();
    let cow = QcowImage::create(
        mem(),
        CreateOpts::cow(4 * MB, "base"),
        Some(base.clone() as SharedDev),
    )
    .unwrap();
    let mut buf = [0u8; 9];
    cow.read_at(&mut buf, 1000).unwrap();
    assert_eq!(&buf, b"base data");
    // Write to the CoW layer shadows the base without touching it.
    cow.write_at(b"overlay!!", 1000).unwrap();
    cow.read_at(&mut buf, 1000).unwrap();
    assert_eq!(&buf, b"overlay!!");
    base.read_at(&mut buf, 1000).unwrap();
    assert_eq!(&buf, b"base data");
}

#[test]
fn cow_partial_cluster_write_merges_backing() {
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[0xAA; 65536], 0).unwrap(); // a full base cluster
    let cow =
        QcowImage::create(mem(), CreateOpts::cow(4 * MB, "b"), Some(base as SharedDev)).unwrap();
    cow.write_at(&[0xBB; 16], 100).unwrap();
    let mut buf = [0u8; 200];
    cow.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..100], &[0xAA; 100]);
    assert_eq!(&buf[100..116], &[0xBB; 16]);
    assert_eq!(&buf[116..], &[0xAA; 84]);
}

#[test]
fn read_past_virtual_size_errors() {
    let img = QcowImage::create(mem(), CreateOpts::plain(MB), None).unwrap();
    let mut buf = [0u8; 16];
    assert!(img.read_at(&mut buf, MB - 8).is_err());
    assert!(img.write_at(&buf, MB - 8).is_err());
}

#[test]
fn cold_read_span_tree_is_balanced_and_causal() {
    let clock = Arc::new(vmi_obs::ManualClock::new(0));
    let sink = vmi_obs::JsonlSink::new();
    let obs = Obs::new(clock, sink.clone());
    let base =
        QcowImage::create_with_obs(mem(), CreateOpts::plain(4 * MB), None, obs.clone()).unwrap();
    base.write_at(&[0x5A; 4096], 8192).unwrap();
    let cache = QcowImage::create_with_obs(
        mem(),
        CreateOpts::cache(4 * MB, "base", 2 * MB),
        Some(base.clone() as SharedDev),
        obs.clone(),
    )
    .unwrap();
    let mut buf = [0u8; 4096];
    cache.read_at(&mut buf, 8192).unwrap();
    assert_eq!(buf, [0x5A; 4096]);

    // Single-threaded flow: spans must close strictly LIFO, and every
    // parent must still be open when its child starts.
    let mut stack: Vec<u64> = Vec::new();
    let mut starts = std::collections::HashMap::new();
    for (_, ev) in sink.events() {
        match ev {
            Event::SpanStart {
                id,
                parent,
                kind,
                detail,
                ..
            } => {
                assert!(
                    parent == 0 || stack.contains(&parent),
                    "parent {parent} of {kind} not open"
                );
                stack.push(id);
                starts.insert(id, (kind, detail, parent));
            }
            Event::SpanEnd { id, .. } => {
                assert_eq!(stack.pop(), Some(id), "span end out of order");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unbalanced spans: {stack:?}");
    let kind_of = |id: u64| starts.get(&id).map(|(k, _, _)| k.as_str()).unwrap_or("");
    let mut base_read_under_fetch = false;
    let mut fill_under_read = false;
    for (kind, detail, parent) in starts.values() {
        if kind == "qcow.read" && detail.contains("layer=base") {
            assert_eq!(kind_of(*parent), "backing.fetch");
            base_read_under_fetch = true;
        }
        if kind == "cor.fill" {
            assert_eq!(kind_of(*parent), "qcow.read");
            fill_under_read = true;
        }
    }
    assert!(
        base_read_under_fetch,
        "base layer read must descend from backing.fetch"
    );
    assert!(
        fill_under_read,
        "copy-on-read fill must descend from qcow.read"
    );
}

#[test]
fn cache_image_fills_on_cold_read() {
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[0x5A; 4096], 8192).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(4 * MB, "base", 2 * MB),
        Some(base.clone() as SharedDev),
    )
    .unwrap();
    assert!(cache.is_cache());
    let mut buf = [0u8; 4096];
    cache.read_at(&mut buf, 8192).unwrap();
    assert_eq!(buf, [0x5A; 4096]);
    let s1 = cache.cor_stats();
    assert!(s1.miss_bytes >= 4096);
    assert!(s1.fill_bytes >= 4096);
    // Second read is warm: no more misses.
    cache.read_at(&mut buf, 8192).unwrap();
    let s2 = cache.cor_stats();
    assert_eq!(s2.miss_bytes, s1.miss_bytes);
    assert_eq!(s2.hit_bytes, s1.hit_bytes + 4096);
}

#[test]
fn cache_quota_latches_fill_off_but_keeps_serving() {
    let vsize = 4 * MB;
    let base = QcowImage::create(mem(), CreateOpts::plain(vsize), None).unwrap();
    for i in 0..64u64 {
        base.write_at(&[i as u8 + 1; 512], i * 512).unwrap();
    }
    // Tiny quota: initial metadata (512 B header cluster + L1) plus a
    // couple of clusters.
    let cache_opts = CreateOpts::cache(vsize, "base", 0); // compute below
    let g = Geometry::new(cache_opts.cluster_bits, vsize).unwrap();
    let quota = g.cluster_size() + g.l1_table_bytes() + 5 * g.cluster_size();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(vsize, "base", quota),
        Some(base.clone() as SharedDev),
    )
    .unwrap();
    let mut buf = [0u8; 512];
    let mut served = 0;
    for i in 0..64u64 {
        cache.read_at(&mut buf, i * 512).unwrap();
        assert_eq!(buf, [i as u8 + 1; 512], "guest data correct past quota");
        served += 1;
    }
    assert_eq!(served, 64);
    assert!(!cache.fill_enabled(), "fills must latch off");
    assert!(cache.cor_stats().fill_rejects >= 1);
    assert!(cache.cache_used() <= quota, "quota never exceeded");
}

#[test]
fn cache_used_persists_on_close() {
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[1; 8192], 0).unwrap();
    let cache_dev = mem();
    let used;
    {
        let cache = QcowImage::create(
            cache_dev.clone(),
            CreateOpts::cache(4 * MB, "base", 2 * MB),
            Some(base.clone() as SharedDev),
        )
        .unwrap();
        let mut buf = [0u8; 8192];
        cache.read_at(&mut buf, 0).unwrap();
        used = cache.cache_used();
        cache.close().unwrap();
    }
    let reopened = QcowImage::open(cache_dev, Some(base as SharedDev), false).unwrap();
    assert_eq!(reopened.cache_used(), used);
    assert_eq!(reopened.header().cache.unwrap().used, used);
    // Warm read — no misses.
    let mut buf = [0u8; 8192];
    reopened.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [1; 8192]);
    assert_eq!(reopened.cor_stats().miss_bytes, 0);
}

#[test]
fn read_only_image_does_not_fill() {
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[9; 1024], 0).unwrap();
    let cache_dev = mem();
    {
        let c = QcowImage::create(
            cache_dev.clone(),
            CreateOpts::cache(4 * MB, "base", 2 * MB),
            Some(base.clone() as SharedDev),
        )
        .unwrap();
        c.close().unwrap();
    }
    let cache = QcowImage::open(cache_dev.clone(), Some(base as SharedDev), true).unwrap();
    let before = cache_dev.len();
    let mut buf = [0u8; 1024];
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [9; 1024]);
    assert_eq!(cache_dev.len(), before, "read-only cache must not grow");
    assert_eq!(cache.cor_stats().fill_bytes, 0);
    assert!(cache.write_at(&[0; 16], 0).is_err());
}

#[test]
fn three_layer_chain_reads_through() {
    // Base <- Cache <- CoW, the paper's Fig. 4 arrangement.
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[3; 2048], 4096).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(4 * MB, "base", 2 * MB),
        Some(base.clone() as SharedDev),
    )
    .unwrap();
    let cow = QcowImage::create(
        mem(),
        CreateOpts::cow(4 * MB, "cache"),
        Some(cache.clone() as SharedDev),
    )
    .unwrap();
    let mut buf = [0u8; 2048];
    cow.read_at(&mut buf, 4096).unwrap();
    assert_eq!(buf, [3; 2048]);
    // Guest writes land in the CoW layer only; cache remains immutable
    // w.r.t. guest data.
    cow.write_at(&[7; 2048], 4096).unwrap();
    let mut check = [0u8; 2048];
    cache.read_at(&mut check, 4096).unwrap();
    assert_eq!(check, [3; 2048], "cache must not see guest writes");
    cow.read_at(&mut check, 4096).unwrap();
    assert_eq!(check, [7; 2048]);
}

#[test]
fn small_cluster_cache_fills_less_than_default() {
    // Fig. 9's mechanism: a 4 KiB guest read through a 64 KiB-cluster
    // cache fetches 64 KiB from the base; through a 512 B-cluster cache
    // it fetches only 4 KiB.
    let mk = |bits: u32| {
        let base = QcowImage::create(mem(), CreateOpts::plain(16 * MB), None).unwrap();
        base.write_at(&[1; 4096], 1 << 20).unwrap();
        let cache = QcowImage::create(
            mem(),
            CreateOpts::cache(16 * MB, "b", 8 * MB).with_cluster_bits(bits),
            Some(base as SharedDev),
        )
        .unwrap();
        let mut buf = [0u8; 4096];
        cache.read_at(&mut buf, 1 << 20).unwrap();
        cache.cor_stats().miss_bytes
    };
    let big = mk(16);
    let small = mk(9);
    assert_eq!(big, 65536);
    assert_eq!(small, 4096);
}

#[test]
fn quota_smaller_than_metadata_serves_but_never_fills() {
    let base = QcowImage::create(mem(), CreateOpts::plain(64 * MB), None).unwrap();
    base.write_at(&[4; 1024], 0).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(64 * MB, "b", 1024),
        Some(base as SharedDev),
    )
    .unwrap();
    let mut buf = [0u8; 1024];
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [4; 1024], "reads still pass through");
    assert!(!cache.fill_enabled(), "first fill attempt latches off");
    assert_eq!(cache.cor_stats().fill_bytes, 0);
}

#[test]
fn backing_mismatch_rejected() {
    let dev = mem();
    QcowImage::create(dev.clone(), CreateOpts::plain(MB), None)
        .unwrap()
        .close()
        .unwrap();
    // Supplying a backing device for a standalone image is an error.
    let other = QcowImage::create(mem(), CreateOpts::plain(MB), None).unwrap();
    assert!(QcowImage::open(dev, Some(other as SharedDev), false).is_err());
}

#[test]
fn zero_length_ops_are_noops() {
    let img = QcowImage::create(mem(), CreateOpts::plain(MB), None).unwrap();
    let mut buf = [0u8; 0];
    img.read_at(&mut buf, 0).unwrap();
    img.write_at(&buf, 0).unwrap();
    img.read_at(&mut buf, MB).unwrap(); // at the boundary, len 0: fine
    assert_eq!(crate::info(&img).mapped_bytes, 0);
}

#[test]
fn external_write_to_cache_respects_quota() {
    // §4.3's write path on a cache image used directly (not via CoR).
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    let g = Geometry::new(9, 4 * MB).unwrap();
    let quota = g.cluster_size() + g.l1_table_bytes() + 10 * 512;
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(4 * MB, "b", quota),
        Some(base as SharedDev),
    )
    .unwrap();
    // Writes land until the quota refuses with the space error.
    let mut wrote = 0;
    let err = loop {
        match cache.write_at(&[1; 512], wrote * 512) {
            Ok(()) => wrote += 1,
            Err(e) => break e,
        }
        assert!(wrote < 100, "quota must trip");
    };
    assert!(err.is_no_space());
    assert!(wrote >= 1);
    assert!(cache.cache_used() <= quota);
}

#[test]
fn read_spanning_mapped_and_unmapped_clusters() {
    // One request that begins in a warm cluster and ends in a cold one.
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[0xAB; 8192], 0).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(4 * MB, "b", 2 * MB),
        Some(base as SharedDev),
    )
    .unwrap();
    let mut buf = [0u8; 512];
    cache.read_at(&mut buf, 0).unwrap(); // warm exactly cluster 0
    let mut big = [0u8; 4096];
    cache.read_at(&mut big, 0).unwrap(); // spans warm + cold
    assert_eq!(big, [0xAB; 4096]);
    let s = cache.cor_stats();
    assert!(
        s.hit_bytes >= 512,
        "first cluster of the big read served warm"
    );
    // The cold tail was fetched without re-fetching the warm cluster.
    assert_eq!(
        s.miss_bytes,
        512 + (4096 - 512),
        "span excludes the mapped cluster"
    );
}

#[test]
fn file_size_tracks_growth() {
    let base = QcowImage::create(mem(), CreateOpts::plain(16 * MB), None).unwrap();
    base.write_at(&[1; 1 << 20], 0).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(16 * MB, "b", 8 * MB),
        Some(base as SharedDev),
    )
    .unwrap();
    let before = cache.file_size();
    let mut buf = vec![0u8; 1 << 20];
    cache.read_at(&mut buf, 0).unwrap();
    let after = cache.file_size();
    assert!(
        after >= before + (1 << 20),
        "fills must grow the container file"
    );
    // Used size accounting matches the file tail (bump allocator).
    assert_eq!(cache.cache_used(), after);
}

#[test]
fn lookup_run_spans_contiguous_fills() {
    let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
    base.write_at(&[3u8; 64 << 10], 0).unwrap();
    let cache = QcowImage::create(
        mem(),
        CreateOpts::cache(4 * MB, "b", 2 * MB),
        Some(base as SharedDev),
    )
    .unwrap();
    let cs = cache.geom.cluster_size();
    let mut buf = vec![0u8; 16 * cs as usize];
    cache.read_at(&mut buf, 0).unwrap(); // coalesced fill: contiguous clusters
    let mut st = cache.state.lock();
    let (_, run_bytes, clusters) = cache
        .lookup_run(&mut st, 0, 16 * cs)
        .unwrap()
        .expect("filled clusters are mapped");
    assert_eq!(run_bytes, 16 * cs, "fill landed physically contiguous");
    assert_eq!(clusters, 16);
    // A mid-cluster start still resolves, clamped to the request.
    let (off_mid, mid_bytes, _) = cache.lookup_run(&mut st, cs / 2, cs).unwrap().unwrap();
    assert_eq!(mid_bytes, cs);
    let (off_start, _, _) = cache.lookup_run(&mut st, 0, cs).unwrap().unwrap();
    assert_eq!(off_mid, off_start + cs / 2);
}

#[test]
fn warm_reread_of_a_multi_table_fill_is_one_container_read() {
    // 512 B clusters: one L2 table maps 32 KiB, so this read spans four
    // tables. The fill places all four tables ahead of the data, which
    // then lands in one physically contiguous run.
    let content: Vec<u8> = (0..MB).map(|i| (i % 251) as u8).collect();
    for coalesce in [false, true] {
        let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
        base.write_at(&content, 0).unwrap();
        let container = Arc::new(vmi_blockdev::CountingDev::new(mem()));
        let cache = QcowImage::create(
            container.clone() as SharedDev,
            CreateOpts::cache(4 * MB, "b", 2 * MB),
            Some(base as SharedDev),
        )
        .unwrap();
        let cov = cache.geom.l2_coverage();
        let (off, len) = (cov / 2, 3 * cov);
        cache.set_coalescing(coalesce);
        let mut cold = vec![0u8; len as usize];
        cache.read_at(&mut cold, off).unwrap();
        assert_eq!(cold, &content[off as usize..][..len as usize]);
        let reads = || container.stats().snapshot().reads;

        cache.set_coalescing(true);
        let before = reads();
        let mut warm = vec![0u8; len as usize];
        cache.read_at(&mut warm, off).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(
            reads() - before,
            1,
            "coalesce={coalesce}: one container read"
        );

        // The concurrent warm path loads its own table snapshots on the
        // first read; the second is data only.
        let conc = crate::ConcurrentImage::new(cache);
        let mut warm = vec![0u8; len as usize];
        conc.read_at(&mut warm, off).unwrap();
        let before = reads();
        conc.read_at(&mut warm, off).unwrap();
        assert_eq!(warm, cold);
        assert_eq!(conc.stats().warm_reads, 2);
        assert_eq!(
            reads() - before,
            1,
            "coalesce={coalesce}: one warm-path read"
        );
    }
}

#[test]
fn coalesced_and_scalar_caches_are_bit_identical() {
    // Same workload against two caches over identical bases, one with
    // coalescing disabled: guest data, CoR counters, and the entire
    // container byte-for-byte must agree (fresh images allocate with the
    // same bump sequence in both modes).
    let mut content = vec![0u8; 2 * MB as usize];
    for (i, b) in content.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let run = |coalesce: bool| -> (Vec<u8>, Vec<u8>, CorStats, u64) {
        let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
        base.write_at(&content, 0).unwrap();
        let cache_mem = Arc::new(MemDev::new());
        let cache = QcowImage::create(
            cache_mem.clone() as SharedDev,
            CreateOpts::cache(4 * MB, "b", 3 * MB),
            Some(base as SharedDev),
        )
        .unwrap();
        cache.set_coalescing(coalesce);
        let mut out = vec![0u8; MB as usize];
        cache.read_at(&mut out, 4096).unwrap(); // cold: fills
        let mut warm = vec![0u8; MB as usize];
        cache.read_at(&mut warm, 4096).unwrap(); // warm: run reads
        assert_eq!(out, warm);
        let mut tail = vec![0u8; 8192];
        cache.read_at(&mut tail, 2 * MB - 4096).unwrap(); // cold + zero tail
        out.extend_from_slice(&tail);
        let stats = cache.cor_stats();
        let used = cache.cache_used();
        cache.close().unwrap();
        (out, cache_mem.to_vec(), stats, used)
    };
    let (data_c, raw_c, stats_c, used_c) = run(true);
    let (data_s, raw_s, stats_s, used_s) = run(false);
    assert_eq!(data_c, data_s, "guest data identical");
    assert_eq!(stats_c, stats_s, "CoR byte counters identical");
    assert_eq!(used_c, used_s, "quota accounting identical");
    assert_eq!(raw_c, raw_s, "container bytes identical");
}

#[test]
fn l2_cache_is_bounded_by_default() {
    let img = QcowImage::create(mem(), CreateOpts::plain(64 * MB), None).unwrap();
    let expect =
        ((DEFAULT_L2_CACHE_BYTES / img.geom.cluster_size()) as usize).max(MIN_L2_CACHE_TABLES);
    assert_eq!(img.l2_cache_limit(), Some(expect));
    // 512 B clusters: the same byte budget holds many more (small) tables.
    let small = QcowImage::create(
        mem(),
        CreateOpts::plain(4 * MB).with_cluster_bits(crate::layout::MIN_CLUSTER_BITS),
        None,
    )
    .unwrap();
    assert_eq!(
        small.l2_cache_limit(),
        Some((DEFAULT_L2_CACHE_BYTES / small.geom.cluster_size()) as usize)
    );
    // Unbounded remains opt-in.
    small.set_l2_cache_limit(None);
    assert_eq!(small.l2_cache_limit(), None);
}

#[test]
fn l2_eviction_is_counted() {
    let clock = Arc::new(vmi_obs::ManualClock::new(0));
    let obs = Obs::new(clock, Arc::new(vmi_obs::NullRecorder));
    let img = QcowImage::create_with_obs(
        mem(),
        CreateOpts::plain(16 * MB).with_cluster_bits(crate::layout::MIN_CLUSTER_BITS),
        None,
        obs.clone(),
    )
    .unwrap();
    img.set_l2_cache_limit(Some(2));
    let table_span = img.geom.cluster_size() * img.geom.l2_entries();
    for i in 0..4u64 {
        img.write_at(&[1u8; 16], i * table_span).unwrap();
    }
    assert!(img.l2_cache_len() <= 2, "limit enforced");
    assert!(
        obs.counter_value(met::L2_EVICTIONS) >= 2,
        "evictions surface in metrics"
    );
}
