//! The warm open is one table walk: `open_cache_recovered` opens the cache
//! on the tables its clean recovery audit already read.
//!
//! * each mapping table is read once over a whole recovered open and read
//!   pass, not once by the audit and again by the driver;
//! * after a repair the seeded tables are the repaired ones;
//! * an image with more L2 tables than the table cache holds seeds up to
//!   the limit and evicts nothing;
//! * an image opened on the seed behaves byte for byte like one opened by
//!   `recover` + `QcowImage::open_with_obs`, which reads its tables lazily.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use vmi_blockdev::{be_u64, BlockDev, MemDev, Result as DevResult, SharedDev};
use vmi_obs::{met, ManualClock, Obs, RecorderHandle};
use vmi_qcow::{open_cache_recovered, recover, CreateOpts, Header, QcowImage};

const VSIZE: u64 = 1 << 20;

/// A raw base whose bytes are a function of their offset.
fn patterned_base() -> SharedDev {
    Arc::new(MemDev::from_vec(
        (0..VSIZE as u32).map(|i| (i % 251) as u8 + 1).collect(),
    ))
}

/// Bytes of a closed cache container over `base` (quota `quota`), warmed
/// by reading each `(off, len)`.
fn warm_cache_bytes(base: &SharedDev, bits: u32, quota: u64, fills: &[(u64, usize)]) -> Vec<u8> {
    let dev = Arc::new(MemDev::new());
    let cache = QcowImage::create(
        dev.clone() as SharedDev,
        CreateOpts::cache(VSIZE, "base", quota).with_cluster_bits(bits),
        Some(base.clone()),
    )
    .unwrap();
    for &(off, len) in fills {
        let len = len.min((VSIZE - off) as usize);
        let mut buf = vec![0u8; len];
        cache.read_at(&mut buf, off).unwrap();
    }
    cache.close().unwrap();
    drop(cache);
    dev.to_vec()
}

/// Container offsets of the allocated L2 tables, in L1 order.
fn l2_offsets(dev: &dyn BlockDev) -> Vec<u64> {
    let h = Header::decode(dev).unwrap();
    let mut raw = vec![0u8; h.l1_size as usize * 8];
    dev.read_at(&mut raw, h.l1_table_offset).unwrap();
    raw.chunks_exact(8)
        .map(be_u64)
        .filter(|&e| e != 0)
        .collect()
}

/// A device that records the range of every read it serves.
struct Recording {
    inner: SharedDev,
    reads: Mutex<Vec<(u64, u64)>>,
}

impl Recording {
    /// Reads that touch `[off, off + len)`.
    fn reads_of(&self, off: u64, len: u64) -> usize {
        self.reads
            .lock()
            .iter()
            .filter(|&&(o, l)| o < off + len && off < o + l)
            .count()
    }
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

fn recorded_obs() -> Obs {
    let (rec, _sink) = RecorderHandle::jsonl();
    rec.attach(Arc::new(ManualClock::new(0)))
}

#[test]
fn each_table_is_read_once() {
    let base = patterned_base();
    let raw = warm_cache_bytes(&base, 9, VSIZE, &[(0, 256 << 10)]);
    let rec = Arc::new(Recording {
        inner: Arc::new(MemDev::from_vec(raw)),
        reads: Mutex::new(Vec::new()),
    });
    let header = Header::decode(rec.inner.as_ref()).unwrap();
    let l2s = l2_offsets(rec.inner.as_ref());
    assert_eq!(l2s.len(), 8, "256 KiB of 512 B clusters is eight tables");

    let cache = open_cache_recovered(rec.clone(), Some(base.clone()), false, Obs::disabled())
        .unwrap()
        .expect("clean cache opens");
    let mut buf = vec![0u8; 4096];
    for off in (0..256u64 << 10).step_by(4096) {
        cache.read_at(&mut buf, off).unwrap();
        assert_eq!(buf[0], (off % 251) as u8 + 1);
    }
    assert_eq!(cache.cor_stats().miss_bytes, 0, "every read is a hit");

    let l1_bytes = u64::from(header.l1_size) * 8;
    assert_eq!(rec.reads_of(header.l1_table_offset, l1_bytes), 1, "L1");
    for off in l2s {
        assert_eq!(rec.reads_of(off, 512), 1, "L2 table at {off:#x}");
    }
}

#[test]
fn seeded_tables_are_the_repaired_ones() {
    let base = patterned_base();
    let dev: SharedDev = Arc::new(MemDev::from_vec(warm_cache_bytes(
        &base,
        9,
        VSIZE,
        &[(0, 64 << 10)],
    )));
    // A garbage entry over the mapped last slot of the first table: the
    // audit's first pass sees it, recovery clears it, the clean second pass
    // must be what the open is seeded with.
    let first = l2_offsets(dev.as_ref())[0];
    dev.write_at(&0x1357_9bdfu64.to_be_bytes(), first + 63 * 8)
        .unwrap();
    let obs = recorded_obs();
    let cache = open_cache_recovered(dev, Some(base), false, obs.clone())
        .unwrap()
        .expect("repaired cache opens");
    assert!(obs.counter_value(met::RECOVERY_REPAIRS) >= 1);
    let vba = 63 * 512;
    assert!(
        !cache.is_mapped(vba).unwrap(),
        "the cleared entry is unmapped"
    );
    let mut buf = [0u8; 512];
    cache.read_at(&mut buf, vba).unwrap();
    let want: Vec<u8> = (vba..vba + 512).map(|i| (i % 251) as u8 + 1).collect();
    assert_eq!(&buf[..], &want[..]);
    assert_eq!(cache.cor_stats().miss_bytes, 512, "served from the base");
    assert!(!cache.is_degraded());
}

#[test]
fn seeding_stops_at_the_cache_limit_without_evicting() {
    // 64 KiB clusters: one table covers 512 MiB and the default limit is
    // 32 MiB / 64 KiB = 512 tables. Map one cluster under each of 520.
    let per_table = 512u64 << 20;
    let tables = 520u64;
    let dev: SharedDev = Arc::new(MemDev::new());
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(tables * per_table), None).unwrap();
    for t in 0..tables {
        img.write_at(&[t as u8; 512], t * per_table).unwrap();
    }
    img.close().unwrap();
    drop(img);

    let obs = recorded_obs();
    let img = open_cache_recovered(dev, None, true, obs.clone())
        .unwrap()
        .expect("clean image opens");
    assert_eq!(img.l2_cache_limit(), Some(512));
    assert_eq!(img.l2_cache_len(), 512);
    assert_eq!(obs.counter_value(met::L2_EVICTIONS), 0);
    // Every table still resolves, seeded or faulted in.
    let mut buf = [0u8; 512];
    for t in [0, 511, 512, tables - 1] {
        img.read_at(&mut buf, t * per_table).unwrap();
        assert_eq!(buf, [t as u8; 512]);
    }
}

/// Damage applied to the closed container before it is recovered.
#[derive(Debug, Clone, Copy)]
enum Damage {
    None,
    /// A used field below what the tables reference (a torn close).
    TornUsed,
    /// An unaligned entry in slot `slot` of the `table`-th L2 table.
    GarbageEntry {
        table: usize,
        slot: u64,
    },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        Just(Damage::TornUsed),
        (0usize..64, 0u64..8192).prop_map(|(table, slot)| Damage::GarbageEntry { table, slot }),
    ]
}

fn damage(dev: &dyn BlockDev, d: Damage) {
    match d {
        Damage::None => {}
        Damage::TornUsed => Header::update_cache_used(dev, 1024).unwrap(),
        Damage::GarbageEntry { table, slot } => {
            let l2s = l2_offsets(dev);
            if l2s.is_empty() {
                return;
            }
            let cs = 1u64 << Header::decode(dev).unwrap().cluster_bits;
            let off = l2s[table % l2s.len()] + (slot % (cs / 8)) * 8;
            dev.write_at(&0x1357_9bdfu64.to_be_bytes(), off).unwrap();
        }
    }
}

/// One guest request on the CoW layer above the cache.
#[derive(Debug, Clone, Copy)]
struct Op {
    write: bool,
    off: u64,
    len: usize,
    fill: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0u64..VSIZE, 1usize..24 << 10, any::<u8>()).prop_map(
        |(write, off, len, fill)| Op {
            write,
            off,
            len: len.min((VSIZE - off) as usize),
            fill,
        },
    )
}

/// Open the container through `open` and drive the CoW above it; returns
/// every guest cluster's bytes, the cache's CoR counters, and both
/// containers after close.
fn drive(cache: Arc<QcowImage>, ops: &[Op]) -> (Vec<u8>, vmi_qcow::CorStats, Vec<u8>, Vec<u8>) {
    let cache_dev = cache.container().clone();
    let cow_dev = Arc::new(MemDev::new());
    let cow = QcowImage::create(
        cow_dev.clone() as SharedDev,
        CreateOpts::cow(VSIZE, "cache"),
        Some(cache.clone() as SharedDev),
    )
    .unwrap();
    for op in ops {
        if op.write {
            cow.write_at(&vec![op.fill; op.len], op.off).unwrap();
        } else {
            let mut buf = vec![0u8; op.len];
            cow.read_at(&mut buf, op.off).unwrap();
        }
    }
    let cs = cache.geometry().cluster_size() as usize;
    let mut bytes = vec![0u8; VSIZE as usize];
    for chunk in bytes.chunks_mut(cs).enumerate() {
        cow.read_at(chunk.1, (chunk.0 * cs) as u64).unwrap();
    }
    let stats = cache.cor_stats();
    cow.close().unwrap();
    cache.close().unwrap();
    drop(cow);
    drop(cache);
    let cache_bytes = {
        let mut v = vec![0u8; cache_dev.len() as usize];
        cache_dev.read_at(&mut v, 0).unwrap();
        v
    };
    (bytes, stats, cache_bytes, cow_dev.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache opened on the recovery audit's tables is indistinguishable
    /// from one that reads its tables lazily: same guest bytes, same CoR
    /// counters, byte-identical containers after the same requests.
    #[test]
    fn proptest_seeded_open_matches_lazy_open(
        bits_idx in 0usize..3,
        quota_kib in 8u64..1024,
        fills in proptest::collection::vec((0u64..VSIZE, 1usize..32 << 10), 0..12),
        d in damage_strategy(),
        ops in proptest::collection::vec(op_strategy(), 0..16),
    ) {
        let bits = [9, 12, 16][bits_idx];
        let base = patterned_base();
        let raw = warm_cache_bytes(&base, bits, quota_kib << 10, &fills);

        let seeded_dev: SharedDev = Arc::new(MemDev::from_vec(raw.clone()));
        damage(seeded_dev.as_ref(), d);
        let seeded = open_cache_recovered(seeded_dev, Some(base.clone()), false, Obs::disabled())
            .unwrap();

        let lazy_dev: SharedDev = Arc::new(MemDev::from_vec(raw));
        damage(lazy_dev.as_ref(), d);
        let verdict = recover(&lazy_dev);
        prop_assert_eq!(seeded.is_some(), verdict.is_usable());
        let Some(seeded) = seeded else {
            return Ok(());
        };
        let lazy = QcowImage::open_with_obs(lazy_dev, Some(base), false, Obs::disabled()).unwrap();

        let a = drive(seeded, &ops);
        let b = drive(lazy, &ops);
        prop_assert!(a.0 == b.0, "guest bytes differ");
        prop_assert_eq!(a.1, b.1);
        prop_assert!(a.2 == b.2, "cache containers differ");
        prop_assert!(a.3 == b.3, "CoW containers differ");
    }
}
