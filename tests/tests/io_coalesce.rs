//! Extent coalescing acceptance: over a 512-byte-cluster cache, reading
//! 1 MiB in 64 KiB requests must issue ≥ 8× fewer device calls on the
//! coalesced path than on the scalar path, cold and warm, never more calls
//! in any scenario, and bit-identical guest data in every scenario.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, CountingDev, MemDev, SharedDev};
use vmi_qcow::{CreateOpts, QcowImage};

/// Virtual size of the images under test.
const VSIZE: u64 = 4 << 20;
/// Bytes read by every workload.
const TOTAL: u64 = 1 << 20;
/// Guest request size (a typical boot-time readahead burst).
const REQ: u64 = 64 << 10;
/// Cache-layer cluster bits: 512 B, the geometry the coalescer exists for.
const CLUSTER_BITS: u32 = 9;

/// Device calls one mode issued for one workload.
struct Side {
    /// Container + backing operations.
    total_calls: u64,
    /// Container operations that arrived through the run entry points.
    run_calls: u64,
    /// Guest bytes read, in offset order.
    data: Vec<u8>,
}

/// One `(cold/warm, seq/rand)` workload measured in both modes.
struct Scenario {
    name: &'static str,
    scalar: Side,
    coalesced: Side,
}

impl Scenario {
    fn call_ratio(&self) -> f64 {
        self.scalar.total_calls as f64 / self.coalesced.total_calls.max(1) as f64
    }
}

/// Deterministic 64-bit xorshift for the shuffled request order.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Request offsets over `TOTAL` bytes in `REQ` chunks, shuffled with a
/// fixed seed when `random`.
fn offsets(random: bool) -> Vec<u64> {
    let mut offs: Vec<u64> = (0..TOTAL / REQ).map(|i| i * REQ).collect();
    if random {
        let mut seed = 0x5EED_CAFE_F00Du64;
        for i in (1..offs.len()).rev() {
            let j = (xorshift(&mut seed) % (i as u64 + 1)) as usize;
            offs.swap(i, j);
        }
    }
    offs
}

/// A patterned plain base image shared by every scenario.
fn build_base() -> Arc<QcowImage> {
    let base = QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        CreateOpts::plain(VSIZE),
        None,
    )
    .unwrap();
    let content: Vec<u8> = (0..2 * TOTAL as usize)
        .map(|i| (i % 239) as u8 ^ (i / 7919) as u8)
        .collect();
    base.write_at(&content, 0).unwrap();
    base
}

/// Run one workload on a fresh cache over `base` whose container and
/// backing are both counted. A warm workload first fills the cache with
/// one sequential pass and counts only the second.
fn measure(base: &Arc<QcowImage>, coalesce: bool, warm: bool, random: bool) -> Side {
    let backing = Arc::new(CountingDev::new(base.clone() as SharedDev));
    let container = Arc::new(CountingDev::new(Arc::new(MemDev::new()) as SharedDev));
    let backing_stats = backing.stats();
    let container_stats = container.stats();
    let cache = QcowImage::create(
        container as SharedDev,
        CreateOpts::cache(VSIZE, "base", VSIZE).with_cluster_bits(CLUSTER_BITS),
        Some(backing as SharedDev),
    )
    .unwrap();
    cache.set_coalescing(coalesce);
    if warm {
        let mut warmup = vec![0u8; TOTAL as usize];
        cache.read_at(&mut warmup, 0).unwrap();
    }
    container_stats.reset();
    backing_stats.reset();

    let mut data = vec![0u8; TOTAL as usize];
    let mut buf = vec![0u8; REQ as usize];
    for off in offsets(random) {
        cache.read_at(&mut buf, off).unwrap();
        data[off as usize..(off + REQ) as usize].copy_from_slice(&buf);
    }
    let c = container_stats.snapshot();
    let b = backing_stats.snapshot();
    Side {
        total_calls: c.total_ops() + b.total_ops(),
        run_calls: c.run_reads + c.run_writes,
        data,
    }
}

/// All four scenarios, each in both modes.
fn scenarios() -> Vec<Scenario> {
    let base = build_base();
    [
        ("cold_seq", false, false),
        ("warm_seq", true, false),
        ("cold_rand", false, true),
        ("warm_rand", true, true),
    ]
    .into_iter()
    .map(|(name, warm, random)| Scenario {
        name,
        scalar: measure(&base, false, warm, random),
        coalesced: measure(&base, true, warm, random),
    })
    .collect()
}

fn find<'a>(all: &'a [Scenario], name: &str) -> &'a Scenario {
    all.iter().find(|s| s.name == name).unwrap()
}

#[test]
fn coalesced_cold_sequential_read_is_8x_fewer_calls() {
    let all = scenarios();
    let cold = find(&all, "cold_seq");
    assert!(
        cold.call_ratio() >= 8.0,
        "cold sequential: {} scalar vs {} coalesced calls = {:.1}x < 8x",
        cold.scalar.total_calls,
        cold.coalesced.total_calls,
        cold.call_ratio()
    );
    assert!(
        cold.scalar.data == cold.coalesced.data,
        "guest data must not depend on the mode"
    );
    // The warm pass (fully mapped clusters) coalesces even harder: one run
    // read per physically contiguous extent.
    let warm = find(&all, "warm_seq");
    assert!(
        warm.call_ratio() >= 8.0,
        "warm ratio {:.1}x",
        warm.call_ratio()
    );
}

#[test]
fn cold_sequential_hits_the_8x_floor() {
    let all = scenarios();
    let cold = find(&all, "cold_seq");
    assert!(
        cold.call_ratio() >= 8.0,
        "cold sequential ratio {:.1}x < 8x",
        cold.call_ratio()
    );
    for s in &all {
        assert!(
            s.scalar.data == s.coalesced.data,
            "{}: guest data must not depend on the mode",
            s.name
        );
        assert!(
            s.coalesced.total_calls <= s.scalar.total_calls,
            "{}: coalescing must never add device calls ({} > {})",
            s.name,
            s.coalesced.total_calls,
            s.scalar.total_calls
        );
    }
}

#[test]
fn warm_reads_are_run_reads() {
    let base = build_base();
    let coalesced = measure(&base, true, true, false);
    let scalar = measure(&base, false, true, false);
    assert!(
        coalesced.run_calls > 0,
        "warm coalesced reads arrive via read_run_at"
    );
    assert_eq!(scalar.run_calls, 0, "scalar path never coalesces");
}
