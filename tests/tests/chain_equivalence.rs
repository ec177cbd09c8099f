//! Property-based equivalence: an image chain must be indistinguishable
//! from a flat disk, and the cache layer must uphold its §3 requirements
//! (immutability w.r.t. the base, quota never exceeded) under arbitrary
//! operation interleavings.

use std::sync::Arc;

use proptest::prelude::*;
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_qcow::{create_cached_chain, CreateOpts, MapResolver, QcowImage};

const VSIZE: u64 = 4 << 20;

#[derive(Debug, Clone)]
enum GuestOp {
    Read { off: u64, len: usize },
    Write { off: u64, byte: u8, len: usize },
}

fn ops_strategy() -> impl Strategy<Value = Vec<GuestOp>> {
    let op = prop_oneof![
        (0..VSIZE - 70_000, 1usize..70_000).prop_map(|(off, len)| GuestOp::Read { off, len }),
        (0..VSIZE - 70_000, any::<u8>(), 1usize..70_000)
            .prop_map(|(off, byte, len)| GuestOp::Write { off, byte, len }),
    ];
    proptest::collection::vec(op, 1..40)
}

/// Build a base image with deterministic content, a reference copy of the
/// guest-visible bytes, and the paper's three-layer chain over it.
fn build_chain(seed: u8, quota: u64) -> (Vec<u8>, Arc<QcowImage>, SharedDev) {
    let mut reference = vec![0u8; VSIZE as usize];
    for (i, b) in reference.iter_mut().enumerate() {
        *b = (i as u64 % 251) as u8 ^ seed;
    }
    let ns = MapResolver::new();
    let base_dev: SharedDev = Arc::new(MemDev::from_vec(reference.clone()));
    ns.insert("base", base_dev.clone());
    let cache_dev = ns.create_mem("cache");
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        cache_dev,
        Arc::new(MemDev::new()),
        VSIZE,
        quota,
        9,
        &vmi_obs::Obs::disabled(),
    )
    .expect("chain builds");
    (reference, cow, base_dev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chain's guest-visible content equals a flat byte array under any
    /// interleaving of reads and writes — including once the cache quota is
    /// exhausted mid-sequence.
    #[test]
    fn chain_equals_flat_disk(ops in ops_strategy(), seed in any::<u8>()) {
        // Small quota: many sequences exhaust it, exercising the space-error
        // path inside the interleaving.
        let (mut reference, cow, _base) = build_chain(seed, 1 << 20);
        let mut buf = vec![0u8; 70_000];
        for op in &ops {
            match *op {
                GuestOp::Read { off, len } => {
                    cow.read_at(&mut buf[..len], off).unwrap();
                    prop_assert_eq!(&buf[..len], &reference[off as usize..off as usize + len]);
                }
                GuestOp::Write { off, byte, len } => {
                    buf[..len].fill(byte);
                    cow.write_at(&buf[..len], off).unwrap();
                    reference[off as usize..off as usize + len].fill(byte);
                }
            }
        }
        // Full-image sweep at the end.
        let mut all = vec![0u8; VSIZE as usize];
        cow.read_at(&mut all, 0).unwrap();
        prop_assert_eq!(all, reference);
    }

    /// §3 requirement three: "immutability with respect to the base image".
    /// No guest op sequence may alter a single byte of the base.
    #[test]
    fn base_image_never_modified(ops in ops_strategy(), seed in any::<u8>()) {
        let (original, cow, base_dev) = build_chain(seed, 2 << 20);
        let mut buf = vec![0u8; 70_000];
        for op in &ops {
            match *op {
                GuestOp::Read { off, len } => cow.read_at(&mut buf[..len], off).unwrap(),
                GuestOp::Write { off, byte, len } => {
                    buf[..len].fill(byte);
                    cow.write_at(&buf[..len], off).unwrap();
                }
            }
        }
        let mut base_now = vec![0u8; VSIZE as usize];
        base_dev.read_at(&mut base_now, 0).unwrap();
        prop_assert_eq!(base_now, original);
    }

    /// §3 requirement two: the quota bounds the cache at all times, and the
    /// structural check stays clean.
    #[test]
    fn quota_invariant_holds(ops in ops_strategy(), quota_kb in 64u64..4096) {
        let quota = quota_kb * 1024;
        let (_, cow, _) = build_chain(3, quota);
        let cache_dev = cow.backing().unwrap().clone();
        let cache = cache_dev
            .as_any()
            .and_then(|a| a.downcast_ref::<QcowImage>())
            .expect("cache layer");
        let initial = cache.cache_used();
        let mut buf = vec![0u8; 70_000];
        for op in &ops {
            match *op {
                GuestOp::Read { off, len } => cow.read_at(&mut buf[..len], off).unwrap(),
                GuestOp::Write { off, byte, len } => {
                    buf[..len].fill(byte);
                    cow.write_at(&buf[..len], off).unwrap();
                }
            }
            prop_assert!(cache.cache_used() <= quota.max(initial));
        }
        let report = vmi_qcow::check(cache).unwrap();
        prop_assert!(report.is_clean(), "{:?}", report.errors);
    }

    /// A plain CoW chain (no cache) is also equivalent to a flat disk —
    /// the §2 baseline the cache extension must not regress.
    #[test]
    fn plain_cow_equals_flat_disk(ops in ops_strategy(), seed in any::<u8>()) {
        let mut reference = vec![0u8; VSIZE as usize];
        for (i, b) in reference.iter_mut().enumerate() {
            *b = (i as u64 % 241) as u8 ^ seed;
        }
        let base: SharedDev = Arc::new(MemDev::from_vec(reference.clone()));
        let cow = QcowImage::create(
            Arc::new(MemDev::new()),
            CreateOpts::cow(VSIZE, "b"),
            Some(Arc::new(vmi_blockdev::ReadOnlyDev::new(base)) as SharedDev),
        )
        .unwrap();
        let mut buf = vec![0u8; 70_000];
        for op in &ops {
            match *op {
                GuestOp::Read { off, len } => {
                    cow.read_at(&mut buf[..len], off).unwrap();
                    prop_assert_eq!(&buf[..len], &reference[off as usize..off as usize + len]);
                }
                GuestOp::Write { off, byte, len } => {
                    buf[..len].fill(byte);
                    cow.write_at(&buf[..len], off).unwrap();
                    reference[off as usize..off as usize + len].fill(byte);
                }
            }
        }
    }
}
