//! Deployment modes: how a VM's image chain is built for each experiment
//! configuration in the paper's evaluation.
//!
//! * [`Mode::Qcow2`] — the §2 baseline: local CoW image backed by the base
//!   over NFS (Fig. 1).
//! * [`Mode::ColdCache`] — first boot with an empty cache (Fig. 5): cache in
//!   compute memory (the §5.1 "final arrangement", Fig. 7), on compute disk
//!   (the slow variant of Fig. 8), or destined for storage memory (Fig. 13:
//!   created locally, transferred back after shutdown — transfer time added
//!   to the boot time, §5.3.2).
//! * [`Mode::WarmCache`] — boot over an existing warm cache: on the compute
//!   node's disk (Fig. 7 bottom, Figs. 11/12) or in storage-node memory
//!   served over NFS (Fig. 13 bottom, Fig. 14).

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, Result, SharedDev, SparseDev};
use vmi_obs::Obs;
use vmi_qcow::{
    create_cached_chain, create_cow_chain, create_cow_over_recovered_cache, MapResolver, QcowImage,
};
use vmi_trace::{BootTrace, OpKind, VmiProfile};

/// Where a cache image physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Compute node's local disk.
    ComputeDisk,
    /// Compute node's memory (tmpfs).
    ComputeMem,
    /// Storage node's memory (tmpfs export over NFS).
    StorageMem,
}

/// Deployment mode of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain copy-on-write over NFS (the state of the art of §2).
    Qcow2,
    /// First boot: cache is created and warmed during the boot.
    ColdCache {
        /// Cache medium.
        placement: Placement,
        /// Cache quota in bytes.
        quota: u64,
        /// Cache image cluster size (log2). The paper's final choice is 9
        /// (512 B); 16 (64 KiB) reproduces the Fig. 9 amplification.
        cluster_bits: u32,
    },
    /// Boot over a pre-warmed cache.
    WarmCache {
        /// Cache medium.
        placement: Placement,
        /// Cache quota in bytes (the warm-up uses the same quota).
        quota: u64,
        /// Cache image cluster size (log2).
        cluster_bits: u32,
    },
}

impl Mode {
    /// Short label used in figure output (matches the paper's legends).
    pub fn label(&self) -> String {
        match self {
            Mode::Qcow2 => "QCOW2".into(),
            Mode::ColdCache { placement, .. } => {
                format!("Cold cache ({})", placement_label(*placement))
            }
            Mode::WarmCache { placement, .. } => {
                format!("Warm cache ({})", placement_label(*placement))
            }
        }
    }
}

fn placement_label(p: Placement) -> &'static str {
    match p {
        Placement::ComputeDisk => "compute disk",
        Placement::ComputeMem => "compute mem",
        Placement::StorageMem => "storage mem",
    }
}

/// A prepared warm cache: the container bytes plus bookkeeping.
pub struct WarmCache {
    /// Container content (the cache image file, typically ~100 MB).
    pub container: Arc<SparseDev>,
    /// Size of the cache image file (Table 2's metric).
    pub file_size: u64,
    /// `used` accounting persisted in the header.
    pub used: u64,
}

/// Replay every op of `trace` through `chain` without pricing (offline).
pub fn replay_unpriced(chain: &dyn BlockDev, trace: &BootTrace) -> Result<()> {
    let mut scratch = vec![0u8; 1 << 20];
    for op in &trace.ops {
        let n = op.len as usize;
        if scratch.len() < n {
            scratch.resize(n, 0);
        }
        match op.kind {
            OpKind::Read => chain.read_at(&mut scratch[..n], op.offset)?,
            OpKind::Write => {
                scratch[..n].fill(0);
                chain.write_at(&scratch[..n], op.offset)?;
            }
        }
    }
    Ok(())
}

/// Create and warm a cache image by booting a sample VM offline (§3.2:
/// "The system can boot a sample VM upon a new VMI registration to create
/// the cache").
///
/// The resulting container can be placed on any medium; fork it per node
/// for private compute-side copies.
pub fn prepare_warm_cache(
    profile: &VmiProfile,
    trace: &BootTrace,
    quota: u64,
    cluster_bits: u32,
) -> Result<WarmCache> {
    let ns = MapResolver::new();
    let base: SharedDev = Arc::new(SparseDev::with_len(profile.virtual_size));
    ns.insert("base", base);
    let container = Arc::new(SparseDev::new());
    ns.insert("cache", container.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container.clone() as SharedDev,
        Arc::new(SparseDev::new()),
        profile.virtual_size,
        quota,
        cluster_bits,
        &Obs::disabled(),
    )?;
    replay_unpriced(cow.as_ref(), trace)?;
    drop(cow); // drops the whole chain; the cache's Drop persists `used`
    let used = {
        // Re-read the header to pick up the persisted accounting.
        let hdr = vmi_qcow::Header::decode(container.as_ref() as &dyn BlockDev)?;
        hdr.cache.map(|c| c.used).unwrap_or(0)
    };
    Ok(WarmCache {
        file_size: container.len(),
        used,
        container,
    })
}

/// Build the §4.4 chain for one VM according to `mode`, over devices the
/// caller has already wrapped with the right cost hooks.
///
/// * `base_dev` — the base image as seen from this node (NFS mount).
/// * `cache_dev` — container device for the cache layer (cost-wrapped for
///   its placement); `None` for [`Mode::Qcow2`].
/// * `cow_dev` — container device for the CoW layer.
/// * `warm` — for [`Mode::WarmCache`], whether the cache container already
///   holds a warmed image (then it is *opened*, read-only when `shared`).
pub struct ChainSpec<'a> {
    /// Deployment mode.
    pub mode: Mode,
    /// Boot profile (virtual size).
    pub profile: &'a VmiProfile,
    /// Base image device (node's NFS mount of the base export).
    pub base_dev: SharedDev,
    /// Cache container device, `None` for plain QCOW2.
    pub cache_dev: Option<SharedDev>,
    /// CoW container device.
    pub cow_dev: SharedDev,
    /// Open the cache read-only (shared warm cache in storage memory).
    pub cache_read_only: bool,
    /// Observability handle threaded into every layer of the chain
    /// (default: disabled — a single branch per instrumented call).
    pub obs: Obs,
}

/// Build the chain; returns the top (CoW) image. Every layer is opened or
/// created by `vmi_qcow::chain`, which also records it on `spec.obs`.
pub fn build_chain(spec: ChainSpec<'_>) -> Result<Arc<QcowImage>> {
    let vsize = spec.profile.virtual_size;
    let ns = MapResolver::new();
    ns.insert("base", spec.base_dev);
    let plain = |cow_dev| create_cow_chain(&ns, "base", cow_dev, vsize, &spec.obs);
    let cache_dev = match (spec.mode, spec.cache_dev) {
        (Mode::Qcow2, _) => return plain(spec.cow_dev),
        (_, Some(cache_dev)) => cache_dev,
        (mode, None) => {
            return Err(BlockError::unsupported(format!(
                "{} deployment needs a cache container",
                mode.label()
            )))
        }
    };
    ns.insert("cache", cache_dev.clone());
    match spec.mode {
        Mode::ColdCache {
            quota,
            cluster_bits,
            ..
        } => create_cached_chain(
            &ns,
            "base",
            "cache",
            cache_dev,
            spec.cow_dev,
            vsize,
            quota,
            cluster_bits,
            &spec.obs,
        ),
        // A warm cache is repaired before it is trusted: a torn `used`
        // field or a never-flush-acked table entry is repaired in place; an
        // unrepairable cache is refetched and the VM falls back to the
        // plain-QCOW2 chain — a slower boot, never a failed one.
        _ => create_cow_over_recovered_cache(
            &ns,
            "base",
            "cache",
            spec.cow_dev.clone(),
            vsize,
            spec.cache_read_only,
            &spec.obs,
        )?
        .map_or_else(|| plain(spec.cow_dev), Ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::CountingDev;

    #[test]
    fn warm_cache_holds_the_working_set() {
        let p = VmiProfile::tiny_test();
        let trace = vmi_trace::generate(&p, 3);
        let warm = prepare_warm_cache(&p, &trace, 16 << 20, 9).unwrap();
        // File size ≈ unique working set + CoW-write RMW spill + metadata.
        let unique = vmi_trace::unique_read_bytes(&trace);
        assert!(warm.file_size > unique, "{} <= {unique}", warm.file_size);
        assert!(warm.file_size < unique * 3);
        assert_eq!(
            warm.used, warm.file_size,
            "bump allocator: used == file size"
        );
    }

    #[test]
    fn warm_cache_respects_quota() {
        let p = VmiProfile::tiny_test();
        let trace = vmi_trace::generate(&p, 3);
        let g = vmi_qcow::Geometry::new(9, p.virtual_size).unwrap();
        let quota = g.cluster_size() + g.l1_table_bytes() + 512 * 200;
        let warm = prepare_warm_cache(&p, &trace, quota, 9).unwrap();
        assert!(warm.used <= quota);
    }

    const COLD: Mode = Mode::ColdCache {
        placement: Placement::ComputeMem,
        quota: 16 << 20,
        cluster_bits: 9,
    };
    const WARM: Mode = Mode::WarmCache {
        placement: Placement::ComputeDisk,
        quota: 16 << 20,
        cluster_bits: 9,
    };

    /// A chain `build_chain` built, with counters on its three containers.
    struct Boot {
        chain: Arc<QcowImage>,
        base: Arc<CountingDev>,
        cache: Option<Arc<CountingDev>>,
        cow: Arc<CountingDev>,
    }

    /// `build_chain` for `mode` over an empty counting base of `p`'s size.
    fn boot(p: &VmiProfile, mode: Mode, cache: Option<SparseDev>, ro: bool, obs: Obs) -> Boot {
        let count = |dev: SparseDev| Arc::new(CountingDev::new(Arc::new(dev)));
        let (base, cache, cow) = (
            count(SparseDev::with_len(p.virtual_size)),
            cache.map(count),
            count(SparseDev::new()),
        );
        let chain = build_chain(ChainSpec {
            mode,
            profile: p,
            base_dev: base.clone(),
            cache_dev: cache.clone().map(|c| c as SharedDev),
            cow_dev: cow.clone(),
            cache_read_only: ro,
            obs,
        })
        .unwrap();
        Boot {
            chain,
            base,
            cache,
            cow,
        }
    }

    /// A warm cache for `p`'s seed-4 boot, and that boot's trace.
    fn warm_cache(p: &VmiProfile) -> (WarmCache, BootTrace) {
        let trace = vmi_trace::generate(p, 4);
        (prepare_warm_cache(p, &trace, 16 << 20, 9).unwrap(), trace)
    }

    #[test]
    fn warm_boot_reads_nothing_from_base() {
        let p = VmiProfile::tiny_test();
        let (warm, trace) = warm_cache(&p);
        // Boot a new VM over a fork of the warm cache and count base reads.
        let b = boot(
            &p,
            WARM,
            Some(warm.container.fork()),
            false,
            Obs::disabled(),
        );
        replay_unpriced(b.chain.as_ref(), &trace).unwrap();
        assert_eq!(
            b.base.stats().snapshot().read_bytes,
            0,
            "a fully warm cache must satisfy the whole boot"
        );
    }

    #[test]
    fn cold_chain_reads_base_then_warms() {
        let p = VmiProfile::tiny_test();
        let trace = vmi_trace::generate(&p, 4);
        let b = boot(&p, COLD, Some(SparseDev::new()), false, Obs::disabled());
        replay_unpriced(b.chain.as_ref(), &trace).unwrap();
        let fetched = b.base.stats().snapshot().read_bytes;
        let unique = vmi_trace::unique_read_bytes(&trace);
        assert!(
            fetched >= unique,
            "cold boot fetches at least the working set"
        );
    }

    #[test]
    fn corrupt_warm_cache_falls_back_to_plain_qcow2() {
        let p = VmiProfile::tiny_test();
        let (warm, trace) = warm_cache(&p);
        // Trash the container header: recovery must answer `Refetch` and
        // the boot must proceed as a plain-QCOW2 deployment over the base.
        let broken = warm.container.fork();
        broken.write_at(&[0xFF; 64], 0).unwrap();
        let (rec, _sink) = vmi_obs::RecorderHandle::jsonl();
        let obs = rec.attach(Arc::new(vmi_obs::ManualClock::new(0)));
        let b = boot(&p, WARM, Some(broken), false, obs.clone());
        replay_unpriced(b.chain.as_ref(), &trace).unwrap();
        assert!(
            b.base.stats().snapshot().read_bytes > 0,
            "fallback chain reads the base directly"
        );
        assert!(
            b.chain.backing().is_some(),
            "fallback still has the base as backing"
        );
        assert_eq!(
            obs.counter_value(vmi_obs::met::CHAIN_OPENS),
            2,
            "base + CoW; the refetched cache was never opened"
        );
    }

    /// One `build_chain` call per mode, pinned: the `ChainOpen` stream as
    /// `image/kind/rw|ro@depth`, the `(reads, writes)` each of base, cache
    /// and CoW container sees while the chain is built, and whether the
    /// CoW's backing is the cache image (what the benchmark's `cache_layer`
    /// downcasts to). A usable warm cache costs recovery's one table walk
    /// and nothing below it; a condemned one (`refetch`) deploys plain QCOW2.
    #[test]
    fn build_chain_per_mode_is_pinned() {
        let p = VmiProfile::tiny_test();
        let (warm, _) = warm_cache(&p);
        let broken = warm.container.fork();
        broken.write_at(&[0xFF; 64], 0).unwrap();
        let cases = [
            ("qcow2", Mode::Qcow2, None, false),
            ("cold", COLD, Some(SparseDev::new()), false),
            ("warm", WARM, Some(warm.container.fork()), false),
            ("warm shared", WARM, Some(warm.container.fork()), true),
            ("refetch", WARM, Some(broken), false),
        ];
        let mut got = String::new();
        for (name, mode, cache, ro) in cases {
            let (rec, sink) = vmi_obs::RecorderHandle::jsonl();
            let b = boot(
                &p,
                mode,
                cache,
                ro,
                rec.attach(Arc::new(vmi_obs::ManualClock::new(0))),
            );
            got += name;
            got += ":";
            for (_, ev) in sink.events() {
                if let vmi_obs::Event::ChainOpen {
                    image,
                    kind,
                    writable,
                    depth,
                } = ev
                {
                    let rw = if writable { "rw" } else { "ro" };
                    got += &format!(" {image}/{kind}/{rw}@{depth}");
                }
            }
            let io = |d: &CountingDev| (d.stats().snapshot().reads, d.stats().snapshot().writes);
            let cache_io = b.cache.as_deref().map_or((0, 0), io);
            let cache_layer = (b.chain.backing())
                .and_then(|b| b.as_any())
                .and_then(|a| a.downcast_ref::<QcowImage>())
                .is_some_and(QcowImage::is_cache);
            got += &format!(
                " | io {:?} {cache_io:?} {:?} | cache layer: {cache_layer}\n",
                io(&b.base),
                io(&b.cow)
            );
        }
        assert_eq!(
            got,
            "\
qcow2: base/raw/ro@1 cow/cow/rw@0 | io (1, 0) (0, 0) (0, 2) | cache layer: false
cold: base/raw/ro@2 cache/cache/rw@1 cow/cow/rw@0 | io (1, 0) (1, 3) (0, 2) | cache layer: true
warm: cache/cache/rw@1 cow/cow/rw@0 | io (0, 0) (82, 0) (0, 2) | cache layer: true
warm shared: cache/cache/ro@1 cow/cow/rw@0 | io (0, 0) (82, 0) (0, 2) | cache layer: true
refetch: base/raw/ro@1 cow/cow/rw@0 | io (1, 0) (1, 0) (0, 2) | cache layer: false
"
        );
    }

    #[test]
    fn qcow2_chain_works_without_cache() {
        let p = VmiProfile::tiny_test();
        let trace = vmi_trace::generate(&p, 4);
        let b = boot(&p, Mode::Qcow2, None, false, Obs::disabled());
        replay_unpriced(b.chain.as_ref(), &trace).unwrap();
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Qcow2.label(), "QCOW2");
        assert!(Mode::ColdCache {
            placement: Placement::StorageMem,
            quota: 0,
            cluster_bits: 9
        }
        .label()
        .contains("storage mem"));
    }
}
