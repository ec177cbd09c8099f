//! Ablations and extension experiments: design choices the paper asserts
//! or defers, measured.
//!
//! * [`cluster_size_sweep`] — why 512 B cache clusters: traffic, warm-cache
//!   file size, and boot time across the full cluster-size range (extends
//!   Fig. 9's two points to a curve).
//! * [`mixed_fleet`] — §5.3.1's unmeasured mixed warm/cold scenario, with
//!   and without the §3.4 cache-aware scheduler.
//! * [`hybrid_chain`] — §6's recommended two-level arrangement (local cache
//!   chained to a storage-memory cache).
//! * [`prefetch_bound`] — §7.3's prefetching argument quantified: the VM
//!   waits only a small fraction of its boot on reads, so prefetching can
//!   mask at most that fraction.

use vmi_blockdev::Result;
use vmi_cluster::{
    run_experiment, run_hybrid_boot, run_mixed_experiment, ExperimentConfig, MixedConfig, Mode,
    Placement, Policy, WarmStore,
};
use vmi_sim::NetSpec;
use vmi_trace::{VmiProfile, MIB};

use crate::figset::TableData;
use crate::figures::Scale;

fn profile(scale: Scale) -> VmiProfile {
    match scale {
        Scale::Paper => VmiProfile::centos_6_3(),
        Scale::Smoke => VmiProfile::tiny_test(),
    }
}

fn quota(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 160 * MIB,
        Scale::Smoke => 16 * MIB,
    }
}

/// Sweep the cache cluster size: cold-boot storage traffic, warm cache file
/// size, and cold boot time per cluster size.
pub fn cluster_size_sweep(scale: Scale) -> Result<TableData> {
    let p = profile(scale);
    let store = WarmStore::new();
    let q = quota(scale);
    let mut rows = Vec::new();
    for bits in [9u32, 10, 12, 14, 16] {
        let cold = run_experiment(&ExperimentConfig {
            nodes: 1,
            vmis: 1,
            profile: p.clone(),
            net: NetSpec::gbe_1(),
            mode: Mode::ColdCache {
                placement: Placement::ComputeMem,
                quota: q,
                cluster_bits: bits,
            },
            seed: 42,
            warm_store: Some(store.clone()),
            recorder: Default::default(),
        })?;
        let trace = vmi_trace::generate(&p, vmi_cluster::experiment::vmi_seed(42, 0));
        let warm = store.get_or_prepare(&p, &trace, q, bits)?;
        rows.push(vec![
            format!("{} B", 1u64 << bits),
            format!("{:.1}", cold.storage_traffic_mb()),
            format!("{:.1}", warm.file_size as f64 / MIB as f64),
            format!("{:.2}", cold.mean_boot_secs()),
        ]);
    }
    Ok(TableData {
        id: "abl-cluster".into(),
        title: "Cache cluster size ablation (cold boot, 1 node, 1GbE)".into(),
        columns: vec![
            "cluster".into(),
            "cold traffic (MB)".into(),
            "warm cache size (MB)".into(),
            "cold boot (s)".into(),
        ],
        rows,
    })
}

/// Mixed warm/cold fleets: mean boot time vs warm fraction, cache-aware vs
/// oblivious scheduling.
pub fn mixed_fleet(scale: Scale) -> Result<TableData> {
    let p = profile(scale);
    let nodes = match scale {
        Scale::Paper => 32,
        Scale::Smoke => 8,
    };
    let mut rows = Vec::new();
    for warm_fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut cells = vec![format!("{:.0}%", warm_fraction * 100.0)];
        for aware in [true, false] {
            let out = run_mixed_experiment(&MixedConfig {
                nodes,
                vms: nodes / 2,
                warm_fraction,
                cache_aware: aware,
                policy: Policy::Striping,
                profile: p.clone(),
                net: NetSpec::gbe_1(),
                quota: quota(scale),
                seed: 42,
            })?;
            cells.push(format!("{:.2}", out.stats.mean_secs()));
            if aware {
                cells.push(format!("{}/{}", out.warm_placements, out.total_placements));
            }
        }
        rows.push(cells);
    }
    Ok(TableData {
        id: "abl-mixed".into(),
        title: format!(
            "Mixed warm/cold fleet, {} VMs on {nodes} nodes, 1 VMI, 1GbE",
            nodes / 2
        ),
        columns: vec![
            "warm nodes".into(),
            "aware: mean boot (s)".into(),
            "aware: warm hits".into(),
            "oblivious: mean boot (s)".into(),
        ],
        rows,
    })
}

/// The §6 hybrid two-level chain vs its single-level alternatives.
pub fn hybrid_chain(scale: Scale) -> Result<TableData> {
    let p = profile(scale);
    let store = WarmStore::new();
    let q = quota(scale);
    let (hybrid_secs, disk_reads) = run_hybrid_boot(&p, NetSpec::ib_32g(), q, 42, &store)?;
    let base_cfg = |mode| ExperimentConfig {
        nodes: 1,
        vmis: 1,
        profile: p.clone(),
        net: NetSpec::ib_32g(),
        mode,
        seed: 42,
        warm_store: Some(store.clone()),
        recorder: Default::default(),
    };
    let qcow = run_experiment(&base_cfg(Mode::Qcow2))?;
    let warm_remote = run_experiment(&base_cfg(Mode::WarmCache {
        placement: Placement::StorageMem,
        quota: q,
        cluster_bits: 9,
    }))?;
    Ok(TableData {
        id: "abl-hybrid".into(),
        title: "Hybrid two-level cache chain (Algorithm 1 middle branch), IB".into(),
        columns: vec![
            "arrangement".into(),
            "boot (s)".into(),
            "storage disk reads".into(),
        ],
        rows: vec![
            vec![
                "QCOW2 (no cache)".into(),
                format!("{:.2}", qcow.mean_boot_secs()),
                format!("{}", qcow.storage_disk.read_ops),
            ],
            vec![
                "warm cache in storage mem".into(),
                format!("{:.2}", warm_remote.mean_boot_secs()),
                format!("{}", warm_remote.storage_disk.read_ops),
            ],
            vec![
                "hybrid: local ← storage-mem".into(),
                format!("{hybrid_secs:.2}"),
                format!("{disk_reads}"),
            ],
        ],
    })
}

/// §7.3's prefetching bound: the read-wait share of a boot is the most any
/// prefetcher can save.
pub fn prefetch_bound(scale: Scale) -> Result<TableData> {
    let p = profile(scale);
    let store = WarmStore::new();
    let mut rows = Vec::new();
    for (label, net) in [("1GbE", NetSpec::gbe_1()), ("32GbIB", NetSpec::ib_32g())] {
        let out = run_experiment(&ExperimentConfig {
            nodes: 1,
            vmis: 1,
            profile: p.clone(),
            net,
            mode: Mode::Qcow2,
            seed: 42,
            warm_store: Some(store.clone()),
            recorder: Default::default(),
        })?;
        let boot = out.outcomes[0].boot_ns as f64 / 1e9;
        let wait = out.outcomes[0].io_wait_ns as f64 / 1e9;
        rows.push(vec![
            label.into(),
            format!("{boot:.2}"),
            format!("{wait:.2}"),
            format!("{:.0}%", 100.0 * wait / boot),
            format!("{:.2}", boot - wait),
        ]);
    }
    Ok(TableData {
        id: "abl-prefetch".into(),
        title: "Prefetching upper bound (§7.3): boots are compute-dominated".into(),
        columns: vec![
            "network".into(),
            "boot (s)".into(),
            "read wait (s)".into(),
            "wait share".into(),
            "perfect-prefetch floor (s)".into(),
        ],
        rows,
    })
}

/// §8's future-work line on memory snapshots: "apply our caching scheme to memory
/// snapshots of already booted virtual machines, starting from which
/// instead of the VM image could improve the VM starting time even
/// further." Compares booting from the image against restoring from a
/// memory snapshot, each plain and cached.
pub fn snapshot_restore(scale: Scale) -> Result<TableData> {
    let store = WarmStore::new();
    let (boot_p, ram) = match scale {
        Scale::Paper => (VmiProfile::centos_6_3(), 1u64 << 30),
        Scale::Smoke => (VmiProfile::tiny_test(), 32 * MIB),
    };
    let snap_p = VmiProfile::memory_snapshot_restore(ram);
    // Snapshots are one big stream: sub-cluster sparsity is absent, so the
    // cache can use large clusters (contrast with the boot workload's 512 B).
    let snap_quota = ram * 2;
    let mut rows = Vec::new();
    let mut run = |label: &str, p: &VmiProfile, mode: Mode, net: NetSpec| -> Result<()> {
        let out = run_experiment(&ExperimentConfig {
            nodes: 1,
            vmis: 1,
            profile: p.clone(),
            net,
            mode,
            seed: 42,
            warm_store: Some(store.clone()),
            recorder: Default::default(),
        })?;
        rows.push(vec![
            label.into(),
            net.label().into(),
            format!("{:.2}", out.mean_boot_secs()),
            format!("{:.1}", out.storage_traffic_mb()),
        ]);
        Ok(())
    };
    for net in [NetSpec::gbe_1(), NetSpec::ib_32g()] {
        run("boot image, QCOW2", &boot_p, Mode::Qcow2, net)?;
        run(
            "boot image, warm cache",
            &boot_p,
            Mode::WarmCache {
                placement: Placement::ComputeDisk,
                quota: quota(scale),
                cluster_bits: 9,
            },
            net,
        )?;
        run("restore snapshot, QCOW2", &snap_p, Mode::Qcow2, net)?;
        run(
            "restore snapshot, warm cache (64K)",
            &snap_p,
            Mode::WarmCache {
                placement: Placement::ComputeDisk,
                quota: snap_quota,
                cluster_bits: 16,
            },
            net,
        )?;
    }
    Ok(TableData {
        id: "abl-snapshot".into(),
        title: format!(
            "Boot-from-image vs restore-from-memory-snapshot ({} MiB resident RAM)",
            ram >> 20
        ),
        columns: vec![
            "flow".into(),
            "network".into(),
            "ready time (s)".into(),
            "storage traffic (MB)".into(),
        ],
        rows,
    })
}

/// The paper's §8 "next step": the caching scheme integrated into the
/// cloud scheduler, measured over a day-like request stream. Three cloud
/// configurations process the identical stream.
pub fn cloud_day(scale: Scale) -> Result<TableData> {
    use vmi_cluster::{generate_requests, run_cloud, CloudConfig};

    let profile = VmiProfile::tiny_test(); // content-scale independent
    let (nodes, count) = match scale {
        Scale::Paper => (16, 400),
        Scale::Smoke => (4, 60),
    };
    let vmis = 6;
    let requests = generate_requests(7, count, vmis, 1_500_000_000, 30_000_000_000);
    let base = CloudConfig {
        nodes,
        slots_per_node: 2,
        node_cache_bytes: vmi_cluster::cloud::default_pool_bytes(&profile, 3),
        vmis,
        profile,
        net: NetSpec::gbe_1(),
        quota: 16 * MIB,
        use_caches: false,
        cache_aware: false,
        policy: Policy::Striping,
        seed: 7,
        node_failures: vec![],
        recorder: Default::default(),
    };
    let mut rows = Vec::new();
    for (label, use_caches, aware) in [
        ("QCOW2, no caches", false, false),
        ("caches, oblivious sched", true, false),
        ("caches, cache-aware sched", true, true),
    ] {
        let cfg = CloudConfig {
            use_caches,
            cache_aware: aware,
            ..base.clone()
        };
        let rep = run_cloud(&cfg, &requests)?;
        rows.push(vec![
            label.into(),
            format!("{:.2}", rep.mean_boot_secs),
            format!("{:.2}", rep.p95_boot_secs),
            format!("{}/{}", rep.warm_boots, rep.placed),
            format!("{}", rep.evictions),
            format!("{:.0}", rep.storage_traffic_mb),
        ]);
    }
    Ok(TableData {
        id: "abl-cloud".into(),
        title: format!(
            "Cloud-scheduler integration (§8 next step): {count} requests, {nodes} nodes, {vmis} VMIs"
        ),
        columns: vec![
            "configuration".into(),
            "mean boot (s)".into(),
            "p95 boot (s)".into(),
            "warm boots".into(),
            "evictions".into(),
            "storage traffic (MB)".into(),
        ],
        rows,
    })
}

/// Run every ablation.
pub fn all(scale: Scale) -> Result<Vec<TableData>> {
    Ok(vec![
        cluster_size_sweep(scale)?,
        mixed_fleet(scale)?,
        hybrid_chain(scale)?,
        prefetch_bound(scale)?,
        snapshot_restore(scale)?,
        cloud_day(scale)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ablations_run() {
        let tables = all(Scale::Smoke).unwrap();
        assert_eq!(tables.len(), 6);
        for t in &tables {
            assert!(!t.rows.is_empty(), "{} empty", t.id);
        }
    }

    #[test]
    fn smoke_prefetch_bound_is_minor_share() {
        let t = prefetch_bound(Scale::Smoke).unwrap();
        // Wait share column parses and is < 100 %.
        for row in &t.rows {
            let share: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(share < 100.0);
        }
    }

    #[test]
    fn smoke_hybrid_avoids_storage_disk() {
        let t = hybrid_chain(Scale::Smoke).unwrap();
        let hybrid_row = &t.rows[2];
        assert_eq!(hybrid_row[2], "0");
    }
}
