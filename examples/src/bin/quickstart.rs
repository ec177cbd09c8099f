//! Quickstart: build the paper's image chain and watch the cache work.
//!
//! Creates a synthetic base VMI, chains `base ← cache(quota) ← CoW` exactly
//! as §4.4 describes, boots twice (cold, then warm over the persisted
//! cache), and prints the copy-on-read statistics.
//!
//! Run with: `cargo run --release -p vmcache-examples --bin quickstart`

use std::sync::Arc;

use vmi_blockdev::{BlockDev, CountingDev, SharedDev, SparseDev};
use vmi_obs::Obs;
use vmi_qcow::{create_cached_chain, create_cow_over_cache, info, MapResolver};
use vmi_trace::VmiProfile;

fn main() {
    // A scaled-down "OS image": 64 MiB virtual disk, 2 MiB boot working set.
    let profile = VmiProfile::tiny_test();
    let trace = vmi_trace::generate(&profile, 1);
    println!(
        "profile {}: {} ops, {:.1} MiB unique reads\n",
        profile.name,
        trace.ops.len(),
        vmi_trace::unique_read_bytes(&trace) as f64 / (1 << 20) as f64
    );

    // The namespace maps image-file names to devices (stands in for NFS
    // paths). Wrap the base in a counter so we can watch remote traffic.
    let ns = MapResolver::new();
    let base_content: SharedDev = Arc::new(SparseDev::with_len(profile.virtual_size));
    let base = Arc::new(CountingDev::new(base_content));
    ns.insert("base.img", base.clone());

    // ---- cold boot: create cache (512 B clusters, 8 MiB quota) + CoW ----
    let cache_dev = ns.create_mem("cache.img");
    let cow = create_cached_chain(
        &ns,
        "base.img",
        "cache.img",
        cache_dev,
        Arc::new(SparseDev::new()),
        profile.virtual_size,
        8 << 20, // quota
        9,       // 512 B cache clusters (the paper's final arrangement)
        &Obs::disabled(),
    )
    .expect("chain builds");

    replay(&trace, cow.as_ref());
    let cold_traffic = base.stats().snapshot().read_bytes;
    println!(
        "cold boot : {:>8.2} MiB fetched from base",
        mib(cold_traffic)
    );
    let cache = cow.backing().unwrap();
    println!("cache     : {}", cache.describe());
    drop(cow); // closes the chain; the cache persists its used size

    // ---- warm boot: fresh CoW over the existing cache -------------------
    let cow2 = create_cow_over_cache(
        &ns,
        "cache.img",
        Arc::new(SparseDev::new()),
        profile.virtual_size,
        &Obs::disabled(),
    )
    .expect("warm chain builds");
    replay(&trace, cow2.as_ref());
    let warm_traffic = base.stats().snapshot().read_bytes - cold_traffic;
    println!(
        "warm boot : {:>8.2} MiB fetched from base",
        mib(warm_traffic)
    );

    // Inspect the cache image like `qemu-img info` would.
    let cache_img =
        vmi_qcow::open_chain(&ns, "cache.img", true, &Obs::disabled()).expect("cache opens");
    println!("\n--- qemu-img style info for cache.img ---");
    print!("{}", info(&cache_img).render());
    let report = vmi_qcow::check(&cache_img).expect("check runs");
    println!(
        "check: {} L2 tables, {} data clusters, {}",
        report.l2_tables,
        report.data_clusters,
        if report.is_clean() {
            "clean"
        } else {
            "CORRUPT"
        }
    );

    assert!(
        warm_traffic < cold_traffic / 50,
        "warm boot must avoid the base"
    );
    let factor = cold_traffic.checked_div(warm_traffic).unwrap_or(u64::MAX);
    println!("\nwarm boot used {factor}x less remote I/O — that is the paper's point.");
}

fn replay(trace: &vmi_trace::BootTrace, dev: &dyn BlockDev) {
    let mut buf = vec![0u8; 1 << 20];
    for op in &trace.ops {
        let n = op.len as usize;
        match op.kind {
            vmi_trace::OpKind::Read => dev.read_at(&mut buf[..n], op.offset).unwrap(),
            vmi_trace::OpKind::Write => dev.write_at(&buf[..n], op.offset).unwrap(),
        }
    }
}

fn mib(b: u64) -> f64 {
    b as f64 / (1 << 20) as f64
}
