//! Cache administration on real files — the `qemu-img` workflow of §4.4.
//!
//! Works on actual files in a temp directory: creates a raw base image,
//! builds the `base ← cache ← CoW` chain with `vmi-qcow`, exercises the
//! quota space-error path, and prints `info`/`map`/`check` for each layer.
//!
//! Run with: `cargo run --release -p vmcache-examples --bin cache_admin`

use std::path::PathBuf;
use std::sync::Arc;

use vmi_blockdev::{BlockDev, FileDev, SharedDev};
use vmi_obs::Obs;
use vmi_qcow::{check, create_cached_chain, info, map, open_chain, MapResolver};

fn main() {
    let dir = std::env::temp_dir().join(format!("vmi-cache-admin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    println!("working in {}\n", dir.display());

    let path = |name: &str| -> PathBuf { dir.join(name) };

    // 1. A raw base image with recognizable content.
    let base = Arc::new(FileDev::create(path("base.raw")).expect("create base"));
    base.set_len(256 << 20).unwrap();
    for i in 0..32u8 {
        base.write_at(&[i + 1; 64 * 1024], (i as u64) * (4 << 20))
            .unwrap();
    }
    base.flush().unwrap();

    // 2. Register the namespace and build the cached chain (§4.4: two
    //    qemu-img invocations — cache with quota, then CoW over it).
    let ns = MapResolver::new();
    ns.insert("base.raw", base.clone() as SharedDev);
    let cache_dev: SharedDev = Arc::new(FileDev::create(path("cache.img")).expect("cache file"));
    ns.insert("cache.img", cache_dev.clone());
    let cow_dev: SharedDev = Arc::new(FileDev::create(path("cow.img")).expect("cow file"));
    ns.insert("cow.img", cow_dev.clone());

    let quota = 4 << 20; // deliberately small: we want to hit the space error
    let cow = create_cached_chain(
        &ns,
        "base.raw",
        "cache.img",
        cache_dev,
        cow_dev,
        256 << 20,
        quota,
        9,
        &Obs::disabled(),
    )
    .expect("chain builds");

    // 3. "Boot": read more than the quota can hold, then write guest data.
    let mut buf = vec![0u8; 64 * 1024];
    for i in 0..32u64 {
        cow.read_at(&mut buf, i * (4 << 20)).unwrap();
        assert_eq!(
            buf[0],
            i as u8 + 1,
            "data must be correct through the chain"
        );
    }
    cow.write_at(b"guest-visible write", 200 << 20).unwrap();

    let cache = cow.backing().unwrap();
    println!("after reading 2 MiB past a {} MiB quota:", quota >> 20);
    println!(
        "  cache fill latched off: {}\n",
        !cache.describe().is_empty()
    );

    drop(cow); // close chain, persist cache accounting

    // 4. Inspect each layer from its file, like an operator would.
    for name in ["cow.img", "cache.img"] {
        let img = open_chain(&ns, name, true, &Obs::disabled()).expect("opens");
        println!("--- {name} ---");
        print!("{}", info(&img).render());
        let rep = check(&img).expect("check");
        println!(
            "check: {} L2 tables, {} data clusters -> {}",
            rep.l2_tables,
            rep.data_clusters,
            if rep.is_clean() { "clean" } else { "CORRUPT" }
        );
        let extents = map(&img).expect("map");
        let mapped_here = extents.iter().filter(|e| e.depth == Some(0)).count();
        println!(
            "map: {} extents, {} served by this layer\n",
            extents.len(),
            mapped_here
        );
    }

    // 5. Verify the warm chain still reads correctly from disk files.
    let cow2 = open_chain(&ns, "cow.img", false, &Obs::disabled()).expect("reopen");
    cow2.read_at(&mut buf[..19], 200 << 20).unwrap();
    assert_eq!(&buf[..19], b"guest-visible write");
    println!("reopened chain serves guest data correctly — files are durable.");

    std::fs::remove_dir_all(&dir).ok();
}
