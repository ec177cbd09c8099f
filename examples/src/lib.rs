//! Example binaries for the `vmcache` workspace.
//!
//! Each binary demonstrates one face of the system:
//!
//! | binary | shows |
//! |---|---|
//! | `quickstart` | the §4.4 chain on in-memory devices: cold boot warms the cache, warm boot never touches the base |
//! | `hpc_parameter_sweep` | §2.1's motivating workload: 64 workers, one VMI — QCOW2 vs cold vs warm caches |
//! | `cloud_day` | the §8 "next step": caches integrated into a cloud controller, 400 requests end to end |
//! | `cache_admin` | the operator view on real files: quota exhaustion, `info`/`map`/`check` per layer |
//! | `nbd_boot` | the paper over a real network protocol: local cache chained over an NBD-served base |
//! | `obs_dump` | a cold and a warm run with a JSONL recorder: each run's metrics registry and the head of its event stream |
//!
//! Run any of them with `cargo run --release -p vmcache-examples --bin <name>`.
