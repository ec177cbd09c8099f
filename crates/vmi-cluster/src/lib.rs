//! # vmi-cluster — cluster deployment of VMs with image caches
//!
//! The top layer of the reproduction: simulated DAS-4 nodes ([`node`]), the
//! VM boot engine that replays real boot traces through real `vmi-qcow`
//! chains on simulated time ([`vm`]), the deployment modes of every figure
//! ([`deploy`], [`experiment`]), and the cloud-level cache management the
//! paper designs in §3.4/§6: LRU cache pools ([`cachepool`]) and the
//! cache-aware scheduler ([`sched`]). Algorithm 1, which picks the cache a
//! new chain hangs from, is the runner's choice of deployment for each
//! arrival.
//!
//! One byte-level runner, with presets: [`run_experiment`] (one point of a
//! paper figure: N pinned arrivals at t = 0), [`run_mixed_experiment`] (a
//! scheduler over a partly warm fleet), [`run_hybrid_boot`] (Algorithm 1's
//! storage-cache branch) and [`run_cloud`] (a day of arrivals, evictions
//! and node failures). Every arrival, failure, restart, slot release and VM
//! wake-up is an event on one heap, so boots that overlap in time share the
//! storage node whichever preset started them. [`run_scale`] is the 10k-node
//! model of the same mechanism. There is one LRU: a node's cache pool, a
//! scale node cache and a rack or zone tier are all a [`CachePool`] keyed
//! by VMI index.

//! ```
//! use vmi_cluster::{run_experiment, ExperimentConfig, Mode, Placement};
//! use vmi_obs::{met, RecorderHandle};
//! use vmi_sim::NetSpec;
//!
//! // One point of Fig. 11 at smoke scale: two nodes, one VMI, warm caches,
//! // with a JSONL recorder attached for the metrics registry.
//! let (recorder, sink) = RecorderHandle::jsonl();
//! let mut cfg = ExperimentConfig::new(2, 1);
//! cfg.profile = vmi_trace::VmiProfile::tiny_test();
//! cfg.recorder = recorder;
//! cfg.mode = Mode::WarmCache {
//!     placement: Placement::ComputeDisk,
//!     quota: 16 << 20,
//!     cluster_bits: 9,
//! };
//! let out = run_experiment(&cfg).unwrap();
//! assert_eq!(out.storage_nic.bytes, 0, "warm boots never touch the network");
//! let metrics = out.metrics.expect("a recorder keeps a metrics registry");
//! assert_eq!(metrics.counter(met::CACHE_MISS_BYTES), 0, "every read served by the caches");
//! let op_ns = metrics.histogram(met::VM_OP_NS).expect("per-op latencies");
//! assert!(op_ns.quantile(0.99) > 0, "recorder gives latency percentiles");
//! assert!(!sink.lines().is_empty(), "the run left a replayable event stream");
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cachepool;
pub mod cloud;
mod cluster;
pub mod deploy;
pub mod experiment;
pub mod mixed;
pub mod node;
mod runner;
pub mod scale;
pub mod sched;
pub mod topology;
pub mod vm;

pub use cachepool::CachePool;
pub use cloud::{generate_requests, run_cloud, CloudConfig, CloudReport, NodeFailure, VmRequest};
pub use deploy::{build_chain, prepare_warm_cache, ChainSpec, Mode, Placement, WarmCache};
pub use experiment::{run_experiment, ExperimentConfig, ExperimentOutcome, WarmStore};
pub use mixed::{run_hybrid_boot, run_mixed_experiment, MixedConfig, MixedOutcome};
pub use node::{ComputeNode, StorageNode};
pub use scale::{run_scale, BootRecord, FillSource, ScaleConfig, ScaleReport};
pub use sched::{NodeState, PlacementDecision, Policy, Scheduler};
pub use topology::Topology;
pub use vm::{BootStats, VmOutcome};
