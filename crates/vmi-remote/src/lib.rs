//! # vmi-remote — NFS-style remote file access over simulated links
//!
//! The paper's storage node "runs an off-the-shelf NFS-server; the compute
//! nodes mount the NFS location" (§5). This crate provides that layer for
//! the simulated cluster:
//!
//! * [`export::NfsExport`] — a file served by the storage node, placed on
//!   its disk (behind the page cache) or on tmpfs (storage-node memory,
//!   the §3.3 cache placement);
//! * [`mount::NfsMount`] — the compute-node client: a [`vmi_blockdev::BlockDev`]
//!   whose reads/writes carry real bytes immediately and charge the
//!   storage disk + shared NIC on the simulated op clock, with client-side
//!   page caching and `rwsize`-capped RPCs;
//! * [`sim_dev`] — cost hooks for node-local media (compute disk behind
//!   the node's page cache, with optional synchronous writes; memory).

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod export;
pub mod mount;
pub mod sim_dev;

pub use export::{ExportMedium, NfsExport, SERVER_PAGE};
pub use mount::{NfsMount, CLIENT_PAGE, RWSIZE};
pub use sim_dev::{local_disk_dev, memory_dev, NODE_PAGE, READAHEAD, SYNC_PENALTY_NS};
