//! # vmi-nbd — serve and attach VM image chains as network block devices
//!
//! The deployable face of the reproduction: the calibration hint for this
//! paper ("vhost-user-blk or NBD cache server") maps the paper's
//! architecture onto today's stack. A storage node runs an [`NbdServer`]
//! exporting base images and warm caches; compute nodes attach with an
//! [`NbdClient`] — which is itself a [`vmi_blockdev::BlockDev`], so the
//! paper's chain composes across the network:
//!
//! ```text
//!   storage node                      compute node
//!   NbdServer ── TCP (NBD proto) ──► NbdClient ◄── cache ◄── CoW ◄── VM
//! ```
//!
//! Protocol: fixed-newstyle negotiation (`EXPORT_NAME`, `LIST`, `ABORT`)
//! and the simple transmission phase (`READ`/`WRITE`/`FLUSH`/`TRIM`/`DISC`)
//! per the canonical NBD protocol document. `TRIM` on an exported image
//! maps to the image's cluster `discard`.

//! ```
//! use std::sync::Arc;
//! use vmi_blockdev::{BlockDev, MemDev};
//! use vmi_nbd::{NbdClient, NbdServer};
//!
//! let srv = NbdServer::start("127.0.0.1:0").unwrap();
//! let disk = Arc::new(MemDev::with_len(1 << 20));
//! disk.write_at(b"hello nbd", 0).unwrap();
//! srv.add_export("disk", disk, false);
//!
//! let client = NbdClient::connect(&srv.addr().to_string(), "disk").unwrap();
//! let mut buf = [0u8; 9];
//! client.read_at(&mut buf, 0).unwrap();
//! assert_eq!(&buf, b"hello nbd");
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::NbdClient;
pub use server::NbdServer;
