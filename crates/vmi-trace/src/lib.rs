//! # vmi-trace — boot I/O workload model
//!
//! The paper's experiments boot real CentOS/Debian/Windows VMs; this crate
//! is the substituted workload substrate: deterministic synthetic boot
//! traces with the measured working-set sizes (Table 1), the small-request
//! read mix that motivated tuning the NFS `rwsize` to 64 KiB (§5), and a
//! CPU-dominated boot-time structure (§7.3). See DESIGN.md §2 for the
//! substitution argument.
//!
//! * [`profile::VmiProfile`] — the per-OS parameter set, with presets
//!   [`profile::VmiProfile::centos_6_3`], [`profile::VmiProfile::debian_6_0_7`],
//!   [`profile::VmiProfile::windows_server_2012`];
//! * [`gen::generate`] — `(profile, seed) → BootTrace`, deterministic;
//! * [`analyze`] — unique-working-set computation (Table 1) and summaries;
//! * [`rangeset::RangeSet`] — interval arithmetic used throughout.

//! ```
//! // Generate the CentOS boot trace and verify Table 1's working set.
//! let profile = vmi_trace::VmiProfile::centos_6_3();
//! let trace = vmi_trace::generate(&profile, 42);
//! let unique = vmi_trace::unique_read_bytes(&trace);
//! assert!((unique as f64 / (1 << 20) as f64 - 85.2).abs() < 0.1);
//! // Same seed, same trace — deterministic by construction.
//! assert_eq!(trace, vmi_trace::generate(&profile, 42));
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub mod analyze;
pub mod gen;
pub mod op;
pub mod profile;
pub mod rangeset;

pub use analyze::{summarize, unique_read_bytes, unique_write_bytes, TraceSummary};
pub use gen::{generate, SECTOR};
pub use op::{BootTrace, OpKind, TraceOp};
pub use profile::{VmiProfile, MIB, MS, SEC};
pub use rangeset::RangeSet;
