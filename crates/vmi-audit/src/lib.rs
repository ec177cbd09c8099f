//! # vmi-audit — image-format invariant checker and project source lints
//!
//! The paper's cache correctness rests on structural invariants that the
//! driver in `vmi-qcow` enforces implicitly while it runs: the quota/used
//! header extension must agree with the clusters actually allocated (§4.3),
//! mapping tables must stay in bounds and never alias the same container
//! cluster, chains must be acyclic with compatible geometry (Algorithm 1),
//! and a cache is *immutable with respect to its base* — only data read from
//! the base may ever enter it (§3.1). This crate checks those invariants
//! from the outside, the way `qemu-img check` or `fsck` would: it parses the
//! on-disk container format independently (no dependency on `vmi-qcow`, so a
//! driver bug cannot hide itself) and reports typed [`Violation`]s with a
//! [`Severity`] and a [`RepairHint`].
//!
//! Entry points:
//!
//! * [`audit_image`] / [`audit_image_visit`] — verify a single container:
//!   header and extension framing, geometry, L1/L2 table bounds and
//!   alignment, overlapping cluster allocations, and (for cache images) the
//!   recorded used-size and quota accounting. [`audit_image_visit`] takes
//!   [`AuditOpts`] and an obs handle, and hands the raw L1 and L2 tables the
//!   walk read to a [`TableVisitor`], so a driver opening the container
//!   after a clean audit can seed its tables instead of reading them again.
//! * [`audit_chain`] — verify a backing chain ordered top → base: per-layer
//!   structure, acyclicity, virtual-size equality (§4.3: a cache or CoW
//!   image's size "has to be the same as the base image's"), cluster-size
//!   compatibility, and optionally the *deep* immutability invariant (every
//!   mapped cache cluster byte-identical to the same range of its base).
//!
//! Consumers: `vmi-qcow::recover` replays the repair hints until the
//! container audits clean (clean/repaired/refetch verdicts); `vmi-img fsck`
//! is the CLI; the `paranoid` feature of `vmi-qcow` re-audits the container
//! after every mutating op in debug builds. The companion `vmi-lint` binary
//! (in `src/bin/`) enforces *source-level* rules over the workspace.

#![forbid(unsafe_code)]

mod chain;
mod format;
mod image;
pub mod lint;

use std::fmt;

pub use chain::{audit_chain, ChainReport, MAX_CHAIN_DEPTH};
pub use image::{audit_image, audit_image_visit, TableVisitor};

/// Best-effort probe of a container's backing-file name, for chain walkers
/// (e.g. `vmi-img fsck --chain`) that need to resolve the next layer before
/// auditing it. `None` when the container is not parseable or names no
/// backing.
pub fn probe_backing(dev: &dyn vmi_blockdev::BlockDev) -> Option<String> {
    format::parse_header(dev).ok()?.backing_file
}

/// How bad a violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Repairable inconsistency: the image is usable after the repair hint
    /// is applied (e.g. a torn used-size field).
    Warning,
    /// Structural damage: the image (or chain) must not be trusted.
    Error,
}

impl Severity {
    /// Wire label (`"warning"` / `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What kind of invariant was broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The fixed header could not be read at all.
    UnreadableHeader,
    /// Magic number is not `QFI\xfb`.
    BadMagic,
    /// Unsupported format version.
    BadVersion,
    /// `header_length` field disagrees with the fixed layout.
    BadHeaderLength,
    /// A header extension claims an implausibly large payload.
    OversizedExtension,
    /// A known extension has the wrong payload size.
    MalformedExtension,
    /// Cache extension with a zero quota (never stored by the driver).
    ZeroQuota,
    /// Backing-file name too long, unreadable, or not UTF-8.
    BackingNameInvalid,
    /// cluster_bits / virtual size outside the supported envelope.
    BadGeometry,
    /// `l1_size` disagrees with the geometry's required L1 entry count.
    L1SizeMismatch,
    /// The L1 table is misaligned or overlaps the header cluster.
    L1TableMisplaced,
    /// The L1 table extends past the end of the container.
    TruncatedL1,
    /// An L1 entry is not cluster-aligned.
    L1EntryUnaligned,
    /// An L1 entry points outside the container.
    L1EntryOutOfBounds,
    /// An L2 table could not be read.
    TruncatedL2,
    /// An L2 entry is not cluster-aligned.
    L2EntryUnaligned,
    /// An L2 entry points outside the container (or maps a guest address
    /// beyond the virtual size).
    L2EntryOutOfBounds,
    /// Two mappings (or a mapping and metadata) share a container cluster.
    OverlappingClusters,
    /// The snapshot-table pointer is out of bounds.
    SnapshotTableInvalid,
    /// Recorded used-size differs from the recomputed ground truth (the
    /// classic torn close §4.3); repairable in place.
    UsedSizeMismatch,
    /// Referenced clusters exceed the cache quota.
    QuotaExceeded,
    /// A mapped cache cluster is not byte-identical to its base range
    /// (breaks the §3.1 immutability invariant).
    CacheBaseDivergence,
    /// The backing chain revisits a layer (or exceeds the depth bound).
    ChainCycle,
    /// Layers of a chain disagree on the virtual disk size (§4.3).
    ChainSizeMismatch,
    /// Adjacent layers have irreconcilable cluster sizes.
    ChainClusterIncompatible,
}

impl ViolationKind {
    /// Stable wire label used in JSON output and obs events.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationKind::UnreadableHeader => "unreadable_header",
            ViolationKind::BadMagic => "bad_magic",
            ViolationKind::BadVersion => "bad_version",
            ViolationKind::BadHeaderLength => "bad_header_length",
            ViolationKind::OversizedExtension => "oversized_extension",
            ViolationKind::MalformedExtension => "malformed_extension",
            ViolationKind::ZeroQuota => "zero_quota",
            ViolationKind::BackingNameInvalid => "backing_name_invalid",
            ViolationKind::BadGeometry => "bad_geometry",
            ViolationKind::L1SizeMismatch => "l1_size_mismatch",
            ViolationKind::L1TableMisplaced => "l1_table_misplaced",
            ViolationKind::TruncatedL1 => "truncated_l1",
            ViolationKind::L1EntryUnaligned => "l1_entry_unaligned",
            ViolationKind::L1EntryOutOfBounds => "l1_entry_out_of_bounds",
            ViolationKind::TruncatedL2 => "truncated_l2",
            ViolationKind::L2EntryUnaligned => "l2_entry_unaligned",
            ViolationKind::L2EntryOutOfBounds => "l2_entry_out_of_bounds",
            ViolationKind::OverlappingClusters => "overlapping_clusters",
            ViolationKind::SnapshotTableInvalid => "snapshot_table_invalid",
            ViolationKind::UsedSizeMismatch => "used_size_mismatch",
            ViolationKind::QuotaExceeded => "quota_exceeded",
            ViolationKind::CacheBaseDivergence => "cache_base_divergence",
            ViolationKind::ChainCycle => "chain_cycle",
            ViolationKind::ChainSizeMismatch => "chain_size_mismatch",
            ViolationKind::ChainClusterIncompatible => "chain_cluster_incompatible",
        }
    }
}

/// How (whether) a violation can be fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairHint {
    /// No automated repair; recreate the image.
    None,
    /// Rewrite the cache extension's `used` field to this recomputed value
    /// (the §4.3 torn-close repair performed by `vmi-qcow::recover`).
    RewriteUsedSize(u64),
    /// Drop the cache and deploy without it (plain-QCOW2 fallback); the
    /// base is unaffected.
    DiscardCache,
    /// Rebuild the chain from intact layers.
    RebuildChain,
    /// Zero the garbage L1 entry at this index. Safe for crash prefixes:
    /// with write barriers a torn L1 entry was never flush-acked, so the L2
    /// table it pointed at held no durable guest data.
    ClearL1Entry {
        /// Index into the L1 table.
        index: u64,
    },
    /// Zero the garbage L2 entry `l2_index` in the L2 table referenced by
    /// `L1[l1_index]`. Same crash-prefix reasoning as
    /// [`RepairHint::ClearL1Entry`].
    ClearL2Entry {
        /// Index of the owning L1 entry.
        l1_index: u64,
        /// Entry index within that L2 table.
        l2_index: u64,
    },
}

impl RepairHint {
    /// Short human-readable repair advice.
    pub fn describe(&self) -> String {
        match self {
            RepairHint::None => "no automated repair; recreate the image".to_string(),
            RepairHint::RewriteUsedSize(v) => {
                format!("rewrite recorded used-size to {v} (recover repairs this in place)")
            }
            RepairHint::DiscardCache => {
                "discard the cache and redeploy without it; the base is intact".to_string()
            }
            RepairHint::RebuildChain => "rebuild the backing chain from intact layers".to_string(),
            RepairHint::ClearL1Entry { index } => {
                format!("zero L1[{index}] (torn, never flush-acked; recover clears in place)")
            }
            RepairHint::ClearL2Entry { l1_index, l2_index } => format!(
                "zero L2 entry {l2_index} under L1[{l1_index}] (torn, never flush-acked; \
                 recover clears in place)"
            ),
        }
    }
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant.
    pub kind: ViolationKind,
    /// How bad.
    pub severity: Severity,
    /// Human-readable specifics (offsets, indices, expected vs. found).
    pub detail: String,
    /// Suggested remediation.
    pub repair: RepairHint,
}

impl Violation {
    pub(crate) fn error(kind: ViolationKind, detail: impl Into<String>) -> Self {
        Violation {
            kind,
            severity: Severity::Error,
            detail: detail.into(),
            repair: RepairHint::None,
        }
    }

    pub(crate) fn with_repair(mut self, repair: RepairHint) -> Self {
        self.repair = repair;
        self
    }

    /// One-line JSON object (no external serializer; mirrors vmi-obs style).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"severity\":\"{}\",\"detail\":\"{}\",\"repair\":\"{}\"}}",
            self.kind.as_str(),
            self.severity.as_str(),
            json_escape(&self.detail),
            json_escape(&self.repair.describe()),
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.severity.as_str(),
            self.kind.as_str(),
            self.detail
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Knobs for [`audit_image_visit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditOpts {
    /// Compare the recomputed used-size against this value instead of the
    /// header's recorded one. Mid-session (paranoid mode) the on-disk field
    /// is stale by design — §4.3 writes it back only at close — so the
    /// driver passes its in-memory counter here.
    pub expected_used: Option<u64>,
    /// Cap on reported violations (0 means the default of 64). The walk
    /// stops collecting past the cap; the image is already condemned.
    pub max_violations: usize,
}

impl AuditOpts {
    pub(crate) fn cap(&self) -> usize {
        if self.max_violations == 0 {
            64
        } else {
            self.max_violations
        }
    }
}

/// Result of auditing one container.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Everything found, in discovery order.
    pub violations: Vec<Violation>,
    /// `true` iff the image carries the cache extension.
    pub is_cache: bool,
    /// Quota recorded in the header (0 for non-cache images).
    pub quota: u64,
    /// Used-size recorded in the header (0 for non-cache images).
    pub recorded_used: u64,
    /// Ground-truth used-size recomputed from the tables: header cluster +
    /// L1 table + (L2 tables + data clusters) × cluster_size (§4.3).
    pub recomputed_used: u64,
    /// Mapped data clusters counted during the walk.
    pub data_clusters: u64,
    /// Allocated L2 tables counted during the walk.
    pub l2_tables: u64,
}

impl AuditReport {
    /// `true` when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when any violation is structural (severity [`Severity::Error`]).
    pub fn has_errors(&self) -> bool {
        self.violations
            .iter()
            .any(|v| v.severity == Severity::Error)
    }

    /// The proposed in-place used-size repair, if the only problem class is
    /// a torn used field.
    pub fn used_repair(&self) -> Option<u64> {
        self.violations.iter().find_map(|v| match v.repair {
            RepairHint::RewriteUsedSize(u) => Some(u),
            _ => None,
        })
    }
}
