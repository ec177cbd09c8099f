//! Independent parser for the on-disk container format.
//!
//! This deliberately duplicates the layout knowledge in `vmi-qcow::header` /
//! `vmi-qcow::layout` rather than importing it: the whole point of an fsck
//! is that it does not trust the driver, so a bug in the driver's encoder or
//! decoder cannot also blind the checker. The format itself is fixed by the
//! paper (§4.1/§4.3) and by QCOW2 compatibility, so the duplication is of
//! *constants*, not of behaviour.

use vmi_blockdev::{be_u32, be_u64, BlockDev};

use crate::{Violation, ViolationKind};

/// `"QFI\xfb"` — QCOW2's magic.
pub const MAGIC: u32 = 0x5146_49fb;
/// The only format version this checker understands.
pub const VERSION: u32 = 3;
/// Byte length of the fixed header portion.
pub const FIXED_HEADER_LEN: u64 = 48;
/// End-of-extensions marker.
pub const EXT_END: u32 = 0;
/// The paper's cache extension (quota + used, two u64s).
pub const EXT_CACHE: u32 = 0xCAC8_E001;
/// Snapshot-table pointer extension (`offset u64, len u32, count u32`).
/// Internal snapshots are unsupported: only an empty table is accepted.
pub const EXT_SNAPTAB: u32 = 0x534E_4150;
/// Longest accepted backing-file name.
pub const MAX_BACKING_NAME: usize = 1023;
/// Largest accepted extension payload.
pub const MAX_EXT_LEN: usize = 4096;
/// Supported cluster-size envelope (512 B .. 2 MiB).
pub const MIN_CLUSTER_BITS: u32 = 9;
pub const MAX_CLUSTER_BITS: u32 = 21;

/// Raw header fields as found on disk (no driver-level interpretation).
#[derive(Debug, Clone)]
pub struct RawHeader {
    pub cluster_bits: u32,
    pub size: u64,
    pub l1_table_offset: u64,
    pub l1_size: u32,
    pub backing_file: Option<String>,
    /// `(quota, used)` from the cache extension, if present.
    pub cache: Option<(u64, u64)>,
}

/// Parse the header, returning the first fatal problem as a [`Violation`].
pub fn parse_header(dev: &dyn BlockDev) -> Result<RawHeader, Violation> {
    let mut fixed = [0u8; FIXED_HEADER_LEN as usize];
    if dev.read_at(&mut fixed, 0).is_err() {
        return Err(Violation::error(
            ViolationKind::UnreadableHeader,
            format!(
                "header truncated: container holds {} bytes, fixed header needs {}",
                dev.len(),
                FIXED_HEADER_LEN
            ),
        ));
    }
    let magic = be_u32(&fixed[0..]);
    if magic != MAGIC {
        return Err(Violation::error(
            ViolationKind::BadMagic,
            format!("header magic {magic:#010x} != {MAGIC:#010x} (\"QFI\\xfb\")"),
        ));
    }
    let version = be_u32(&fixed[4..]);
    if version != VERSION {
        return Err(Violation::error(
            ViolationKind::BadVersion,
            format!("format version {version} unsupported (expected {VERSION})"),
        ));
    }
    let backing_off = be_u64(&fixed[8..]);
    let backing_len = be_u32(&fixed[16..]) as usize;
    let cluster_bits = be_u32(&fixed[20..]);
    let size = be_u64(&fixed[24..]);
    let l1_table_offset = be_u64(&fixed[32..]);
    let l1_size = be_u32(&fixed[40..]);
    let header_length = be_u32(&fixed[44..]);
    if header_length as u64 != FIXED_HEADER_LEN {
        return Err(Violation::error(
            ViolationKind::BadHeaderLength,
            format!("header_length {header_length} != {FIXED_HEADER_LEN}"),
        ));
    }
    if backing_len > MAX_BACKING_NAME {
        return Err(Violation::error(
            ViolationKind::BackingNameInvalid,
            format!("backing name length {backing_len} exceeds {MAX_BACKING_NAME}"),
        ));
    }

    // Walk the extension frames (8-byte header, payload padded to 8).
    let mut cache = None;
    let mut pos = FIXED_HEADER_LEN;
    loop {
        let mut frame = [0u8; 8];
        if dev.read_at(&mut frame, pos).is_err() {
            return Err(Violation::error(
                ViolationKind::UnreadableHeader,
                format!("header extension area truncated at offset {pos}"),
            ));
        }
        let ty = be_u32(&frame[0..]);
        let len = be_u32(&frame[4..]) as usize;
        pos += 8;
        if ty == EXT_END {
            break;
        }
        if len > MAX_EXT_LEN {
            return Err(Violation::error(
                ViolationKind::OversizedExtension,
                format!("extension {ty:#x} claims {len} payload bytes (max {MAX_EXT_LEN})"),
            ));
        }
        let mut payload = vec![0u8; len];
        if dev.read_at(&mut payload, pos).is_err() {
            return Err(Violation::error(
                ViolationKind::UnreadableHeader,
                format!("extension {ty:#x} payload truncated at offset {pos}"),
            ));
        }
        pos += len.div_ceil(8) as u64 * 8;
        match ty {
            EXT_CACHE => {
                if len != 16 {
                    return Err(Violation::error(
                        ViolationKind::MalformedExtension,
                        format!("cache extension payload {len} bytes (expected 16)"),
                    ));
                }
                let quota = be_u64(&payload[0..]);
                let used = be_u64(&payload[8..]);
                if quota == 0 {
                    return Err(Violation::error(
                        ViolationKind::ZeroQuota,
                        "cache extension with zero quota (the driver never stores this)",
                    ));
                }
                cache = Some((quota, used));
            }
            EXT_SNAPTAB => {
                if len != 16 {
                    return Err(Violation::error(
                        ViolationKind::MalformedExtension,
                        format!("snapshot extension payload {len} bytes (expected 16)"),
                    ));
                }
                // Refused before the table it points at is looked at.
                let count = be_u32(&payload[12..]);
                if count != 0 {
                    return Err(Violation::error(
                        ViolationKind::SnapshotTableInvalid,
                        format!("header counts {count} internal snapshot(s); none are supported"),
                    ));
                }
            }
            // Unknown extensions are skipped — the QCOW2 forward-compat rule.
            _ => {}
        }
    }

    let backing_file = if backing_len == 0 {
        None
    } else {
        let mut name = vec![0u8; backing_len];
        if dev.read_at(&mut name, backing_off).is_err() {
            return Err(Violation::error(
                ViolationKind::BackingNameInvalid,
                format!("backing name unreadable at offset {backing_off}"),
            ));
        }
        match String::from_utf8(name) {
            Ok(s) => Some(s),
            Err(_) => {
                return Err(Violation::error(
                    ViolationKind::BackingNameInvalid,
                    "backing name is not UTF-8",
                ))
            }
        }
    };

    Ok(RawHeader {
        cluster_bits,
        size,
        l1_table_offset,
        l1_size,
        backing_file,
        cache,
    })
}

/// Minimal geometry math, mirroring the paper's §4.1 VBA split
/// (`d = cluster_bits`, `m = cluster_bits - 3`, `n = 64 - d - m`).
#[derive(Debug, Clone, Copy)]
pub struct Geom {
    pub cluster_bits: u32,
    pub size: u64,
}

impl Geom {
    /// Validate the header's geometry fields.
    pub fn new(cluster_bits: u32, size: u64) -> Result<Geom, Violation> {
        if !(MIN_CLUSTER_BITS..=MAX_CLUSTER_BITS).contains(&cluster_bits) {
            return Err(Violation::error(
                ViolationKind::BadGeometry,
                format!(
                    "cluster_bits {cluster_bits} outside [{MIN_CLUSTER_BITS}, {MAX_CLUSTER_BITS}]"
                ),
            ));
        }
        if size == 0 {
            return Err(Violation::error(
                ViolationKind::BadGeometry,
                "zero virtual size",
            ));
        }
        let g = Geom { cluster_bits, size };
        let n_bits = 64 - cluster_bits - (cluster_bits - 3);
        if g.l1_entries() > (1u64 << n_bits) {
            return Err(Violation::error(
                ViolationKind::BadGeometry,
                format!("virtual size {size} too large for cluster_bits {cluster_bits}"),
            ));
        }
        Ok(g)
    }

    #[inline]
    pub fn cluster_size(&self) -> u64 {
        1 << self.cluster_bits
    }

    /// Entries per L2 table (one cluster of 8-byte entries).
    #[inline]
    pub fn l2_entries(&self) -> u64 {
        1 << (self.cluster_bits - 3)
    }

    /// Guest bytes covered by one L2 table.
    #[inline]
    pub fn l2_coverage(&self) -> u64 {
        self.l2_entries() << self.cluster_bits
    }

    #[inline]
    pub fn l1_entries(&self) -> u64 {
        self.size.div_ceil(self.l2_coverage())
    }

    /// L1 table footprint, rounded up to whole clusters.
    #[inline]
    pub fn l1_table_bytes(&self) -> u64 {
        (self.l1_entries() * 8).div_ceil(self.cluster_size()) * self.cluster_size()
    }

    #[inline]
    pub fn align_up(&self, off: u64) -> u64 {
        off.div_ceil(self.cluster_size()) * self.cluster_size()
    }

    /// Guest address mapped by entry `(l1_idx, l2_idx)`.
    #[inline]
    pub fn vba_of(&self, l1_idx: u64, l2_idx: u64) -> u64 {
        (l1_idx * self.l2_entries() + l2_idx) << self.cluster_bits
    }
}
