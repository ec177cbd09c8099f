//! Chain-level audit: acyclicity, geometry compatibility, and the paper's
//! §3.1 immutability invariant (deep check).

use std::collections::HashMap;
use std::sync::Arc;

use vmi_blockdev::{be_u64, read_in_pieces, BlockDev, SharedDev};

use crate::format::{parse_header, Geom, MAGIC};
use crate::image::audit_image;
use crate::{AuditReport, RepairHint, Violation, ViolationKind};

/// Maximum backing-chain depth tolerated before a cycle is assumed
/// (mirrors the driver's `vmi-qcow::chain` loop guard).
pub const MAX_CHAIN_DEPTH: usize = 16;

/// Result of auditing a whole backing chain.
#[derive(Debug, Clone, Default)]
pub struct ChainReport {
    /// Chain-level violations (cycles, size/cluster incompatibilities,
    /// immutability breaks).
    pub violations: Vec<Violation>,
    /// Per-layer structural reports, in the same top → base order as the
    /// input. A raw base layer gets an empty default report.
    pub layers: Vec<AuditReport>,
}

impl ChainReport {
    /// `true` when neither the chain nor any layer has a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.layers.iter().all(AuditReport::is_clean)
    }

    /// All violations — chain-level first, then per-layer in order.
    pub fn all_violations(&self) -> Vec<Violation> {
        let mut out = self.violations.clone();
        for l in &self.layers {
            out.extend(l.violations.iter().cloned());
        }
        out
    }
}

enum Layer {
    Qcow(View),
    Raw,
}

/// An independently-parsed read-only view of one qcow layer's mapping, used
/// to resolve guest reads for the deep immutability comparison.
struct View {
    geom: Geom,
    is_cache: bool,
    /// `l1_idx -> decoded L2 entries` for valid entries; loaded only for a
    /// deep audit, the one reader.
    l2: HashMap<usize, Vec<u64>>,
}

/// The view of the layer in `dev`, or `None` when its header, geometry or
/// L1 table cannot be read.
fn build_view(dev: &dyn BlockDev, deep: bool) -> Option<View> {
    let raw = parse_header(dev).ok()?;
    let geom = Geom::new(raw.cluster_bits, raw.size).ok()?;
    if raw.l1_size as u64 != geom.l1_entries() {
        return None;
    }
    let cs = geom.cluster_size();
    let file_end = geom.align_up(dev.len());
    let mut l2 = HashMap::new();
    let mut l2_raw = vec![0u8; cs as usize];
    let l1_len = u64::from(raw.l1_size) * 8;
    read_in_pieces(dev, raw.l1_table_offset, l1_len, |start, piece| {
        if !deep {
            return;
        }
        for (i, e) in piece.chunks_exact(8).enumerate() {
            let off = be_u64(e);
            if off == 0 || off % cs != 0 || off.checked_add(cs).is_none_or(|end| end > file_end) {
                continue;
            }
            if dev.read_at(&mut l2_raw, off).is_ok() {
                let l1_idx = (start / 8) as usize + i;
                l2.insert(l1_idx, l2_raw.chunks_exact(8).map(be_u64).collect());
            }
        }
    })
    .ok()?;
    Some(View {
        geom,
        is_cache: raw.cache.is_some(),
        l2,
    })
}

/// Resolve a guest read starting at layer `idx`, falling through unmapped
/// clusters to lower layers; past the base everything reads as zeroes.
fn read_guest(layers: &[Layer], devs: &[SharedDev], idx: usize, off: u64, buf: &mut [u8]) {
    if buf.is_empty() {
        return;
    }
    let Some(layer) = layers.get(idx) else {
        buf.fill(0);
        return;
    };
    match layer {
        Layer::Raw => {
            buf.fill(0);
            let _ = devs[idx].read_at_zero_pad(buf, off);
        }
        Layer::Qcow(view) => {
            let cs = view.geom.cluster_size();
            let mut pos = 0usize;
            let mut o = off;
            while pos < buf.len() {
                let in_c = o % cs;
                let n = ((cs - in_c) as usize).min(buf.len() - pos);
                let l1_idx = (o / view.geom.l2_coverage()) as usize;
                let l2_idx = ((o >> view.geom.cluster_bits) % view.geom.l2_entries()) as usize;
                let doff = view
                    .l2
                    .get(&l1_idx)
                    .and_then(|t| t.get(l2_idx))
                    .copied()
                    .filter(|&d| d != 0);
                match doff {
                    Some(d) => {
                        buf[pos..pos + n].fill(0);
                        let _ = devs[idx].read_at_zero_pad(&mut buf[pos..pos + n], d + in_c);
                    }
                    None => read_guest(layers, devs, idx + 1, o, &mut buf[pos..pos + n]),
                }
                pos += n;
                o += n as u64;
            }
        }
    }
}

/// Cap on reported divergent clusters per cache layer (the first few
/// pinpoint the damage; thousands would drown the report).
const MAX_DIVERGENCE_REPORTS: usize = 8;

/// Audit a backing chain, ordered **top → base**. The base may be a raw
/// device (no container format); every other layer must parse as an image.
///
/// Checks, in order:
/// 1. per-layer structure via [`audit_image`];
/// 2. acyclicity — the same device appearing twice, or a chain deeper than
///    [`MAX_CHAIN_DEPTH`], means the backing graph loops (Algorithm 1 walks
///    it recursively and would never terminate);
/// 3. virtual-size equality — §4.3: a cache/CoW image's size "has to be the
///    same as the base image's";
/// 4. cluster-size compatibility between adjacent layers (cluster sizes are
///    powers of two, so one must divide the other; a corrupt header can
///    still break this);
/// 5. with `deep`, the §3.1 immutability invariant: every mapped cluster of
///    every *cache* layer must be byte-identical to the same guest range
///    resolved through the layers below it — a cache only ever holds data
///    copied verbatim from its base.
pub fn audit_chain(layers_in: &[SharedDev], deep: bool) -> ChainReport {
    let mut rep = ChainReport::default();
    if layers_in.is_empty() {
        return rep;
    }
    if layers_in.len() > MAX_CHAIN_DEPTH {
        rep.violations.push(
            Violation::error(
                ViolationKind::ChainCycle,
                format!(
                    "chain depth {} exceeds the maximum of {MAX_CHAIN_DEPTH} (backing loop?)",
                    layers_in.len()
                ),
            )
            .with_repair(RepairHint::RebuildChain),
        );
        return rep;
    }
    // A cycle through the backing graph necessarily revisits a device.
    for i in 0..layers_in.len() {
        for j in i + 1..layers_in.len() {
            if Arc::ptr_eq(&layers_in[i], &layers_in[j]) {
                rep.violations.push(
                    Violation::error(
                        ViolationKind::ChainCycle,
                        format!("layer {j} is the same device as layer {i} (backing cycle)"),
                    )
                    .with_repair(RepairHint::RebuildChain),
                );
            }
        }
    }
    if !rep.violations.is_empty() {
        return rep;
    }

    let last = layers_in.len() - 1;
    let mut layers: Vec<Layer> = Vec::with_capacity(layers_in.len());
    for (i, dev) in layers_in.iter().enumerate() {
        let mut magic = [0u8; 4];
        let looks_qcow = dev.read_at(&mut magic, 0).is_ok() && u32::from_be_bytes(magic) == MAGIC;
        if i == last && !looks_qcow {
            // A raw base image: legal, unauditable, the recursion floor.
            rep.layers.push(AuditReport::default());
            layers.push(Layer::Raw);
            continue;
        }
        // Every non-base layer must be a container (a raw device cannot
        // name a backing file); audit_image reports the bad magic itself.
        rep.layers.push(audit_image(dev.as_ref()));
        match build_view(dev.as_ref(), deep) {
            Some(v) => layers.push(Layer::Qcow(v)),
            None => layers.push(Layer::Raw),
        }
    }

    // Geometry compatibility between adjacent container layers.
    let views: Vec<Option<&View>> = layers
        .iter()
        .map(|l| match l {
            Layer::Qcow(v) => Some(v),
            Layer::Raw => None,
        })
        .collect();
    for i in 0..views.len().saturating_sub(1) {
        let (Some(a), Some(b)) = (views[i], views[i + 1]) else {
            continue;
        };
        if a.geom.size != b.geom.size {
            rep.violations.push(
                Violation::error(
                    ViolationKind::ChainSizeMismatch,
                    format!(
                        "layer {} virtual size {} != layer {} virtual size {} (§4.3 requires equality)",
                        i,
                        a.geom.size,
                        i + 1,
                        b.geom.size
                    ),
                )
                .with_repair(RepairHint::RebuildChain),
            );
        }
        let (ca, cb) = (a.geom.cluster_size(), b.geom.cluster_size());
        if ca % cb != 0 && cb % ca != 0 {
            rep.violations.push(
                Violation::error(
                    ViolationKind::ChainClusterIncompatible,
                    format!(
                        "layer {} cluster size {ca} and layer {} cluster size {cb} are mutually indivisible",
                        i,
                        i + 1
                    ),
                )
                .with_repair(RepairHint::RebuildChain),
            );
        }
    }

    if deep {
        for i in 0..layers.len() {
            let Layer::Qcow(view) = &layers[i] else {
                continue;
            };
            // Only cache layers are immutable w.r.t. their base; a CoW
            // layer's entire purpose is to diverge.
            if !view.is_cache || i + 1 >= layers.len() {
                continue;
            }
            if rep.layers[i].has_errors() {
                // Mapping tables are untrustworthy; structural violations
                // already condemn the layer.
                continue;
            }
            let cs = view.geom.cluster_size();
            let mut reported = 0usize;
            'walk: for (&l1_idx, table) in &view.l2 {
                for (l2_idx, &doff) in table.iter().enumerate() {
                    if doff == 0 {
                        continue;
                    }
                    let vba = view.geom.vba_of(l1_idx as u64, l2_idx as u64);
                    if vba >= view.geom.size {
                        continue;
                    }
                    let n = cs.min(view.geom.size - vba) as usize;
                    let mut cached = vec![0u8; n];
                    let _ = layers_in[i].read_at_zero_pad(&mut cached, doff);
                    let mut below = vec![0u8; n];
                    read_guest(&layers, layers_in, i + 1, vba, &mut below);
                    if cached != below {
                        rep.violations.push(
                            Violation::error(
                                ViolationKind::CacheBaseDivergence,
                                format!(
                                    "layer {i} cache cluster at {doff:#x} (guest {vba:#x}) differs from its base range (§3.1 immutability)"
                                ),
                            )
                            .with_repair(RepairHint::DiscardCache),
                        );
                        reported += 1;
                        if reported >= MAX_DIVERGENCE_REPORTS {
                            break 'walk;
                        }
                    }
                }
            }
        }
    }
    rep
}
