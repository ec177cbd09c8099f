//! Cluster geometry: the paper's §4.1 virtual-block-address split.
//!
//! A 64-bit virtual block address (VBA) is split into three fields:
//!
//! ```text
//!   | n bits: L1 index | m bits: L2 index | d bits: offset in cluster |
//! ```
//!
//! with `d = cluster_bits`, `m = cluster_bits - 3` (an L2 table occupies one
//! cluster and each entry is 8 bytes), and `n = 64 - d - m`. For the default
//! 64 KiB cluster (16 bits — the paper's prose says 18 because it describes
//! a 256 KiB variant; the arithmetic is identical) this gives the familiar
//! two-level page-table shape.

use vmi_blockdev::{be_u64, BlockError, Result};

/// Minimum cluster size: one 512-byte sector. The paper reduces the *cache*
/// image's cluster size to this value to kill cold-cache read amplification
/// (§5.1, Fig. 9).
pub const MIN_CLUSTER_BITS: u32 = 9;

/// Maximum cluster size: 2 MiB, as in QEMU.
pub const MAX_CLUSTER_BITS: u32 = 21;

/// Default cluster size: 64 KiB, QCOW2's default (§2).
pub const DEFAULT_CLUSTER_BITS: u32 = 16;

/// Derived address-split geometry for an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// log2 of the cluster size — the paper's `d`.
    pub cluster_bits: u32,
    /// Virtual disk size in bytes.
    pub virtual_size: u64,
}

impl Geometry {
    /// Validate and build a geometry.
    pub fn new(cluster_bits: u32, virtual_size: u64) -> Result<Self> {
        if !(MIN_CLUSTER_BITS..=MAX_CLUSTER_BITS).contains(&cluster_bits) {
            return Err(BlockError::unsupported(format!(
                "cluster_bits {cluster_bits} outside [{MIN_CLUSTER_BITS}, {MAX_CLUSTER_BITS}]"
            )));
        }
        if virtual_size == 0 {
            return Err(BlockError::unsupported("zero-sized image"));
        }
        // The L1 index must fit in the remaining bits.
        let g = Self {
            cluster_bits,
            virtual_size,
        };
        let max_vba = virtual_size - 1;
        if g.l1_index(max_vba) as u64 >= (1u64 << g.n_bits()) {
            return Err(BlockError::unsupported(
                "virtual size too large for cluster size",
            ));
        }
        Ok(g)
    }

    /// Cluster size in bytes (`1 << d`).
    #[inline]
    pub fn cluster_size(&self) -> u64 {
        1 << self.cluster_bits
    }

    /// The paper's `d`: offset-in-cluster bits.
    #[inline]
    pub fn d_bits(&self) -> u32 {
        self.cluster_bits
    }

    /// The paper's `m`: L2-index bits (`cluster_bits - 3`).
    #[inline]
    pub fn m_bits(&self) -> u32 {
        self.cluster_bits - 3
    }

    /// The paper's `n`: L1-index bits (`64 - d - m`).
    #[inline]
    pub fn n_bits(&self) -> u32 {
        64 - self.d_bits() - self.m_bits()
    }

    /// Entries per L2 table (one cluster of 8-byte entries).
    #[inline]
    pub fn l2_entries(&self) -> u64 {
        1 << self.m_bits()
    }

    /// Bytes of guest data covered by one fully-populated L2 table.
    #[inline]
    pub fn l2_coverage(&self) -> u64 {
        self.l2_entries() << self.cluster_bits
    }

    /// Number of L1 entries needed for the virtual size.
    #[inline]
    pub fn l1_entries(&self) -> u64 {
        self.virtual_size.div_ceil(self.l2_coverage())
    }

    /// Bytes occupied by the L1 table (entries × 8, rounded up to clusters).
    #[inline]
    pub fn l1_table_bytes(&self) -> u64 {
        let raw = self.l1_entries() * 8;
        raw.div_ceil(self.cluster_size()) * self.cluster_size()
    }

    /// L1 index of a VBA (the high `n` bits' low part).
    #[inline]
    pub fn l1_index(&self, vba: u64) -> usize {
        (vba >> (self.d_bits() + self.m_bits())) as usize
    }

    /// L2 index of a VBA (the middle `m` bits).
    #[inline]
    pub fn l2_index(&self, vba: u64) -> usize {
        ((vba >> self.d_bits()) & (self.l2_entries() - 1)) as usize
    }

    /// Offset of a VBA within its cluster (the low `d` bits).
    #[inline]
    pub fn in_cluster(&self, vba: u64) -> u64 {
        vba & (self.cluster_size() - 1)
    }

    /// The VBA of the start of the cluster containing `vba`.
    #[inline]
    pub fn cluster_start(&self, vba: u64) -> u64 {
        vba & !(self.cluster_size() - 1)
    }

    /// Round `len` starting at `vba` up to whole-cluster coverage:
    /// the aligned range `[start, end)` of clusters touched by `[vba, vba+len)`.
    ///
    /// This is exactly the *read-amplification* rule of the cold cache: a
    /// fill "need[s] to fetch more data from the base image to meet the
    /// cluster granularity" (§5.1). Clipped to the virtual size.
    pub fn cluster_span(&self, vba: u64, len: u64) -> (u64, u64) {
        let start = self.cluster_start(vba);
        let end_unaligned = vba + len;
        let end = self
            .cluster_start(end_unaligned + self.cluster_size() - 1)
            .min(self.virtual_size.div_ceil(self.cluster_size()) * self.cluster_size());
        (start, end.max(start))
    }

    /// Iterate the cluster-aligned segments of `[off, off+len)`: yields
    /// `(vba, in_cluster_offset, segment_len)` per touched cluster.
    pub fn segments(&self, off: u64, len: usize) -> SegmentIter {
        SegmentIter {
            geom: *self,
            pos: off,
            end: off + len as u64,
        }
    }

    /// Round a file offset up to the next cluster boundary.
    #[inline]
    pub fn align_up(&self, off: u64) -> u64 {
        off.div_ceil(self.cluster_size()) * self.cluster_size()
    }

    /// The bounds check of every guest request: `off + len`, or the
    /// out-of-bounds error when the range overflows `u64` or passes the
    /// virtual size.
    pub(crate) fn check_range(&self, off: u64, len: u64) -> Result<u64> {
        match off.checked_add(len) {
            Some(end) if end <= self.virtual_size => Ok(end),
            _ => Err(BlockError::out_of_bounds(
                off,
                len as usize,
                self.virtual_size,
            )),
        }
    }
}

/// Big-endian on-disk encoding of a mapping table.
pub(crate) fn encode_entries(entries: &[u64]) -> Vec<u8> {
    entries.iter().flat_map(|e| e.to_be_bytes()).collect()
}

/// Decode a big-endian on-disk mapping table.
pub(crate) fn decode_entries(raw: &[u8]) -> Vec<u64> {
    raw.chunks_exact(8).map(be_u64).collect()
}

/// Decode a piece of a big-endian on-disk mapping table onto the end of
/// `entries`.
pub(crate) fn decode_entries_into(raw: &[u8], entries: &mut Vec<u64>) {
    entries.extend(raw.chunks_exact(8).map(be_u64));
}

/// Iterator over per-cluster segments of a guest I/O request.
#[derive(Debug, Clone)]
pub struct SegmentIter {
    geom: Geometry,
    pos: u64,
    end: u64,
}

/// One per-cluster piece of a guest request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Guest address where the segment starts.
    pub vba: u64,
    /// Offset of the segment within its cluster.
    pub in_cluster: u64,
    /// Segment length (never crosses a cluster boundary).
    pub len: usize,
}

impl Iterator for SegmentIter {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.pos >= self.end {
            return None;
        }
        let in_cluster = self.geom.in_cluster(self.pos);
        let room = self.geom.cluster_size() - in_cluster;
        let len = room.min(self.end - self.pos) as usize;
        let seg = Segment {
            vba: self.pos,
            in_cluster,
            len,
        };
        self.pos += len as u64;
        Some(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_split() {
        // 64 KiB clusters: d=16, m=13, n=35.
        let g = Geometry::new(16, 8 << 30).unwrap();
        assert_eq!(g.d_bits(), 16);
        assert_eq!(g.m_bits(), 13);
        assert_eq!(g.n_bits(), 35);
        assert_eq!(g.l2_entries(), 8192);
        assert_eq!(g.l2_coverage(), 512 << 20); // 8192 * 64 KiB
        assert_eq!(g.l1_entries(), 16); // 8 GiB / 512 MiB
    }

    #[test]
    fn paper_example_256k_cluster() {
        // The paper's §4.1 numeric example: cluster of 18 bits →
        // d=18, m=15, n=31.
        let g = Geometry::new(18, 1 << 30).unwrap();
        assert_eq!(g.d_bits(), 18);
        assert_eq!(g.m_bits(), 15);
        assert_eq!(g.n_bits(), 31);
    }

    #[test]
    fn sector_cluster_geometry() {
        // 512 B clusters (the cache's cluster size): d=9, m=6, n=49.
        let g = Geometry::new(9, 2 << 30).unwrap();
        assert_eq!(g.m_bits(), 6);
        assert_eq!(g.l2_entries(), 64);
        assert_eq!(g.l2_coverage(), 32 << 10);
        // 2 GiB / 32 KiB = 65536 L1 entries -> 512 KiB L1 table.
        assert_eq!(g.l1_entries(), 65536);
        assert_eq!(g.l1_table_bytes(), 512 << 10);
    }

    #[test]
    fn index_arithmetic_roundtrip() {
        let g = Geometry::new(12, 1 << 24).unwrap(); // 4 KiB clusters
        let vba = 0x0123_4567u64 % (1 << 24);
        let rebuilt = ((g.l1_index(vba) as u64) << (g.d_bits() + g.m_bits()))
            | ((g.l2_index(vba) as u64) << g.d_bits())
            | g.in_cluster(vba);
        assert_eq!(rebuilt, vba);
    }

    #[test]
    fn paper_l2_overhead_arithmetic() {
        // §5.1: "For a cache quota of 200 MB, only 3.1 MB is necessary for
        // L2-tables" at 512 B clusters. One L2 table (512 B) maps 64
        // clusters = 32 KiB, so 200 MB of data needs 200 MB / 32 KiB = 6400
        // tables = 3.125 MiB.
        let g = Geometry::new(9, 8 << 30).unwrap();
        let data = 200u64 << 20;
        let l2_tables = data / g.l2_coverage();
        let l2_bytes = l2_tables * g.cluster_size();
        assert_eq!(l2_tables, 6400);
        assert!((l2_bytes as f64 / (1 << 20) as f64 - 3.125).abs() < 0.01);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Geometry::new(8, 1 << 20).is_err());
        assert!(Geometry::new(22, 1 << 20).is_err());
        assert!(Geometry::new(12, 0).is_err());
    }

    #[test]
    fn cluster_span_rounds_to_cluster_granularity() {
        let g = Geometry::new(16, 1 << 30).unwrap(); // 64 KiB
                                                     // A 4 KiB read in the middle of a cluster spans the whole cluster.
        let (s, e) = g.cluster_span(70_000, 4096);
        assert_eq!(s, 65536);
        assert_eq!(e, 131072);
        // With 512 B clusters the same read spans only ~4.5 KiB.
        let g2 = Geometry::new(9, 1 << 30).unwrap();
        let (s2, e2) = g2.cluster_span(70_000, 4096);
        assert_eq!(s2, 69_632);
        assert_eq!(e2, 74_240);
        assert!(e2 - s2 < (e - s) / 10, "512B span must be far smaller");
    }

    #[test]
    fn cluster_span_clips_to_virtual_size() {
        let g = Geometry::new(9, 1000).unwrap(); // virtual size not cluster-multiple
        let (s, e) = g.cluster_span(900, 200);
        assert_eq!(s, 512);
        assert_eq!(e, 1024); // ceil(1000/512)*512
    }

    #[test]
    fn segments_cover_request_exactly() {
        let g = Geometry::new(9, 1 << 20).unwrap();
        let segs: Vec<_> = g.segments(500, 1040).collect();
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 1040);
        assert_eq!(
            segs[0],
            Segment {
                vba: 500,
                in_cluster: 500,
                len: 12
            }
        );
        assert!(segs.iter().all(|s| s.in_cluster + s.len as u64 <= 512));
        // Contiguity.
        for w in segs.windows(2) {
            assert_eq!(w[0].vba + w[0].len as u64, w[1].vba);
        }
    }

    #[test]
    fn segments_empty_request() {
        let g = Geometry::new(9, 1 << 20).unwrap();
        assert_eq!(g.segments(100, 0).count(), 0);
    }
}
