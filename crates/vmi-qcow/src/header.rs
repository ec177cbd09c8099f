//! On-device image header and header extensions.
//!
//! The layout mirrors QCOW2's (§4.1): a fixed header at offset 0 followed by
//! a sequence of framed header extensions. The paper's contribution adds a
//! *cache extension* carrying "two more fields … these new 8-byte fields
//! define the quota and the current size of the cache" (§4.3), implemented
//! "as an extension to the QCowHeader … to ensure backward compatibility
//! with normal QCOW2 images".
//!
//! All integers are big-endian, as in QCOW2.
//!
//! The driver supports no internal snapshots: the paper's chain is
//! `Base ← Cache ← CoW`, and a guest's state lives in its CoW layer. A
//! header whose snapshot-table extension counts any snapshot is refused
//! with [`vmi_blockdev::BlockErrorKind::Unsupported`]; an empty one (as
//! written into plain and CoW images by earlier versions) is accepted and
//! ignored.

use bytes::{Buf, BufMut};
use vmi_blockdev::{be_u32, BlockDev, BlockError, Result};

use crate::layout::Geometry;

/// Image magic: `"QFI\xfb"`, same as QCOW2.
pub const MAGIC: u32 = 0x5146_49fb;

/// Format version understood by this driver.
pub const VERSION: u32 = 3;

/// Byte length of the fixed header portion.
pub const FIXED_HEADER_LEN: u32 = 48;

/// Extension type id of the end-of-extensions marker.
pub const EXT_END: u32 = 0;

/// Extension type id of the VMI-cache extension (quota + used size).
pub const EXT_CACHE: u32 = 0xCAC8_E001;

/// Extension type id for an embedded backing-format hint (parity with
/// QCOW2's backing format extension; informational).
pub const EXT_BACKING_FORMAT: u32 = 0xE279_2ACA;

/// Extension type id of the snapshot-table pointer (`offset u64, len u32,
/// count u32`). Never written; decoded only to refuse a nonzero count.
pub const EXT_SNAPTAB: u32 = 0x534E_4150; // "SNAP"

/// Maximum length of a backing-file name we accept.
pub const MAX_BACKING_NAME: usize = 1023;

/// The cache extension payload: the two 8-byte fields of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheExt {
    /// Maximum bytes the cache image may occupy in its container
    /// (data clusters + metadata). 0 is never stored (a zero quota means
    /// "not a cache" and the extension is omitted).
    pub quota: u64,
    /// Bytes currently used, "written back to the image file" on close.
    pub used: u64,
}

/// Parsed image header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Format version (currently always [`VERSION`]).
    pub version: u32,
    /// log2 of cluster size.
    pub cluster_bits: u32,
    /// Virtual disk size in bytes. For a cache or CoW image this "has to be
    /// the same as the base image's" (§4.3).
    pub size: u64,
    /// Offset of the L1 table in the container.
    pub l1_table_offset: u64,
    /// Number of L1 entries.
    pub l1_size: u32,
    /// Backing file name, if this image recurses to one.
    pub backing_file: Option<String>,
    /// The VMI-cache extension, present iff this image is a cache.
    pub cache: Option<CacheExt>,
}

impl Header {
    /// Geometry implied by this header.
    pub fn geometry(&self) -> Result<Geometry> {
        Geometry::new(self.cluster_bits, self.size)
    }

    /// `true` iff the image carries the cache extension.
    pub fn is_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Serialize into a buffer laid out exactly as stored at offset 0.
    ///
    /// Layout:
    /// ```text
    /// 0  u32 magic            16 u32 backing_name_len
    /// 4  u32 version          20 u32 cluster_bits
    /// 8  u64 backing_name_off 24 u64 size
    ///                         32 u64 l1_table_offset
    ///                         40 u32 l1_size
    ///                         44 u32 header_length
    /// 48.. extensions, then the backing file name (if any)
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut ext = Vec::new();
        if let Some(c) = &self.cache {
            put_ext(&mut ext, EXT_CACHE, &{
                let mut p = Vec::with_capacity(16);
                p.put_u64(c.quota);
                p.put_u64(c.used);
                p
            });
        }
        put_ext(&mut ext, EXT_END, &[]);

        let name = self.backing_file.as_deref().unwrap_or("");
        let backing_off = if name.is_empty() {
            0
        } else {
            FIXED_HEADER_LEN as u64 + ext.len() as u64
        };

        let mut out = Vec::with_capacity(FIXED_HEADER_LEN as usize + ext.len() + name.len());
        out.put_u32(MAGIC);
        out.put_u32(self.version);
        out.put_u64(backing_off);
        out.put_u32(name.len() as u32);
        out.put_u32(self.cluster_bits);
        out.put_u64(self.size);
        out.put_u64(self.l1_table_offset);
        out.put_u32(self.l1_size);
        out.put_u32(FIXED_HEADER_LEN);
        debug_assert_eq!(out.len(), FIXED_HEADER_LEN as usize);
        out.extend_from_slice(&ext);
        out.extend_from_slice(name.as_bytes());
        out
    }

    /// Parse a header from the first bytes of a container device.
    pub fn decode(dev: &dyn BlockDev) -> Result<Header> {
        let mut fixed = [0u8; FIXED_HEADER_LEN as usize];
        dev.read_at(&mut fixed, 0)
            .map_err(|e| BlockError::corrupt(format!("short header read: {e}")))?;
        let mut b = &fixed[..];
        let magic = b.get_u32();
        if magic != MAGIC {
            return Err(BlockError::corrupt(format!("bad magic {magic:#010x}")));
        }
        let version = b.get_u32();
        if version != VERSION {
            return Err(BlockError::unsupported(format!(
                "unsupported version {version}"
            )));
        }
        let backing_off = b.get_u64();
        let backing_len = b.get_u32() as usize;
        let cluster_bits = b.get_u32();
        let size = b.get_u64();
        let l1_table_offset = b.get_u64();
        let l1_size = b.get_u32();
        let header_length = b.get_u32();
        if header_length != FIXED_HEADER_LEN {
            return Err(BlockError::unsupported(format!(
                "unexpected header length {header_length}"
            )));
        }
        if backing_len > MAX_BACKING_NAME {
            return Err(BlockError::corrupt(format!(
                "backing name too long: {backing_len}"
            )));
        }

        // Walk extensions.
        let mut cache = None;
        let mut pos = FIXED_HEADER_LEN as u64;
        loop {
            let mut frame = [0u8; 8];
            dev.read_at(&mut frame, pos)
                .map_err(|_| BlockError::corrupt("truncated extension area"))?;
            let ty = be_u32(&frame[..4]);
            let len = be_u32(&frame[4..]) as usize;
            pos += 8;
            if ty == EXT_END {
                break;
            }
            if len > 4096 {
                return Err(BlockError::corrupt(format!(
                    "oversized extension {ty:#x}: {len}"
                )));
            }
            let mut payload = vec![0u8; len];
            dev.read_at(&mut payload, pos)
                .map_err(|_| BlockError::corrupt("truncated extension payload"))?;
            pos += padded(len) as u64;
            // Unknown extension types are skipped for forward compatibility,
            // exactly the QCOW2 rule that keeps cache images readable by
            // drivers that predate the extension.
            if ty == EXT_CACHE {
                if len != 16 {
                    return Err(BlockError::corrupt(format!(
                        "cache extension wrong size {len}"
                    )));
                }
                let mut p = &payload[..];
                let quota = p.get_u64();
                let used = p.get_u64();
                if quota == 0 {
                    return Err(BlockError::corrupt("cache extension with zero quota"));
                }
                cache = Some(CacheExt { quota, used });
            } else if ty == EXT_SNAPTAB {
                if len != 16 {
                    return Err(BlockError::corrupt(format!(
                        "snapshot extension wrong size {len}"
                    )));
                }
                // Only the trailing count matters: any snapshot is refused
                // before its table is looked at.
                let count = be_u32(&payload[12..]);
                if count != 0 {
                    return Err(BlockError::unsupported(format!(
                        "image carries {count} internal snapshot(s); none are supported"
                    )));
                }
            }
        }

        let backing_file = if backing_len == 0 {
            None
        } else {
            // Any in-bounds placement of the name is tolerated; just read it.
            let _ = pos;
            let mut name = vec![0u8; backing_len];
            dev.read_at(&mut name, backing_off)
                .map_err(|_| BlockError::corrupt("truncated backing name"))?;
            Some(
                String::from_utf8(name)
                    .map_err(|_| BlockError::corrupt("backing name not UTF-8"))?,
            )
        };

        Ok(Header {
            version,
            cluster_bits,
            size,
            l1_table_offset,
            l1_size,
            backing_file,
            cache,
        })
    }

    /// Rewrite only the cache extension's `used` field in place on `dev`.
    ///
    /// This is the §4.3 `close` behaviour: "the (new) current size of the
    /// cache is written back to the image file". The extension is found by
    /// walking the frames so unrelated bytes are untouched.
    pub fn update_cache_used(dev: &dyn BlockDev, used: u64) -> Result<()> {
        let mut pos = FIXED_HEADER_LEN as u64;
        loop {
            let mut frame = [0u8; 8];
            dev.read_at(&mut frame, pos)
                .map_err(|_| BlockError::corrupt("truncated extension area"))?;
            let ty = be_u32(&frame[..4]);
            let len = be_u32(&frame[4..]) as usize;
            pos += 8;
            match ty {
                EXT_END => return Err(BlockError::corrupt("no cache extension to update")),
                EXT_CACHE => {
                    dev.write_at(&used.to_be_bytes(), pos + 8)?;
                    return Ok(());
                }
                _ => pos += padded(len) as u64,
            }
        }
    }
}

fn padded(len: usize) -> usize {
    len.div_ceil(8) * 8
}

fn put_ext(out: &mut Vec<u8>, ty: u32, payload: &[u8]) {
    out.put_u32(ty);
    out.put_u32(payload.len() as u32);
    out.extend_from_slice(payload);
    out.resize(out.len() + (padded(payload.len()) - payload.len()), 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::{BlockErrorKind, MemDev};

    fn sample(cache: Option<CacheExt>, backing: Option<&str>) -> Header {
        Header {
            version: VERSION,
            cluster_bits: 16,
            size: 8 << 30,
            l1_table_offset: 65536,
            l1_size: 16,
            backing_file: backing.map(str::to_string),
            cache,
        }
    }

    /// A plain header encoded with a snapshot-table frame ahead of its end
    /// marker: `len` payload bytes, of which the last four of a 16-byte
    /// payload are the snapshot count.
    fn with_snaptab(len: usize, count: u32) -> MemDev {
        let mut payload = vec![0u8; len];
        if len == 16 {
            payload[12..].copy_from_slice(&count.to_be_bytes());
        }
        let mut frame = Vec::new();
        put_ext(&mut frame, EXT_SNAPTAB, &payload);
        let mut bytes = sample(None, None).encode();
        let at = FIXED_HEADER_LEN as usize;
        bytes.splice(at..at, frame);
        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        dev
    }

    fn roundtrip(h: &Header) -> Header {
        let dev = MemDev::new();
        dev.write_at(&h.encode(), 0).unwrap();
        Header::decode(&dev).unwrap()
    }

    #[test]
    fn empty_snapshot_table_decodes_to_the_same_header() {
        let back = Header::decode(&with_snaptab(16, 0)).unwrap();
        assert_eq!(back, sample(None, None));
    }

    #[test]
    fn snapshot_count_is_refused_as_unsupported() {
        let err = Header::decode(&with_snaptab(16, u32::MAX)).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::Unsupported, "{err}");
    }

    #[test]
    fn misframed_snapshot_extension_is_corrupt() {
        for len in [0, 8, 15, 17, 24] {
            let err = Header::decode(&with_snaptab(len, 0)).unwrap_err();
            assert_eq!(err.kind(), BlockErrorKind::Corrupt, "{len} B: {err}");
        }
    }

    #[test]
    fn plain_header_roundtrips() {
        let h = sample(None, None);
        assert_eq!(roundtrip(&h), h);
        assert!(!h.is_cache());
    }

    #[test]
    fn cache_header_roundtrips() {
        let h = sample(
            Some(CacheExt {
                quota: 200 << 20,
                used: 1234,
            }),
            Some("base.img"),
        );
        let back = roundtrip(&h);
        assert_eq!(back, h);
        assert!(back.is_cache());
        assert_eq!(back.backing_file.as_deref(), Some("base.img"));
    }

    #[test]
    fn bad_magic_rejected() {
        let dev = MemDev::new();
        dev.write_at(&[0u8; 64], 0).unwrap();
        let err = Header::decode(&dev).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn bad_version_rejected() {
        let h = sample(None, None);
        let mut bytes = h.encode();
        bytes[7] = 9; // version low byte
        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        assert!(Header::decode(&dev).is_err());
    }

    #[test]
    fn truncated_header_rejected() {
        let dev = MemDev::new();
        dev.write_at(&sample(None, None).encode()[..20], 0).unwrap();
        assert!(Header::decode(&dev).is_err());
    }

    #[test]
    fn zero_quota_extension_rejected() {
        let h = sample(Some(CacheExt { quota: 1, used: 0 }), None);
        let mut bytes = h.encode();
        // quota u64 sits right after the 8-byte ext frame at FIXED_HEADER_LEN.
        let qoff = FIXED_HEADER_LEN as usize + 8;
        bytes[qoff..qoff + 8].copy_from_slice(&0u64.to_be_bytes());
        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        assert!(Header::decode(&dev).is_err());
    }

    #[test]
    fn unknown_extension_skipped() {
        // Hand-build: fixed header + unknown ext + end marker.
        let h = sample(None, None);
        let mut bytes = h.encode();
        // Rebuild with an injected unknown extension before END by
        // re-encoding manually.
        let mut ext = Vec::new();
        put_ext(&mut ext, 0xDEAD_BEEF, &[1, 2, 3]); // padded to 8
        put_ext(&mut ext, EXT_END, &[]);
        bytes.truncate(FIXED_HEADER_LEN as usize);
        bytes.extend_from_slice(&ext);
        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        let back = Header::decode(&dev).unwrap();
        assert_eq!(back.cache, None);
        assert_eq!(back.size, h.size);
    }

    #[test]
    fn update_cache_used_in_place() {
        let h = sample(
            Some(CacheExt {
                quota: 100,
                used: 5,
            }),
            Some("b"),
        );
        let dev = MemDev::new();
        dev.write_at(&h.encode(), 0).unwrap();
        Header::update_cache_used(&dev, 77).unwrap();
        let back = Header::decode(&dev).unwrap();
        assert_eq!(back.cache.unwrap().used, 77);
        assert_eq!(back.cache.unwrap().quota, 100);
        assert_eq!(
            back.backing_file.as_deref(),
            Some("b"),
            "name survives in-place update"
        );
    }

    #[test]
    fn update_cache_used_fails_on_plain_image() {
        let dev = MemDev::new();
        dev.write_at(&sample(None, None).encode(), 0).unwrap();
        assert!(Header::update_cache_used(&dev, 1).is_err());
    }

    #[test]
    fn header_fits_in_min_cluster() {
        // The whole encoded header (with cache ext and a reasonable backing
        // name) must fit in one 512 B cluster, since the L1 table starts at
        // cluster 1.
        let h = Header {
            cluster_bits: 9,
            ..sample(
                Some(CacheExt {
                    quota: 200 << 20,
                    used: 0,
                }),
                Some("images/centos-6.3.img"),
            )
        };
        assert!(
            h.encode().len() <= 512,
            "encoded header must fit in a sector cluster"
        );
    }
}
