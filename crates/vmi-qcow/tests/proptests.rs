//! Property tests for the image format: header round-trips, geometry
//! invariants, and data-race-free concurrent access.

use std::sync::Arc;

use proptest::prelude::*;
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_qcow::header::{EXT_SNAPTAB, FIXED_HEADER_LEN};
use vmi_qcow::{CacheExt, CreateOpts, Geometry, Header, QcowImage};

/// An encoded header with one more extension frame (`payload` is 8-byte
/// aligned) ahead of its own; a backing name moves back to make room.
fn with_frame(mut bytes: Vec<u8>, ty: u32, payload: &[u8]) -> Vec<u8> {
    let frame = [
        &ty.to_be_bytes()[..],
        &(payload.len() as u32).to_be_bytes(),
        payload,
    ]
    .concat();
    let name_off = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
    if name_off != 0 {
        bytes[8..16].copy_from_slice(&(name_off + frame.len() as u64).to_be_bytes());
    }
    let at = FIXED_HEADER_LEN as usize;
    bytes.splice(at..at, frame);
    bytes
}

proptest! {
    /// Every encodable header decodes back to itself.
    #[test]
    fn header_roundtrip(
        cluster_bits in 9u32..=21,
        size_mb in 1u64..4096,
        l1_size in 1u32..100_000,
        backing in proptest::option::of("[a-zA-Z0-9._/-]{1,64}"),
        cache in proptest::option::of((1u64..u64::MAX, 0u64..u64::MAX)),
        empty_snaptab in proptest::option::of((0u64..u64::MAX, 0u32..u32::MAX)),
    ) {
        let h = Header {
            version: 3,
            cluster_bits,
            size: size_mb << 20,
            l1_table_offset: 1 << cluster_bits,
            l1_size,
            backing_file: backing,
            cache: cache.map(|(quota, used)| CacheExt { quota, used }),
        };
        let mut bytes = h.encode();
        if let Some((offset, len)) = empty_snaptab {
            // An empty snapshot-table frame, as older images carry, changes
            // nothing.
            let payload = [&offset.to_be_bytes()[..], &len.to_be_bytes(), &[0; 4]].concat();
            bytes = with_frame(bytes, EXT_SNAPTAB, &payload);
        }
        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        let back = Header::decode(&dev).unwrap();
        prop_assert_eq!(back, h);
    }

    /// Random byte blobs never panic the decoder — they produce errors.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let dev = MemDev::from_vec(bytes);
        let _ = Header::decode(&dev); // must not panic
    }

    /// Geometry invariants: the n/m/d split always partitions 64 bits, and
    /// index arithmetic reconstructs every address.
    #[test]
    fn geometry_split_partitions_address(
        cluster_bits in 9u32..=21,
        size_kb in 64u64..(1 << 24),
        addr_frac in 0.0f64..1.0,
    ) {
        let size = size_kb << 10;
        let Ok(g) = Geometry::new(cluster_bits, size) else {
            return Ok(()); // oversized for cluster: rejection is fine
        };
        prop_assert_eq!(g.d_bits() + g.m_bits() + g.n_bits(), 64);
        let vba = ((size - 1) as f64 * addr_frac) as u64;
        let rebuilt = ((g.l1_index(vba) as u64) << (g.d_bits() + g.m_bits()))
            | ((g.l2_index(vba) as u64) << g.d_bits())
            | g.in_cluster(vba);
        prop_assert_eq!(rebuilt, vba);
        prop_assert!((g.l1_index(vba) as u64) < g.l1_entries());
    }

    /// Segments of any request tile it exactly without crossing clusters.
    #[test]
    fn segments_tile_requests(
        cluster_bits in 9u32..=16,
        off in 0u64..(1 << 20),
        len in 1usize..300_000,
    ) {
        let g = Geometry::new(cluster_bits, 4 << 20).unwrap();
        let mut expect = off;
        let mut total = 0usize;
        for seg in g.segments(off, len) {
            prop_assert_eq!(seg.vba, expect);
            prop_assert_eq!(seg.in_cluster, g.in_cluster(seg.vba));
            prop_assert!(seg.in_cluster + seg.len as u64 <= g.cluster_size());
            expect += seg.len as u64;
            total += seg.len;
        }
        prop_assert_eq!(total, len);
    }

    /// Sparse writes at random offsets read back correctly after reopen.
    #[test]
    fn persistence_roundtrip(
        writes in proptest::collection::vec((0u64..(4 << 20) - 4096, any::<u8>()), 1..20),
    ) {
        let dev: SharedDev = Arc::new(MemDev::new());
        {
            let img = QcowImage::create(dev.clone(), CreateOpts::plain(4 << 20), None).unwrap();
            for &(off, byte) in &writes {
                img.write_at(&[byte; 4096], off).unwrap();
            }
            img.close().unwrap();
        }
        let img = QcowImage::open(dev, None, true).unwrap();
        // Later writes win; replay forward over a reference model.
        let mut reference = std::collections::BTreeMap::new();
        for &(off, byte) in &writes {
            for i in 0..4096u64 {
                reference.insert(off + i, byte);
            }
        }
        for (&addr, &byte) in reference.iter().take(2000) {
            let mut b = [0u8; 1];
            img.read_at(&mut b, addr).unwrap();
            prop_assert_eq!(b[0], byte);
        }
    }
}

/// Concurrent readers on a shared warm cache image: data-race freedom and
/// correctness (the image is `Sync`; this exercises the lock discipline).
#[test]
fn concurrent_warm_readers_see_consistent_data() {
    let base_content: Vec<u8> = (0..(2usize << 20)).map(|i| (i % 239) as u8).collect();
    let base: SharedDev = Arc::new(MemDev::from_vec(base_content.clone()));
    let cache = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cache(2 << 20, "b", 8 << 20),
        Some(base),
    )
    .unwrap();
    // Warm it fully.
    let mut buf = vec![0u8; 1 << 20];
    cache.read_at(&mut buf, 0).unwrap();
    cache.read_at(&mut buf, 1 << 20).unwrap();

    std::thread::scope(|s| {
        for t in 0..4 {
            let cache = &cache;
            let content = &base_content;
            s.spawn(move || {
                let mut buf = vec![0u8; 8192];
                for i in 0..64u64 {
                    let off = ((i * 7919 + t * 131) % ((2 << 20) - 8192)) & !511;
                    cache.read_at(&mut buf, off).unwrap();
                    assert_eq!(&buf[..], &content[off as usize..off as usize + 8192]);
                }
            });
        }
    });
}

/// Concurrent cold readers racing to fill the same cache: every read must
/// return correct data and the final structure must check clean.
#[test]
fn concurrent_cold_readers_fill_safely() {
    let base_content: Vec<u8> = (0..(2usize << 20)).map(|i| (i % 241) as u8).collect();
    let base: SharedDev = Arc::new(MemDev::from_vec(base_content.clone()));
    let cache = QcowImage::create(
        Arc::new(MemDev::new()),
        CreateOpts::cache(2 << 20, "b", 8 << 20),
        Some(base),
    )
    .unwrap();
    std::thread::scope(|s| {
        for t in 0..4 {
            let cache = &cache;
            let content = &base_content;
            s.spawn(move || {
                let mut buf = vec![0u8; 4096];
                for i in 0..128u64 {
                    let off = ((i * 4096 + t * 1024) % ((2 << 20) - 4096)) & !511;
                    cache.read_at(&mut buf, off).unwrap();
                    assert_eq!(&buf[..], &content[off as usize..off as usize + 4096]);
                }
            });
        }
    });
    let rep = vmi_qcow::check(&cache).unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
}
