//! Regression probes for crafted containers: a header whose snapshot-table
//! extension counts snapshots is refused, by the driver and by the audit,
//! before anything is sized by that count; an empty one still opens; and a
//! container of huge apparent length audits with an overlap set
//! proportional to the clusters referenced.

use std::sync::Arc;

use vmi_audit::{audit_image, ViolationKind};
use vmi_blockdev::{be_u32, be_u64, BlockDev, BlockErrorKind, MemDev, SharedDev, SparseDev};
use vmi_obs::Obs;
use vmi_qcow::{check, open_chain, CreateOpts, MapResolver, QcowImage};

/// A closed plain image with 4 KiB of ones at 0, whose header carries a
/// snapshot-table extension (offset 0, len 0) counting `count` snapshots.
fn plain_image_with_snaptab(count: u32) -> SharedDev {
    let mem = Arc::new(MemDev::new());
    let img =
        QcowImage::create(mem.clone() as SharedDev, CreateOpts::plain(1 << 20), None).unwrap();
    img.write_at(&[1u8; 4096], 0).unwrap();
    img.close().unwrap();
    drop(img);
    let mut raw = mem.to_vec();
    assert_eq!(be_u32(&raw[48..]), 0, "end marker first");
    // type "SNAP", 16 payload bytes, then the end marker (all zeroes).
    let frame = [
        &0x534E_4150u32.to_be_bytes()[..],
        &16u32.to_be_bytes(),
        &[0u8; 12],
        &count.to_be_bytes(),
        &[0u8; 8],
    ]
    .concat();
    raw[48..48 + frame.len()].copy_from_slice(&frame);
    Arc::new(MemDev::from_vec(raw))
}

#[test]
fn counted_snapshot_table_is_refused_by_driver_and_audit() {
    let dev = plain_image_with_snaptab(u32::MAX);
    let err = QcowImage::open(dev.clone(), None, false).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Unsupported, "{err}");
    let ns = MapResolver::new();
    ns.insert("snap.img", dev.clone());
    let err = open_chain(&ns, "snap.img", false, &Obs::disabled()).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::Unsupported, "{err}");
    let rep = audit_image(dev.as_ref());
    let kinds: Vec<_> = rep.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, vec![ViolationKind::SnapshotTableInvalid]);
}

#[test]
fn empty_snapshot_table_opens_and_writes() {
    // The layout every plain and CoW image carried while the driver
    // still wrote the extension.
    let dev = plain_image_with_snaptab(0);
    let img = QcowImage::open(dev.clone(), None, false).unwrap();
    let mut buf = [0u8; 4096];
    img.read_at(&mut buf, 0).unwrap();
    assert_eq!(buf, [1u8; 4096]);
    // 700 B straddling the mapped first cluster and the unmapped second.
    let cs = img.geometry().cluster_size();
    img.write_at(&[2u8; 700], cs - 300).unwrap();
    let mut back = [0u8; 700];
    img.read_at(&mut back, cs - 300).unwrap();
    assert_eq!(back, [2u8; 700]);
    let rep = check(&img).unwrap();
    assert!(rep.is_clean(), "{:?}", rep.errors);
    img.close().unwrap();
    drop(img);
    let rep = audit_image(dev.as_ref());
    assert!(rep.is_clean(), "{:?}", rep.violations);
}

#[test]
fn sparse_terabyte_container_audits_by_its_references() {
    // A 1 TiB apparent length with two data entries aliasing its last
    // cluster: the far overlap is found without walking the extent.
    let dev = Arc::new(SparseDev::new());
    let img =
        QcowImage::create(dev.clone() as SharedDev, CreateOpts::plain(1 << 20), None).unwrap();
    img.write_at(&[1u8; 8192], 0).unwrap();
    img.close().unwrap();
    drop(img);
    let tib = 1u64 << 40;
    dev.set_len(tib).unwrap();
    let mut fixed = [0u8; 48];
    dev.read_at(&mut fixed, 0).unwrap();
    let mut e = [0u8; 8];
    dev.read_at(&mut e, be_u64(&fixed[32..])).unwrap();
    let l2_off = be_u64(&e);
    let cs = 1u64 << be_u32(&fixed[20..]);
    for idx in 0..2 {
        dev.write_at(&(tib - cs).to_be_bytes(), l2_off + idx * 8)
            .unwrap();
    }
    let rep = audit_image(dev.as_ref());
    let kinds: Vec<_> = rep.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, vec![ViolationKind::OverlappingClusters]);
    assert!(
        rep.violations[0].detail.starts_with("L2[0][1]"),
        "{:?}",
        rep.violations
    );
}
