//! Regression probes for the snapshot-table pointer and for containers of
//! huge apparent length: the audit flags what is wrong without panicking,
//! and its overlap set stays proportional to the clusters referenced.

use std::sync::Arc;

use vmi_audit::{audit_image, ViolationKind};
use vmi_blockdev::{be_u32, be_u64, BlockDev, MemDev, SharedDev, SparseDev};
use vmi_qcow::{CreateOpts, QcowImage};

/// Offset of the snapshot-table extension payload (offset u64, len u32,
/// count u32) in a container's header.
fn snaptab_payload(raw: &[u8]) -> usize {
    let mut off = 48usize;
    loop {
        let ty = be_u32(&raw[off..]);
        let len = be_u32(&raw[off + 4..]) as usize;
        assert_ne!(ty, 0, "plain images carry a snapshot-table extension");
        if ty == 0x534E_4150 {
            return off + 8;
        }
        off += 8 + len.next_multiple_of(8);
    }
}

/// A closed plain image with some data, and its bytes.
fn plain_image_bytes() -> Vec<u8> {
    let mem = Arc::new(MemDev::new());
    let img =
        QcowImage::create(mem.clone() as SharedDev, CreateOpts::plain(1 << 20), None).unwrap();
    img.write_at(&[1u8; 4096], 0).unwrap();
    img.close().unwrap();
    mem.to_vec()
}

fn with_snaptab(off: u64, len: u32) -> MemDev {
    let mut raw = plain_image_bytes();
    let p = snaptab_payload(&raw);
    raw[p..p + 8].copy_from_slice(&off.to_be_bytes());
    raw[p + 8..p + 12].copy_from_slice(&len.to_be_bytes());
    MemDev::from_vec(raw)
}

#[test]
fn snapshot_pointer_near_u64_max_is_flagged_not_overflowed() {
    let rep = audit_image(&with_snaptab(u64::MAX - 100, 4096));
    let kinds: Vec<_> = rep.violations.iter().map(|v| v.kind).collect();
    assert_eq!(kinds, vec![ViolationKind::SnapshotTableInvalid]);
    assert_eq!(
        rep.violations[0].detail,
        format!(
            "snapshot table at {:#x}+4096 is misaligned or out of bounds",
            u64::MAX - 100
        )
    );
}

#[test]
fn snapshot_table_running_past_the_end_is_flagged() {
    // Aligned, starting inside the container, 4 GiB long: out of bounds,
    // and only its in-bounds clusters take part in the overlap check.
    let rep = audit_image(&with_snaptab(1 << 16, u32::MAX));
    let kinds: Vec<_> = rep.violations.iter().map(|v| v.kind).collect();
    assert!(
        kinds.contains(&ViolationKind::SnapshotTableInvalid),
        "{kinds:?}"
    );
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
