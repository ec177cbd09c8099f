//! Regression probe: an L1 entry patched to a cluster-aligned offset near
//! `u64::MAX` must be *flagged* by the auditor, not overflow its
//! out-of-bounds arithmetic and panic in debug builds — neither in the
//! single-container walk nor in the chain audit's own view of the layer.

use std::sync::Arc;
use vmi_audit::{audit_chain, audit_image, ViolationKind};
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_qcow::{CreateOpts, QcowImage};

/// A plain image whose first allocated L1 entry points at the largest
/// cluster-aligned offset, so `l2_off + cs` overflows.
fn crafted() -> MemDev {
    let mem = Arc::new(MemDev::new());
    let dev: SharedDev = mem.clone();
    let img = QcowImage::create(dev.clone(), CreateOpts::plain(1 << 20), None).unwrap();
    img.write_at(&[1u8; 4096], 0).unwrap();
    img.close().unwrap();
    let mut raw = mem.to_vec();
    let l1_off = u64::from_be_bytes(raw[32..40].try_into().unwrap()) as usize;
    let l1_size = u32::from_be_bytes(raw[40..44].try_into().unwrap()) as usize;
    let cb = u32::from_be_bytes(raw[20..24].try_into().unwrap());
    let cs: u64 = 1 << cb;
    let evil = (u64::MAX / cs) * cs; // largest cluster-aligned u64
    let mut patched = false;
    for i in 0..l1_size {
        let o = l1_off + i * 8;
        if u64::from_be_bytes(raw[o..o + 8].try_into().unwrap()) != 0 {
            raw[o..o + 8].copy_from_slice(&evil.to_be_bytes());
            patched = true;
            break;
        }
    }
    assert!(patched);
    MemDev::from_vec(raw)
}

#[test]
fn crafted_huge_l1_entry_does_not_panic() {
    let rep = audit_image(&crafted());
    assert!(!rep.is_clean(), "evil entry must be flagged");
}

#[test]
fn crafted_huge_l1_entry_does_not_panic_the_chain_audit() {
    let dev: SharedDev = Arc::new(crafted());
    for deep in [false, true] {
        let rep = audit_chain(std::slice::from_ref(&dev), deep);
        let kinds: Vec<_> = rep.all_violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::L1EntryOutOfBounds], "deep {deep}");
    }
}
