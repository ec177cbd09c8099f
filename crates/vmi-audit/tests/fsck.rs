//! Parser-level fsck tests over hand-built containers.
//!
//! These images are assembled byte by byte — no `vmi-qcow` involved — so the
//! checker is exercised against the *format specification* rather than
//! against whatever the driver happens to write. Driver-produced images are
//! covered by the integration suite in `tests/`.

use std::sync::Arc;

use vmi_audit::{
    audit_chain, audit_image, audit_image_visit, probe_backing, AuditOpts, RepairHint, Severity,
    ViolationKind,
};
use vmi_blockdev::{BlockDev, MemDev, SharedDev};

const CS: u64 = 512; // cluster_bits = 9
const SIZE: u64 = 32 << 10; // exactly one L2 table of coverage (64 entries)

fn put32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_be_bytes());
}
fn put64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_be_bytes());
}

/// Build a single-L2 cache image: header cluster 0, L1 at 512, L2 at 1024,
/// data clusters as given by `entries` (l2_idx -> container offset).
struct Builder {
    quota: u64,
    used: u64,
    cache: bool,
    backing: Option<String>,
    size: u64,
    entries: Vec<(usize, u64)>,
}

impl Builder {
    fn cache() -> Self {
        Builder {
            quota: 16 << 10,
            used: 0,
            cache: true,
            backing: None,
            size: SIZE,
            entries: Vec::new(),
        }
    }

    fn plain() -> Self {
        Builder {
            quota: 0,
            used: 0,
            cache: false,
            backing: None,
            size: SIZE,
            entries: Vec::new(),
        }
    }

    fn map(mut self, l2_idx: usize, off: u64) -> Self {
        self.entries.push((l2_idx, off));
        self
    }

    /// `used` consistent with the §4.3 accounting for the mapped entries.
    fn consistent_used(&self) -> u64 {
        let l2_tables = u64::from(!self.entries.is_empty());
        CS + CS + (l2_tables + self.entries.len() as u64) * CS
    }

    fn build(&self) -> SharedDev {
        let mut bytes = Vec::new();
        put32(&mut bytes, 0x5146_49fb); // magic
        put32(&mut bytes, 3); // version
        let name = self.backing.clone().unwrap_or_default();
        let ext_len = if self.cache { 24 + 8 } else { 8 };
        put64(&mut bytes, if name.is_empty() { 0 } else { 48 + ext_len }); // backing_off
        put32(&mut bytes, name.len() as u32);
        put32(&mut bytes, 9); // cluster_bits
        put64(&mut bytes, self.size);
        put64(&mut bytes, CS); // l1_table_offset
        put32(&mut bytes, 1); // l1_size
        put32(&mut bytes, 48); // header_length
        if self.cache {
            put32(&mut bytes, 0xCAC8_E001);
            put32(&mut bytes, 16);
            put64(&mut bytes, self.quota);
            put64(
                &mut bytes,
                if self.used == 0 {
                    self.consistent_used()
                } else {
                    self.used
                },
            );
        }
        put32(&mut bytes, 0); // EXT_END
        put32(&mut bytes, 0);
        bytes.extend_from_slice(name.as_bytes());

        let dev = MemDev::new();
        dev.write_at(&bytes, 0).unwrap();
        if !self.entries.is_empty() {
            // L1[0] -> L2 table at 1024.
            dev.write_at(&1024u64.to_be_bytes(), CS).unwrap();
            let mut l2 = vec![0u8; CS as usize];
            let mut max_off = 1024 + CS;
            for &(idx, off) in &self.entries {
                l2[idx * 8..idx * 8 + 8].copy_from_slice(&off.to_be_bytes());
                // Deliberately-out-of-bounds test offsets must stay out of
                // bounds (and must not balloon the in-memory container).
                if off + CS <= (1 << 20) {
                    max_off = max_off.max(off + CS);
                }
            }
            dev.write_at(&l2, 1024).unwrap();
            // Make sure the container extends over every data cluster.
            if dev.len() < max_off {
                dev.set_len(max_off).unwrap();
            }
        } else {
            dev.write_at(&[0u8; 512], CS).unwrap(); // empty L1
        }
        Arc::new(dev)
    }
}

fn kinds(report: &vmi_audit::AuditReport) -> Vec<ViolationKind> {
    report.violations.iter().map(|v| v.kind).collect()
}

#[test]
fn clean_cache_image_audits_clean() {
    let dev = Builder::cache().map(0, 1536).map(1, 2048).build();
    let rep = audit_image(dev.as_ref());
    assert!(rep.is_clean(), "{:?}", rep.violations);
    assert!(rep.is_cache);
    assert_eq!(rep.data_clusters, 2);
    assert_eq!(rep.l2_tables, 1);
    assert_eq!(rep.recomputed_used, 512 + 512 + 3 * 512);
}

#[test]
fn clean_plain_image_audits_clean() {
    let dev = Builder::plain().map(0, 1536).build();
    let rep = audit_image(dev.as_ref());
    assert!(rep.is_clean(), "{:?}", rep.violations);
    assert!(!rep.is_cache);
    assert_eq!(rep.quota, 0);
}

#[test]
fn torn_used_size_is_a_repairable_warning() {
    let mut b = Builder::cache().map(0, 1536);
    b.used = 640; // stale pre-boot value
    let dev = b.build();
    let rep = audit_image(dev.as_ref());
    assert_eq!(kinds(&rep), vec![ViolationKind::UsedSizeMismatch]);
    let v = &rep.violations[0];
    assert_eq!(v.severity, Severity::Warning);
    assert_eq!(v.repair, RepairHint::RewriteUsedSize(rep.recomputed_used));
    assert_eq!(rep.used_repair(), Some(rep.recomputed_used));
    assert!(!rep.has_errors());
}

#[test]
fn expected_used_override_suppresses_the_torn_warning() {
    // Paranoid mode: the on-disk field is stale mid-session by design; the
    // driver passes its in-memory counter instead.
    let mut b = Builder::cache().map(0, 1536);
    b.used = 640;
    let dev = b.build();
    let truth = Builder::cache().map(0, 1536).consistent_used();
    let rep = audit_image_visit(
        dev.as_ref(),
        &AuditOpts {
            expected_used: Some(truth),
            ..Default::default()
        },
        &vmi_obs::Obs::disabled(),
        &mut (),
    );
    assert!(rep.is_clean(), "{:?}", rep.violations);
}

#[test]
fn quota_exceeded_is_structural() {
    let mut b = Builder::cache().map(0, 1536).map(1, 2048);
    b.quota = 1024; // quota below even the metadata footprint
    b.used = 1024;
    let dev = b.build();
    let rep = audit_image(dev.as_ref());
    assert!(
        kinds(&rep).contains(&ViolationKind::QuotaExceeded),
        "{:?}",
        rep.violations
    );
    assert!(rep.has_errors());
    assert_eq!(rep.violations[0].repair, RepairHint::DiscardCache);
}

#[test]
fn overlapping_data_clusters_detected() {
    // Two L2 entries pointing at the same container cluster.
    let dev = Builder::cache().map(0, 1536).map(1, 1536).build();
    let rep = audit_image(dev.as_ref());
    assert!(
        kinds(&rep).contains(&ViolationKind::OverlappingClusters),
        "{:?}",
        rep.violations
    );
}

#[test]
fn data_cluster_aliasing_metadata_detected() {
    // An L2 entry pointing back into the L2 table itself.
    let dev = Builder::cache().map(0, 1024).build();
    let rep = audit_image(dev.as_ref());
    assert!(
        kinds(&rep).contains(&ViolationKind::OverlappingClusters),
        "{:?}",
        rep.violations
    );
}

#[test]
fn unaligned_and_out_of_bounds_entries_detected() {
    let dev = Builder::cache().map(0, 1537).map(1, 1 << 40).build();
    let rep = audit_image(dev.as_ref());
    let ks = kinds(&rep);
    assert!(ks.contains(&ViolationKind::L2EntryUnaligned), "{ks:?}");
    assert!(ks.contains(&ViolationKind::L2EntryOutOfBounds), "{ks:?}");
}

#[test]
fn bad_magic_detected() {
    let dev = Builder::cache().map(0, 1536).build();
    dev.write_at(&[0u8; 4], 0).unwrap();
    let rep = audit_image(dev.as_ref());
    assert_eq!(kinds(&rep), vec![ViolationKind::BadMagic]);
    assert!(rep.violations[0].detail.contains("header"));
}

#[test]
fn zero_quota_detected() {
    let mut b = Builder::cache().map(0, 1536);
    b.quota = 0;
    b.used = 1; // avoid the builder's auto-consistent fill
    let dev = b.build();
    // Patch quota to zero directly (builder refuses zero): quota sits right
    // after the 8-byte ext frame at offset 48.
    dev.write_at(&0u64.to_be_bytes(), 56).unwrap();
    let rep = audit_image(dev.as_ref());
    assert_eq!(kinds(&rep), vec![ViolationKind::ZeroQuota]);
}

#[test]
fn truncated_l1_detected() {
    let dev = Builder::cache().build();
    dev.set_len(100).unwrap(); // chop the container before the L1 table
    let rep = audit_image(dev.as_ref());
    assert_eq!(kinds(&rep), vec![ViolationKind::TruncatedL1]);
}

#[test]
fn mapping_beyond_virtual_size_detected() {
    // Shrink the virtual size so l1_size=1 still matches, but entry 1 maps
    // a guest address past the end.
    let mut b = Builder::cache().map(0, 1536).map(1, 2048);
    b.size = 513; // one cluster + 1 byte; l2_idx 1 maps vba 512..1024 (legal), idx 4 is beyond
    let dev = Builder {
        entries: vec![(0, 1536), (4, 2048)],
        ..b
    }
    .build();
    let rep = audit_image(dev.as_ref());
    assert!(
        kinds(&rep).contains(&ViolationKind::L2EntryOutOfBounds),
        "{:?}",
        rep.violations
    );
}

#[test]
fn never_errors_on_garbage() {
    // Arbitrary garbage must produce violations, not panics.
    let dev = MemDev::new();
    dev.write_at(&[0xA5u8; 4096], 0).unwrap();
    let rep = audit_image(&dev);
    assert!(!rep.is_clean());
    let empty = MemDev::new();
    let rep = audit_image(&empty);
    assert_eq!(kinds(&rep), vec![ViolationKind::UnreadableHeader]);
}

#[test]
fn probe_backing_reads_the_name() {
    let mut b = Builder::cache().map(0, 1536);
    b.backing = Some("base.img".into());
    let dev = b.build();
    assert_eq!(probe_backing(dev.as_ref()).as_deref(), Some("base.img"));
    let plain = Builder::plain().build();
    assert_eq!(probe_backing(plain.as_ref()), None);
}

#[test]
fn audit_with_obs_counts_and_emits() {
    use vmi_obs::{met, ManualClock, RecorderHandle};
    let mut b = Builder::cache().map(0, 1536);
    b.used = 640;
    let dev = b.build();
    let (rec, sink) = RecorderHandle::jsonl();
    let obs = rec.attach(Arc::new(ManualClock::new(0)));
    let rep = audit_image_visit(dev.as_ref(), &AuditOpts::default(), &obs, &mut ());
    assert_eq!(rep.violations.len(), 1);
    assert_eq!(obs.counter_value(met::AUDIT_RUNS), 1);
    assert_eq!(obs.counter_value(met::AUDIT_VIOLATIONS), 1);
    let lines = sink.lines();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"audit_violation\"") && l.contains("used_size_mismatch")),
        "{lines:?}"
    );
}

// ---- chain-level checks ----

#[test]
fn chain_cycle_via_shared_device_detected() {
    let a = Builder::cache().map(0, 1536).build();
    let b = Builder::plain().build();
    let rep = audit_chain(&[a.clone(), b, a.clone()], false);
    assert!(
        rep.violations
            .iter()
            .any(|v| v.kind == ViolationKind::ChainCycle),
        "{:?}",
        rep.violations
    );
    assert_eq!(rep.violations[0].repair, RepairHint::RebuildChain);
}

#[test]
fn overlong_chain_flagged_as_cycle() {
    let layers: Vec<SharedDev> = (0..20).map(|_| Builder::plain().build()).collect();
    let rep = audit_chain(&layers, false);
    assert!(rep
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::ChainCycle));
}

#[test]
fn chain_size_mismatch_detected() {
    let top = Builder::cache().map(0, 1536).build();
    let mut bot = Builder::plain();
    bot.size = SIZE * 2;
    // l1_size must still match the bigger geometry: 2 L2 tables needed.
    let bot_dev = {
        let dev = bot.build();
        // Patch l1_size to 2 so the layer itself stays structurally clean.
        dev.write_at(&2u32.to_be_bytes(), 40).unwrap();
        let mut l1 = vec![0u8; 16];
        l1[..8].copy_from_slice(&0u64.to_be_bytes());
        dev.write_at(&l1, CS).unwrap();
        dev
    };
    let rep = audit_chain(&[top, bot_dev], false);
    assert!(
        rep.violations
            .iter()
            .any(|v| v.kind == ViolationKind::ChainSizeMismatch),
        "{:?}",
        rep.violations
    );
}

#[test]
fn clean_chain_over_raw_base_is_clean() {
    let base: SharedDev = Arc::new(MemDev::new());
    base.write_at(&[7u8; 4096], 0).unwrap();
    // Cache cluster 0 copied verbatim from the base.
    let cache = Builder::cache().map(0, 1536).build();
    cache.write_at(&[7u8; 512], 1536).unwrap();
    let rep = audit_chain(&[cache, base], true);
    assert!(rep.is_clean(), "{:?}", rep.all_violations());
}

#[test]
fn cache_base_divergence_detected_by_deep_check() {
    let base: SharedDev = Arc::new(MemDev::new());
    base.write_at(&[7u8; 4096], 0).unwrap();
    let cache = Builder::cache().map(0, 1536).build();
    cache.write_at(&[9u8; 512], 1536).unwrap(); // diverges from base
    let shallow = audit_chain(&[cache.clone(), base.clone()], false);
    assert!(
        shallow.is_clean(),
        "shallow pass must not read data clusters"
    );
    let deep = audit_chain(&[cache, base], true);
    assert!(
        deep.violations
            .iter()
            .any(|v| v.kind == ViolationKind::CacheBaseDivergence),
        "{:?}",
        deep.violations
    );
    assert_eq!(deep.violations[0].repair, RepairHint::DiscardCache);
}

#[test]
fn cow_layer_may_diverge_from_base() {
    // A *plain* (CoW) layer holding different bytes than the base is the
    // whole point of copy-on-write — the deep check must not flag it.
    let base: SharedDev = Arc::new(MemDev::new());
    base.write_at(&[7u8; 4096], 0).unwrap();
    let cow = Builder::plain().map(0, 1536).build();
    cow.write_at(&[9u8; 512], 1536).unwrap();
    let rep = audit_chain(&[cow, base], true);
    assert!(rep.is_clean(), "{:?}", rep.all_violations());
}

#[test]
fn divergence_resolves_through_middle_layers() {
    // cache -> cache -> raw base: the upper cache's cluster must match what
    // the *resolved* stack below says, which here comes from the middle
    // cache's mapped cluster, not the raw base.
    let base: SharedDev = Arc::new(MemDev::new());
    base.write_at(&[1u8; 4096], 0).unwrap();
    let mid = Builder::cache().map(0, 1536).build();
    mid.write_at(&[1u8; 512], 1536).unwrap(); // faithful copy of base
    let top = Builder::cache().map(0, 1536).build();
    top.write_at(&[1u8; 512], 1536).unwrap();
    let rep = audit_chain(&[top.clone(), mid.clone(), base.clone()], true);
    assert!(rep.is_clean(), "{:?}", rep.all_violations());
    // Now corrupt the middle copy: *its* divergence is detected, and the
    // top layer (which matches the resolved view through mid) now also
    // diverges from what mid serves.
    mid.write_at(&[2u8; 512], 1536).unwrap();
    let rep = audit_chain(&[top, mid, base], true);
    assert!(rep
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::CacheBaseDivergence));
}

#[test]
fn json_rendering_is_wellformed() {
    let dev = Builder::cache().map(0, 1537).build();
    let rep = audit_image(dev.as_ref());
    for v in &rep.violations {
        let j = v.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\""));
        assert!(!v.to_string().is_empty());
    }
}
