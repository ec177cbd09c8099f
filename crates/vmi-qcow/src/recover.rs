//! Crash-recovery engine: replay `vmi-audit` repair hints until the
//! container audits clean. The only path from a closed container to an
//! opened cache.
//!
//! The driver's write barriers (`QcowImage::barrier`) guarantee that any
//! crash prefix of a mutation sequence decomposes into exactly three
//! artifact classes:
//!
//! 1. **Leaked clusters** — data or table clusters written (or allocated)
//!    whose publishing entry never became durable. Invisible to readers;
//!    only the recomputed used-size disagrees with the recorded one.
//!    Repair: rewrite the used field ([`RepairHint::RewriteUsedSize`]).
//! 2. **Garbage table entries** — an L1/L2 entry torn or landed without its
//!    referent (only possible for pre-barrier images or reordering media).
//!    By the barrier argument such an entry was never flush-acknowledged,
//!    so zeroing it loses no acked data.
//!    Repair: [`RepairHint::ClearL1Entry`] / [`RepairHint::ClearL2Entry`].
//! 3. **Garbage header** — the crash hit image creation or the header
//!    cluster itself. Nothing can be trusted: verdict
//!    [`RecoveryVerdict::Refetch`], and the deploy layer fetches a cold
//!    copy from the storage node.
//!
//! Recovery loops audit → apply-hints → re-audit until the image is clean
//! (each pass strictly reduces the number of nonzero table entries or fixes
//! the used field, so the loop terminates). It operates on the **raw
//! container device before open** — [`QcowImage::open`] rejects invalid L1
//! entries outright, so repair must come first. Every run counts
//! [`met::RECOVERY_RUNS`] / [`met::RECOVERY_REPAIRS`] /
//! [`met::RECOVERY_REFETCHES`] and emits an [`Event::RecoveryResult`].

use std::sync::Arc;

use vmi_audit::{audit_image_visit, AuditOpts, RepairHint, TableVisitor, ViolationKind};
use vmi_blockdev::{be_u64, BlockDev, Result, SharedDev};
use vmi_obs::{met, Event, Obs};

use crate::header::Header;
use crate::image::QcowImage;
use crate::open::TableSeed;

/// Upper bound on audit→repair passes. Progress is monotone (every pass
/// zeroes at least one nonzero entry or rewrites the used field once), so
/// hitting the cap means the image is adversarial, not torn: refetch.
const MAX_PASSES: u32 = 64;

/// Outcome class of one recovery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryVerdict {
    /// Container was already consistent; nothing written.
    Clean,
    /// Container audits clean after `repairs` in-place fixes.
    Repaired {
        /// Individual repairs applied across all passes.
        repairs: u32,
    },
    /// Unrepairable damage; drop the container and fetch a cold copy.
    Refetch,
}

impl RecoveryVerdict {
    /// Wire label used in the `recovery_result` event.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryVerdict::Clean => "clean",
            RecoveryVerdict::Repaired { .. } => "repaired",
            RecoveryVerdict::Refetch => "refetch",
        }
    }

    /// Repairs applied (0 unless `Repaired`).
    pub fn repairs(self) -> u32 {
        match self {
            RecoveryVerdict::Repaired { repairs } => repairs,
            _ => 0,
        }
    }

    /// `true` unless the verdict demands a refetch.
    pub fn is_usable(self) -> bool {
        !matches!(self, RecoveryVerdict::Refetch)
    }
}

/// Result of [`recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Outcome class.
    pub verdict: RecoveryVerdict,
    /// Bytes referenced by header + tables + data clusters after recovery
    /// (0 when the container was too damaged to walk).
    pub used: u64,
    /// Quota recorded in the header (0 for non-cache containers or when
    /// unreadable).
    pub quota: u64,
    /// Audit→repair passes performed (1 for a clean image).
    pub passes: u32,
    /// Human-readable log of every repair applied, in order.
    pub repairs: Vec<String>,
    /// Violations left standing when the verdict is `Refetch` (empty
    /// otherwise — clean and repaired images audit clean).
    pub remaining: Vec<String>,
}

impl RecoveryReport {
    /// `true` unless the verdict demands a refetch.
    pub fn is_usable(&self) -> bool {
        self.verdict.is_usable()
    }

    /// One-line JSON object (hand-rolled, mirrors `Violation::to_json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"verdict\":\"{}\",\"repairs\":{},\"passes\":{},\"used\":{},\"quota\":{}",
            self.verdict.as_str(),
            self.verdict.repairs(),
            self.passes,
            self.used,
            self.quota
        );
        let join = |items: &[String]| {
            items
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(s, ",\"applied\":[{}]", join(&self.repairs));
        let _ = write!(s, ",\"remaining\":[{}]}}", join(&self.remaining));
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Violation kinds that condemn the whole container: if the header cannot
/// be trusted there is nothing to repair against.
fn is_header_level(kind: ViolationKind) -> bool {
    matches!(
        kind,
        ViolationKind::UnreadableHeader
            | ViolationKind::BadMagic
            | ViolationKind::BadVersion
            | ViolationKind::BadHeaderLength
            | ViolationKind::OversizedExtension
            | ViolationKind::MalformedExtension
            | ViolationKind::ZeroQuota
            | ViolationKind::BackingNameInvalid
    )
}

/// Run crash recovery on the container in `dev` (cache or plain image).
/// Read-only when the image is already consistent.
pub fn recover(dev: &SharedDev) -> RecoveryReport {
    recover_with_obs(dev, &Obs::disabled())
}

/// [`recover`] with an observability handle: counts recovery metrics and
/// emits a typed [`Event::RecoveryResult`].
pub fn recover_with_obs(dev: &SharedDev, obs: &Obs) -> RecoveryReport {
    recover_visiting(dev, obs, &mut ())
}

/// [`recover_with_obs`] that hands every audit pass's tables to `tables`.
/// The last pass is the clean one when the verdict is usable, and recovery
/// writes nothing after it.
fn recover_visiting(dev: &SharedDev, obs: &Obs, tables: &mut dyn TableVisitor) -> RecoveryReport {
    obs.count(met::RECOVERY_RUNS, 1);
    let report = recover_inner(dev, obs, tables);
    match report.verdict {
        RecoveryVerdict::Refetch => obs.count(met::RECOVERY_REFETCHES, 1),
        v => obs.count(met::RECOVERY_REPAIRS, u64::from(v.repairs())),
    }
    let (verdict, used, quota) = (report.verdict, report.used, report.quota);
    obs.emit(|| Event::RecoveryResult {
        verdict: verdict.as_str().to_string(),
        repairs: u64::from(verdict.repairs()),
        used,
        quota,
    });
    report
}

fn recover_inner(dev: &SharedDev, obs: &Obs, tables: &mut dyn TableVisitor) -> RecoveryReport {
    let mut applied: Vec<String> = Vec::new();
    let mut passes = 0u32;
    loop {
        passes += 1;
        let audit = audit_image_visit(
            dev.as_ref() as &dyn BlockDev,
            &AuditOpts::default(),
            obs,
            tables,
        );
        if audit.violations.iter().any(|v| is_header_level(v.kind)) || passes > MAX_PASSES {
            return refetch(audit, passes, applied);
        }
        if audit.is_clean() {
            return RecoveryReport {
                verdict: if applied.is_empty() {
                    RecoveryVerdict::Clean
                } else {
                    RecoveryVerdict::Repaired {
                        repairs: applied.len() as u32,
                    }
                },
                used: audit.recomputed_used,
                quota: audit.quota,
                passes,
                repairs: applied,
                remaining: Vec::new(),
            };
        }
        // Apply this pass's repairs. Entry clears first — they change the
        // referenced-cluster walk, so a used-size rewrite computed alongside
        // them would be stale; the next pass recomputes it.
        let header = match Header::decode(dev) {
            Ok(h) => h,
            Err(_) => return refetch(audit, passes, applied),
        };
        let mut cleared = 0usize;
        let mut unrepairable = false;
        for v in &audit.violations {
            match v.repair {
                RepairHint::ClearL1Entry { index } => {
                    let pos = header.l1_table_offset + index * 8;
                    if dev.write_at(&[0u8; 8], pos).is_err() {
                        return refetch(audit, passes, applied);
                    }
                    applied.push(format!("cleared L1[{index}]"));
                    cleared += 1;
                }
                RepairHint::ClearL2Entry { l1_index, l2_index } => {
                    let mut raw = [0u8; 8];
                    let l1_pos = header.l1_table_offset + l1_index * 8;
                    if dev.read_at(&mut raw, l1_pos).is_err() {
                        return refetch(audit, passes, applied);
                    }
                    let l2_off = be_u64(&raw);
                    if dev.write_at(&[0u8; 8], l2_off + l2_index * 8).is_err() {
                        return refetch(audit, passes, applied);
                    }
                    applied.push(format!("cleared L2[{l1_index}][{l2_index}]"));
                    cleared += 1;
                }
                RepairHint::RewriteUsedSize(_) => {} // second phase, below
                RepairHint::None | RepairHint::DiscardCache | RepairHint::RebuildChain => {
                    unrepairable = true;
                }
            }
        }
        if cleared == 0 {
            if unrepairable {
                return refetch(audit, passes, applied);
            }
            if let Some(recomputed) = audit.used_repair() {
                let wrote = Header::update_cache_used(dev.as_ref() as &dyn BlockDev, recomputed)
                    .and_then(|()| dev.flush()); // lint:allow(qcow-barrier)
                if wrote.is_err() {
                    return refetch(audit, passes, applied);
                }
                applied.push(format!("rewrote used-size to {recomputed}"));
                continue;
            }
            // Violations but no applicable hint at all.
            return refetch(audit, passes, applied);
        }
        let flushed = dev.flush(); // lint:allow(qcow-barrier)
        if flushed.is_err() {
            return refetch(audit, passes, applied);
        }
    }
}

fn refetch(audit: vmi_audit::AuditReport, passes: u32, applied: Vec<String>) -> RecoveryReport {
    RecoveryReport {
        verdict: RecoveryVerdict::Refetch,
        used: 0,
        quota: audit.quota,
        passes,
        repairs: applied,
        remaining: audit.violations.iter().map(|v| v.to_string()).collect(),
    }
}

/// Recover `dev` and, when the verdict allows it, open the cache image —
/// the warm-open path of every deployment and node restart.
///
/// Returns `Ok(None)` on a `Refetch` verdict — the caller deploys without
/// the cache (plain-QCOW2 fallback / cold refetch). A `Repaired` container
/// opens like a clean one.
///
/// The whole open is one table walk: the tables the clean audit pass read
/// seed the opened image's L1 and L2 table cache, so neither is read again.
pub fn open_cache_recovered(
    dev: SharedDev,
    backing: Option<SharedDev>,
    read_only: bool,
    obs: Obs,
) -> Result<Option<Arc<QcowImage>>> {
    let mut seed = TableSeed::default();
    let report = recover_visiting(&dev, &obs, &mut seed);
    if !report.is_usable() {
        return Ok(None);
    }
    QcowImage::open_seeded(dev, backing, read_only, obs, seed).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::CreateOpts;
    use std::sync::Arc;
    use vmi_blockdev::MemDev;

    const MB: u64 = 1 << 20;

    fn mem() -> SharedDev {
        Arc::new(MemDev::new())
    }

    /// A closed cache container with some copied-on-read data in it.
    fn warmed_cache_dev() -> (SharedDev, SharedDev) {
        let base_dev = mem();
        let base = QcowImage::create(base_dev.clone(), CreateOpts::plain(8 * MB), None).unwrap();
        base.write_at(&[7u8; 65536], 0).unwrap();
        base.close().unwrap();
        drop(base);
        let base = QcowImage::open(base_dev.clone(), None, true).unwrap();
        let cache_dev = mem();
        let cache = QcowImage::create(
            cache_dev.clone(),
            CreateOpts::cache(8 * MB, "base", 4 * MB),
            Some(base as SharedDev),
        )
        .unwrap();
        let mut buf = vec![0u8; 65536];
        cache.read_at(&mut buf, 0).unwrap();
        cache.close().unwrap();
        drop(cache);
        (cache_dev, base_dev)
    }

    #[test]
    fn clean_cache_recovers_clean() {
        let (cache_dev, _base) = warmed_cache_dev();
        let rep = recover(&cache_dev);
        assert_eq!(rep.verdict, RecoveryVerdict::Clean, "{rep:?}");
        assert_eq!(rep.passes, 1);
        assert!(rep.used > 0);
        assert_eq!(rep.quota, 4 * MB);
    }

    #[test]
    fn torn_used_field_is_repaired_in_one_extra_pass() {
        let (cache_dev, _base) = warmed_cache_dev();
        let truth = Header::decode(&cache_dev).unwrap().cache.unwrap().used;
        // Simulate the torn close: the data clusters landed but the header's
        // used field still holds the pre-boot value.
        Header::update_cache_used(&cache_dev, 1024).unwrap();
        let rep = recover(&cache_dev);
        assert_eq!(rep.verdict, RecoveryVerdict::Repaired { repairs: 1 });
        assert_eq!(rep.used, truth);
        assert_eq!(
            Header::decode(&cache_dev).unwrap().cache.unwrap().used,
            truth,
            "header rewritten in place"
        );
    }

    #[test]
    fn garbage_l1_entry_is_cleared_then_used_rewritten() {
        let (cache_dev, base_dev) = warmed_cache_dev();
        let header = Header::decode(&cache_dev).unwrap();
        // Land a torn L1 entry in an unused slot — unaligned nonsense, then
        // aligned but far past the end of the container: the crash artifact
        // of an L1 publish that never completed its epoch.
        let slot = u64::from(header.l1_size) - 1;
        for garbage in [0xdead_beefu64, 1 << 40] {
            cache_dev
                .write_at(&garbage.to_be_bytes(), header.l1_table_offset + slot * 8)
                .unwrap();
            let rep = recover(&cache_dev);
            assert!(
                matches!(rep.verdict, RecoveryVerdict::Repaired { .. }),
                "{rep:?}"
            );
            assert!(
                rep.repairs.iter().any(|r| r.contains("cleared L1")),
                "{rep:?}"
            );
        }
        // The recovered cache opens and still serves its warm data.
        let base = QcowImage::open(base_dev, None, true).unwrap();
        let img = open_cache_recovered(cache_dev, Some(base as SharedDev), false, Obs::disabled())
            .unwrap()
            .expect("repaired cache is usable");
        let mut buf = [0u8; 512];
        img.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [7u8; 512]);
    }

    #[test]
    fn garbage_l2_entry_is_cleared() {
        let (cache_dev, _base) = warmed_cache_dev();
        let header = Header::decode(&cache_dev).unwrap();
        // Find the first allocated L2 table and splat an unaligned entry
        // into one of its unused slots.
        let mut raw = [0u8; 8];
        let mut l2_off = 0;
        for i in 0..u64::from(header.l1_size) {
            cache_dev
                .read_at(&mut raw, header.l1_table_offset + i * 8)
                .unwrap();
            if be_u64(&raw) != 0 {
                l2_off = be_u64(&raw);
                break;
            }
        }
        assert_ne!(l2_off, 0, "warmed cache must have an L2 table");
        // Entry slots near the end of the table are unused by the 64 KiB
        // fill at vba 0.
        let cs = 1u64 << header.cluster_bits;
        let last_slot = cs / 8 - 1;
        cache_dev
            .write_at(&0x1357_9bdfu64.to_be_bytes(), l2_off + last_slot * 8)
            .unwrap();
        let rep = recover(&cache_dev);
        assert!(
            matches!(rep.verdict, RecoveryVerdict::Repaired { .. }),
            "{rep:?}"
        );
        assert!(
            rep.repairs.iter().any(|r| r.contains("cleared L2")),
            "{rep:?}"
        );
        // Idempotent: a second run is clean.
        assert_eq!(recover(&cache_dev).verdict, RecoveryVerdict::Clean);
    }

    #[test]
    fn smashed_magic_refetches() {
        let (cache_dev, _base) = warmed_cache_dev();
        cache_dev.write_at(&[0u8; 4], 0).unwrap();
        let rep = recover(&cache_dev);
        assert_eq!(rep.verdict, RecoveryVerdict::Refetch);
        assert!(!rep.remaining.is_empty());
        let opened = open_cache_recovered(cache_dev, None, false, Obs::disabled()).unwrap();
        assert!(opened.is_none(), "refetch verdict does not open");
    }

    #[test]
    fn plain_images_recover_too() {
        let dev = mem();
        let img = QcowImage::create(dev.clone(), CreateOpts::plain(MB), None).unwrap();
        img.write_at(&[3u8; 4096], 0).unwrap();
        img.close().unwrap();
        drop(img);
        assert_eq!(recover(&dev).verdict, RecoveryVerdict::Clean);
        // Splat a garbage L1 entry; plain images get entry clears as well.
        let header = Header::decode(&dev).unwrap();
        let slot = u64::from(header.l1_size) - 1;
        dev.write_at(&0x55u64.to_be_bytes(), header.l1_table_offset + slot * 8)
            .unwrap();
        let rep = recover(&dev);
        assert!(
            matches!(rep.verdict, RecoveryVerdict::Repaired { .. }),
            "{rep:?}"
        );
    }

    #[test]
    fn recovery_emits_events_and_metrics() {
        use vmi_obs::{ManualClock, RecorderHandle};
        let (cache_dev, _base) = warmed_cache_dev();
        Header::update_cache_used(&cache_dev, 777 * 512).unwrap();
        let (rec, sink) = RecorderHandle::jsonl();
        let obs = rec.attach(Arc::new(ManualClock::new(0)));
        let rep = recover_with_obs(&cache_dev, &obs);
        assert_eq!(rep.verdict, RecoveryVerdict::Repaired { repairs: 1 });
        assert_eq!(obs.counter_value(met::RECOVERY_RUNS), 1);
        assert_eq!(obs.counter_value(met::RECOVERY_REPAIRS), 1);
        let lines = sink.lines();
        assert!(
            lines.iter().any(
                |l| l.contains("\"recovery_result\"") && l.contains("\"verdict\":\"repaired\"")
            ),
            "{lines:?}"
        );
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let (cache_dev, _base) = warmed_cache_dev();
        let rep = recover(&cache_dev);
        let j = rep.to_json();
        assert!(j.starts_with("{\"verdict\":\"clean\""), "{j}");
        assert!(j.contains("\"applied\":[]"), "{j}");
    }
}
