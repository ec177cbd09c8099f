//! Typed observability events and their JSONL wire form.
//!
//! Every event serializes to one flat JSON object per line:
//!
//! ```text
//! {"t":1234,"ev":"cache_hit","bytes":512}
//! ```
//!
//! `t` is the recorder's clock in nanoseconds (simulated time inside
//! experiments, wall time for live servers), `ev` names the variant in
//! snake_case, and the remaining keys are the variant's fields. The format
//! is hand-rolled (this crate is dependency-free) but round-trips exactly:
//! [`Event::to_json_line`] ∘ [`Event::parse_line`] is the identity, which
//! is what makes recorded streams replayable by tests and tools.

use std::fmt::Write as _;

/// One structured observability event.
///
/// Span events are sealed (`#[non_exhaustive]`): outside this crate they
/// come only from the guard of [`Obs::span`](crate::Obs::span) or
/// [`Obs::span_in`](crate::Obs::span_in), so every recorded start has its
/// end.
///
/// ```
/// use std::sync::Arc;
/// use vmi_obs::{Event, ManualClock, RecorderHandle};
///
/// let (handle, sink) = RecorderHandle::jsonl();
/// drop(handle.attach(Arc::new(ManualClock::new(7))).span("qcow.read", String::new));
/// let evs = sink.events();
/// assert!(matches!(&evs[0].1, Event::SpanStart { id: 1, parent: 0, .. }));
/// assert!(matches!(evs[1].1, Event::SpanEnd { id: 1, .. }));
/// ```
///
/// A hand-built span event does not compile:
///
/// ```compile_fail,E0639
/// let _ = vmi_obs::Event::SpanEnd { id: 1 };
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An image (or chain layer) was opened. `kind` is `base`, `cow`,
    /// `cache` or `raw`; `depth` is the layer's distance from the chain top.
    ChainOpen {
        /// Backing-file name or a caller-supplied label.
        image: String,
        /// Layer kind: `base` / `cow` / `cache` / `raw`.
        kind: String,
        /// Whether the layer was opened writable (the §4.3 flag dance).
        writable: bool,
        /// Distance from the top of the chain (top = 0).
        depth: u64,
    },
    /// Guest bytes served from a cache image's own clusters.
    CacheHit {
        /// Bytes served locally.
        bytes: u64,
    },
    /// Guest bytes a cache image had to fetch from its backing chain.
    CacheMiss {
        /// Bytes fetched from the backing chain.
        bytes: u64,
    },
    /// Bytes written into a cache by one copy-on-read cluster fill.
    CorFill {
        /// Bytes written into the cache layer.
        bytes: u64,
    },
    /// Copy-on-read hit the quota and latched off (emitted exactly once
    /// per latch transition).
    SpaceErrorLatched {
        /// Cache bytes used at the moment of the space error.
        used: u64,
        /// The configured quota.
        quota: u64,
    },
    /// A discard freed quota and re-armed copy-on-read.
    QuotaRearmed {
        /// Cache bytes used after the discard.
        used: u64,
        /// The configured quota.
        quota: u64,
    },
    /// A VM boot crossed a phase boundary.
    BootPhase {
        /// VM index within its experiment.
        vm: u64,
        /// Phase label (e.g. `issue`, `connect_back`).
        phase: String,
    },
    /// The cache-aware scheduler placed a VM.
    SchedPlace {
        /// VMI name requested.
        vmi: String,
        /// Chosen node id.
        node: u64,
        /// Whether the node held a warm cache for the VMI.
        cache_hit: bool,
    },
    /// A cache pool evicted an entry to admit a new cache.
    CacheEvict {
        /// Node owning the pool.
        node: u64,
        /// Evicted VMI name.
        vmi: String,
        /// Size of the evicted cache image.
        bytes: u64,
    },
    /// A transient block-device fault triggered one retry.
    RetryAttempt {
        /// Operation class: `read`, `write`, `set_len` or `flush`.
        op: String,
        /// 1-based retry number within the failing operation.
        attempt: u64,
        /// Backoff delay charged before this retry, ns.
        delay_ns: u64,
    },
    /// A cache image latched into degraded mode (emitted exactly once per
    /// latch transition): fills stop, the chain keeps serving from backing.
    CacheDegraded {
        /// What latched the cache: `fill_failed` or `read_failed`.
        reason: String,
        /// Cache bytes used at the moment of the transition.
        used: u64,
    },
    /// The invariant checker (`vmi-audit`) found one broken invariant.
    AuditViolation {
        /// Stable violation-kind label, e.g. `used_size_mismatch`.
        kind: String,
        /// `warning` (repairable) or `error` (structural).
        severity: String,
        /// Human-readable specifics (offsets, indices, expected vs. found).
        detail: String,
    },
    /// A cluster node failed (injected or detected).
    NodeFailed {
        /// Failed node id.
        node: u64,
    },
    /// A boot was re-placed on another node after its node failed.
    BootRescheduled {
        /// VM index within its experiment / cloud run.
        vm: u64,
        /// Node the boot was originally placed on.
        from_node: u64,
        /// Node the boot was retried on.
        to_node: u64,
    },
    /// The crash-recovery engine finished one image.
    RecoveryResult {
        /// Outcome: `clean`, `repaired` or `refetch`.
        verdict: String,
        /// Repairs applied across all recovery passes.
        repairs: u64,
        /// Cache bytes recorded as used after recovery (0 on refetch).
        used: u64,
        /// The configured quota (0 on refetch).
        quota: u64,
    },
    /// A failed cluster node came back after its seeded downtime, ran
    /// recovery over its local cache set and rejoined the fleet.
    NodeRestarted {
        /// Restarted node id.
        node: u64,
        /// Caches re-adopted warm (recovery said clean/repaired).
        readopted: u64,
        /// Caches dropped for a cold refetch (recovery said refetch).
        refetched: u64,
    },
    /// The extent-coalescing I/O engine served a multi-cluster run as one
    /// device operation (emitted only for runs of 2+ clusters — single
    /// clusters are indistinguishable from the scalar path).
    RunCoalesced {
        /// Operation class: `read`, `fill` or `write`.
        op: String,
        /// Clusters covered by the run.
        clusters: u64,
        /// Bytes moved by the single device op.
        bytes: u64,
    },
    /// A causal span opened. Spans form per-request trace trees: `id` is
    /// unique within one recorded stream (a per-`Obs` sequence, offset by a
    /// per-node base under the parallel runner), `parent` links to the
    /// enclosing span (`0` = root). The matching [`Event::SpanEnd`] carries
    /// the same `id`; the two timestamps bound the span's duration. Sealed
    /// (see [`Event`]): other crates match span events with `..`.
    #[non_exhaustive]
    SpanStart {
        /// Stream-unique span id (never 0).
        id: u64,
        /// Enclosing span id, or 0 for a root span.
        parent: u64,
        /// Span kind, dot-namespaced: `boot.vm`, `qcow.read`, `dev.write`,
        /// `l2.lookup`, `cor.fill`, `retry.backoff`, ...
        kind: String,
        /// Free-form `k=v` attributes (e.g. `layer=cache bytes=4096`).
        detail: String,
    },
    /// A causal span closed; `id` matches the opening [`Event::SpanStart`].
    #[non_exhaustive]
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
    },
}

impl Event {
    /// The snake_case wire name of this variant (the `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ChainOpen { .. } => "chain_open",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CorFill { .. } => "cor_fill",
            Event::SpaceErrorLatched { .. } => "space_error_latched",
            Event::QuotaRearmed { .. } => "quota_rearmed",
            Event::BootPhase { .. } => "boot_phase",
            Event::SchedPlace { .. } => "sched_place",
            Event::CacheEvict { .. } => "cache_evict",
            Event::RetryAttempt { .. } => "retry_attempt",
            Event::CacheDegraded { .. } => "cache_degraded",
            Event::AuditViolation { .. } => "audit_violation",
            Event::NodeFailed { .. } => "node_failed",
            Event::BootRescheduled { .. } => "boot_rescheduled",
            Event::RecoveryResult { .. } => "recovery_result",
            Event::NodeRestarted { .. } => "node_restarted",
            Event::RunCoalesced { .. } => "run_coalesced",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
        }
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self, t: u64) -> String {
        let mut s = String::with_capacity(64);
        let _ = write!(s, "{{\"t\":{t},\"ev\":\"{}\"", self.kind());
        match self {
            Event::ChainOpen {
                image,
                kind,
                writable,
                depth,
            } => {
                push_str_field(&mut s, "image", image);
                push_str_field(&mut s, "kind", kind);
                let _ = write!(s, ",\"writable\":{writable},\"depth\":{depth}");
            }
            Event::CacheHit { bytes } | Event::CacheMiss { bytes } | Event::CorFill { bytes } => {
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            Event::SpaceErrorLatched { used, quota } | Event::QuotaRearmed { used, quota } => {
                let _ = write!(s, ",\"used\":{used},\"quota\":{quota}");
            }
            Event::BootPhase { vm, phase } => {
                let _ = write!(s, ",\"vm\":{vm}");
                push_str_field(&mut s, "phase", phase);
            }
            Event::SchedPlace {
                vmi,
                node,
                cache_hit,
            } => {
                push_str_field(&mut s, "vmi", vmi);
                let _ = write!(s, ",\"node\":{node},\"cache_hit\":{cache_hit}");
            }
            Event::CacheEvict { node, vmi, bytes } => {
                let _ = write!(s, ",\"node\":{node}");
                push_str_field(&mut s, "vmi", vmi);
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            Event::RetryAttempt {
                op,
                attempt,
                delay_ns,
            } => {
                push_str_field(&mut s, "op", op);
                let _ = write!(s, ",\"attempt\":{attempt},\"delay_ns\":{delay_ns}");
            }
            Event::CacheDegraded { reason, used } => {
                push_str_field(&mut s, "reason", reason);
                let _ = write!(s, ",\"used\":{used}");
            }
            Event::AuditViolation {
                kind,
                severity,
                detail,
            } => {
                push_str_field(&mut s, "kind", kind);
                push_str_field(&mut s, "severity", severity);
                push_str_field(&mut s, "detail", detail);
            }
            Event::NodeFailed { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            Event::BootRescheduled {
                vm,
                from_node,
                to_node,
            } => {
                let _ = write!(
                    s,
                    ",\"vm\":{vm},\"from_node\":{from_node},\"to_node\":{to_node}"
                );
            }
            Event::RecoveryResult {
                verdict,
                repairs,
                used,
                quota,
            } => {
                push_str_field(&mut s, "verdict", verdict);
                let _ = write!(
                    s,
                    ",\"repairs\":{repairs},\"used\":{used},\"quota\":{quota}"
                );
            }
            Event::NodeRestarted {
                node,
                readopted,
                refetched,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"readopted\":{readopted},\"refetched\":{refetched}"
                );
            }
            Event::RunCoalesced {
                op,
                clusters,
                bytes,
            } => {
                push_str_field(&mut s, "op", op);
                let _ = write!(s, ",\"clusters\":{clusters},\"bytes\":{bytes}");
            }
            Event::SpanStart {
                id,
                parent,
                kind,
                detail,
            } => {
                let _ = write!(s, ",\"id\":{id},\"parent\":{parent}");
                push_str_field(&mut s, "kind", kind);
                push_str_field(&mut s, "detail", detail);
            }
            Event::SpanEnd { id } => {
                let _ = write!(s, ",\"id\":{id}");
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line back into `(t, Event)`.
    pub fn parse_line(line: &str) -> Result<(u64, Event), ParseError> {
        let fields = parse_flat_object(line)?;
        let t = fields.u64("t")?;
        let ev = match fields.str("ev")? {
            "chain_open" => Event::ChainOpen {
                image: fields.str("image")?.to_string(),
                kind: fields.str("kind")?.to_string(),
                writable: fields.bool("writable")?,
                depth: fields.u64("depth")?,
            },
            "cache_hit" => Event::CacheHit {
                bytes: fields.u64("bytes")?,
            },
            "cache_miss" => Event::CacheMiss {
                bytes: fields.u64("bytes")?,
            },
            "cor_fill" => Event::CorFill {
                bytes: fields.u64("bytes")?,
            },
            "space_error_latched" => Event::SpaceErrorLatched {
                used: fields.u64("used")?,
                quota: fields.u64("quota")?,
            },
            "quota_rearmed" => Event::QuotaRearmed {
                used: fields.u64("used")?,
                quota: fields.u64("quota")?,
            },
            "boot_phase" => Event::BootPhase {
                vm: fields.u64("vm")?,
                phase: fields.str("phase")?.to_string(),
            },
            "sched_place" => Event::SchedPlace {
                vmi: fields.str("vmi")?.to_string(),
                node: fields.u64("node")?,
                cache_hit: fields.bool("cache_hit")?,
            },
            "cache_evict" => Event::CacheEvict {
                node: fields.u64("node")?,
                vmi: fields.str("vmi")?.to_string(),
                bytes: fields.u64("bytes")?,
            },
            "retry_attempt" => Event::RetryAttempt {
                op: fields.str("op")?.to_string(),
                attempt: fields.u64("attempt")?,
                delay_ns: fields.u64("delay_ns")?,
            },
            "cache_degraded" => Event::CacheDegraded {
                reason: fields.str("reason")?.to_string(),
                used: fields.u64("used")?,
            },
            "audit_violation" => Event::AuditViolation {
                kind: fields.str("kind")?.to_string(),
                severity: fields.str("severity")?.to_string(),
                detail: fields.str("detail")?.to_string(),
            },
            "node_failed" => Event::NodeFailed {
                node: fields.u64("node")?,
            },
            "boot_rescheduled" => Event::BootRescheduled {
                vm: fields.u64("vm")?,
                from_node: fields.u64("from_node")?,
                to_node: fields.u64("to_node")?,
            },
            "recovery_result" => Event::RecoveryResult {
                verdict: fields.str("verdict")?.to_string(),
                repairs: fields.u64("repairs")?,
                used: fields.u64("used")?,
                quota: fields.u64("quota")?,
            },
            "node_restarted" => Event::NodeRestarted {
                node: fields.u64("node")?,
                readopted: fields.u64("readopted")?,
                refetched: fields.u64("refetched")?,
            },
            "run_coalesced" => Event::RunCoalesced {
                op: fields.str("op")?.to_string(),
                clusters: fields.u64("clusters")?,
                bytes: fields.u64("bytes")?,
            },
            "span_start" => Event::SpanStart {
                id: fields.u64("id")?,
                parent: fields.u64("parent")?,
                kind: fields.str("kind")?.to_string(),
                detail: fields.str("detail")?.to_string(),
            },
            "span_end" => Event::SpanEnd {
                id: fields.u64("id")?,
            },
            other => return Err(ParseError(format!("unknown event kind {other:?}"))),
        };
        Ok((t, ev))
    }
}

fn push_str_field(out: &mut String, key: &str, val: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    for c in val.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Malformed JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// A parsed flat JSON object (string / integer / bool values only).
struct Fields(Vec<(String, FieldVal)>);

enum FieldVal {
    Str(String),
    Num(u64),
    Bool(bool),
}

impl Fields {
    fn get(&self, key: &str) -> Result<&FieldVal, ParseError> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError(format!("missing field {key:?}")))
    }

    fn u64(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key)? {
            FieldVal::Num(n) => Ok(*n),
            _ => Err(ParseError(format!("field {key:?} is not a number"))),
        }
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key)? {
            FieldVal::Str(s) => Ok(s),
            _ => Err(ParseError(format!("field {key:?} is not a string"))),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key)? {
            FieldVal::Bool(b) => Ok(*b),
            _ => Err(ParseError(format!("field {key:?} is not a bool"))),
        }
    }
}

/// Parse `{"key":value,...}` with no whitespace inside, exactly the form
/// [`Event::to_json_line`] writes. Anything else is an error: a missing
/// `,`, a duplicate key, or text after the closing `}`.
fn parse_flat_object(line: &str) -> Result<Fields, ParseError> {
    let mut chars = line.trim().chars().peekable();
    let mut fields: Vec<(String, FieldVal)> = Vec::new();
    if chars.next() != Some('{') {
        return Err(ParseError("expected '{'".into()));
    }
    loop {
        let key = parse_string(&mut chars)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(ParseError(format!("duplicate key {key:?}")));
        }
        if chars.next() != Some(':') {
            return Err(ParseError(format!("missing ':' after key {key:?}")));
        }
        let val = if chars.peek() == Some(&'"') {
            FieldVal::Str(parse_string(&mut chars)?)
        } else {
            let mut word = String::new();
            while let Some(c) = chars.next_if(char::is_ascii_alphanumeric) {
                word.push(c);
            }
            match word.as_str() {
                "true" => FieldVal::Bool(true),
                "false" => FieldVal::Bool(false),
                num => FieldVal::Num(
                    num.parse()
                        .map_err(|_| ParseError(format!("bad value {num:?}")))?,
                ),
            }
        };
        fields.push((key, val));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(ParseError(format!("expected ',' or '}}', got {other:?}"))),
        }
    }
    if let Some(c) = chars.next() {
        return Err(ParseError(format!("text after '}}': {c:?}")));
    }
    Ok(Fields(fields))
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, ParseError> {
    if chars.next() != Some('"') {
        return Err(ParseError("expected '\"'".into()));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| ParseError(format!("bad \\u escape {hex:?}")))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| ParseError(format!("bad codepoint {code:#x}")))?,
                    );
                }
                other => return Err(ParseError(format!("bad escape {other:?}"))),
            },
            Some(c) => out.push(c),
            None => return Err(ParseError("unterminated string".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(t: u64, ev: Event) {
        let line = ev.to_json_line(t);
        let (t2, ev2) = Event::parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(t, t2, "{line}");
        assert_eq!(ev, ev2, "{line}");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(
            0,
            Event::ChainOpen {
                image: "base.img".into(),
                kind: "base".into(),
                writable: false,
                depth: 2,
            },
        );
        roundtrip(1, Event::CacheHit { bytes: 512 });
        roundtrip(2, Event::CacheMiss { bytes: 65536 });
        roundtrip(3, Event::CorFill { bytes: 512 });
        roundtrip(
            4,
            Event::SpaceErrorLatched {
                used: 9999,
                quota: 10000,
            },
        );
        roundtrip(
            5,
            Event::QuotaRearmed {
                used: 100,
                quota: 10000,
            },
        );
        roundtrip(
            6,
            Event::BootPhase {
                vm: 3,
                phase: "connect_back".into(),
            },
        );
        roundtrip(
            7,
            Event::SchedPlace {
                vmi: "vmi-1".into(),
                node: 4,
                cache_hit: true,
            },
        );
        roundtrip(
            u64::MAX,
            Event::CacheEvict {
                node: 0,
                vmi: "centos".into(),
                bytes: 1 << 30,
            },
        );
        roundtrip(
            8,
            Event::RetryAttempt {
                op: "read".into(),
                attempt: 2,
                delay_ns: 200_000,
            },
        );
        roundtrip(
            9,
            Event::CacheDegraded {
                reason: "fill_failed".into(),
                used: 4096,
            },
        );
        roundtrip(
            11,
            Event::AuditViolation {
                kind: "used_size_mismatch".into(),
                severity: "warning".into(),
                detail: "recorded used 1024 != referenced 2048 (torn flush)".into(),
            },
        );
        roundtrip(11, Event::NodeFailed { node: 3 });
        roundtrip(
            12,
            Event::BootRescheduled {
                vm: 7,
                from_node: 3,
                to_node: 1,
            },
        );
        roundtrip(
            12,
            Event::RecoveryResult {
                verdict: "repaired".into(),
                repairs: 3,
                used: 8192,
                quota: 1 << 20,
            },
        );
        roundtrip(
            13,
            Event::NodeRestarted {
                node: 2,
                readopted: 4,
                refetched: 1,
            },
        );
        roundtrip(
            13,
            Event::RunCoalesced {
                op: "read".into(),
                clusters: 2048,
                bytes: 1 << 20,
            },
        );
        roundtrip(
            14,
            Event::SpanStart {
                id: (3 << 40) + 17,
                parent: 3 << 40,
                kind: "qcow.read".into(),
                detail: "layer=cache bytes=4096".into(),
            },
        );
        roundtrip(15, Event::SpanEnd { id: (3 << 40) + 17 });
    }

    #[test]
    fn strings_with_special_chars_roundtrip() {
        roundtrip(
            9,
            Event::ChainOpen {
                image: "we\"ird\\name\n\u{1}".into(),
                kind: "cow".into(),
                writable: true,
                depth: 0,
            },
        );
    }

    #[test]
    fn wire_form_is_stable() {
        let line = Event::CacheHit { bytes: 512 }.to_json_line(1234);
        assert_eq!(line, r#"{"t":1234,"ev":"cache_hit","bytes":512}"#);
        let line = Event::SpanStart {
            id: 2,
            parent: 1,
            kind: "dev.read".into(),
            detail: "bytes=512".into(),
        }
        .to_json_line(7);
        assert_eq!(
            line,
            r#"{"t":7,"ev":"span_start","id":2,"parent":1,"kind":"dev.read","detail":"bytes=512"}"#
        );
        let line = Event::SpanEnd { id: 2 }.to_json_line(9);
        assert_eq!(line, r#"{"t":9,"ev":"span_end","id":2}"#);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse_line("not json").is_err());
        assert!(Event::parse_line(r#"{"t":1,"ev":"martian"}"#).is_err());
        assert!(
            Event::parse_line(r#"{"t":1,"ev":"cache_hit"}"#).is_err(),
            "missing bytes"
        );
        for line in [
            r#"{"t":1"ev":"cache_hit""bytes":5}"#,
            r#"{"t":1,"ev":"cache_hit","bytes":5} trailing"#,
            r#"{"t":1,"ev":"cache_hit","bytes":5,"bytes":6}"#,
            r#"{"t":1,"ev":"sched_place","vmi":"v","node":2,"cache_hit":true}"x":1}"#,
        ] {
            assert!(Event::parse_line(line).is_err(), "accepted {line}");
        }
    }

    /// Arbitrary span-kind strings: lowercase words.
    fn kind_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..26, 1..12)
            .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
    }

    /// Arbitrary attribute strings over a palette that stresses the JSONL
    /// escaper: quotes, backslashes, control characters, and unicode.
    fn detail_strategy() -> impl Strategy<Value = String> {
        const PALETTE: [char; 12] = [
            'a',
            'Z',
            '9',
            ' ',
            '=',
            '"',
            '\\',
            '\n',
            '\t',
            '\u{1}',
            'é',
            '\u{1F600}',
        ];
        proptest::collection::vec(0usize..PALETTE.len(), 0..24)
            .prop_map(|v| v.iter().map(|&i| PALETTE[i]).collect())
    }

    proptest! {
        /// Span events survive the JSONL wire format for arbitrary ids and
        /// attribute strings (quotes, backslashes, control chars, unicode).
        #[test]
        fn span_event_wire_roundtrip(
            t in any::<u64>(),
            id in 1..u64::MAX,
            parent in any::<u64>(),
            kind in kind_strategy(),
            detail in detail_strategy(),
        ) {
            let ev = Event::SpanStart {
                id,
                parent,
                kind: kind.clone(),
                detail: detail.clone(),
            };
            let line = ev.to_json_line(t);
            let (t2, ev2) = Event::parse_line(&line).unwrap();
            prop_assert_eq!(t2, t);
            prop_assert_eq!(ev2, ev);

            let end = Event::SpanEnd { id };
            let (t3, end2) = Event::parse_line(&end.to_json_line(t)).unwrap();
            prop_assert_eq!(t3, t);
            prop_assert_eq!(end2, end);
        }
    }
}
