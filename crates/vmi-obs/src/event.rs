//! Typed observability events and their JSONL wire form.
//!
//! Every event serializes to one flat JSON object per line:
//!
//! ```text
//! {"t":<ns>,"ev":"<wire name>","<field>":<value>,...}
//! ```
//!
//! `t` is the recorder's clock in nanoseconds (simulated time inside
//! experiments, wall time for live servers), `ev` names the variant in
//! snake_case, and the remaining keys are the variant's fields: unsigned
//! integers, `true`/`false` or escaped strings (`wire_form_is_stable` in
//! the tests pins concrete lines). The format is hand-rolled (this crate is
//! dependency-free) but round-trips exactly: [`Event::to_json_line`] ∘
//! [`Event::parse_line`] is the identity, which is what makes recorded
//! streams replayable by tests and tools.
//!
//! Each kind is declared once, in the `events!` table below: its docs, its
//! variant, its wire name and its fields in wire order. The enum, `kind`,
//! the encoder and the parser are all generated from that table.

use std::fmt::Write as _;

/// Generates [`Event`], [`Event::kind`], [`Event::to_json_line`] and
/// [`Event::parse_line`] from one table of kinds. A kind's fields are
/// written in declaration order, each by its type's [`Wire`] impl.
macro_rules! events {
    (
        $(#[$enum_attr:meta])*
        pub enum Event {
            $(
                $(#[$attr:meta])*
                $variant:ident = $wire:literal {
                    $( $(#[$field_attr:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$enum_attr])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $(
                $(#[$attr])*
                $variant { $( $(#[$field_attr])* $field: $ty, )* },
            )*
        }

        impl Event {
            /// The snake_case wire name of this variant (the `ev` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $wire, )*
                }
            }

            /// Serialize as one JSONL line (no trailing newline).
            pub fn to_json_line(&self, t: u64) -> String {
                let mut s = String::with_capacity(64);
                let _ = write!(s, "{{\"t\":{t},\"ev\":\"{}\"", self.kind());
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( $field.put(&mut s, stringify!($field)); )*
                    } )*
                }
                s.push('}');
                s
            }

            /// Parse one JSONL line back into `(t, Event)`.
            pub fn parse_line(line: &str) -> Result<(u64, Event), ParseError> {
                let fields = parse_flat_object(line)?;
                let t = fields.take::<u64>("t")?;
                let ev = match fields.take::<String>("ev")?.as_str() {
                    $( $wire => Event::$variant {
                        $( $field: fields.take::<$ty>(stringify!($field))?, )*
                    }, )*
                    other => return Err(ParseError(format!("unknown event kind {other:?}"))),
                };
                Ok((t, ev))
            }
        }

        /// Every wire name in the table, in declaration order.
        #[cfg(test)]
        const WIRE_NAMES: &[&str] = &[$($wire),*];
    };
}

events! {
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
    pub enum Event {
        /// An image (or chain layer) was opened. `kind` is `base`, `cow`,
        /// `cache` or `raw`; `depth` is the layer's distance from the chain top.
        ChainOpen = "chain_open" {
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
        CacheHit = "cache_hit" {
            /// Bytes served locally.
            bytes: u64,
        },
        /// Guest bytes a cache image had to fetch from its backing chain.
        CacheMiss = "cache_miss" {
            /// Bytes fetched from the backing chain.
            bytes: u64,
        },
        /// Bytes written into a cache by one copy-on-read cluster fill.
        CorFill = "cor_fill" {
            /// Bytes written into the cache layer.
            bytes: u64,
        },
        /// Copy-on-read hit the quota and latched off (emitted exactly once
        /// per latch transition).
        SpaceErrorLatched = "space_error_latched" {
            /// Cache bytes used at the moment of the space error.
            used: u64,
            /// The configured quota.
            quota: u64,
        },
        /// A discard freed quota and re-armed copy-on-read.
        QuotaRearmed = "quota_rearmed" {
            /// Cache bytes used after the discard.
            used: u64,
            /// The configured quota.
            quota: u64,
        },
        /// The cache-aware scheduler placed a VM.
        SchedPlace = "sched_place" {
            /// VMI name requested.
            vmi: String,
            /// Chosen node id.
            node: u64,
            /// Whether the node held a warm cache for the VMI.
            cache_hit: bool,
        },
        /// A cache pool evicted an entry to admit a new cache.
        CacheEvict = "cache_evict" {
            /// Node owning the pool.
            node: u64,
            /// Evicted VMI name.
            vmi: String,
            /// Size of the evicted cache image.
            bytes: u64,
        },
        /// A cache image latched into degraded mode (emitted exactly once per
        /// latch transition): fills stop, the chain keeps serving from backing.
        CacheDegraded = "cache_degraded" {
            /// What latched the cache: `fill_failed` or `read_failed`.
            reason: String,
            /// Cache bytes used at the moment of the transition.
            used: u64,
        },
        /// The invariant checker (`vmi-audit`) found one broken invariant.
        AuditViolation = "audit_violation" {
            /// Stable violation-kind label, e.g. `used_size_mismatch`.
            kind: String,
            /// `warning` (repairable) or `error` (structural).
            severity: String,
            /// Human-readable specifics (offsets, indices, expected vs. found).
            detail: String,
        },
        /// A cluster node failed (injected or detected).
        NodeFailed = "node_failed" {
            /// Failed node id.
            node: u64,
        },
        /// A boot was re-placed on another node after its node failed.
        BootRescheduled = "boot_rescheduled" {
            /// VM index within its experiment / cloud run.
            vm: u64,
            /// Node the boot was originally placed on.
            from_node: u64,
            /// Node the boot was retried on.
            to_node: u64,
        },
        /// The crash-recovery engine finished one image.
        RecoveryResult = "recovery_result" {
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
        NodeRestarted = "node_restarted" {
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
        RunCoalesced = "run_coalesced" {
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
        SpanStart = "span_start" {
            /// Stream-unique span id (never 0).
            id: u64,
            /// Enclosing span id, or 0 for a root span.
            parent: u64,
            /// Span kind, dot-namespaced: `boot.vm`, `qcow.read`, `dev.write`,
            /// `l2.lookup`, `cor.fill`, `backing.fetch`, ...
            kind: String,
            /// Free-form `k=v` attributes (e.g. `layer=cache bytes=4096`).
            detail: String,
        },
        /// A causal span closed; `id` matches the opening [`Event::SpanStart`].
        #[non_exhaustive]
        SpanEnd = "span_end" {
            /// Id of the span being closed.
            id: u64,
        },
    }
}

/// A field type of the wire form: the three the event table uses.
trait Wire: Sized {
    /// What a mismatch error calls the expected type.
    const NAME: &'static str;
    /// Append `,"key":value`.
    fn put(&self, out: &mut String, key: &str);
    /// The value, if `val` holds this type.
    fn read(val: &FieldVal) -> Option<Self>;
}

impl Wire for u64 {
    const NAME: &'static str = "number";
    fn put(&self, out: &mut String, key: &str) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
    fn read(val: &FieldVal) -> Option<Self> {
        match val {
            FieldVal::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl Wire for bool {
    const NAME: &'static str = "bool";
    fn put(&self, out: &mut String, key: &str) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
    fn read(val: &FieldVal) -> Option<Self> {
        match val {
            FieldVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Wire for String {
    const NAME: &'static str = "string";
    fn put(&self, out: &mut String, key: &str) {
        push_str_field(out, key, self);
    }
    fn read(val: &FieldVal) -> Option<Self> {
        match val {
            FieldVal::Str(s) => Some(s.clone()),
            _ => None,
        }
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
    /// The value of `key` as a `T`; an error if it is missing or of
    /// another type.
    fn take<T: Wire>(&self, key: &str) -> Result<T, ParseError> {
        let val = self
            .0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| ParseError(format!("missing field {key:?}")))?;
        T::read(val).ok_or_else(|| ParseError(format!("field {key:?} is not a {}", T::NAME)))
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

    /// Round-trips `ev` and returns its wire name.
    fn roundtrip(t: u64, ev: Event) -> &'static str {
        let line = ev.to_json_line(t);
        let (t2, ev2) = Event::parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(t, t2, "{line}");
        assert_eq!(ev, ev2, "{line}");
        ev.kind()
    }

    #[test]
    fn all_variants_roundtrip() {
        let mut seen = std::collections::BTreeSet::new();
        let mut roundtrip = |t, ev| seen.insert(roundtrip(t, ev));
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
        // A kind added to the table without a case here fails.
        let table: std::collections::BTreeSet<_> = WIRE_NAMES.iter().copied().collect();
        assert_eq!(seen, table);
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

    #[test]
    fn parse_rejects_type_mismatches() {
        for (line, want) in [
            (
                r#"{"t":1,"ev":"cache_hit","bytes":"5"}"#,
                r#"field "bytes" is not a number"#,
            ),
            (
                r#"{"t":1,"ev":"chain_open","image":"a","kind":"base","writable":1,"depth":0}"#,
                r#"field "writable" is not a bool"#,
            ),
            (
                r#"{"t":1,"ev":"chain_open","image":true,"kind":"base","writable":false,"depth":0}"#,
                r#"field "image" is not a string"#,
            ),
        ] {
            assert_eq!(
                Event::parse_line(line),
                Err(ParseError(want.into())),
                "{line}"
            );
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
