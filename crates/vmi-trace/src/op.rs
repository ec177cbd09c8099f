//! Boot-trace data model.
//!
//! A [`BootTrace`] is the I/O side of one VM boot: the ordered disk requests
//! the guest issues between "KVM invoked" and "VM connects back to a given
//! port" (the paper's boot-time definition, §5). Each operation carries the
//! *think time* that precedes it — CPU work the guest does before issuing
//! the request — so replaying a trace through a storage stack yields a boot
//! time with the paper's observed structure (CentOS spends only ~17 % of its
//! boot waiting on reads, §7.3).

use serde::{Deserialize, Serialize};

/// Direction of one trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Guest disk read.
    Read,
    /// Guest disk write (goes to the CoW layer in deployment).
    Write,
}

/// One guest disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOp {
    /// Nanoseconds of guest CPU work preceding this request.
    pub think_ns: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Guest byte offset.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u32,
}

/// A complete boot I/O trace plus its generation metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootTrace {
    /// Profile name this trace was generated from (e.g. `"centos-6.3"`).
    pub profile: String,
    /// Virtual disk size of the VMI the offsets index into.
    pub virtual_size: u64,
    /// Seed used by the generator (same seed → identical trace).
    pub seed: u64,
    /// Trailing guest work after the last I/O until the connect-back.
    pub final_think_ns: u64,
    /// The ordered requests.
    pub ops: Vec<TraceOp>,
}

impl BootTrace {
    /// Total guest think time, including the trailing connect-back segment.
    pub fn total_think_ns(&self) -> u64 {
        self.final_think_ns + self.ops.iter().map(|o| o.think_ns).sum::<u64>()
    }

    /// Total bytes read (not deduplicated).
    pub fn read_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Read)
            .map(|o| o.len as u64)
            .sum()
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Write)
            .map(|o| o.len as u64)
            .sum()
    }

    /// Number of read operations.
    pub fn read_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.kind == OpKind::Read).count()
    }

    /// Number of write operations.
    pub fn write_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.kind == OpKind::Write).count()
    }

    /// Serialize to JSON.
    #[expect(clippy::expect_used, reason = "serde on POD structs is infallible")]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BootTrace {
        BootTrace {
            profile: "test".into(),
            virtual_size: 1 << 30,
            seed: 7,
            final_think_ns: 1_000,
            ops: vec![
                TraceOp {
                    think_ns: 10,
                    kind: OpKind::Read,
                    offset: 0,
                    len: 4096,
                },
                TraceOp {
                    think_ns: 20,
                    kind: OpKind::Write,
                    offset: 8192,
                    len: 512,
                },
                TraceOp {
                    think_ns: 30,
                    kind: OpKind::Read,
                    offset: 4096,
                    len: 8192,
                },
            ],
        }
    }

    #[test]
    fn aggregates() {
        let t = sample();
        assert_eq!(t.total_think_ns(), 1_060);
        assert_eq!(t.read_bytes(), 12_288);
        assert_eq!(t.write_bytes(), 512);
        assert_eq!(t.read_ops(), 2);
        assert_eq!(t.write_ops(), 1);
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let back = BootTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }
}
