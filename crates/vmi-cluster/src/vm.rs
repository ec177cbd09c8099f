//! The VM boot engine: replay boot traces through real image chains on the
//! simulated timeline.
//!
//! Each VM is a sequence of `(think, I/O)` steps; the engine executes ops in
//! global simulated-time order so that shared-resource queueing and cache
//! warmth are observed correctly across VMs. Boot time is measured exactly
//! as the paper does (§5): "from invoking KVM for starting the VM until the
//! VM connects back … as soon as it has completed its boot process" — here,
//! from chain construction until the last trace op plus the trailing guest
//! initialization time.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, Result, SharedDev};
use vmi_obs::{met, Obs};
use vmi_sim::{EventKey, Ns, Shard, SimWorld};
use vmi_trace::{BootTrace, OpKind};

/// One VM to boot: a ready-made image chain and the trace to replay.
pub struct VmRun {
    /// Top of the image chain (the CoW image the VM boots from).
    pub chain: SharedDev,
    /// The boot I/O sequence.
    pub trace: Arc<BootTrace>,
    /// Simulated time the VM is started (usually 0: simultaneous startup).
    pub start_at: Ns,
    /// Extra time charged before the first op (chain-creation cost priced
    /// outside the engine, e.g. `qemu-img create` of the CoW layer).
    pub setup_ns: Ns,
}

/// Per-VM outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmOutcome {
    /// Completion (connect-back) time.
    pub done_at: Ns,
    /// Boot duration (`done_at - start_at`).
    pub boot_ns: Ns,
    /// Simulated time spent waiting on I/O (boot − think − setup).
    pub io_wait_ns: Ns,
}

struct VmState {
    run: VmRun,
    next_op: usize,
    /// Open `boot.vm` span: created when the VM issues its first op, closed
    /// (dropped) at connect-back so its duration is the measured boot time.
    span: Option<vmi_obs::SpanGuard>,
}

/// A VM's wake-up in the event heap: keyed `(at, vm)`, so simultaneous
/// wake-ups run in VM-index order however they were scheduled. Unique,
/// because a VM has one pending wake-up at a time.
fn wake(at: Ns, vm: usize) -> EventKey {
    EventKey {
        at,
        lane: 0,
        tag: 0,
        a: vm as u64,
        b: 0,
    }
}

/// Replay all `vms` to completion; returns one outcome per VM, in input
/// order. Deterministic: identical inputs give identical timelines.
///
/// Each VM's boot is one `boot.vm` span through `obs`, opened at its first
/// op (issue) and closed at completion (connect-back), and every trace op's
/// simulated latency is recorded into the [`met::VM_OP_NS`] histogram; pass
/// [`Obs::disabled`] to record nothing.
///
/// # Errors
/// Propagates the first I/O error any chain returns (experiments run on
/// correct chains; errors indicate a harness bug).
pub fn run_boots(world: &SimWorld, vms: Vec<VmRun>, obs: &Obs) -> Result<Vec<VmOutcome>> {
    let mut scratch = vec![0u8; 1 << 20];
    let mut queue: Shard<()> = Shard::default();
    let mut outcomes: Vec<Option<VmOutcome>> = Vec::with_capacity(vms.len());
    let mut states: Vec<VmState> = Vec::with_capacity(vms.len());

    for (i, run) in vms.into_iter().enumerate() {
        outcomes.push(None);
        let issue_at =
            run.start_at + run.setup_ns + run.trace.ops.first().map(|o| o.think_ns).unwrap_or(0);
        queue.push(wake(issue_at, i), ());
        states.push(VmState {
            run,
            next_op: 0,
            span: None,
        });
    }

    while let Some((key, ())) = queue.pop() {
        let (now, vm) = (key.at, key.a as usize);
        let st = &mut states[vm];
        let trace = &st.run.trace;
        if st.next_op >= trace.ops.len() {
            // Woken for completion: connect-back fires now.
            let done_at = now;
            let boot_ns = done_at - st.run.start_at;
            let think = trace.total_think_ns() + st.run.setup_ns;
            outcomes[vm] = Some(VmOutcome {
                done_at,
                boot_ns,
                io_wait_ns: boot_ns.saturating_sub(think),
            });
            // Stamp the boot span's end at the completion time (we are
            // outside any priced op window here).
            let span = st.span.take();
            world.with_time(done_at, || {
                obs.count(met::BOOTS_DONE, 1);
                drop(span);
            });
            continue;
        }
        if st.next_op == 0 {
            let nops = trace.ops.len();
            st.span = Some(world.with_time(now, || {
                obs.span("boot.vm", || format!("vm={vm} ops={nops}"))
            }));
        }
        let op = trace.ops[st.next_op];
        if scratch.len() < op.len as usize {
            scratch.resize(op.len as usize, 0);
        }
        world.begin_op(now);
        let parent = st.span.as_ref().and_then(|g| g.id());
        let osp = obs.span_in(parent, "vm.op", || {
            let kind = match op.kind {
                OpKind::Read => "read",
                OpKind::Write => "write",
            };
            format!("vm={vm} kind={kind} bytes={}", op.len)
        });
        let res = match op.kind {
            OpKind::Read => {
                st.run
                    .chain
                    .read_at_in(&mut scratch[..op.len as usize], op.offset, osp.id())
            }
            OpKind::Write => {
                // Content is irrelevant to timing; zero data keeps sparse
                // backing stores sparse.
                scratch[..op.len as usize].fill(0);
                st.run
                    .chain
                    .write_at_in(&scratch[..op.len as usize], op.offset, osp.id())
            }
        };
        drop(osp);
        let completed = world.end_op();
        res?;
        obs.observe(met::VM_OP_NS, completed.saturating_sub(now));
        st.next_op += 1;
        let next_at = if st.next_op < trace.ops.len() {
            completed + trace.ops[st.next_op].think_ns
        } else {
            completed + trace.final_think_ns
        };
        queue.push(wake(next_at, vm), ());
    }

    // The queue drains every VM, so no slot can be empty here.
    Ok(outcomes.into_iter().flatten().collect())
}

/// Summary statistics over a set of outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootStats {
    /// Mean boot time (ns).
    pub mean_ns: f64,
    /// Maximum boot time (ns).
    pub max_ns: Ns,
    /// Minimum boot time (ns).
    pub min_ns: Ns,
}

impl BootStats {
    /// Compute stats; panics on empty input.
    pub fn from(outcomes: &[VmOutcome]) -> Self {
        assert!(!outcomes.is_empty());
        let sum: u128 = outcomes.iter().map(|o| o.boot_ns as u128).sum();
        Self {
            mean_ns: sum as f64 / outcomes.len() as f64,
            max_ns: outcomes.iter().map(|o| o.boot_ns).max().unwrap_or_default(),
            min_ns: outcomes.iter().map(|o| o.boot_ns).min().unwrap_or_default(),
        }
    }

    /// Mean in seconds — the unit of every figure's y axis.
    pub fn mean_secs(&self) -> f64 {
        self.mean_ns / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::MemDev;
    use vmi_trace::{TraceOp, VmiProfile};

    fn toy_trace(think: u64, ops: usize) -> Arc<BootTrace> {
        Arc::new(BootTrace {
            profile: "toy".into(),
            virtual_size: 1 << 20,
            seed: 0,
            final_think_ns: think,
            ops: (0..ops)
                .map(|i| TraceOp {
                    think_ns: think,
                    kind: OpKind::Read,
                    offset: (i * 4096) as u64,
                    len: 4096,
                })
                .collect(),
        })
    }

    fn boot_one(
        w: &SimWorld,
        chain: SharedDev,
        trace: Arc<BootTrace>,
        start_at: Ns,
        setup_ns: Ns,
    ) -> VmOutcome {
        let vm = VmRun {
            chain,
            trace,
            start_at,
            setup_ns,
        };
        run_boots(w, vec![vm], &Obs::disabled()).unwrap()[0]
    }

    #[test]
    fn uncontended_boot_time_is_think_plus_io() {
        let w = SimWorld::new();
        let chain: SharedDev = Arc::new(MemDev::with_len(1 << 20));
        let out = boot_one(&w, chain, toy_trace(1000, 10), 0, 0);
        // Memory chain with no cost hooks: I/O takes zero simulated time.
        assert_eq!(out.boot_ns, 11 * 1000);
        assert_eq!(out.io_wait_ns, 0);
    }

    #[test]
    fn start_offset_shifts_completion() {
        let w = SimWorld::new();
        let chain: SharedDev = Arc::new(MemDev::with_len(1 << 20));
        let out = boot_one(&w, chain, toy_trace(100, 3), 5_000, 50);
        assert_eq!(out.done_at, 5_000 + 50 + 4 * 100);
        assert_eq!(out.boot_ns, 50 + 400);
    }

    #[test]
    fn determinism_across_runs() {
        let p = VmiProfile::tiny_test();
        let trace = Arc::new(vmi_trace::generate(&p, 5));
        let run = || {
            let w = SimWorld::new();
            let link = w.add_link(vmi_sim::NetSpec::gbe_1());
            let dev: SharedDev = Arc::new(vmi_blockdev::SparseDev::with_len(p.virtual_size));
            // Simple chain: reads priced over a link via an NFS-less hook is
            // overkill here; use the raw dev (timing = think only) and make
            // sure outcomes repeat bit-for-bit.
            let _ = link;
            let vms: Vec<VmRun> = (0..8)
                .map(|_| VmRun {
                    chain: dev.clone(),
                    trace: trace.clone(),
                    start_at: 0,
                    setup_ns: 0,
                })
                .collect();
            run_boots(&w, vms, &Obs::disabled()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_math() {
        let outs = [
            VmOutcome {
                done_at: 10,
                boot_ns: 10,
                io_wait_ns: 0,
            },
            VmOutcome {
                done_at: 30,
                boot_ns: 30,
                io_wait_ns: 5,
            },
        ];
        let s = BootStats::from(&outs);
        assert_eq!(s.mean_ns, 20.0);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.min_ns, 10);
    }

    #[test]
    fn empty_trace_vm_completes_immediately() {
        let w = SimWorld::new();
        let chain: SharedDev = Arc::new(MemDev::new());
        let trace = Arc::new(BootTrace {
            profile: "empty".into(),
            virtual_size: 0,
            seed: 0,
            final_think_ns: 777,
            ops: vec![],
        });
        let out = boot_one(&w, chain, trace, 0, 0);
        assert_eq!(out.boot_ns, 0, "no ops → completion fires at first wake");
    }
}
