//! The one byte-level runner: every boot of every experiment goes through
//! [`Runner::run`].
//!
//! A run is a list of [`Request`]s. Each request's arrival, every injected
//! node failure, every power-cut restart and every slot release is an event
//! on the same [`Timeline`] as the VMs' wake-ups, so boots that overlap in
//! time share the storage node op by op, whichever way they were started.
//! At its arrival a request is placed — on a pinned node, or by the
//! [`Scheduler`] over the fleet as it is at that instant — and deployed
//! through [`Cluster`]. A node failure stops the boots in flight there at
//! the failure time and sends their requests back to the scheduler.
//!
//! The public runners are presets of this loop: `run_experiment` (N pinned
//! arrivals at t = 0, one per node), `run_mixed_experiment` (a warm-pool
//! preset over single-slot nodes), `run_hybrid_boot` (one request on
//! Algorithm 1's storage-cache branch) and `run_cloud` (a day of scheduled
//! arrivals with failures).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmi_blockdev::{BlockDev, Result, SharedDev, SparseDev};
use vmi_obs::Event;
use vmi_qcow::{recover_with_obs, Header, QcowImage};
use vmi_sim::Ns;

use crate::cloud::{CloudReport, NodeFailure};
use crate::cluster::{CacheSource, Cluster};
use crate::deploy::{Mode, Placement, WarmCache};
use crate::experiment::vmi_seed;
use crate::sched::{NodeState, Policy, Scheduler};
use crate::vm::{Step, Timeline, VmOutcome};

/// One VM request: arrival time, VMI (catalog index), lifetime, deployment.
pub(crate) struct Request<'r> {
    pub at: Ns,
    pub vmi: usize,
    /// How long the VM holds its slot (and its chain) after its boot
    /// completes; `None` keeps both past the end of the run.
    pub lifetime_ns: Option<Ns>,
    pub deploy: Deploy<'r>,
}

/// How an arrival is placed and which chain it boots. Together with the
/// presets that pick a variant, this is Algorithm 1 (§6), which chooses the
/// VMI a new CoW image is chained to:
///
/// ```text
/// Input: Compute node C, Storage node S, VMI Base
/// Output: A VMI to be chained to a CoW image
/// if Cache_base exists in C then
///     return Cache_base
/// if Cache_base exists in S then
///     if Cache_base is on disk then
///         Copy Base_cache to tmpfs
///     Create NewCache_base on C
///     Chain NewCache_base to Cache_base
///     return NewCache_base
/// Create Cache_base on C
/// Chain Cache_base to Base
/// Copy Cache_base to S on VM shutdown
/// return Cache_base
/// ```
///
/// The code behind each branch:
/// * a warm cache in C: [`Deploy::Scheduled`] forks it in [`node_chain`]
///   when the scheduler placed the VM on a node that holds one;
/// * a cache in S: [`Deploy::Hybrid`], built by
///   [`Cluster::deploy_hybrid`]; the storage cache is always in tmpfs
///   here, so no copy from the storage disk arises;
/// * neither: [`node_chain`] fills a fresh cache in compute memory;
/// * the copy to S on shutdown (Fig. 13): `experiment.rs`'s
///   `transfer_cache`.
pub(crate) enum Deploy<'r> {
    /// The scheduler picks the node; the node's cache pool picks the chain
    /// (Algorithm 1 at node level): a fork of a warm local cache, else a
    /// fresh cold one in memory, else plain QCOW2 when caches are off.
    Scheduled,
    /// A fixed node and chain: one VM of a paper figure.
    Pinned {
        node: usize,
        mode: Mode,
        cache: CacheSource<'r>,
    },
    /// Algorithm 1's storage-cache branch on a fixed node: a new local cache
    /// chained to `storage_cache` in storage memory.
    Hybrid {
        node: usize,
        storage_cache: &'r WarmCache,
        quota: u64,
    },
}

/// Runner events; at one instant they run in this order, before any VM.
enum Ev {
    Fail(usize),
    Restart(usize),
    Release(usize),
    Arrive(usize),
}

/// Put `ev` on the timeline at `at`.
fn schedule(t: &mut Timeline<Ev>, at: Ns, ev: Ev) {
    let (tag, id) = match ev {
        Ev::Fail(i) => (0, i),
        Ev::Restart(node) => (1, node),
        Ev::Release(r) => (2, r),
        Ev::Arrive(r) => (3, r),
    };
    t.schedule(at, tag, id as u64, ev);
}

/// Algorithm 1 at node level: fork the node's `warm` cache when the
/// scheduler found one, else fill a fresh cache in memory, else (caches off,
/// no `quota`) plain QCOW2. Also returns the container a cold boot fills.
fn node_chain(
    quota: Option<u64>,
    warm: Option<&SparseDev>,
) -> (Mode, CacheSource<'_>, Option<Arc<SparseDev>>) {
    let Some(quota) = quota else {
        return (Mode::Qcow2, CacheSource::fresh(), None);
    };
    let cluster_bits = 9;
    if let Some(warm) = warm {
        let placement = Placement::ComputeDisk;
        let mode = Mode::WarmCache {
            placement,
            quota,
            cluster_bits,
        };
        return (mode, CacheSource::Fork(warm), None);
    }
    let placement = Placement::ComputeMem;
    let mode = Mode::ColdCache {
        placement,
        quota,
        cluster_bits,
    };
    let fill = Arc::new(SparseDev::new());
    (mode, CacheSource::Local(fill.clone()), Some(fill))
}

/// Where a request is in its life; VMs are indices into `Runner::vms`.
#[derive(Clone, Copy)]
enum Phase {
    /// Before its arrival, or sent back to the scheduler by the failure of
    /// the given node.
    Waiting(Option<usize>),
    Booting(usize),
    /// Booted and holding a slot until its release.
    Running(usize),
    /// Released or lost with its node after booting as the given VM, or
    /// rejected.
    Over(Option<usize>),
}

/// One VM the runner started.
pub(crate) struct Vm {
    req: usize,
    vmi: usize,
    node: usize,
    /// Top of its chain, until the VM is released, lost or killed.
    pub chain: Option<Arc<QcowImage>>,
    /// The fresh node-local cache a cold boot fills; the node's pool adopts
    /// it when the boot completes.
    fill: Option<Arc<SparseDev>>,
    warm: bool,
    /// Set when the VM connects back.
    pub outcome: Option<VmOutcome>,
}

/// A cache container stranded on a powered-off node's local disk, waiting
/// for the node to restart and recover it: `(node, vmi, container)`.
type DownedCache = (usize, usize, Arc<SparseDev>);

/// Seeded model of what the power cut did to one on-disk cache container.
/// Most survive intact (the close barrier completed before the cut), some
/// lose the used-size write-back (the classic torn close, repairable in
/// place), and some lose the header cluster itself (unrecoverable — the
/// restart refetches them cold). Deterministic per `(seed, node, vmi)`.
fn inject_crash_tear(dev: &Arc<SparseDev>, seed: u64, node: usize, vmi: usize) {
    let mut rng = StdRng::seed_from_u64(vmi_seed(seed, node * 8191 + vmi) ^ 0x09C0_FFEE);
    let p: f64 = rng.gen();
    if p < 0.25 {
        // Cut during the header write: magic gone, nothing trustworthy.
        let _ = dev.write_at(&[0u8; 8], 0);
    } else if p < 0.60 {
        // Cut between the table barriers and the used write-back: tables
        // intact, recorded used-size stale.
        let bogus = 512 + (rng.gen::<u64>() % 4096) * 8;
        let _ = Header::update_cache_used(dev.as_ref(), bogus);
    }
    // else: the close flush completed before the cut; container intact.
}

/// The testbed, the scheduler's view of the fleet, and what the run did.
pub(crate) struct Runner<'p> {
    pub cluster: Cluster<'p>,
    pub fleet: Vec<NodeState>,
    /// Places [`Deploy::Scheduled`] requests.
    pub sched: Scheduler,
    /// Quota of node-local caches; `None` boots scheduled requests on
    /// plain QCOW2.
    pub quota: Option<u64>,
    pub failures: Vec<NodeFailure>,
    /// Master seed of the crash-tear model.
    pub seed: u64,
    /// Node-local warm cache containers by `(node, vmi)`, in step with the
    /// nodes' pools.
    pub warm_local: HashMap<(usize, usize), Arc<SparseDev>>,
    /// Counters of the run (the caller fills in its boot-time fields).
    pub report: CloudReport,
    phases: Vec<Phase>,
    /// Indexed like the timeline's VMs.
    vms: Vec<Vm>,
    downed: Vec<DownedCache>,
}

impl<'p> Runner<'p> {
    /// A runner over `cluster` whose nodes each have `slots` VM slots and a
    /// cache pool of `pool_bytes`; no caches, no failures, striping.
    pub(crate) fn new(cluster: Cluster<'p>, slots: usize, pool_bytes: u64) -> Self {
        let fleet = (0..cluster.nodes.len())
            .map(|i| NodeState::new(i, slots, pool_bytes))
            .collect();
        Self {
            cluster,
            fleet,
            sched: Scheduler::new(Policy::Striping, false),
            quota: None,
            failures: Vec::new(),
            seed: 0,
            warm_local: HashMap::new(),
            report: CloudReport::default(),
            phases: Vec::new(),
            vms: Vec::new(),
            downed: Vec::new(),
        }
    }

    /// Run `requests` until every boot has completed and every slot whose
    /// VM has a lifetime is released. Deterministic.
    pub(crate) fn run(&mut self, mut requests: Vec<Request<'_>>) -> Result<()> {
        self.phases = vec![Phase::Waiting(None); requests.len()];
        let mut timeline = Timeline::new(&self.cluster.world, &self.cluster.obs);
        for (r, req) in requests.iter().enumerate() {
            schedule(&mut timeline, req.at, Ev::Arrive(r));
        }
        for (i, f) in self.failures.iter().enumerate() {
            schedule(&mut timeline, f.at, Ev::Fail(i));
        }
        timeline.run(|t, now, step| {
            match step {
                Step::Event(Ev::Arrive(r)) => self.arrive(t, now, r, &mut requests[r])?,
                Step::Event(Ev::Fail(i)) => self.fail(t, now, self.failures[i]),
                Step::Event(Ev::Restart(node)) => self.restart(node, now),
                Step::Event(Ev::Release(r)) => {
                    if let Phase::Running(vm) = self.phases[r] {
                        Scheduler::release(&mut self.fleet, self.vms[vm].node);
                        self.phases[r] = Phase::Over(Some(vm));
                        self.close(vm, now);
                    }
                }
                Step::Done(vm, outcome) => {
                    let lifetime = requests[self.vms[vm].req].lifetime_ns;
                    self.done(t, vm, outcome, lifetime);
                }
            }
            Ok(())
        })
    }

    /// Each booted request's VM, in request order.
    pub(crate) fn boots(&self) -> impl Iterator<Item = &Vm> {
        self.phases.iter().filter_map(|p| match *p {
            Phase::Running(vm) | Phase::Over(Some(vm)) => Some(&self.vms[vm]),
            _ => None,
        })
    }

    /// Request `r` arrives (or comes back from a failed node) at `now`:
    /// place it and start its boot, or reject it when no node has room.
    fn arrive(
        &mut self,
        t: &mut Timeline<Ev>,
        now: Ns,
        r: usize,
        req: &mut Request<'_>,
    ) -> Result<()> {
        let vmi = req.vmi;
        // A request that comes back after a failure is the scheduler's.
        let deploy = std::mem::replace(&mut req.deploy, Deploy::Scheduled);
        let (node, fill, warm, (chain, run)) = match deploy {
            Deploy::Hybrid {
                node,
                storage_cache,
                quota,
            } => {
                self.fleet[node].running_vms += 1;
                let boot = self
                    .cluster
                    .deploy_hybrid(node, vmi, storage_cache, quota, now)?;
                (node, None, false, boot)
            }
            Deploy::Pinned { node, mode, cache } => {
                self.fleet[node].running_vms += 1;
                let boot = self.cluster.deploy(node, vmi, mode, cache, now)?;
                (node, None, false, boot)
            }
            Deploy::Scheduled => {
                let obs = &self.cluster.obs;
                let Some(decision) = self.sched.place(&mut self.fleet, vmi, now, obs) else {
                    self.report.rejected += 1;
                    self.phases[r] = Phase::Over(None);
                    return Ok(());
                };
                let node = decision.node;
                if let Phase::Waiting(Some(from)) = self.phases[r] {
                    self.report.rescheduled_boots += 1;
                    obs.emit(|| Event::BootRescheduled {
                        vm: r as u64,
                        from_node: from as u64,
                        to_node: node as u64,
                    });
                }
                let held = self.warm_local.get(&(node, vmi));
                let held = held.filter(|_| decision.cache_hit).map(|c| &**c);
                let (mode, cache, fill) = node_chain(self.quota, held);
                let warm = matches!(mode, Mode::WarmCache { .. });
                let boot = self.cluster.deploy(node, vmi, mode, cache, now)?;
                (node, fill, warm, boot)
            }
        };
        self.phases[r] = Phase::Booting(t.start(run));
        self.vms.push(Vm {
            req: r,
            vmi,
            node,
            chain: Some(chain),
            fill,
            warm,
            outcome: None,
        });
        Ok(())
    }

    /// VM `vm` connected back: record its boot, start its lifetime, and let
    /// the node's pool adopt the cache it filled — unless an overlapping
    /// cold boot of the same VMI on the node got there first.
    fn done(&mut self, t: &mut Timeline<Ev>, vm: usize, outcome: VmOutcome, lifetime: Option<Ns>) {
        let v = &mut self.vms[vm];
        v.outcome = Some(outcome);
        let (r, vmi, node, fill) = (v.req, v.vmi, v.node, v.fill.take());
        self.report.placed += 1;
        if v.warm {
            self.report.warm_boots += 1;
        } else if fill.is_some() {
            self.report.cold_boots += 1;
        }
        self.phases[r] = Phase::Running(vm);
        if let Some(lifetime) = lifetime {
            schedule(t, outcome.done_at.saturating_add(lifetime), Ev::Release(r));
        }
        if let Some(fill) = fill.filter(|_| !self.warm_local.contains_key(&(node, vmi))) {
            self.adopt(node, vmi, fill, outcome.done_at);
        }
    }

    /// Drop VM `vm`'s chain at `now`. Closing it writes the cache's used
    /// size back, so the write is priced at that instant.
    fn close(&mut self, vm: usize, now: Ns) {
        let chain = self.vms[vm].chain.take();
        self.cluster.world.with_time(now, || drop(chain));
    }

    /// Admit `container` into `node`'s pool as its warm cache of `vmi` at
    /// `now`; LRU victims leave with their containers. Returns `false` when
    /// the container is larger than the whole pool (it is not kept).
    pub(crate) fn adopt(
        &mut self,
        node: usize,
        vmi: usize,
        container: Arc<SparseDev>,
        now: Ns,
    ) -> bool {
        let mut evicted = Vec::new();
        let (obs, id, size) = (&self.cluster.obs, node as u64, container.len());
        let pool = &mut self.fleet[node].caches;
        let fits = pool.admit(vmi, size, now, obs, id, &mut evicted).is_ok();
        for v in evicted {
            self.warm_local.remove(&(node, v));
            self.report.evictions += 1;
        }
        if fits {
            self.warm_local.insert((node, vmi), container);
        }
        fits
    }

    /// Failure `f` fires at `now`. The node goes down: its boots in flight
    /// stop issuing I/O and their requests go back to the scheduler at
    /// `now`; its running VMs are lost. A power cut strands the node's
    /// cache containers (seeded tearing) until its restart; a permanent
    /// failure drops them.
    fn fail(&mut self, t: &mut Timeline<Ev>, now: Ns, f: NodeFailure) {
        let node = f.node;
        if !self.fleet[node].up {
            return;
        }
        self.fleet[node].fail();
        for r in 0..self.phases.len() {
            match self.phases[r] {
                Phase::Booting(vm) if self.vms[vm].node == node => {
                    t.kill(vm, now);
                    self.close(vm, now);
                    self.vms[vm].fill = None;
                    self.phases[r] = Phase::Waiting(Some(node));
                    schedule(t, now, Ev::Arrive(r));
                }
                Phase::Running(vm) if self.vms[vm].node == node => {
                    self.phases[r] = Phase::Over(Some(vm));
                    self.close(vm, now);
                }
                _ => {}
            }
        }
        // By VMI, so the tear injection order is deterministic.
        let mut lost: Vec<(usize, Arc<SparseDev>)> = self
            .warm_local
            .iter()
            .filter(|((n, _), _)| *n == node)
            .map(|((_, v), d)| (*v, d.clone()))
            .collect();
        lost.sort_unstable_by_key(|&(v, _)| v);
        self.warm_local.retain(|&(n, _), _| n != node);
        if let Some(downtime) = f.restart_after {
            for (v, dev) in lost {
                inject_crash_tear(&dev, self.seed, node, v);
                self.downed.push((node, v, dev));
            }
            schedule(t, f.at + downtime, Ev::Restart(node));
        }
        self.report.node_failures += 1;
        self.cluster
            .obs
            .emit(|| Event::NodeFailed { node: node as u64 });
    }

    /// A power-cut node comes back at `now`: it takes placements again,
    /// recovers every stranded cache container, re-adopts the usable ones
    /// into its pool and drops the rest (the next boot refetches them).
    fn restart(&mut self, node: usize, now: Ns) {
        self.fleet[node].restore();
        self.report.node_restarts += 1;
        let obs = self.cluster.obs.clone();
        // A node's containers were stranded together, in VMI order.
        let (mine, rest) = std::mem::take(&mut self.downed)
            .into_iter()
            .partition(|d| d.0 == node);
        self.downed = rest;
        let (mut readopted, mut refetched) = (0u64, 0u64);
        for (_, v, container) in mine {
            let dev: SharedDev = container.clone();
            if recover_with_obs(&dev, &obs).is_usable() && self.adopt(node, v, container, now) {
                readopted += 1;
            } else {
                refetched += 1;
            }
        }
        self.report.caches_readopted += readopted as usize;
        self.report.caches_refetched += refetched as usize;
        obs.emit(|| Event::NodeRestarted {
            node: node as u64,
            readopted,
            refetched,
        });
    }
}
