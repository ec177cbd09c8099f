//! One run of one workload: set-up, passes, and the metrics made of them.

use std::time::Instant;

use vmi_blockdev::Result;
use vmi_obs::Obs;
use vmi_trace::VmiProfile;

use crate::boot::Boot;
use crate::fixture::{Fixture, Scratch};
use crate::probes;
use crate::rw::GuestRw;
use crate::serve::Serve;
use crate::spandev::{Io, Phase, Recorder, Role, Snapshot, Tally};
use crate::stats::{median, peak_rss_mib, percentile};
use crate::workload::{Kind, Unit, Workload};

pub struct Cfg {
    pub kind: Kind,
    pub seed: u64,
    /// How long the passes of this run measure, together.
    pub seconds: f64,
    /// The traced run reports the per-layer metrics, the untraced one the
    /// end-to-end metrics.
    pub traced: bool,
    pub profile: VmiProfile,
    /// Set-up is repeated and its median time reported.
    pub setups: usize,
    pub rw_ops_per_unit: usize,
    pub probe_rounds: usize,
    /// Test only: verify against an oracle that disagrees with the images.
    pub corrupt_oracle: bool,
}

impl Cfg {
    pub fn full(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            kind,
            seed,
            seconds,
            traced,
            profile: VmiProfile::centos_6_3(),
            setups: 3,
            rw_ops_per_unit: 4_000,
            probe_rounds: 4,
            corrupt_oracle: false,
        }
    }

    /// The same paths at `tiny_test` size, for `--smoke` and the tests.
    pub fn smoke(kind: Kind, seed: u64, traced: bool) -> Self {
        Self {
            profile: VmiProfile::tiny_test(),
            seconds: 0.1,
            setups: 1,
            rw_ops_per_unit: 400,
            probe_rounds: 1,
            ..Self::full(kind, seed, 0.0, traced)
        }
    }
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What went wrong, for people.
    pub problems: Vec<String>,
    /// Timed units and latency samples behind the medians.
    pub units: usize,
    pub samples: usize,
}

/// The verification unit and the timed units of one pass.
pub(crate) struct Pass {
    pub(crate) verified: Unit,
    units: Vec<Unit>,
}

impl Pass {
    /// Median over the timed units.
    fn median(&self, field: impl Fn(&Unit) -> f64) -> f64 {
        median(&mut self.units.iter().map(field).collect::<Vec<_>>())
    }

    fn unit_ms(&self) -> f64 {
        self.median(|u| u.wall_ns as f64 / 1e6)
    }

    fn sum(&self, field: impl Fn(&Unit) -> u64) -> u64 {
        self.units.iter().map(field).sum()
    }

    fn mean(&self, field: impl Fn(&Unit) -> u64) -> f64 {
        self.sum(field) as f64 / self.units.len() as f64
    }

    fn mean_ms(&self, field: impl Fn(&Unit) -> u64) -> f64 {
        self.mean(field) / 1e6
    }
}

/// One pass per entry of `traced`, each with its own workload state. The
/// passes take turns unit by unit for `seconds` in all, so that a traced and
/// an untraced pass meet the same drift of the sandbox.
pub(crate) fn run_passes(
    fx: &Fixture,
    dir: &Scratch,
    cfg: &Cfg,
    traced: &[bool],
    seconds: f64,
) -> Result<Vec<Pass>> {
    let mut lat = Vec::new();
    let mut lanes = Vec::new();
    for (lane, &timed) in traced.iter().enumerate() {
        let rec = Recorder::new(timed);
        let tag = format!("lane{lane}");
        let mut workload: Box<dyn Workload + '_> = match cfg.kind {
            Kind::ServeWarm => Box::new(Serve::new(fx, rec)?),
            Kind::GuestRw => Box::new(GuestRw::new(fx, dir, &tag, rec, cfg.rw_ops_per_unit)?),
            boot => Box::new(Boot::new(fx, dir, &tag, boot, rec, Obs::disabled())?),
        };
        let mut oracle = fx.oracle();
        if cfg.corrupt_oracle {
            oracle.corrupt();
        }
        let verified = workload.unit(Some(&mut oracle), &mut lat)?;
        let units = Vec::new();
        lanes.push((workload, Pass { verified, units }));
    }
    let started = Instant::now();
    loop {
        for (workload, pass) in &mut lanes {
            lat.clear();
            let mut unit = workload.unit(None, &mut lat)?;
            // Percentiles per unit, their medians over units later: a stall
            // of the sandbox then spoils one unit's tail and not the run's,
            // and the samples kept do not grow with the number of units.
            lat.sort_unstable();
            unit.p50_ns = percentile(&lat, 0.50);
            unit.p99_ns = percentile(&lat, 0.99);
            pass.units.push(unit);
        }
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(lanes.into_iter().map(|(_, pass)| pass).collect());
        }
    }
}

pub fn run(cfg: &Cfg) -> Result<Report> {
    let dir = Scratch::create()?;
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let started = Instant::now();
        let fx = Fixture::build(&dir, &cfg.profile, cfg.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        fx
    };
    let mut fx = set_up()?;
    for _ in 1..cfg.setups {
        fx = set_up()?;
    }
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        problems: Vec::new(),
        units: 0,
        samples: 0,
    };
    // The traced run has an untraced pass beside the traced one, for the
    // slowdown the trace itself causes.
    let lanes: &[bool] = if cfg.traced { &[false, true] } else { &[false] };
    let passes = run_passes(&fx, &dir, cfg, lanes, cfg.seconds)?;
    report.metrics = match &passes[..] {
        [plain, traced] => {
            let probes = probes::run(&fx, &dir, cfg.probe_rounds)?;
            per_layer(cfg.kind, &fx, plain, traced, &probes)
        }
        _ => end_to_end(cfg.kind, &fx, &passes[0], median(&mut setup_s)),
    };
    for pass in &passes {
        account(&mut report, pass);
    }
    Ok(report)
}

fn account(report: &mut Report, pass: &Pass) {
    for unit in std::iter::once(&pass.verified).chain(&pass.units) {
        report.attempted += unit.ops;
        report.failed += unit.errors + unit.mismatches;
    }
    report.problems.extend(pass.verified.broken.iter().cloned());
    if pass.verified.mismatches > 0 {
        report.problems.push(format!(
            "{} reads of the verification unit returned wrong bytes",
            pass.verified.mismatches
        ));
    }
    report.correct &= report.failed == 0 && report.problems.is_empty();
    report.units += pass.units.len();
    report.samples += pass.sum(|u| u.ops) as usize;
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Bytes read from the stores under the chain: the CoW container, the cache
/// container and the base image (at the storage node when the chain reaches
/// it over NBD).
fn store_reads(kind: Kind, devs: &Snapshot) -> u64 {
    let base = if kind.guest_over_nbd() {
        Role::Base
    } else {
        Role::Export
    };
    [Role::Cow, Role::Cache, base]
        .into_iter()
        .map(|role| devs.sum(role, None, Some(Io::Read)).bytes)
        .sum()
}

fn end_to_end(kind: Kind, fx: &Fixture, pass: &Pass, setup_s: f64) -> Vec<Metric> {
    // A unit's guest bytes over its wall time; the median over units, as a
    // total over the run would take every stall of the sandbox with it.
    let mib_per_s = pass.median(|u| {
        (u.read_bytes + u.write_bytes) as f64 / (1 << 20) as f64 / (u.wall_ns as f64 / 1e9)
    });
    let v = &pass.verified;
    vec![
        metric("setup_s", "s", setup_s),
        metric("unit_ms", "ms", pass.unit_ms()),
        metric("mib_per_s", "MiB/s", mib_per_s),
        metric("op_p50_us", "us", pass.median(|u| u.p50_ns) / 1e3),
        metric("op_p99_us", "us", pass.median(|u| u.p99_ns) / 1e3),
        metric(
            "store_read_bytes_per_guest_byte",
            "ratio",
            store_reads(kind, &v.devs) as f64 / v.read_bytes as f64,
        ),
        metric(
            "store_bytes_per_ws_byte",
            "ratio",
            v.store_bytes as f64 / fx.ws_bytes as f64,
        ),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
    ]
}

fn per_layer(
    kind: Kind,
    fx: &Fixture,
    plain: &Pass,
    traced: &Pass,
    probes: &probes::Probes,
) -> Vec<Metric> {
    let t = traced;
    let over_nbd = kind.guest_over_nbd();
    // Mean per unit, in ms, of a role's busy time while guest requests of
    // one class were served.
    let dev_ms = |role: Role, phase: Phase| t.mean_ms(|u| u.devs.sum(role, Some(phase), None).ns);
    let both = |f: &dyn Fn(Phase) -> f64| f(Phase::Read) + f(Phase::Write);
    let guest_ms = |phase: Phase| match phase {
        Phase::Read => t.mean_ms(|u| u.read_op_ns),
        _ => t.mean_ms(|u| u.op_ns - u.read_op_ns),
    };
    // Guest requests enter the chain directly in the boots and through the
    // device the NBD server exports in the other two. Under the chain are
    // the two containers and the base attachment: an NBD client in the
    // boots, the local base image in `guest_rw`.
    let chain_ms = |phase: Phase| {
        if over_nbd {
            dev_ms(Role::Export, phase)
        } else {
            guest_ms(phase)
        }
    };
    let chain_self_ms = |phase: Phase| {
        chain_ms(phase)
            - dev_ms(Role::Cow, phase)
            - dev_ms(Role::Cache, phase)
            - dev_ms(Role::Base, phase)
    };
    let base_ms = both(&|p| dev_ms(Role::Base, p));
    let (nbd_client_ms, local_base_ms) = if over_nbd {
        (both(&guest_ms), base_ms)
    } else {
        (base_ms, 0.0)
    };
    let nbd_export_ms = both(&|p| dev_ms(Role::Export, p));
    let nbd_self_ms = nbd_client_ms - nbd_export_ms;
    let nbd_requests = t.mean(|u| u.nbd_requests);
    let residual_ms = if kind == Kind::ServeWarm {
        0.0 // its requests overlap, so their latencies do not add up to the unit
    } else {
        t.mean_ms(|u| u.wall_ns - u.connect_ns - u.build_ns - u.op_ns)
    };
    let hit = t.mean(|u| u.cor.hit_bytes);
    let miss = t.mean(|u| u.cor.miss_bytes);
    let containers = |io: Option<Io>, field: fn(&Tally) -> u64| {
        t.sum(|u| {
            field(&u.devs.sum(Role::Cow, None, io)) + field(&u.devs.sum(Role::Cache, None, io))
        }) as f64
    };

    let mut m = vec![
        metric("trace.gen_ms", "ms", fx.trace_gen_ms),
        metric("trace.ops", "count", fx.ops.len() as f64),
        metric("trace.read_bytes", "B", fx.read_bytes as f64),
        metric("trace.unique_read_bytes", "B", fx.ws_bytes as f64),
        metric("deploy.connect_ms", "ms", t.mean_ms(|u| u.connect_ns)),
        metric("deploy.build_ms", "ms", t.mean_ms(|u| u.build_ns)),
        metric(
            "deploy.read_bytes",
            "B",
            t.mean(|u| {
                u.devs
                    .sum(Role::Cache, Some(Phase::Build), Some(Io::Read))
                    .bytes
            }),
        ),
        metric("deploy.recover_ms", "ms", probes.recover_ms),
        metric("qcow.call_ms", "ms", both(&chain_ms)),
        metric("qcow.self_ms", "ms", both(&chain_self_ms)),
        metric("qcow.read_self_ms", "ms", chain_self_ms(Phase::Read)),
        metric("qcow.write_self_ms", "ms", chain_self_ms(Phase::Write)),
        metric("qcow.base_ms", "ms", local_base_ms),
        metric("qcow.hit_bytes", "B", hit),
        metric("qcow.miss_bytes", "B", miss),
        metric("qcow.fill_bytes", "B", t.mean(|u| u.cor.fill_bytes)),
        metric("qcow.fill_rejects", "count", t.mean(|u| u.cor.fill_rejects)),
        metric("qcow.hit_ratio", "ratio", ratio(hit, hit + miss)),
        metric(
            "qcow.cache_used_bytes",
            "B",
            t.units.last().map_or(0, |u| u.cache_used) as f64,
        ),
        metric(
            "qcow.dev_calls_per_op",
            "ratio",
            ratio(containers(None, |c| c.calls), t.sum(|u| u.ops) as f64),
        ),
        metric("qcow.plain_read_p50_us", "us", probes.plain_read_p50_us),
    ];
    for (role, x) in [(Role::Cow, "cow"), (Role::Cache, "cache")] {
        let calls = |io: Io| t.mean(|u| u.devs.sum(role, None, Some(io)).calls);
        let bytes = |io: Io| t.mean(|u| u.devs.sum(role, None, Some(io)).bytes);
        m.extend([
            metric(format!("blockdev.{x}_ms"), "ms", both(&|p| dev_ms(role, p))),
            metric(format!("blockdev.{x}_reads"), "count", calls(Io::Read)),
            metric(format!("blockdev.{x}_read_bytes"), "B", bytes(Io::Read)),
            metric(format!("blockdev.{x}_writes"), "count", calls(Io::Write)),
            metric(format!("blockdev.{x}_write_bytes"), "B", bytes(Io::Write)),
            metric(format!("blockdev.{x}_flushes"), "count", calls(Io::Flush)),
        ]);
    }
    m.extend([
        metric(
            "blockdev.write_amp",
            "ratio",
            ratio(
                containers(Some(Io::Write), |c| c.bytes),
                t.sum(|u| u.write_bytes) as f64,
            ),
        ),
        metric("nbd.requests", "count", nbd_requests),
        metric("nbd.client_ms", "ms", nbd_client_ms),
        metric("nbd.export_ms", "ms", nbd_export_ms),
        metric("nbd.self_ms", "ms", nbd_self_ms),
        metric(
            "nbd.self_us_per_req",
            "us",
            ratio(nbd_self_ms * 1e3, nbd_requests),
        ),
        metric(
            "nbd.wire_bytes",
            "B",
            t.mean(|u| u.devs.sum(Role::Export, None, None).bytes),
        ),
        metric("nbd.rtt_4k_p50_us", "us", probes.nbd_rtt_4k_p50_us),
        metric("nbd.rtt_64k_p50_us", "us", probes.nbd_rtt_64k_p50_us),
        metric(
            "engine.roundtrip_p50_us",
            "us",
            probes.engine_roundtrip_p50_us,
        ),
        metric("engine.window4_kiops", "k/s", probes.engine_window4_kiops),
        metric(
            "concurrent.warm_reads",
            "count",
            t.mean(|u| u.conc.warm_reads),
        ),
        metric(
            "concurrent.slow_reads",
            "count",
            t.mean(|u| u.conc.slow_reads),
        ),
        metric(
            "concurrent.stale_loads",
            "count",
            t.mean(|u| u.conc.stale_loads),
        ),
        metric(
            "concurrent.read_p50_us",
            "us",
            probes.concurrent_read_p50_us,
        ),
        metric("bench.residual_ms", "ms", residual_ms),
        metric("bench.traced_unit_ms", "ms", t.mean_ms(|u| u.wall_ns)),
        metric(
            "obs.spandev_slowdown",
            "ratio",
            t.unit_ms() / plain.unit_ms(),
        ),
        metric("obs.enabled_slowdown", "ratio", probes.obs_enabled_slowdown),
    ]);
    m
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
