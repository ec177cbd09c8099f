//! The PR-10 scale sweep: 100× the paper's cluster, measured.
//!
//! The paper's largest experiment deploys across **64 nodes**. The scale
//! engine ([`vmi_cluster::run_scale`]) exists so the simulator can
//! answer the same questions at 10,000 nodes — what does the storage link
//! carry, how long do boots take — in seconds of wall clock. This sweep
//! drives that engine across three topologies (the paper's `flat`
//! baseline, hierarchical `tiered` caches, and `tiered+p2p` with
//! compute-to-compute peer fetch), several seeds, and records boots/sec,
//! storage-link bytes, and makespans per point.
//!
//! `--check` gates (the CI `scale-smoke` job runs `--smoke --check`):
//! tiered storage traffic strictly below flat, peer fetch active under
//! `tiered+p2p`, no link message served out of arrival order, rack links
//! carrying exactly the bytes that land in node caches, boots/sec at or
//! above a floor, and total wall clock inside a budget. Every non-wall
//! field of the committed `BENCH_pr10_scale.json` is pinned by
//! `tests/tests/scale_determinism.rs`.

use std::time::Instant;

use serde::Serialize;
use vmi_cluster::{run_scale, ScaleConfig, Topology};

/// Parameters of one sweep run; smoke vs. full differ only in scale.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fleet size (the paper's largest is 64; full mode runs 10,000).
    pub nodes: usize,
    /// Boot waves (total boots = `nodes × waves`).
    pub waves: usize,
    /// Catalog size; image `k` has Zipf weight `1/(k+1)`.
    pub images: usize,
    /// Seeds swept per (topology, nodes) point.
    pub seeds: Vec<u64>,
    /// Gate: aggregate boots/sec across all perf points must reach this.
    pub min_boots_per_sec: f64,
    /// Gate: whole-sweep wall clock must stay under this many seconds.
    pub wall_budget_s: f64,
}

impl SweepConfig {
    /// CI smoke scale: 1,000 nodes (~15× the paper), sized to finish well
    /// inside a shared single-CPU runner's patience.
    pub fn smoke() -> Self {
        Self {
            nodes: 1_000,
            waves: 6,
            images: 64,
            seeds: vec![11, 42],
            // This sweep clears ~1.6M boots/s (median of 11 runs on a
            // shared 2-CPU Xeon); gate ~80× below to catch real regressions
            // (a return to O(boots) allocation churn) without flaking.
            min_boots_per_sec: 20_000.0,
            wall_budget_s: 120.0,
        }
    }

    /// Full scale: 10,000 nodes × 100 waves = 1M boots per point — 156× the
    /// paper's 64-node deployment.
    pub fn full() -> Self {
        Self {
            nodes: 10_000,
            waves: 100,
            seeds: vec![42],
            wall_budget_s: 600.0,
            ..Self::smoke()
        }
    }

    /// Build the engine config for one (topology, seed) perf point.
    fn point(&self, topology: Topology, seed: u64) -> ScaleConfig {
        let mut cfg = ScaleConfig::new(topology, self.images);
        cfg.waves = self.waves;
        cfg.seed = seed;
        cfg.degrade_ppm = 2_000;
        cfg
    }

    /// The three topologies every point sweeps, sized so the rack tier
    /// holds 16 images and the zone tier 64 (of the Zipf catalog).
    fn topologies(&self, nodes: usize) -> [Topology; 3] {
        [
            Topology::flat(nodes),
            Topology::tiered(nodes, 1 << 30, 4 << 30),
            Topology::tiered_p2p(nodes, 1 << 30, 4 << 30),
        ]
    }
}

/// One (topology, seed) perf measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Topology label.
    pub topology: String,
    /// Fleet size.
    pub nodes: usize,
    /// Seed.
    pub seed: u64,
    /// Boots simulated.
    pub boots: u64,
    /// Real wall clock for the run, nanoseconds.
    pub wall_ns: u64,
    /// Simulated boots per wall-clock second.
    pub boots_per_sec: f64,
    /// Bytes over the central storage link (the paper's bottleneck).
    pub storage_bytes: u64,
    /// Bytes over zone aggregation links.
    pub zone_bytes: u64,
    /// Bytes over top-of-rack links (peer traffic included); equal to
    /// `fill_bytes`, since every byte that lands crosses its rack link once.
    pub rack_bytes: u64,
    /// Bytes moved into node caches.
    pub fill_bytes: u64,
    /// Messages a storage, zone or rack link took after a later-submitted
    /// one (`LinkStats::late`, summed over the three tiers); 0 when every
    /// link serves in arrival order.
    pub late: u64,
    /// Fill segments by source tier: `[peer, rack, zone, storage]`.
    pub fills: Vec<u64>,
    /// Warm node-cache hits.
    pub warm_hits: u64,
    /// Boots that joined an in-flight fill.
    pub joins: u64,
    /// Simulated makespan, nanoseconds.
    pub makespan_ns: u64,
    /// Mean boot latency, simulated milliseconds.
    pub mean_boot_ms: f64,
    /// p99 boot latency, simulated milliseconds.
    pub p99_boot_ms: f64,
    /// Order-sensitive digest of the schedule.
    pub digest: String,
}

/// The whole `BENCH_pr10_scale.json` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleSweepReport {
    /// Artifact id.
    pub bench: String,
    /// `smoke` or `full`.
    pub mode: String,
    /// Fleet size of the perf points.
    pub nodes: usize,
    /// Boots per perf point.
    pub boots_per_point: u64,
    /// Scale multiple over the paper's 64-node deployment.
    pub paper_scale_x: f64,
    /// Perf points, one per (topology, seed).
    pub points: Vec<SweepPoint>,
    /// Aggregate boots/sec across every perf point (gated).
    pub agg_boots_per_sec: f64,
    /// Whole-sweep wall clock, seconds.
    pub wall_s: f64,
    /// The boots/sec floor the `--check` gate enforces.
    pub min_boots_per_sec: f64,
}

impl ScaleSweepReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// Render an aligned text summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== pr10 scale sweep ({}) — {} nodes, {} boots/point, {:.0}× paper scale ==\n",
            self.mode, self.nodes, self.boots_per_point, self.paper_scale_x
        );
        out.push_str(&format!(
            "{:>11} {:>5} {:>10} {:>12} {:>12} {:>12} {:>9} {:>9}\n",
            "topology", "seed", "boots/s", "storage MiB", "zone MiB", "rack MiB", "warm", "p99 ms"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:>11} {:>5} {:>10.0} {:>12.1} {:>12.1} {:>12.1} {:>9} {:>9.1}\n",
                p.topology,
                p.seed,
                p.boots_per_sec,
                p.storage_bytes as f64 / (1 << 20) as f64,
                p.zone_bytes as f64 / (1 << 20) as f64,
                p.rack_bytes as f64 / (1 << 20) as f64,
                p.warm_hits,
                p.p99_boot_ms,
            ));
        }
        out.push_str(&format!(
            "aggregate {:.0} boots/s over {:.2}s wall (floor {:.0})\n",
            self.agg_boots_per_sec, self.wall_s, self.min_boots_per_sec
        ));
        out
    }

    /// Evaluate every acceptance gate; returns human-readable failures.
    pub fn check(&self, cfg: &SweepConfig) -> Vec<String> {
        let mut fails = Vec::new();
        for p in self.points.iter().filter(|p| p.late > 0) {
            fails.push(format!(
                "{} seed {}: {} link messages served out of arrival order",
                p.topology, p.seed, p.late
            ));
        }
        for p in self.points.iter().filter(|p| p.rack_bytes != p.fill_bytes) {
            fails.push(format!(
                "{} seed {}: rack links carried {} B for {} B of fills",
                p.topology, p.seed, p.rack_bytes, p.fill_bytes
            ));
        }
        for &seed in &cfg.seeds {
            let bytes = |name: &str| {
                self.points
                    .iter()
                    .find(|p| p.topology == name && p.seed == seed)
                    .map(|p| p.storage_bytes)
            };
            if let (Some(flat), Some(tiered), Some(p2p)) =
                (bytes("flat"), bytes("tiered"), bytes("tiered+p2p"))
            {
                if tiered >= flat {
                    fails.push(format!(
                        "seed {seed}: tiered storage bytes {tiered} not below flat {flat}"
                    ));
                }
                if p2p > tiered {
                    fails.push(format!(
                        "seed {seed}: p2p storage bytes {p2p} above tiered {tiered}"
                    ));
                }
            } else {
                fails.push(format!("seed {seed}: missing topology point"));
            }
            let peer_fills = self
                .points
                .iter()
                .find(|p| p.topology == "tiered+p2p" && p.seed == seed)
                .map_or(0, |p| p.fills[0]);
            if peer_fills == 0 {
                fails.push(format!("seed {seed}: tiered+p2p served no peer fills"));
            }
        }
        if self.agg_boots_per_sec < cfg.min_boots_per_sec {
            fails.push(format!(
                "throughput: {:.0} boots/s below the {:.0} floor",
                self.agg_boots_per_sec, cfg.min_boots_per_sec
            ));
        }
        if self.wall_s > cfg.wall_budget_s {
            fails.push(format!(
                "wall clock: {:.1}s over the {:.0}s budget",
                self.wall_s, cfg.wall_budget_s
            ));
        }
        fails
    }
}

/// Run the sweep described by `cfg`.
pub fn run_scale_sweep_with(cfg: &SweepConfig, mode: &str) -> ScaleSweepReport {
    #[expect(clippy::disallowed_methods, reason = "the bench reports wall time")]
    let t0 = Instant::now();
    let mut points = Vec::with_capacity(3 * cfg.seeds.len());
    let mut total_boots = 0u64;
    let mut total_wall_ns = 0u64;
    for topology in cfg.topologies(cfg.nodes) {
        for &seed in &cfg.seeds {
            let run_cfg = cfg.point(topology.clone(), seed);
            #[expect(clippy::disallowed_methods, reason = "per-point boots/sec")]
            let p0 = Instant::now();
            let rep = run_scale(&run_cfg);
            let wall_ns = p0.elapsed().as_nanos() as u64;
            total_boots += rep.boots;
            total_wall_ns += wall_ns;
            points.push(SweepPoint {
                topology: rep.topology.to_string(),
                nodes: rep.nodes,
                seed,
                boots: rep.boots,
                wall_ns,
                boots_per_sec: rep.boots as f64 / (wall_ns as f64 / 1e9).max(1e-9),
                storage_bytes: rep.storage_link.bytes,
                zone_bytes: rep.zone_links.bytes,
                rack_bytes: rep.rack_links.bytes,
                fill_bytes: rep.fill_bytes,
                late: rep.storage_link.late + rep.zone_links.late + rep.rack_links.late,
                fills: rep.fills.to_vec(),
                warm_hits: rep.warm_hits,
                joins: rep.joins,
                makespan_ns: rep.makespan_ns,
                mean_boot_ms: rep.mean_boot_ns / 1e6,
                p99_boot_ms: rep.p99_boot_ns as f64 / 1e6,
                digest: format!("{:016x}", rep.digest),
            });
        }
    }
    let boots_per_point = cfg.nodes as u64 * cfg.waves as u64;
    ScaleSweepReport {
        bench: "pr10_scale".to_string(),
        mode: mode.to_string(),
        nodes: cfg.nodes,
        boots_per_point,
        paper_scale_x: cfg.nodes as f64 / 64.0,
        points,
        agg_boots_per_sec: total_boots as f64 / (total_wall_ns as f64 / 1e9).max(1e-9),
        wall_s: t0.elapsed().as_secs_f64(),
        min_boots_per_sec: cfg.min_boots_per_sec,
    }
}

/// Run the CI smoke sweep (1,000 nodes).
pub fn run_scale_sweep_smoke() -> ScaleSweepReport {
    run_scale_sweep_with(&SweepConfig::smoke(), "smoke")
}

/// Run the full 10,000-node sweep.
pub fn run_scale_sweep_full() -> ScaleSweepReport {
    run_scale_sweep_with(&SweepConfig::full(), "full")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            nodes: 96,
            waves: 3,
            images: 12,
            seeds: vec![7],
            min_boots_per_sec: 1.0,
            wall_budget_s: 60.0,
        }
    }

    #[test]
    fn tiny_sweep_passes_every_gate() {
        let cfg = tiny();
        let rep = run_scale_sweep_with(&cfg, "test");
        let fails = rep.check(&cfg);
        assert!(
            fails.is_empty(),
            "gates failed: {fails:?}\n{}",
            rep.render()
        );
        assert_eq!(rep.points.len(), 3);
    }

    #[test]
    fn report_serializes_and_renders() {
        let rep = run_scale_sweep_with(&tiny(), "test");
        let json = rep.to_json();
        assert!(json.contains("\"pr10_scale\""));
        assert!(json.contains("tiered+p2p"));
        assert!(rep.render().contains("scale sweep"));
    }

    #[test]
    fn check_flags_throughput_floor() {
        let mut cfg = tiny();
        let rep = run_scale_sweep_with(&cfg, "test");
        cfg.min_boots_per_sec = f64::INFINITY;
        let fails = rep.check(&cfg);
        assert!(fails.iter().any(|f| f.contains("throughput")));
    }

    #[test]
    fn check_flags_late_link_messages() {
        let cfg = tiny();
        let mut rep = run_scale_sweep_with(&cfg, "test");
        assert!(rep.points.iter().all(|p| p.late == 0), "{}", rep.render());
        rep.points[1].late = 3;
        let fails = rep.check(&cfg);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("tiered seed 7: 3 link messages"),
            "{fails:?}"
        );
    }

    #[test]
    fn check_flags_rack_bytes_that_differ_from_fill_bytes() {
        let cfg = tiny();
        let mut rep = run_scale_sweep_with(&cfg, "test");
        assert!(
            rep.points.iter().all(|p| p.rack_bytes == p.fill_bytes),
            "{}",
            rep.render()
        );
        rep.points[2].rack_bytes += 5;
        let fails = rep.check(&cfg);
        assert_eq!(fails.len(), 1, "{fails:?}");
        let want = format!(
            "tiered+p2p seed 7: rack links carried {} B for {} B of fills",
            rep.points[2].rack_bytes, rep.points[2].fill_bytes
        );
        assert_eq!(fails[0], want);
    }
}
