//! Goldens for the PR-10 scale engine: pinned digests and whole reports of
//! small configurations, the committed 10k-node sweep, and a property that
//! every completed fill accounts for exactly one image's worth of bytes no
//! matter how transfers degrade or truncate mid-flight.

use proptest::prelude::*;
use vmi_cluster::{run_scale, FillSource, ScaleConfig, ScaleReport, Topology};
use vmi_sim::{NetSpec, SEC};

#[derive(Debug, Clone, Copy)]
enum Shape {
    Flat,
    Tiered,
    TieredP2p,
}

#[derive(Debug, Clone)]
struct Arb {
    shape: Shape,
    nodes: usize,
    nodes_per_rack: usize,
    waves: usize,
    images: usize,
    seed: u64,
    degrade_ppm: u32,
}

fn arb_config() -> impl Strategy<Value = Arb> {
    (
        (
            prop_oneof![
                Just(Shape::Flat),
                Just(Shape::Tiered),
                Just(Shape::TieredP2p)
            ],
            8usize..64,
            2usize..12,
        ),
        (
            1usize..6,
            1usize..8,
            any::<u64>(),
            prop_oneof![Just(0u32), Just(50_000), Just(400_000), Just(1_000_000)],
        ),
    )
        .prop_map(
            |((shape, nodes, nodes_per_rack), (waves, images, seed, degrade_ppm))| Arb {
                shape,
                nodes,
                nodes_per_rack,
                waves,
                images,
                seed,
                degrade_ppm,
            },
        )
}

fn build(a: &Arb) -> ScaleConfig {
    let topo = match a.shape {
        Shape::Flat => Topology::flat(a.nodes),
        Shape::Tiered => Topology::tiered(a.nodes, 64 << 20, 256 << 20),
        Shape::TieredP2p => Topology::tiered_p2p(a.nodes, 64 << 20, 256 << 20),
    }
    .with_fanout(a.nodes_per_rack, 4);
    let mut cfg = ScaleConfig::new(topo, a.images);
    cfg.image_bytes = 8 << 20;
    cfg.node_cache_bytes = 16 << 20; // two images: evictions happen
    cfg.waves = a.waves;
    cfg.wave_gap_ns = 5 * SEC;
    cfg.seed = a.seed;
    cfg.degrade_ppm = a.degrade_ppm;
    cfg.keep_records = true;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every boot that filled (rather than hitting warm cache or joining)
    /// accounts for exactly one image of bytes, and the per-tier byte
    /// totals sum to the fill total — truncated peer transfers re-source
    /// the remainder without double counting.
    #[test]
    fn fills_conserve_image_bytes(a in arb_config()) {
        let cfg = build(&a);
        let rep = run_scale(&cfg);
        for r in &rep.records {
            match r.src {
                FillSource::Warm | FillSource::Join => {
                    prop_assert_eq!(r.fill_bytes, 0, "non-fill boot moved bytes: {:?}", r)
                }
                _ => prop_assert_eq!(
                    r.fill_bytes, cfg.image_bytes,
                    "fill bytes off for boot {:?}", r
                ),
            }
        }
        let tier_total: u64 = rep.tier_bytes.iter().sum();
        prop_assert_eq!(tier_total, rep.fill_bytes);
        prop_assert_eq!(rep.boots, cfg.boots());
    }
}

/// FNV-1a over a string: a stable fingerprint for pinned JSONL.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of a report on one line, records folded into a hash.
fn pin(rep: &ScaleReport) -> String {
    format!(
        "digest={:016x} boots={} warm={} joins={} fills={:?} tier_bytes={:?} fill_bytes={} \
         evictions={}/{}/{} truncations={} degrades={} storage={:?} zone_bytes={} \
         rack_bytes={} makespan={} mean={:?} p50={} p99={} jsonl={:016x}",
        rep.digest,
        rep.boots,
        rep.warm_hits,
        rep.joins,
        rep.fills,
        rep.tier_bytes,
        rep.fill_bytes,
        rep.node_evictions,
        rep.rack_tier_evictions,
        rep.zone_tier_evictions,
        rep.peer_truncations,
        rep.peer_degrades,
        rep.storage_link,
        rep.zone_link_bytes,
        rep.rack_link_bytes,
        rep.makespan_ns,
        rep.mean_boot_ns,
        rep.p50_boot_ns,
        rep.p99_boot_ns,
        fnv(&rep.jsonl()),
    )
}

/// The 96-node config that `BENCH_pr10_scale.json` once carried as its
/// determinism check lands on the committed digest.
#[test]
fn bench_determinism_config_reproduces_the_committed_digest() {
    let topo = Topology::tiered_p2p(96, 256 << 20, 1 << 30).with_fanout(12, 4);
    let mut cfg = ScaleConfig::new(topo, 16);
    cfg.image_bytes = 16 << 20;
    cfg.node_cache_bytes = 48 << 20;
    cfg.waves = 4;
    cfg.seed = 42;
    cfg.degrade_ppm = 100_000;
    assert_eq!(
        format!("{:016x}", run_scale(&cfg).digest),
        "72e48d9085b0d01e"
    );
}

/// Twelve 8 MiB images over 48 nodes, two images per node cache, with
/// degraded peers: every cache in the model evicts.
fn golden_cfg(topology: Topology) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(topology.with_fanout(8, 3), 12);
    cfg.image_bytes = 8 << 20;
    cfg.node_cache_bytes = 16 << 20;
    cfg.waves = 5;
    cfg.wave_gap_ns = 5 * SEC;
    cfg.seed = 3;
    cfg.degrade_ppm = 150_000;
    cfg.keep_records = true;
    cfg
}

/// Whole reports of three small configs, pinned: any change to the fill
/// ladder, the caches' victim order or the percentiles moves a field.
#[test]
fn small_config_reports_are_pinned() {
    let mut p2p = Topology::tiered_p2p(48, 32 << 20, 64 << 20);
    // A slow top-of-rack link keeps peer transfers in flight long enough
    // for the source to evict and truncate them.
    p2p.rack_link = NetSpec {
        bw_bps: 3_000_000,
        ..NetSpec::tor_25g()
    };
    let cases = [
        (
            Topology::flat(48),
            "digest=60c8d3f1958e3dff boots=240 warm=43 joins=0 fills=[0, 0, 0, 197] \
             tier_bytes=[0, 0, 0, 1652555776] fill_bytes=1652555776 evictions=101/0/0 \
             truncations=0 degrades=0 storage=LinkStats { messages: 197, bytes: 1652555776, \
             busy_ns: 517211680 } zone_bytes=1652555776 rack_bytes=1652555776 \
             makespan=22094542840 mean=2044403037.8333333 p50=2147483647 p99=2147483647 \
             jsonl=23c03531ff290a27",
        ),
        (
            Topology::tiered(48, 32 << 20, 64 << 20),
            "digest=56e028485bc2c102 boots=240 warm=43 joins=0 fills=[0, 54, 51, 92] \
             tier_bytes=[0, 452984832, 427819008, 771751936] fill_bytes=1652555776 \
             evictions=101/69/22 truncations=0 degrades=0 storage=LinkStats { messages: 92, \
             bytes: 771751936, busy_ns: 241540480 } zone_bytes=1199570944 \
             rack_bytes=1652555776 makespan=22049036540 mean=2023993686.425 p50=2147483647 \
             p99=2147483647 jsonl=7004fd50feb1e28b",
        ),
        (
            p2p,
            "digest=3743412d9079158e boots=240 warm=35 joins=14 fills=[37, 1, 75, 93] \
             tier_bytes=[257684793, 3774874, 573928844, 766835617] fill_bytes=1602224128 \
             evictions=95/65/21 truncations=11 degrades=4 storage=LinkStats { messages: 93, \
             bytes: 766835617, busy_ns: 240008129 } zone_bytes=1340764461 \
             rack_bytes=1629324186 makespan=100709397545 mean=37029290808.754166 \
             p50=34359738367 p99=137438953471 jsonl=237511ba64c12741",
        ),
    ];
    for (topo, want) in cases {
        let name = topo.name;
        assert_eq!(pin(&run_scale(&golden_cfg(topo))), want, "{name}");
    }
}

/// The three 10k-node × 1M-boot points of the committed
/// `BENCH_pr10_scale.json`, rerun: every field but the wall-clock ones
/// must come out as committed. Release only (a few seconds there).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn full_sweep_reproduces_the_committed_artifact() {
    const WALL: [&str; 4] = [
        "\"wall_ns\"",
        "\"boots_per_sec\"",
        "\"agg_boots_per_sec\"",
        "\"wall_s\"",
    ];
    let stable = |json: &str| -> Vec<String> {
        json.lines()
            .filter(|l| !WALL.iter().any(|k| l.trim_start().starts_with(k)))
            .map(|l| l.trim_end().trim_end_matches(',').to_string())
            .collect()
    };
    let got = vmi_bench::run_scale_sweep_full().to_json();
    let golden = include_str!("../../BENCH_pr10_scale.json");
    assert_eq!(stable(&got), stable(golden));
}
