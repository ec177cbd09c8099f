//! Goldens for the PR-10 scale engine: pinned digests and whole reports of
//! small configurations, the committed 10k-node sweep, and a property that
//! every completed fill accounts for exactly one image's worth of bytes, and
//! crosses its rack link exactly once, no matter how peer transfers degrade
//! mid-flight or their sources evict.

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
    /// totals sum to the fill total — degraded peer transfers re-source
    /// the remainder without double counting. Every link serves its
    /// messages in arrival order, and the rack links carry exactly one
    /// image per fill.
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
        assert_link_invariants(&rep);
    }
}

/// No storage, zone or rack link took a message after a later-submitted one,
/// and the rack links carried exactly the bytes that landed in node caches.
fn assert_link_invariants(rep: &ScaleReport) {
    for (tier, link) in [
        ("storage", rep.storage_link),
        ("zone", rep.zone_links),
        ("rack", rep.rack_links),
    ] {
        assert_eq!(
            link.late, 0,
            "{tier} link served out of arrival order: {link:?}"
        );
    }
    assert_eq!(
        rep.rack_links.bytes, rep.fill_bytes,
        "rack bytes != fill bytes"
    );
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
         evictions={}/{}/{} degrades={} storage={:?} zone={:?} \
         rack={:?} makespan={} mean={:?} p50={} p99={} jsonl={:016x}",
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
        rep.peer_degrades,
        rep.storage_link,
        rep.zone_links,
        rep.rack_links,
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
    let rep = run_scale(&cfg);
    assert_link_invariants(&rep);
    assert_eq!(format!("{:016x}", rep.digest), "f0fa4667e223faca");
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
    // for the source to evict the image while it is still sending it.
    p2p.rack_link = NetSpec {
        bw_bps: 3_000_000,
        ..NetSpec::tor_25g()
    };
    let cases = [
        (
            Topology::flat(48),
            "digest=60c8d3f1958e3dff boots=240 warm=43 joins=0 fills=[0, 0, 0, 197] \
             tier_bytes=[0, 0, 0, 1652555776] fill_bytes=1652555776 evictions=101/0/0 \
             degrades=0 storage=LinkStats { messages: 197, bytes: 1652555776, \
             busy_ns: 517211680, late: 0, late_ns: 0 } zone=LinkStats { messages: 197, \
             bytes: 1652555776, busy_ns: 0, late: 0, late_ns: 0 } rack=LinkStats { messages: 197, \
             bytes: 1652555776, busy_ns: 0, late: 0, late_ns: 0 } makespan=22094542840 \
             mean=2044403037.8333333 p50=2147483647 p99=2147483647 jsonl=23c03531ff290a27",
        ),
        (
            Topology::tiered(48, 32 << 20, 64 << 20),
            "digest=c61293cb7f3c08c6 boots=240 warm=43 joins=0 fills=[0, 54, 61, 82] \
             tier_bytes=[0, 452984832, 511705088, 687865856] fill_bytes=1652555776 \
             evictions=101/69/16 degrades=0 storage=LinkStats { messages: 82, \
             bytes: 687865856, busy_ns: 215286080, late: 0, late_ns: 0 } zone=LinkStats { \
             messages: 143, bytes: 1199570944, busy_ns: 100250150, late: 0, late_ns: 0 } \
             rack=LinkStats { messages: 197, bytes: 1652555776, busy_ns: 551048794, late: 0, \
             late_ns: 0 } makespan=22032418092 mean=2020903806.8333333 p50=2147483647 \
             p99=2147483647 jsonl=4821fc1f2e639ce0",
        ),
        (
            p2p,
            "digest=7d9eb216dabccd10 boots=240 warm=14 joins=37 fills=[37, 0, 83, 73] \
             tier_bytes=[286026365, 0, 694685795, 604734752] fill_bytes=1585446912 \
             evictions=93/58/15 degrades=4 storage=LinkStats { messages: 73, \
             bytes: 604734752, busy_ns: 189271609, late: 0, late_ns: 0 } zone=LinkStats { \
             messages: 156, bytes: 1299420547, busy_ns: 108596942, late: 0, late_ns: 0 } \
             rack=LinkStats { messages: 193, bytes: 1585446912, busy_ns: 528482496874, late: 0, \
             late_ns: 0 } makespan=97158306214 mean=34958584529.35833 p50=34359738367 \
             p99=137438953471 jsonl=2316945eee1f251a",
        ),
    ];
    for (topo, want) in cases {
        let name = topo.name;
        let rep = run_scale(&golden_cfg(topo));
        assert_link_invariants(&rep);
        assert_eq!(pin(&rep), want, "{name}");
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
