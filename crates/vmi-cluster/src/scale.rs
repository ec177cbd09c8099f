//! The 10k-node cluster simulator (DESIGN.md §16).
//!
//! The paper's evaluation tops out at 64 compute nodes; this engine runs the
//! same cache-fill physics at O(10k) nodes and O(1M) boots. Two ideas make
//! that tractable:
//!
//! 1. **Content-keyed events** ([`vmi_sim::EventKey`]): the schedule is a
//!    pure function of the event *set*, not of the order handlers create
//!    events in, so per-seed output is bit-identical run to run. One serial
//!    loop pops them in key order.
//! 2. **Compact state**: state is O(active fills), not O(boots). Arrivals
//!    are injected one wave at a time, images are `u32` indices, and
//!    per-boot records are kept only on request
//!    ([`ScaleConfig::keep_records`]). Node caches and the rack and zone
//!    tiers are the crate's one LRU, [`CachePool`].
//!
//! Each rack owns its node caches, peer registry, top-of-rack link and rack
//! tier. Zone links, zone tiers and the storage link sit above the racks. A
//! fill moves one link per event: each hop reserves its next link at the
//! time its bytes reach that link, so every link serves its messages in
//! arrival order, and a cache takes an image only once its bytes have
//! landed there. A peer transfer that starts finishes: a node that evicts
//! an image stops advertising it to new peers but keeps sending it to the
//! ones it already serves, so every byte that lands in a node cache crosses
//! its rack link exactly once.

use std::collections::HashMap;

use vmi_obs::{Histogram, HistogramSnapshot, Obs};
use vmi_sim::{EventKey, Link, LinkStats, Ns, Shard, SEC};

use crate::cachepool::CachePool;
use crate::topology::Topology;

const TAG_ARRIVE: u8 = 0;
const TAG_HOP: u8 = 1;
/// Mixed into the seed for the independent degraded-peer coin.
const DEGRADE_SALT: u64 = 0x6b5f_e273_9cd1_aa41;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64-style stateless hash: deterministic, seed-separated streams.
fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed.wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a boot's image bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// Image already warm in the node cache.
    Warm,
    /// Rode an in-flight fill for the same (node, image).
    Join,
    /// Fetched from a warm peer in the same rack.
    Peer,
    /// Served by the rack cache tier.
    Rack,
    /// Served by the zone cache tier.
    Zone,
    /// Pulled from central storage.
    Storage,
}

impl FillSource {
    /// Stable label used in JSONL output and reports.
    pub fn name(self) -> &'static str {
        match self {
            FillSource::Warm => "warm",
            FillSource::Join => "join",
            FillSource::Peer => "peer",
            FillSource::Rack => "rack",
            FillSource::Zone => "zone",
            FillSource::Storage => "storage",
        }
    }

    /// Index into the `fills` / `tier_bytes` counters (transfer tiers only).
    fn tier_idx(self) -> Option<usize> {
        match self {
            FillSource::Peer => Some(0),
            FillSource::Rack => Some(1),
            FillSource::Zone => Some(2),
            FillSource::Storage => Some(3),
            FillSource::Warm | FillSource::Join => None,
        }
    }

    fn tag(self) -> u64 {
        match self {
            FillSource::Warm => 0,
            FillSource::Join => 1,
            FillSource::Peer => 2,
            FillSource::Rack => 3,
            FillSource::Zone => 4,
            FillSource::Storage => 5,
        }
    }
}

/// One completed boot (emitted only with [`ScaleConfig::keep_records`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootRecord {
    /// Dense boot id (`wave * nodes + node`).
    pub boot: u64,
    /// Global node id.
    pub node: u32,
    /// Image index (`img-{k}`, `k < ScaleConfig::images`).
    pub image: u32,
    /// Arrival time.
    pub at: Ns,
    /// VM-running time (cache warm + boot CPU).
    pub done: Ns,
    /// Primary fill source.
    pub src: FillSource,
    /// Second segment's source when the fill changed tier mid-flight
    /// (degraded peer).
    pub fallback: Option<FillSource>,
    /// Bytes transferred to warm the node cache (0 for warm hits / joins).
    pub fill_bytes: u64,
}

/// Configuration of one scale experiment.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Cache-distribution topology.
    pub topology: Topology,
    /// Catalog size; image `k` is drawn with Zipf weight `1/(k+1)`.
    pub images: usize,
    /// Size of every image.
    pub image_bytes: u64,
    /// Node-local cache capacity.
    pub node_cache_bytes: u64,
    /// Boot waves (each wave boots one VM per node).
    pub waves: usize,
    /// Gap between wave launches.
    pub wave_gap_ns: Ns,
    /// CPU-side boot time once the image is warm.
    pub boot_cpu_ns: Ns,
    /// Parts-per-million of peer fetches that degrade mid-transfer.
    pub degrade_ppm: u32,
    /// Seed for image choice and degradation coins.
    pub seed: u64,
    /// Keep per-boot [`BootRecord`]s (O(boots) memory — off by default).
    pub keep_records: bool,
}

impl ScaleConfig {
    /// Defaults sized like the paper's workload: 64 MiB images, 256 MiB
    /// node caches, 4 waves 30 s apart, 2 s CPU boot.
    pub fn new(topology: Topology, images: usize) -> Self {
        Self {
            topology,
            images: images.max(1),
            image_bytes: 64 << 20,
            node_cache_bytes: 256 << 20,
            waves: 4,
            wave_gap_ns: 30 * SEC,
            boot_cpu_ns: 2 * SEC,
            degrade_ppm: 0,
            seed: 42,
            keep_records: false,
        }
    }

    /// Total boots the run will simulate.
    pub fn boots(&self) -> u64 {
        self.waves as u64 * self.topology.nodes as u64
    }

    /// Panic on configurations the engine cannot run.
    pub fn validate(&self) {
        self.topology.validate();
        assert!(self.images >= 1, "need at least one image");
        assert!(
            self.image_bytes > 0 && self.image_bytes <= self.node_cache_bytes,
            "node cache must hold at least one image"
        );
        assert!(self.waves >= 1, "need at least one wave");
    }
}

/// Aggregate results of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Topology label.
    pub topology: &'static str,
    /// Fleet size.
    pub nodes: usize,
    /// Boots completed.
    pub boots: u64,
    /// Boots served from a warm node cache.
    pub warm_hits: u64,
    /// Boots that joined an in-flight fill.
    pub joins: u64,
    /// Fill segments by tier: `[peer, rack, zone, storage]`.
    pub fills: [u64; 4],
    /// Fill bytes by tier: `[peer, rack, zone, storage]`.
    pub tier_bytes: [u64; 4],
    /// Total bytes moved into node caches.
    pub fill_bytes: u64,
    /// Node-cache LRU evictions.
    pub node_evictions: u64,
    /// Rack-tier evictions.
    pub rack_tier_evictions: u64,
    /// Zone-tier evictions.
    pub zone_tier_evictions: u64,
    /// Peer transfers that degraded mid-flight.
    pub peer_degrades: u64,
    /// Central storage link counters — the paper's bottleneck metric.
    pub storage_link: LinkStats,
    /// Zone aggregation link counters, summed over the zones.
    pub zone_links: LinkStats,
    /// Top-of-rack link counters, summed over the racks (peer traffic
    /// included). Every byte that lands in a node cache crosses its rack
    /// link once, so `bytes` equals `fill_bytes`.
    pub rack_links: LinkStats,
    /// Last boot completion time.
    pub makespan_ns: Ns,
    /// Mean arrival→running latency.
    pub mean_boot_ns: f64,
    /// Median boot latency ([`Histogram`] log2-bucket upper edge).
    pub p50_boot_ns: u64,
    /// 99th-percentile boot latency (log2-bucket upper edge).
    pub p99_boot_ns: u64,
    /// Order-sensitive FNV-1a digest of every boot outcome; equal digests ⇒
    /// identical schedules (the scale goldens pin these).
    pub digest: u64,
    /// Per-boot records, sorted by boot id (empty unless requested).
    pub records: Vec<BootRecord>,
}

impl ScaleReport {
    /// Render kept records as JSONL, one boot per line in boot-id order.
    /// Like every report field, a pure function of the config.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"boot\":{},\"node\":\"n{}\",\"img\":\"img-{}\",\"at\":{},\"done\":{},\"src\":\"{}\"",
                r.boot,
                r.node,
                r.image,
                r.at,
                r.done,
                r.src.name()
            ));
            if let Some(f) = r.fallback {
                out.push_str(&format!(",\"fallback\":\"{}\"", f.name()));
            }
            out.push_str(&format!(",\"fill_bytes\":{}}}\n", r.fill_bytes));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// Cumulative Zipf(1) distribution over `n` images, normalized to 1.0.
fn zipf_cum(n: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / (k + 1) as f64;
        cum.push(total);
    }
    for c in &mut cum {
        *c /= total;
    }
    cum
}

fn image_of(cum: &[f64], seed: u64, boot: u64) -> u32 {
    let h = (mix(seed, boot) >> 11) as f64 / (1u64 << 53) as f64;
    cum.partition_point(|&c| c < h).min(cum.len() - 1) as u32
}

// ---------------------------------------------------------------------------
// Simulation state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive { boot: u64, node: u32, image: u32 },
    Hop { node: u32, image: u32 },
}

/// The `Hop` of `(node, image)` due at `at`: the fill's bytes reach the end
/// of a link, or a degraded peer gives up.
fn hop(rack: u32, node: u32, image: u32, at: Ns) -> (EventKey, Ev) {
    let key = EventKey {
        at,
        lane: rack,
        tag: TAG_HOP,
        a: node as u64,
        b: image as u64,
    };
    (key, Ev::Hop { node, image })
}

/// Stage `image` in a rack or zone tier at `now` unless the tier already
/// holds it or is disabled (capacity 0). Returns the LRU evictions it
/// caused; `scratch` is a reused victim buffer, left empty.
fn tier_admit(
    tier: &mut CachePool,
    image: u32,
    bytes: u64,
    now: Ns,
    scratch: &mut Vec<usize>,
) -> u64 {
    if tier.contains(image as usize) {
        return 0;
    }
    let obs = Obs::disabled();
    // A disabled tier rejects every image; that is not an error here.
    let _ = tier.admit(image as usize, bytes, now, &obs, 0, scratch);
    let evictions = scratch.len() as u64;
    scratch.clear();
    evictions
}

/// Stop advertising `node` as a warm holder of `image`.
fn unadvertise(registry: &mut HashMap<u32, Vec<u32>>, node: u32, image: u32) {
    if let Some(v) = registry.get_mut(&image) {
        v.retain(|&n| n != node);
        if v.is_empty() {
            registry.remove(&image);
        }
    }
}

/// A fill in flight for one `(node, image)`: the segments sourced so far,
/// the links the last one has still to cross, and the bytes still without
/// a source.
#[derive(Debug)]
struct Pending {
    boot: u64,
    at: Ns,
    seg0: Option<(FillSource, u64)>,
    seg1: Option<(FillSource, u64)>,
    /// Links the last segment has still to cross, counted from the node:
    /// 3 is storage → zone → rack, 2 is zone → rack, 1 is rack (a peer's
    /// transfer too).
    hops: u8,
    /// Bytes that still need a source: a whole image for a new fill, the
    /// rest of a degraded peer transfer.
    need: u64,
    /// Boots that joined this fill: `(boot, arrival)`.
    joined: Vec<(u64, Ns)>,
}

/// Per-rack aggregates, folded into the global report at the end.
#[derive(Debug)]
struct RackAgg {
    boots: u64,
    warm_hits: u64,
    joins: u64,
    fills: [u64; 4],
    tier_bytes: [u64; 4],
    fill_bytes: u64,
    node_evictions: u64,
    peer_degrades: u64,
    hist: Histogram,
    lat_sum: u128,
    max_done: Ns,
    digest: u64,
    records: Vec<BootRecord>,
}

impl RackAgg {
    fn new() -> Self {
        Self {
            boots: 0,
            warm_hits: 0,
            joins: 0,
            fills: [0; 4],
            tier_bytes: [0; 4],
            fill_bytes: 0,
            node_evictions: 0,
            peer_degrades: 0,
            hist: Histogram::default(),
            lat_sum: 0,
            max_done: 0,
            digest: FNV_BASIS,
            records: Vec::new(),
        }
    }

    /// Record a finished boot: histogram, digest fold, optional record.
    /// Called in the rack's event order, so the digest is
    /// schedule-sensitive.
    fn record(&mut self, keep: bool, rec: BootRecord) {
        self.boots += 1;
        let lat = rec.done.saturating_sub(rec.at);
        self.hist.record(lat);
        self.lat_sum += lat as u128;
        self.max_done = self.max_done.max(rec.done);
        let fb = rec.fallback.map_or(0, |f| f.tag() + 1);
        for v in [
            rec.boot,
            rec.node as u64,
            rec.image as u64,
            rec.at,
            rec.done,
            rec.src.tag(),
            fb,
            rec.fill_bytes,
        ] {
            self.digest = (self.digest ^ v).wrapping_mul(FNV_PRIME);
        }
        if keep {
            self.records.push(rec);
        }
    }
}

/// Everything one rack owns — touched only by that rack's events.
struct RackState {
    rack: u32,
    node0: u32,
    caches: Vec<CachePool>,
    pending: HashMap<(u32, u32), Pending>,
    /// image → warm holders, sorted by node id.
    registry: HashMap<u32, Vec<u32>>,
    link: Link,
    tier: CachePool,
    tier_evictions: u64,
    /// Victim buffer for node and rack-tier admits, reused across fills.
    evicted: Vec<usize>,
    agg: RackAgg,
}

/// Resources above the racks, shared by every rack's events.
struct SharedState {
    storage: Link,
    zone_links: Vec<Link>,
    zone_tiers: Vec<CachePool>,
    zone_tier_evictions: u64,
    /// Victim buffer for zone-tier admits.
    evicted: Vec<usize>,
}

/// Carry the fill of `(node, image)` one step at `t`, the time its bytes
/// reach that step. With a link left to cross, reserve it now and schedule
/// the next hop at its delivery time. With none left, give the bytes that
/// still need a source one — rack tier, else zone tier, else storage — and
/// start them across their first link. Returns `true` when nothing is left
/// to move: the fill lands at `t`.
fn advance(
    cfg: &ScaleConfig,
    rk: &mut RackState,
    shared: &mut SharedState,
    queue: &mut Shard<Ev>,
    t: Ns,
    node: u32,
    image: u32,
) -> bool {
    let Some(p) = rk.pending.get_mut(&(node, image)) else {
        return false;
    };
    let zone = cfg.topology.zone_of(rk.rack as usize);
    if p.hops == 0 {
        if p.need == 0 {
            return true;
        }
        let (src, hops) = if rk.tier.touch(image as usize, t) {
            (FillSource::Rack, 1)
        } else if shared.zone_tiers[zone].touch(image as usize, t) {
            (FillSource::Zone, 2)
        } else {
            (FillSource::Storage, 3)
        };
        let seg = if p.seg0.is_none() {
            &mut p.seg0
        } else {
            &mut p.seg1
        };
        *seg = Some((src, p.need));
        (p.hops, p.need) = (hops, 0);
    }
    let Some((src, bytes)) = p.seg1.or(p.seg0) else {
        return true;
    };
    let end = match p.hops {
        3 => shared.storage.transfer(t, bytes),
        2 => shared.zone_links[zone].transfer(t, bytes),
        _ => {
            // A storage fetch that crossed the zone link stays in the zone tier.
            if src == FillSource::Storage {
                let (tier, scratch) = (&mut shared.zone_tiers[zone], &mut shared.evicted);
                shared.zone_tier_evictions += tier_admit(tier, image, cfg.image_bytes, t, scratch);
            }
            rk.link.transfer(t, bytes)
        }
    };
    p.hops -= 1;
    let (key, ev) = hop(rk.rack, node, image, end);
    queue.push(key, ev);
    false
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn handle_arrive(
    cfg: &ScaleConfig,
    rk: &mut RackState,
    shared: &mut SharedState,
    queue: &mut Shard<Ev>,
    t: Ns,
    boot: u64,
    node: u32,
    image: u32,
) {
    let ni = (node - rk.node0) as usize;
    let ib = cfg.image_bytes;

    // 1. Warm hit: the image has landed in the node cache.
    if rk.caches[ni].touch(image as usize, t) {
        rk.agg.warm_hits += 1;
        rk.agg.record(
            cfg.keep_records,
            BootRecord {
                boot,
                node,
                image,
                at: t,
                done: t + cfg.boot_cpu_ns,
                src: FillSource::Warm,
                fallback: None,
                fill_bytes: 0,
            },
        );
        return;
    }

    // 2. Join an in-flight fill for the same (node, image).
    if let Some(p) = rk.pending.get_mut(&(node, image)) {
        p.joined.push((boot, t));
        return;
    }

    // 3. New fill. A peer fetch takes the first warm holder in the rack, by
    // node id, and crosses the rack link; anything else starts at the rack
    // tier, else the zone tier, else storage.
    let mut p = Pending {
        boot,
        at: t,
        seg0: None,
        seg1: None,
        hops: 0,
        need: ib,
        joined: Vec::new(),
    };
    let peer = cfg
        .topology
        .peer_fetch
        .then(|| rk.registry.get(&image).and_then(|v| v.first().copied()))
        .flatten();
    if let Some(src) = peer {
        let h = mix(cfg.seed ^ DEGRADE_SALT, boot);
        let served = if h % 1_000_000 < cfg.degrade_ppm as u64 {
            // Degraded mid-transfer: a seeded fraction arrives, then the
            // source is dropped from the registry and the remainder is
            // refetched from another source when the transfer stops.
            unadvertise(&mut rk.registry, src, image);
            rk.agg.peer_degrades += 1;
            ib * ((h >> 32) % 1000) / 1000
        } else {
            // Healthy peer: the whole image, even if the source evicts it
            // before the send ends.
            rk.caches[(src - rk.node0) as usize].touch(image as usize, t);
            ib
        };
        (p.seg0, p.hops, p.need) = (Some((FillSource::Peer, served)), 1, ib - served);
    }
    rk.pending.insert((node, image), p);
    advance(cfg, rk, shared, queue, t, node, image);
}

fn handle_hop(
    cfg: &ScaleConfig,
    rk: &mut RackState,
    shared: &mut SharedState,
    queue: &mut Shard<Ev>,
    t: Ns,
    node: u32,
    image: u32,
) {
    if !advance(cfg, rk, shared, queue, t, node, image) {
        return;
    }
    // The fill lands: the node cache takes the image (a node stops
    // advertising what it evicts), the rack tier takes it too if it came
    // from above the rack, the node advertises it to peers, and the fill's
    // boots complete.
    let Some(p) = rk.pending.remove(&(node, image)) else {
        return;
    };

    // Install into the node cache (`validate` guarantees an image fits).
    let ni = (node - rk.node0) as usize;
    let obs = Obs::disabled();
    let _ = rk.caches[ni].admit(
        image as usize,
        cfg.image_bytes,
        t,
        &obs,
        node as u64,
        &mut rk.evicted,
    );
    rk.agg.node_evictions += rk.evicted.len() as u64;
    for gone in rk.evicted.drain(..) {
        unadvertise(&mut rk.registry, node, gone as u32);
    }

    // Fills that crossed the zone boundary also populate the rack tier.
    let from_above = |s: &Option<(FillSource, u64)>| {
        matches!(s, Some((FillSource::Zone | FillSource::Storage, _)))
    };
    if from_above(&p.seg0) || from_above(&p.seg1) {
        let (bytes, scratch) = (cfg.image_bytes, &mut rk.evicted);
        rk.tier_evictions += tier_admit(&mut rk.tier, image, bytes, t, scratch);
    }

    // Advertise this node as a warm holder for peer fetch.
    if cfg.topology.peer_fetch {
        let v = rk.registry.entry(image).or_default();
        if let Err(pos) = v.binary_search(&node) {
            v.insert(pos, node);
        }
    }

    // Primary boot.
    let (src, s0_bytes) = p.seg0.unwrap_or((FillSource::Storage, 0));
    let fallback = p.seg1.map(|(s, _)| s);
    let fill_bytes = s0_bytes + p.seg1.map_or(0, |(_, b)| b);
    for (s, b) in p.seg0.iter().chain(p.seg1.iter()) {
        if let Some(ti) = s.tier_idx() {
            rk.agg.fills[ti] += 1;
            rk.agg.tier_bytes[ti] += b;
        }
    }
    rk.agg.fill_bytes += fill_bytes;
    let done = t + cfg.boot_cpu_ns;
    rk.agg.record(
        cfg.keep_records,
        BootRecord {
            boot: p.boot,
            node,
            image,
            at: p.at,
            done,
            src,
            fallback,
            fill_bytes,
        },
    );

    // Joined boots complete when the shared fill does.
    for (jboot, jat) in p.joined {
        rk.agg.joins += 1;
        rk.agg.record(
            cfg.keep_records,
            BootRecord {
                boot: jboot,
                node,
                image,
                at: jat,
                done,
                src: FillSource::Join,
                fallback: None,
                fill_bytes: 0,
            },
        );
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

fn init_racks(cfg: &ScaleConfig) -> Vec<RackState> {
    let topo = &cfg.topology;
    (0..topo.racks())
        .map(|r| {
            let (start, count) = topo.rack_span(r);
            RackState {
                rack: r as u32,
                node0: start as u32,
                caches: (0..count)
                    .map(|_| CachePool::new(cfg.node_cache_bytes))
                    .collect(),
                pending: HashMap::new(),
                registry: HashMap::new(),
                link: Link::new(topo.rack_link),
                tier: CachePool::new(topo.rack_cache_bytes),
                tier_evictions: 0,
                evicted: Vec::new(),
                agg: RackAgg::new(),
            }
        })
        .collect()
}

fn init_shared(cfg: &ScaleConfig) -> SharedState {
    let topo = &cfg.topology;
    SharedState {
        storage: Link::new(topo.storage_link),
        zone_links: (0..topo.zones())
            .map(|_| Link::new(topo.zone_link))
            .collect(),
        zone_tiers: (0..topo.zones())
            .map(|_| CachePool::new(topo.zone_cache_bytes))
            .collect(),
        zone_tier_evictions: 0,
        evicted: Vec::new(),
    }
}

fn inject_wave(queue: &mut Shard<Ev>, cfg: &ScaleConfig, cum: &[f64], wave: usize) {
    let at = wave as u64 * cfg.wave_gap_ns;
    for node in 0..cfg.topology.nodes {
        let boot = wave as u64 * cfg.topology.nodes as u64 + node as u64;
        let image = image_of(cum, cfg.seed, boot);
        queue.push(
            EventKey {
                at,
                lane: cfg.topology.rack_of(node) as u32,
                tag: TAG_ARRIVE,
                a: node as u64,
                b: boot,
            },
            Ev::Arrive {
                boot,
                node: node as u32,
                image,
            },
        );
    }
}

/// Fold `link`'s counters into a tier's sum.
fn add_link(sum: &mut LinkStats, link: &Link) {
    let s = link.stats();
    sum.messages += s.messages;
    sum.bytes += s.bytes;
    sum.busy_ns += s.busy_ns;
    sum.late += s.late;
    sum.late_ns += s.late_ns;
}

fn finish(cfg: &ScaleConfig, racks: Vec<RackState>, shared: SharedState) -> ScaleReport {
    let mut report = ScaleReport {
        topology: cfg.topology.name,
        nodes: cfg.topology.nodes,
        boots: 0,
        warm_hits: 0,
        joins: 0,
        fills: [0; 4],
        tier_bytes: [0; 4],
        fill_bytes: 0,
        node_evictions: 0,
        rack_tier_evictions: 0,
        zone_tier_evictions: shared.zone_tier_evictions,
        peer_degrades: 0,
        storage_link: shared.storage.stats(),
        zone_links: LinkStats::default(),
        rack_links: LinkStats::default(),
        makespan_ns: 0,
        mean_boot_ns: 0.0,
        p50_boot_ns: 0,
        p99_boot_ns: 0,
        digest: FNV_BASIS,
        records: Vec::new(),
    };
    for link in &shared.zone_links {
        add_link(&mut report.zone_links, link);
    }
    let mut hist = HistogramSnapshot::default();
    let mut lat_sum = 0u128;
    for rk in racks {
        let a = rk.agg;
        report.boots += a.boots;
        report.warm_hits += a.warm_hits;
        report.joins += a.joins;
        for i in 0..4 {
            report.fills[i] += a.fills[i];
            report.tier_bytes[i] += a.tier_bytes[i];
        }
        report.fill_bytes += a.fill_bytes;
        report.node_evictions += a.node_evictions;
        report.rack_tier_evictions += rk.tier_evictions;
        report.peer_degrades += a.peer_degrades;
        add_link(&mut report.rack_links, &rk.link);
        report.makespan_ns = report.makespan_ns.max(a.max_done);
        hist.merge(&a.hist.snapshot());
        lat_sum += a.lat_sum;
        report.digest = (report.digest ^ a.digest).wrapping_mul(FNV_PRIME);
        report.records.extend(a.records);
    }
    debug_assert_eq!(report.boots, cfg.boots(), "every boot must complete");
    report.records.sort_unstable_by_key(|r| r.boot);
    if report.boots > 0 {
        report.mean_boot_ns = lat_sum as f64 / report.boots as f64;
        report.p50_boot_ns = hist.quantile(0.50);
        report.p99_boot_ns = hist.quantile(0.99);
    }
    report
}

/// Run one scale experiment: pop events in global key order, injecting each
/// wave once no earlier event is pending. Output is a pure function of the
/// config — same seed, same [`ScaleReport::digest`].
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    cfg.validate();
    let cum = zipf_cum(cfg.images);
    let mut racks = init_racks(cfg);
    let mut shared = init_shared(cfg);
    let mut queue = Shard::default();
    let mut next_wave = 0usize;
    loop {
        while next_wave < cfg.waves {
            let wt = next_wave as u64 * cfg.wave_gap_ns;
            if queue.min_key().is_some_and(|k| k.at < wt) {
                break;
            }
            inject_wave(&mut queue, cfg, &cum, next_wave);
            next_wave += 1;
        }
        let Some((key, ev)) = queue.pop() else {
            break;
        };
        let rk = &mut racks[key.lane as usize];
        let (sh, t) = (&mut shared, key.at);
        match ev {
            Ev::Arrive { boot, node, image } => {
                handle_arrive(cfg, rk, sh, &mut queue, t, boot, node, image)
            }
            Ev::Hop { node, image } => handle_hop(cfg, rk, sh, &mut queue, t, node, image),
        }
    }
    finish(cfg, racks, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_sim::NetSpec;

    fn small_cfg(topology: Topology, seed: u64) -> ScaleConfig {
        let mut cfg = ScaleConfig::new(topology, 6);
        cfg.image_bytes = 8 << 20;
        cfg.node_cache_bytes = 16 << 20; // two images per node
        cfg.waves = 4;
        cfg.wave_gap_ns = 5 * SEC;
        cfg.seed = seed;
        cfg.keep_records = true;
        cfg
    }

    #[test]
    fn tiers_and_peers_cut_storage_traffic() {
        let n = 256;
        let flat = run_scale(&small_cfg(Topology::flat(n), 3));
        let tiered = run_scale(&small_cfg(Topology::tiered(n, 64 << 20, 256 << 20), 3));
        let p2p = run_scale(&small_cfg(Topology::tiered_p2p(n, 64 << 20, 256 << 20), 3));
        assert!(
            tiered.storage_link.bytes < flat.storage_link.bytes,
            "tiers absorb refetches: {} !< {}",
            tiered.storage_link.bytes,
            flat.storage_link.bytes
        );
        assert!(
            p2p.storage_link.bytes <= tiered.storage_link.bytes,
            "peers never add storage traffic"
        );
        assert!(p2p.fills[0] > 0, "peer fetch actually used");
        assert_eq!(flat.fills[0], 0, "no peers in the flat baseline");
        assert_eq!(
            flat.fills[1] + flat.fills[2],
            0,
            "no tiers in the flat baseline"
        );
    }

    #[test]
    fn every_fill_conserves_image_bytes() {
        // degrade_ppm = 1e6: every peer fetch degrades mid-transfer and must
        // fall back without double-counting — segments always sum to the
        // image size exactly.
        let topo = Topology::tiered_p2p(64, 64 << 20, 256 << 20).with_fanout(8, 4);
        let mut cfg = small_cfg(topo, 11);
        cfg.degrade_ppm = 1_000_000;
        let rep = run_scale(&cfg);
        assert!(rep.peer_degrades > 0, "degradation path exercised");
        let mut fallbacks = 0;
        for r in &rep.records {
            match r.src {
                FillSource::Warm | FillSource::Join => assert_eq!(r.fill_bytes, 0),
                _ => {
                    assert_eq!(
                        r.fill_bytes, cfg.image_bytes,
                        "boot {} fill segments must sum to the image size",
                        r.boot
                    );
                    if r.fallback.is_some() {
                        fallbacks += 1;
                    }
                }
            }
        }
        assert!(fallbacks > 0, "some fills completed via a fallback tier");
        assert_eq!(
            rep.tier_bytes.iter().sum::<u64>(),
            rep.fill_bytes,
            "per-tier bytes partition total fill bytes"
        );
        // A degraded transfer reserves only the bytes it serves, so the
        // rack links carry exactly one image per fill.
        assert_eq!(rep.rack_links.bytes, rep.fill_bytes);
    }

    #[test]
    fn peer_transfer_outlives_its_sources_eviction() {
        // 64 MiB over a 100 kB/s rack link takes ~11 minutes, and a node
        // cache holds one image, so a source's next fill evicts the image
        // it is still sending. The transfer runs to completion anyway: every
        // peer fill serves the whole image with no fallback, and the rack
        // links carry exactly the bytes that land.
        let mut topo = Topology::tiered_p2p(4, 0, 0).with_fanout(4, 1);
        topo.rack_link = NetSpec {
            bw_bps: 100_000,
            ..NetSpec::tor_25g()
        };
        for seed in [1u64, 3, 15] {
            let mut cfg = ScaleConfig::new(topo.clone(), 3);
            cfg.node_cache_bytes = cfg.image_bytes;
            cfg.waves = 12;
            cfg.wave_gap_ns = 400 * SEC;
            cfg.seed = seed;
            cfg.keep_records = true;
            let rep = run_scale(&cfg);
            assert!(rep.fills[0] > 0, "seed {seed}: peer fetch used");
            assert!(rep.node_evictions > 0, "seed {seed}: sources evict");
            for r in &rep.records {
                if r.src == FillSource::Peer {
                    assert_eq!(r.fill_bytes, cfg.image_bytes, "seed {seed} boot {}", r.boot);
                    assert_eq!(r.fallback, None, "seed {seed} boot {}", r.boot);
                }
            }
            assert_eq!(rep.tier_bytes.iter().sum::<u64>(), rep.fill_bytes);
            assert_eq!(rep.rack_links.bytes, rep.fill_bytes, "seed {seed}");
        }
    }

    #[test]
    fn joins_and_warm_hits_dominate_repeat_waves() {
        let mut cfg = small_cfg(Topology::tiered(64, 64 << 20, 256 << 20), 5);
        cfg.images = 1;
        let rep = run_scale(&cfg);
        // One image, 4 waves: wave 1 fills, later waves are all warm hits.
        assert_eq!(rep.boots, 256);
        assert_eq!(rep.warm_hits, 192, "waves 2-4 hit the node cache");
        assert!(rep.p50_boot_ns <= rep.p99_boot_ns);
        assert!(rep.makespan_ns > 0);
        assert!(rep.mean_boot_ns > 0.0);
    }

    #[test]
    fn records_only_kept_on_request() {
        let mut cfg = small_cfg(Topology::flat(32), 9);
        cfg.keep_records = false;
        let rep = run_scale(&cfg);
        assert!(rep.records.is_empty());
        assert_eq!(rep.boots, cfg.boots());
        assert!(rep.digest != FNV_BASIS, "digest still folds every boot");
    }
}
