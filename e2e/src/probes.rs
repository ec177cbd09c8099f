//! Probes: short measurements of one layer alone, through its public
//! functions, made in the traced run after the passes. They say what a
//! request costs in a layer when nothing else is in the way, to set beside
//! what the same layer costs inside a workload.

use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, MemDev, Result, SharedDev};
use vmi_nbd::{NbdClient, NbdServer};
use vmi_obs::{JsonlSink, Obs, WallClock};
use vmi_qcow::{ConcurrentImage, QcowImage, Request, RequestEngine};

use crate::boot::Boot;
use crate::fixture::{Fixture, Scratch, UnsyncedFile};
use crate::spandev::Recorder;
use crate::stats::{median, percentile};
use crate::workload::{ns_since, Kind, Workload};

pub struct Probes {
    pub recover_ms: f64,
    pub nbd_rtt_4k_p50_us: f64,
    pub nbd_rtt_64k_p50_us: f64,
    pub engine_roundtrip_p50_us: f64,
    pub engine_window4_kiops: f64,
    pub plain_read_p50_us: f64,
    pub concurrent_read_p50_us: f64,
    pub obs_enabled_slowdown: f64,
}

/// `rounds` scales every probe's repeat count (1 in `--smoke`).
pub fn run(fx: &Fixture, dir: &Scratch, rounds: usize) -> Result<Probes> {
    let (rtt_4k, rtt_64k) = nbd_rtt(500 * rounds)?;
    let (roundtrip, window4) = engine(500 * rounds)?;
    let (plain, concurrent) = warm_reads(fx)?;
    Ok(Probes {
        recover_ms: recover(fx, dir, 2 + rounds)?,
        nbd_rtt_4k_p50_us: rtt_4k,
        nbd_rtt_64k_p50_us: rtt_64k,
        engine_roundtrip_p50_us: roundtrip,
        engine_window4_kiops: window4,
        plain_read_p50_us: plain,
        concurrent_read_p50_us: concurrent,
        obs_enabled_slowdown: obs_slowdown(fx, dir, 1 + rounds)?,
    })
}

fn p50_us(mut ns: Vec<u32>) -> f64 {
    ns.sort_unstable();
    percentile(&ns, 0.5) / 1e3
}

/// `vmi_qcow::recover` on a warm cache container alone: what every warm
/// deployment pays before it opens the cache.
fn recover(fx: &Fixture, dir: &Scratch, times: usize) -> Result<f64> {
    let path = dir.path("probe-cache.img");
    fx.copy_warm_cache(&path)?;
    let dev = UnsyncedFile::open(&path)?;
    let mut ms = Vec::new();
    for _ in 0..times {
        let t = Instant::now();
        let report = vmi_qcow::recover(&dev);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !report.is_usable() {
            return Err(crate::fixture::bench_err("warm cache does not recover"));
        }
    }
    Ok(median(&mut ms))
}

/// One serial NBD round trip on a memory export, at 4 KiB and at 64 KiB:
/// the per-request and the per-byte cost of the NBD layer.
fn nbd_rtt(times: usize) -> Result<(f64, f64)> {
    let server = NbdServer::start("127.0.0.1:0")?;
    server.add_export("mem", Arc::new(MemDev::with_len(1 << 20)), true);
    let client = NbdClient::connect(&server.addr().to_string(), "mem")?;
    let mut p50 = [0.0; 2];
    for (slot, len) in [4usize << 10, 64 << 10].into_iter().enumerate() {
        let mut buf = vec![0u8; len];
        let mut ns = Vec::with_capacity(times);
        for i in 0..times {
            let off = (i * len % (1 << 20)) as u64;
            let t = Instant::now();
            client.read_at(&mut buf, off)?;
            ns.push(ns_since(t) as u32);
        }
        p50[slot] = p50_us(ns);
    }
    Ok((p50[0], p50[1]))
}

/// `RequestEngine` over memory: one request at a time through one worker,
/// then four in flight through four workers.
fn engine(times: usize) -> Result<(f64, f64)> {
    let dev: SharedDev = Arc::new(MemDev::with_len(1 << 20));
    let read = |i: usize| Request::Read {
        off: (i * 4096 % (1 << 20)) as u64,
        len: 4096,
    };
    let one = RequestEngine::new(dev.clone(), 1);
    let mut ns = Vec::with_capacity(times);
    for i in 0..times {
        let t = Instant::now();
        one.submit(read(i));
        let done = one.next_completion();
        ns.push(ns_since(t) as u32);
        done.map(|c| c.result).transpose()?;
    }
    one.shutdown();
    let four = RequestEngine::new(dev, 4);
    let total = times * 8;
    let started = Instant::now();
    for i in 0..4 {
        four.submit(read(i));
    }
    for i in 4..total + 4 {
        four.next_completion().map(|c| c.result).transpose()?;
        if i < total {
            four.submit(read(i));
        }
    }
    let kiops = total as f64 / started.elapsed().as_secs_f64() / 1e3;
    four.shutdown();
    Ok((p50_us(ns), kiops))
}

/// The boot trace's reads on the warm cache in memory, one thread, no NBD:
/// through the plain image, then through `ConcurrentImage`.
fn warm_reads(fx: &Fixture) -> Result<(f64, f64)> {
    let dev: SharedDev = Arc::new(MemDev::from_vec(fx.warm_cache_bytes()?));
    let base: SharedDev = fx.open_base()?;
    let image = QcowImage::open(dev, Some(base), true)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut time_reads = |target: &dyn BlockDev| -> Result<f64> {
        let mut ns = Vec::with_capacity(fx.ops.len());
        for op in fx.ops.iter().filter(|o| !o.write) {
            let t = Instant::now();
            target.read_at(&mut buf[..op.len as usize], op.off)?;
            ns.push(ns_since(t) as u32);
        }
        Ok(p50_us(ns))
    };
    let plain = time_reads(image.as_ref())?;
    let concurrent = time_reads(ConcurrentImage::new(image).as_ref())?;
    Ok((plain, concurrent))
}

/// Warm boots with a live `Obs` writing to an in-memory sink, over warm
/// boots with tracing disabled: what the program's own tracing costs.
fn obs_slowdown(fx: &Fixture, dir: &Scratch, boots: usize) -> Result<f64> {
    let unit_ms = |obs: Obs| -> Result<f64> {
        let mut boot = Boot::new(fx, dir, "probe", Kind::BootWarm, Recorder::new(false), obs)?;
        let mut lat = Vec::new();
        let mut ms = Vec::new();
        for _ in 0..boots {
            ms.push(boot.unit(None, &mut lat)?.wall_ns as f64 / 1e6);
            lat.clear();
        }
        Ok(median(&mut ms))
    };
    let disabled = unit_ms(Obs::disabled())?;
    let enabled = unit_ms(Obs::new(Arc::new(WallClock::new()), JsonlSink::new()))?;
    Ok(enabled / disabled)
}
