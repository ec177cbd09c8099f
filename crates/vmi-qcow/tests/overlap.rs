//! Request overlap on a slow device: warm reads through a
//! [`RequestEngine`] over a shared [`ConcurrentImage`] must overlap device
//! service time, so read throughput scales with queue depth, while the
//! plain `QcowImage`, whose state mutex is held across device I/O, must not.
//!
//! The container pays a real `thread::sleep` per operation, so overlap is
//! genuine even on a single CPU.
//!
//! [`ConcurrentImage`]: vmi_qcow::ConcurrentImage

use std::sync::Arc;
use std::time::{Duration, Instant};

use vmi_blockdev::{BlockDev, MemDev, Result, SharedDev};
use vmi_qcow::{ConcurrentImage, CreateOpts, QcowImage, Request, RequestEngine};

/// Virtual size of the image under test.
const VSIZE: u64 = 4 << 20;
/// The warmed region every request lands in.
const REGION: u64 = 1 << 20;
/// Modeled device service time per operation.
const SERVICE: Duration = Duration::from_micros(100);
/// Reads driven per measured cell.
const REQUESTS: usize = 64;
/// Read size.
const REQUEST_BYTES: usize = 4096;

/// Every read/write costs one fixed sleep, so concurrent requests only go
/// faster if the driver really overlaps them. Run entry points cost one
/// sleep per run, the accounting unit extent coalescing buys.
struct SleepDev {
    inner: SharedDev,
}

#[expect(clippy::disallowed_methods, reason = "service time is a real sleep")]
impl BlockDev for SleepDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        std::thread::sleep(SERVICE);
        self.inner.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        std::thread::sleep(SERVICE);
        self.inner.write_at(buf, off)
    }
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        std::thread::sleep(SERVICE);
        self.inner.read_run_at(buf, off)
    }
    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        std::thread::sleep(SERVICE);
        self.inner.write_run_at(buf, off)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }
    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
    fn describe(&self) -> String {
        format!("sleep({})", self.inner.describe())
    }
}

/// A cache image over a patterned base whose container sleeps per
/// operation, with the whole region already filled.
fn warm_image() -> Arc<QcowImage> {
    let base = QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        CreateOpts::plain(VSIZE),
        None,
    )
    .unwrap();
    let content: Vec<u8> = (0..REGION as usize)
        .map(|i| (i % 241) as u8 ^ (i / 4093) as u8)
        .collect();
    base.write_at(&content, 0).unwrap();
    let container = Arc::new(SleepDev {
        inner: Arc::new(MemDev::new()),
    });
    let cache = QcowImage::create(
        container as SharedDev,
        CreateOpts::cache(VSIZE, "base", VSIZE),
        Some(base as SharedDev),
    )
    .unwrap();
    let mut warm = vec![0u8; REGION as usize];
    cache.read_at(&mut warm, 0).unwrap();
    cache
}

/// Deterministic aligned read offsets inside the warm region.
fn schedule() -> Vec<Request> {
    let mut x = 0x5A7_0F00D_u64 | 1;
    let slots = REGION / REQUEST_BYTES as u64;
    (0..REQUESTS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Request::Read {
                off: (x % slots) * REQUEST_BYTES as u64,
                len: REQUEST_BYTES,
            }
        })
        .collect()
}

/// Drive the schedule through `dev` keeping `depth` reads in flight;
/// returns the read throughput in MiB/s.
fn mib_per_s(dev: SharedDev, depth: usize) -> f64 {
    let reqs = schedule();
    let engine = RequestEngine::new(dev, depth);
    #[expect(clippy::disallowed_methods, reason = "the gate times wall clock")]
    let start = Instant::now();
    let mut next = 0;
    for done in 0..reqs.len() {
        while next < reqs.len() && next - done < depth {
            engine.submit(reqs[next].clone());
            next += 1;
        }
        engine.next_completion().unwrap().result.unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    engine.shutdown();
    (REQUESTS * REQUEST_BYTES) as f64 / f64::from(1 << 20) / secs
}

#[test]
fn warm_reads_scale_with_depth() {
    let depth1 = mib_per_s(ConcurrentImage::new(warm_image()), 1);
    let depth8 = mib_per_s(ConcurrentImage::new(warm_image()), 8);
    assert!(
        depth8 >= 2.0 * depth1,
        "read scaling {:.2}x < 2x (depth 1: {depth1:.1} MiB/s, depth 8: {depth8:.1} MiB/s)",
        depth8 / depth1
    );
}

#[test]
fn plain_image_does_not_scale() {
    let concurrent = mib_per_s(ConcurrentImage::new(warm_image()), 8);
    let plain = mib_per_s(warm_image() as SharedDev, 8);
    assert!(
        plain < concurrent / 1.5,
        "single-mutex image at depth 8 ({plain:.1} MiB/s) should trail the \
         concurrent driver ({concurrent:.1} MiB/s)"
    );
}
