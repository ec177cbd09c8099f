//! Request overlap through the NBD server: one connection at depth 8 must
//! read a warm `ConcurrentImage` export at least twice as fast as one at
//! depth 1, when every container operation sleeps 100 µs. The sleep makes
//! the overlap concurrency, not CPU parallelism, so it shows on one CPU; a
//! server that served reads one at a time on the thread parsing them would
//! fail. The ratio is wall-clock: run it alone (`--test-threads=1`).

use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

use common::{RawConn, SleepDev};
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_nbd::proto::NBD_CMD_READ;
use vmi_nbd::NbdServer;
use vmi_qcow::{CreateOpts, QcowImage};

/// The warmed region every request lands in.
const REGION: u64 = 1 << 20;
/// Reads driven per measured depth.
const REQUESTS: u64 = 64;
/// Read size.
const REQUEST_BYTES: u32 = 4096;

/// A cache image over a patterned base whose container sleeps 100 µs per
/// operation, with the whole region already filled.
fn warm_image() -> Arc<QcowImage> {
    let content: Vec<u8> = (0..REGION as usize).map(|i| (i % 241) as u8).collect();
    let container = SleepDev {
        inner: Arc::new(MemDev::new()),
        delay: Duration::from_micros(100),
    };
    let cache = QcowImage::create(
        Arc::new(container) as SharedDev,
        CreateOpts::cache(REGION, "base", REGION),
        Some(Arc::new(MemDev::from_vec(content)) as SharedDev),
    )
    .unwrap();
    cache.read_at(&mut vec![0u8; REGION as usize], 0).unwrap();
    cache
}

/// Read 64 scattered blocks over one connection to a server at `depth`,
/// keeping `depth` READs in flight; returns the throughput in MiB/s.
fn mib_per_s(depth: u64) -> f64 {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.set_pipeline_depth(depth as usize);
    srv.add_image_concurrent("warm", warm_image());
    let mut c = RawConn::connect(&srv.addr().to_string(), "warm");
    let slots = REGION / REQUEST_BYTES as u64;
    #[expect(clippy::disallowed_methods, reason = "the gate times wall clock")]
    let start = Instant::now();
    let mut sent = 0;
    for done in 0..REQUESTS {
        while sent < REQUESTS && sent - done < depth {
            let off = (sent * 37 % slots) * REQUEST_BYTES as u64;
            c.send(NBD_CMD_READ, sent, off, REQUEST_BYTES, &[]);
            sent += 1;
        }
        let (err, handle) = c.recv();
        assert_eq!(err, 0, "read {handle} failed");
        c.recv_data(REQUEST_BYTES as usize);
    }
    (REQUESTS * REQUEST_BYTES as u64) as f64 / f64::from(1 << 20) / start.elapsed().as_secs_f64()
}

#[test]
fn warm_reads_overlap_within_one_connection() {
    let depth1 = mib_per_s(1);
    let depth8 = mib_per_s(8);
    println!("depth 1: {depth1:.1} MiB/s, depth 8: {depth8:.1} MiB/s");
    assert!(
        depth8 >= 2.0 * depth1,
        "read scaling {:.2}x < 2x (depth 1: {depth1:.1} MiB/s, depth 8: {depth8:.1} MiB/s)",
        depth8 / depth1
    );
}
