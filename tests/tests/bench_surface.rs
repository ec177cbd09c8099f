//! The program surface the `e2e/` benchmark is built on, compiled and called
//! once by tier-1. `e2e/` is a package of its own that `cargo test` never
//! builds, so without this a PR could rename or re-sign something the
//! benchmark imports and still pass: [`Wrapped`] overrides every `BlockDev`
//! member with the signatures `e2e/src/spandev.rs` uses, and the test calls
//! every program item `e2e/src` imports.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use vmi_blockdev::{BlockDev, MemDev, Result, SharedDev};
use vmi_cluster::deploy::{build_chain, ChainSpec, Mode, Placement};
use vmi_nbd::proto::*;
use vmi_nbd::{NbdClient, NbdServer};
use vmi_obs::{Obs, SpanId};
use vmi_qcow::{ConcurrentImage, CreateOpts, QcowImage, RequestEngine};
use vmi_trace::{OpKind, VmiProfile};

struct Wrapped(SharedDev);

fn wrap(dev: impl BlockDev + 'static) -> SharedDev {
    Arc::new(Wrapped(Arc::new(dev)))
}

impl BlockDev for Wrapped {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.0.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.0.write_at(buf, off)
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        self.0.set_len(len)
    }
    fn flush(&self) -> Result<()> {
        self.0.flush()
    }
    fn read_at_zero_pad(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        self.0.read_at_zero_pad(buf, off)
    }
    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.0.read_run_at(buf, off)
    }
    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.0.write_run_at(buf, off)
    }
    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.0.read_at_in(buf, off, parent)
    }
    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.0.write_at_in(buf, off, parent)
    }
    fn read_run_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.0.read_run_at_in(buf, off, parent)
    }
    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        self.0.write_run_at_in(buf, off, parent)
    }
    fn read_at_zero_pad_in(
        &self,
        buf: &mut [u8],
        off: u64,
        parent: Option<SpanId>,
    ) -> Result<usize> {
        self.0.read_at_zero_pad_in(buf, off, parent)
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.0.as_any()
    }
    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.0)
    }
}

#[test]
fn every_item_the_benchmark_imports_still_builds_and_runs() {
    let profile = VmiProfile::tiny_test();
    let trace = vmi_trace::generate(&profile, 1);
    let first_read = trace
        .ops
        .iter()
        .find(|op| op.kind == OpKind::Read)
        .expect("a boot trace reads");
    let (off, len) = (first_read.offset, first_read.len as usize);

    // A base image, then a cold boot through build_chain over wrapped devices.
    let base_dev = wrap(MemDev::new());
    let base = QcowImage::create(
        base_dev.clone(),
        CreateOpts::plain(profile.virtual_size),
        None,
    )
    .unwrap();
    base.write_at(&vec![0xC3; len], off).unwrap();
    base.close().unwrap();
    drop(base);
    let open_base = || QcowImage::open(base_dev.clone(), None, true).unwrap() as SharedDev;
    let cache_dev = wrap(MemDev::new());
    let chain = build_chain(ChainSpec {
        mode: Mode::ColdCache {
            placement: Placement::ComputeMem,
            quota: 16 << 20,
            cluster_bits: 9,
        },
        profile: &profile,
        base_dev: open_base(),
        cache_dev: Some(cache_dev.clone()),
        cow_dev: wrap(MemDev::new()),
        cache_read_only: false,
        obs: Obs::disabled(),
    })
    .unwrap();
    let mut buf = vec![0u8; len];
    chain.read_at(&mut buf, off).unwrap();
    assert_eq!(buf, vec![0xC3; len]);
    assert!(vmi_qcow::check(&chain).unwrap().is_clean());
    drop(chain); // closes the cache: `used` is persisted

    // The warm cache: recovered, reopened, shared, served.
    assert!(vmi_qcow::recover(&cache_dev).is_usable());
    let cache = QcowImage::open(cache_dev, Some(open_base()), true).unwrap();
    let served: SharedDev = ConcurrentImage::new(cache);

    let engine = RequestEngine::new(served.clone(), 2);
    engine.submit(vmi_qcow::Request::Read { off, len });
    let done = engine.next_completion().expect("one request in flight");
    done.result.unwrap();
    assert_eq!(done.data.as_deref(), Some(&buf[..]));
    engine.shutdown();

    let server = NbdServer::start("127.0.0.1:0").unwrap();
    server.set_pipeline_depth(2);
    server.add_export("warm", served, true);
    let addr = server.addr().to_string();
    let client = NbdClient::connect(&addr, "warm").unwrap();
    let mut over_nbd = vec![0u8; len];
    client.read_at(&mut over_nbd, off).unwrap();
    assert_eq!(over_nbd, buf);

    // The raw protocol items the pipelined workload drives by hand.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut r = BufReader::new(stream.try_clone().unwrap());
    let mut w = BufWriter::new(stream);
    assert_eq!(read_u64(&mut r).unwrap(), NBDMAGIC);
    assert_eq!(read_u64(&mut r).unwrap(), IHAVEOPT);
    assert_ne!(read_u16(&mut r).unwrap() & NBD_FLAG_NO_ZEROES, 0);
    let client_flags = NBD_FLAG_C_FIXED_NEWSTYLE | NBD_FLAG_C_NO_ZEROES;
    write_all(&mut w, &client_flags.to_be_bytes()).unwrap();
    write_all(&mut w, &IHAVEOPT.to_be_bytes()).unwrap();
    write_all(&mut w, &NBD_OPT_EXPORT_NAME.to_be_bytes()).unwrap();
    write_all(&mut w, &4u32.to_be_bytes()).unwrap();
    write_all(&mut w, b"warm").unwrap();
    w.flush().unwrap();
    assert_eq!(read_u64(&mut r).unwrap(), profile.virtual_size);
    let _transmission_flags = read_u16(&mut r).unwrap();
    let mut request = Request {
        flags: 0,
        ty: NBD_CMD_READ,
        handle: 7,
        offset: off,
        length: len as u32,
    };
    write_request(&mut w, &request).unwrap();
    w.flush().unwrap();
    assert_eq!(read_simple_reply(&mut r).unwrap(), (0, 7));
    read_exact(&mut r, &mut over_nbd).unwrap();
    assert_eq!(over_nbd, buf);
    request.ty = NBD_CMD_DISC;
    write_request(&mut w, &request).unwrap();
    w.flush().unwrap();
    assert!(server.served_requests() >= 2);
}
