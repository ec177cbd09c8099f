//! Wire-level tests for the NBD front end: proper error *replies* (never
//! dropped connections) on oversized/overlapping requests, and request
//! pipelining within one connection over a shared image, with FLUSH and
//! DISC waiting for the requests already in service.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

mod common;

use common::{RawConn, SleepDev};
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_nbd::proto::*;
use vmi_nbd::{NbdClient, NbdServer};

fn serve_mem(len: u64) -> (NbdServer, SharedDev) {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    let dev: SharedDev = Arc::new(MemDev::with_len(len));
    srv.add_export("disk", dev.clone(), false);
    (srv, dev)
}

// ----------------------------------------------------------------------
// error-reply hardening (serial path)
// ----------------------------------------------------------------------

#[test]
fn oversized_read_gets_einval_and_connection_survives() {
    let (srv, dev) = serve_mem(1 << 20);
    dev.write_at(b"still here", 512).unwrap();
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    c.send(NBD_CMD_READ, 1, 0, MAX_REQUEST_BYTES + 1, &[]);
    let (err, handle) = c.recv();
    assert_eq!((err, handle), (NBD_EINVAL, 1));
    // The connection must still be usable afterwards.
    c.send(NBD_CMD_READ, 2, 512, 10, &[]);
    let (err, handle) = c.recv();
    assert_eq!((err, handle), (0, 2));
    assert_eq!(c.recv_data(10), b"still here");
}

#[test]
fn oversized_write_payload_is_drained_then_rejected() {
    let (srv, _dev) = serve_mem(1 << 20);
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    let oversized = MAX_REQUEST_BYTES + 4096;
    let payload = vec![0xABu8; oversized as usize];
    c.send(NBD_CMD_WRITE, 7, 0, oversized, &payload);
    let (err, handle) = c.recv();
    assert_eq!((err, handle), (NBD_EINVAL, 7));
    // Framing survived the drained payload: a normal write still works.
    c.send(NBD_CMD_WRITE, 8, 0, 4, b"good");
    let (err, handle) = c.recv();
    assert_eq!((err, handle), (0, 8));
    c.send(NBD_CMD_READ, 9, 0, 4, &[]);
    assert_eq!(c.recv(), (0, 9));
    assert_eq!(c.recv_data(4), b"good");
}

#[test]
fn read_and_write_past_export_end_reply_einval() {
    let (srv, _dev) = serve_mem(1 << 16);
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    assert_eq!(c.size, 1 << 16);
    // Overlapping the end of the export.
    c.send(NBD_CMD_READ, 1, (1 << 16) - 8, 64, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 1));
    // A write overlapping the end must consume its payload and reply
    // (previously it could silently grow a raw device).
    c.send(NBD_CMD_WRITE, 2, (1 << 16) - 8, 64, &[1u8; 64]);
    assert_eq!(c.recv(), (NBD_EINVAL, 2));
    // offset + length overflowing u64 must not panic the handler.
    c.send(NBD_CMD_READ, 3, u64::MAX - 4, 64, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 3));
    // TRIM ranges are validated the same way, raw export or not.
    c.send(NBD_CMD_TRIM, 4, u64::MAX - 3, 16, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 4));
    c.send(NBD_CMD_TRIM, 5, (1 << 16) - 8, 64, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 5));
    c.send(NBD_CMD_READ, 6, 0, 8, &[]);
    assert_eq!(c.recv(), (0, 6));
    c.recv_data(8);
}

#[test]
fn trim_on_a_read_only_raw_export_replies_eperm() {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.add_export("ro", Arc::new(MemDev::with_len(1 << 16)) as SharedDev, true);
    let mut c = RawConn::connect(&srv.addr().to_string(), "ro");
    // Refused like a WRITE, not acknowledged as a no-op.
    c.send(NBD_CMD_TRIM, 1, 0, 4096, &[]);
    assert_eq!(c.recv(), (NBD_EPERM, 1));
    c.send(NBD_CMD_WRITE, 2, 0, 4, b"nope");
    assert_eq!(c.recv(), (NBD_EPERM, 2));
    // An out-of-range TRIM is still an invalid request first.
    c.send(NBD_CMD_TRIM, 3, 1 << 16, 1, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 3));
}

// ----------------------------------------------------------------------
// pipelining
// ----------------------------------------------------------------------

/// A server at `depth` over `disk`, whose every read and write sleeps
/// 20 ms: long enough that requests are still in service when a barrier
/// arrives behind them.
fn serve_slow(disk: &Arc<MemDev>, depth: usize) -> NbdServer {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.set_pipeline_depth(depth);
    assert_eq!(srv.pipeline_depth(), depth);
    let slow = SleepDev {
        inner: disk.clone(),
        delay: Duration::from_millis(20),
    };
    srv.add_export("disk", Arc::new(slow) as SharedDev, false);
    srv
}

#[test]
fn pipelined_reads_complete_out_of_order_by_handle() {
    let disk = Arc::new(MemDev::with_len(1 << 20));
    // Stamp each 4 KiB block with its index so replies are checkable.
    for i in 0..256u64 {
        disk.write_at(&i.to_be_bytes(), i * 4096).unwrap();
    }
    let srv = serve_slow(&disk, 8);
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    // Fire a burst of reads without waiting for any reply, then DISC
    // while most of them are still in service: each must be answered
    // before the connection closes.
    for h in 0..32u64 {
        c.send(NBD_CMD_READ, h, h * 4096, 8, &[]);
    }
    c.send(NBD_CMD_DISC, 99, 0, 0, &[]);
    let mut seen = HashMap::new();
    for _ in 0..32 {
        let (err, handle) = c.recv();
        assert_eq!(err, 0, "read {handle} failed");
        let data = c.recv_data(8);
        seen.insert(handle, u64::from_be_bytes(data.try_into().unwrap()));
    }
    assert_eq!(seen.len(), 32, "every handle must be answered exactly once");
    for (handle, block) in seen {
        assert_eq!(handle, block, "handle {handle} got block {block}");
    }
    assert!(c.at_eof(), "the connection closes after the last reply");
}

#[test]
fn pipelined_writes_then_flush_then_readback() {
    let disk = Arc::new(MemDev::with_len(1 << 20));
    let srv = serve_slow(&disk, 4);
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    for h in 0..16u64 {
        c.send(NBD_CMD_WRITE, h, h * 512, 512, &[h as u8 + 1; 512]);
    }
    // FLUSH is a barrier: it is answered only after every write parsed
    // before it has replied…
    c.send(NBD_CMD_FLUSH, 99, 0, 0, &[]);
    let mut replied = Vec::new();
    loop {
        let (err, handle) = c.recv();
        assert_eq!(err, 0);
        if handle == 99 {
            break;
        }
        replied.push(handle);
    }
    replied.sort_unstable();
    assert_eq!(replied, (0..16).collect::<Vec<u64>>());
    // …so the bytes are on the device when its reply arrives.
    for h in 0..16u64 {
        let mut buf = [0u8; 512];
        disk.read_at(&mut buf, h * 512).unwrap();
        assert_eq!(buf, [h as u8 + 1; 512], "write {h} not durable after flush");
    }
}

#[test]
fn pipelined_error_replies_keep_connection_alive() {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.set_pipeline_depth(4);
    srv.add_export("disk", Arc::new(MemDev::with_len(4096)) as SharedDev, false);
    let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
    c.send(NBD_CMD_READ, 1, 0, MAX_REQUEST_BYTES + 1, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 1));
    c.send(NBD_CMD_WRITE, 2, 4000, 200, &[9u8; 200]);
    assert_eq!(c.recv(), (NBD_EINVAL, 2));
    c.send(NBD_CMD_READ, 3, 0, 16, &[]);
    assert_eq!(c.recv(), (0, 3));
    c.recv_data(16);
}

#[test]
fn frames_around_the_buffer_size_round_trip_pipelined() {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.set_pipeline_depth(4);
    let img = vmi_qcow::QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        vmi_qcow::CreateOpts::plain(common::FRAMING_EXPORT_LEN),
        None,
    )
    .unwrap();
    srv.add_image_concurrent("img", img.clone());
    let client = NbdClient::connect(&srv.addr().to_string(), "img").unwrap();
    common::assert_framing_round_trips(&client, img.as_ref());
}

#[test]
fn pipelined_concurrent_image_export_serves_warm_reads() {
    let srv = NbdServer::start("127.0.0.1:0").unwrap();
    srv.set_pipeline_depth(8);

    // base ← cache, warmed, exported through ConcurrentImage.
    let base = {
        let d = MemDev::new();
        let data: Vec<u8> = (0..(1u64 << 20)).map(|i| (i % 247) as u8).collect();
        d.write_at(&data, 0).unwrap();
        Arc::new(d) as SharedDev
    };
    let img = vmi_qcow::QcowImage::create(
        Arc::new(MemDev::new()) as SharedDev,
        vmi_qcow::CreateOpts::cache(1 << 20, "base", 4 << 20).with_cluster_bits(12),
        Some(base),
    )
    .unwrap();
    let mut warm = vec![0u8; 1 << 20];
    img.read_at(&mut warm, 0).unwrap();
    srv.add_image_concurrent("cache", img);

    let mut c = RawConn::connect(&srv.addr().to_string(), "cache");
    for h in 0..24u64 {
        c.send(NBD_CMD_READ, h, h * 8192, 4096, &[]);
    }
    let mut got = HashMap::new();
    for _ in 0..24 {
        let (err, handle) = c.recv();
        assert_eq!(err, 0);
        got.insert(handle, c.recv_data(4096));
    }
    for (h, data) in got {
        let off = (h * 8192) as usize;
        assert_eq!(data, &warm[off..off + 4096], "handle {h} data mismatch");
    }
    // TRIM through the concurrent wrapper (drains in-flight, then discards).
    c.send(NBD_CMD_TRIM, 100, 0, 8192, &[]);
    assert_eq!(c.recv(), (0, 100));
    // A TRIM whose range wraps u64 is refused, and the connection lives on.
    c.send(NBD_CMD_TRIM, 101, u64::MAX - 3, 16, &[]);
    assert_eq!(c.recv(), (NBD_EINVAL, 101));
    c.send(NBD_CMD_READ, 102, 8192, 4096, &[]);
    assert_eq!(c.recv(), (0, 102));
    assert_eq!(c.recv_data(4096), &warm[8192..8192 + 4096]);
    c.send(NBD_CMD_DISC, 103, 0, 0, &[]);
}
