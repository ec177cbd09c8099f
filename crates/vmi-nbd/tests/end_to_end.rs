//! End-to-end NBD tests over real localhost TCP: handshake, data integrity,
//! image chains across the network, concurrent clients, and error mapping.

use std::sync::Arc;

mod common;

use vmi_blockdev::{BlockDev, BlockErrorKind, MemDev, SharedDev, SparseDev};
use vmi_nbd::{NbdClient, NbdServer};
use vmi_qcow::{CreateOpts, QcowImage};

fn server() -> NbdServer {
    NbdServer::start("127.0.0.1:0").unwrap()
}

#[test]
fn raw_export_roundtrip() {
    let srv = server();
    let dev = Arc::new(MemDev::with_len(1 << 20));
    dev.write_at(b"over the wire", 500).unwrap();
    srv.add_export("disk", dev.clone(), false);

    let client = NbdClient::connect(&srv.addr().to_string(), "disk").unwrap();
    assert_eq!(client.len(), 1 << 20);
    assert!(!client.is_read_only());
    let mut buf = [0u8; 13];
    client.read_at(&mut buf, 500).unwrap();
    assert_eq!(&buf, b"over the wire");

    client.write_at(b"written back", 100).unwrap();
    client.flush().unwrap();
    let mut check = [0u8; 12];
    dev.read_at(&mut check, 100).unwrap();
    assert_eq!(&check, b"written back");
    assert!(srv.served_requests() >= 3);
}

#[test]
fn unknown_export_fails_connect() {
    let srv = server();
    srv.add_export("exists", Arc::new(MemDev::with_len(4096)), false);
    assert!(NbdClient::connect(&srv.addr().to_string(), "missing").is_err());
    // The server stays healthy for the next client.
    assert!(NbdClient::connect(&srv.addr().to_string(), "exists").is_ok());
}

#[test]
fn read_only_export_rejects_writes_with_eperm() {
    let srv = server();
    srv.add_export("ro", Arc::new(MemDev::with_len(4096)), true);
    let client = NbdClient::connect(&srv.addr().to_string(), "ro").unwrap();
    assert!(client.is_read_only());
    let err = client.write_at(b"nope", 0).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::ReadOnly);
}

#[test]
fn trim_on_a_read_only_export_is_refused_before_sending() {
    let srv = server();
    srv.add_export("ro", Arc::new(MemDev::with_len(4096)), true);
    let client = NbdClient::connect(&srv.addr().to_string(), "ro").unwrap();
    let err = client.trim(0, 4096).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::ReadOnly);
    assert_eq!(srv.served_requests(), 0, "nothing went on the wire");
}

#[test]
fn out_of_range_read_maps_to_einval() {
    let srv = server();
    srv.add_export("small", Arc::new(MemDev::with_len(1024)), false);
    let client = NbdClient::connect(&srv.addr().to_string(), "small").unwrap();
    let mut buf = [0u8; 64];
    // The client pre-checks bounds itself:
    assert!(client.read_at(&mut buf, 1000).is_err());
}

#[test]
fn overflowing_read_is_out_of_bounds_and_keeps_the_session() {
    let srv = server();
    let dev = Arc::new(MemDev::with_len(4096));
    dev.write_at(b"still here", 0).unwrap();
    srv.add_export("small", dev, false);
    let client = NbdClient::connect(&srv.addr().to_string(), "small").unwrap();
    let mut buf = [0u8; 16];
    // `off + len` wraps u64: refused by the client, nothing sent.
    let err = client.read_at(&mut buf, u64::MAX - 3).unwrap_err();
    assert_eq!(err.kind(), BlockErrorKind::OutOfBounds);
    assert_eq!(srv.served_requests(), 0);
    client.read_at(&mut buf[..10], 0).unwrap();
    assert_eq!(&buf[..10], b"still here");
}

#[test]
fn transfers_above_the_request_cap_are_split() {
    // 40 MiB > MAX_REQUEST_BYTES (32 MiB): one call, two requests each way.
    const LEN: usize = 40 << 20;
    let srv = server();
    let dev = Arc::new(MemDev::with_len(LEN as u64 + 4096));
    srv.add_export("big", dev.clone(), false);
    let client = NbdClient::connect(&srv.addr().to_string(), "big").unwrap();
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    client.write_at(&data, 4096).unwrap();
    let mut back = vec![0u8; LEN];
    client.read_at(&mut back, 4096).unwrap();
    assert!(back == data, "40 MiB round trip is byte-exact");
    dev.read_at(&mut back[..4096], 4096 + (33 << 20)).unwrap();
    assert_eq!(&back[..4096], &data[33 << 20..(33 << 20) + 4096]);
    assert_eq!(srv.served_requests(), 4);
}

#[test]
fn frames_around_the_buffer_size_round_trip_serial() {
    let srv = server();
    let dev = Arc::new(MemDev::with_len(common::FRAMING_EXPORT_LEN));
    srv.add_export("disk", dev.clone(), false);
    let client = NbdClient::connect(&srv.addr().to_string(), "disk").unwrap();
    common::assert_framing_round_trips(&client, dev.as_ref());
}

#[test]
fn error_reply_to_a_64k_read_carries_no_payload() {
    // The client reads header and payload with one vectored read; an
    // error reply is 16 bytes with nothing after it, and the client must
    // stop there instead of waiting for (or taking) 64 KiB more.
    use vmi_blockdev::{FaultDev, FaultPlan, FaultSite};

    const LEN: usize = 65536;
    let content: Vec<u8> = (0..(1usize << 20)).map(|i| (i % 239) as u8).collect();
    for depth in [1, 4] {
        let flaky = Arc::new(FaultDev::new(Arc::new(MemDev::from_vec(content.clone()))));
        flaky.inject(FaultPlan::EveryNth {
            site: FaultSite::Read,
            n: 2,
            kind: BlockErrorKind::Io,
        });
        let srv = server();
        srv.set_pipeline_depth(depth);
        srv.add_export("flaky", flaky as SharedDev, true);
        let client = NbdClient::connect(&srv.addr().to_string(), "flaky").unwrap();
        let mut buf = vec![0u8; LEN];
        for i in 0..8usize {
            let off = i * LEN;
            let got = client.read_at(&mut buf, off as u64);
            if i % 2 == 1 {
                let err = got.unwrap_err();
                assert_eq!(err.kind(), BlockErrorKind::Io, "depth {depth} read {i}");
            } else {
                got.unwrap();
                assert!(
                    buf == content[off..off + LEN],
                    "depth {depth}: read {i} after an error reply returned wrong bytes"
                );
            }
        }
        assert_eq!(srv.served_requests(), 8, "depth {depth}");
    }
}

#[test]
fn trim_above_4gib_is_split_not_truncated() {
    // The wire length is 32-bit: `(1 << 32) + 4096` must not become 4096.
    let srv = server();
    srv.add_export("sparse", Arc::new(SparseDev::with_len(5 << 30)), false);
    let client = NbdClient::connect(&srv.addr().to_string(), "sparse").unwrap();
    client.trim(0, (1 << 32) + 4096).unwrap();
    assert_eq!(srv.served_requests(), 2);
    // One byte past the export: the second request is refused.
    assert!(client.trim(4096, 5 << 30).is_err());
}

#[test]
fn image_chain_served_over_nbd() {
    // base ← cache ← CoW opened locally, exported at the top: a remote VM
    // sees the composed guest view.
    let content: Vec<u8> = (0..(2usize << 20)).map(|i| (i % 231) as u8).collect();
    let base: SharedDev = Arc::new(MemDev::from_vec(content.clone()));
    let cache = QcowImage::create(
        Arc::new(SparseDev::new()),
        CreateOpts::cache(2 << 20, "b", 8 << 20),
        Some(base),
    )
    .unwrap();
    let cow = QcowImage::create(
        Arc::new(SparseDev::new()),
        CreateOpts::cow(2 << 20, "c"),
        Some(cache.clone() as SharedDev),
    )
    .unwrap();

    let srv = server();
    srv.add_image("vm-disk", cow);
    let client = NbdClient::connect(&srv.addr().to_string(), "vm-disk").unwrap();
    let mut buf = vec![0u8; 8192];
    client.read_at(&mut buf, 65536).unwrap();
    assert_eq!(&buf[..], &content[65536..65536 + 8192]);
    // The read warmed the cache layer *server-side*.
    assert!(cache.cor_stats().fill_bytes > 0);
    // Guest write through the wire lands in the CoW layer, not the cache.
    client.write_at(&[0xEE; 4096], 65536).unwrap();
    client.read_at(&mut buf[..4096], 65536).unwrap();
    assert_eq!(&buf[..4096], &[0xEE; 4096]);
    let mut cbuf = [0u8; 16];
    cache.read_at(&mut cbuf, 65536).unwrap();
    assert_eq!(
        &cbuf[..],
        &content[65536..65536 + 16],
        "cache immutable to guest writes"
    );
}

#[test]
fn remote_backing_chain_compose() {
    // The compute-node shape: local cache whose *backing* is the NBD client
    // attached to the storage node's base export.
    let content: Vec<u8> = (0..(1usize << 20)).map(|i| (i % 229) as u8).collect();
    let srv = server();
    srv.add_export("base", Arc::new(MemDev::from_vec(content.clone())), true);

    let remote_base: SharedDev =
        Arc::new(NbdClient::connect(&srv.addr().to_string(), "base").unwrap());
    let cache = QcowImage::create(
        Arc::new(SparseDev::new()),
        CreateOpts::cache(1 << 20, "nbd://base", 4 << 20),
        Some(remote_base),
    )
    .unwrap();
    let mut buf = vec![0u8; 4096];
    cache.read_at(&mut buf, 32768).unwrap();
    assert_eq!(&buf[..], &content[32768..32768 + 4096]);
    let misses_after_first = cache.cor_stats().miss_bytes;
    assert!(misses_after_first >= 4096);
    // Second read is warm: no more network fetches.
    cache.read_at(&mut buf, 32768).unwrap();
    assert_eq!(cache.cor_stats().miss_bytes, misses_after_first);
    let before = srv.served_requests();
    cache.read_at(&mut buf, 32768).unwrap();
    assert_eq!(
        srv.served_requests(),
        before,
        "warm reads generate no NBD requests"
    );
}

#[test]
fn trim_over_nbd_discards_image_clusters() {
    let base: SharedDev = Arc::new(MemDev::from_vec(vec![7u8; 1 << 20]));
    let cache = QcowImage::create(
        Arc::new(SparseDev::new()),
        CreateOpts::cache(1 << 20, "b", 4 << 20),
        Some(base),
    )
    .unwrap();
    let mut buf = vec![0u8; 65536];
    cache.read_at(&mut buf, 0).unwrap(); // warm 64 KiB = 128 clusters
    let used_before = cache.cache_used();

    let srv = server();
    srv.add_export("cache", cache.clone() as SharedDev, false);
    let client = NbdClient::connect(&srv.addr().to_string(), "cache").unwrap();
    client.trim(0, 32768).unwrap();
    assert!(
        cache.cache_used() < used_before,
        "TRIM must free cache quota"
    );
    // A TRIM whose range wraps u64 is refused without dropping the session.
    assert!(client.trim(u64::MAX - 3, 16).is_err());
    // Data is still correct (re-fetched from base on demand).
    client.read_at(&mut buf[..1024], 0).unwrap();
    assert_eq!(&buf[..1024], &[7u8; 1024]);
}

#[test]
fn concurrent_clients_share_an_export() {
    let srv = server();
    let dev = Arc::new(MemDev::with_len(1 << 20));
    for i in 0..(1 << 20) / 4096 {
        dev.write_at(&[(i % 251) as u8; 4096], i * 4096).unwrap();
    }
    srv.add_export("shared", dev, true);
    let addr = srv.addr().to_string();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let addr = addr.clone();
            s.spawn(move || {
                let client = NbdClient::connect(&addr, "shared").unwrap();
                let mut buf = [0u8; 4096];
                for i in 0..32u64 {
                    let block = (i * 7 + t * 3) % 256;
                    client.read_at(&mut buf, block * 4096).unwrap();
                    assert_eq!(buf[0], (block % 251) as u8);
                }
            });
        }
    });
    assert!(srv.served_requests() >= 128);
}

#[test]
fn list_option_does_not_break_session() {
    // Our client doesn't send LIST, but another (raw) probe shouldn't wedge
    // the server: simulate by connecting, aborting, then connecting again.
    let srv = server();
    srv.add_export("x", Arc::new(MemDev::with_len(4096)), false);
    for _ in 0..3 {
        let c = NbdClient::connect(&srv.addr().to_string(), "x").unwrap();
        drop(c); // sends DISC
    }
    let c = NbdClient::connect(&srv.addr().to_string(), "x").unwrap();
    let mut b = [0u8; 1];
    c.read_at(&mut b, 0).unwrap();
}

#[test]
fn flaky_remote_base_fails_guest_reads_without_degrading_the_cache() {
    // The compute-node shape over a flaky storage node: every 4th base read
    // fails, the compute node sees it as a remote I/O error, and the cache
    // surfaces it as the `Io` error of the guest read it serves — a base
    // fault is not a cache fault, so the cache stays undegraded and the
    // reissued read fills it. The server's request count matches the
    // client's wire reads exactly, error replies included.
    use vmi_blockdev::{CountingDev, FaultDev, FaultPlan, FaultSite};

    let content: Vec<u8> = (0..(1usize << 20)).map(|i| (i % 241) as u8).collect();
    let flaky_base = Arc::new(FaultDev::new(Arc::new(MemDev::from_vec(content.clone()))));
    flaky_base.inject(FaultPlan::EveryNth {
        site: FaultSite::Read,
        n: 4,
        kind: BlockErrorKind::Io,
    });
    let srv = server();
    srv.add_export("base", flaky_base as SharedDev, true);

    let remote = NbdClient::connect(&srv.addr().to_string(), "base").unwrap();
    let wire = Arc::new(CountingDev::new(Arc::new(remote)));
    let cache = QcowImage::create(
        Arc::new(SparseDev::new()),
        CreateOpts::cache(1 << 20, "nbd://base", 4 << 20),
        Some(wire.clone() as SharedDev),
    )
    .unwrap();

    let mut buf = vec![0u8; 4096];
    let mut failed = 0;
    for i in 0..32u64 {
        let off = i * 16384;
        while let Err(e) = cache.read_at(&mut buf, off) {
            assert_eq!(e.kind(), BlockErrorKind::Io, "remote fault at {off}: {e}");
            assert!(
                !cache.is_degraded(),
                "a base fault must not latch the cache"
            );
            failed += 1;
            assert!(failed <= 32, "reads keep failing at {off}");
        }
        assert_eq!(
            &buf[..],
            &content[off as usize..off as usize + 4096],
            "data wrong at {off}"
        );
    }
    assert!(failed > 0, "every 4th remote read must fail a guest read");
    assert!(!cache.is_degraded());
    // served_requests consistency: the server answered one request per
    // successful wire read plus one per error reply, and each error reply
    // failed exactly one guest read.
    assert_eq!(
        srv.served_requests(),
        wire.stats().snapshot().reads + failed,
        "server and client agree on the wire traffic"
    );
    // The cache warmed despite the flaky base: warm re-reads are free.
    let before = srv.served_requests();
    cache.read_at(&mut buf, 0).unwrap();
    assert_eq!(srv.served_requests(), before, "warm read stays local");
}
