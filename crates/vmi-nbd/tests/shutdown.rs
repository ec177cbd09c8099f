//! The accept thread blocks in `accept`, so stopping it depends on the
//! wake-up connection `shutdown` makes: a missed wake-up hangs `shutdown`
//! and `Drop`. A connection's serving threads must likewise all exit when
//! its client goes away. Each test runs under a watchdog so a hang fails
//! the test instead of wedging the suite.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;

use common::{RawConn, SleepDev};
use vmi_blockdev::{BlockDev, MemDev, SharedDev};
use vmi_nbd::proto::{NBD_CMD_READ, NBD_CMD_WRITE};
use vmi_nbd::{NbdClient, NbdServer};

/// Run `body` on its own thread and fail if it has not finished in 20 s.
fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(20)) {
        Ok(()) => worker.join().unwrap(),
        // The body panicked: re-raise its panic here.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: still running after 20 s"),
    }
}

/// `shutdown` returns, and the port it listened on refuses connections.
fn shutdown_returns_and_listener_closes(bind: &'static str) {
    watchdog(move || {
        let mut srv = NbdServer::start(bind).unwrap();
        let port = srv.addr().port();
        srv.shutdown();
        let err = TcpStream::connect(SocketAddr::from((Ipv4Addr::LOCALHOST, port))).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionRefused, "bound to {bind}");
        // A second shutdown (and the Drop after it) is a no-op.
        srv.shutdown();
    });
}

#[test]
fn shutdown_on_loopback_returns_and_refuses_later_connects() {
    shutdown_returns_and_listener_closes("127.0.0.1:0");
}

#[test]
fn shutdown_on_unspecified_address_wakes_through_loopback() {
    shutdown_returns_and_listener_closes("0.0.0.0:0");
}

#[test]
fn drop_with_a_live_client_returns_and_the_client_keeps_working() {
    watchdog(|| {
        let srv = NbdServer::start("127.0.0.1:0").unwrap();
        let dev = Arc::new(MemDev::with_len(1 << 20));
        dev.write_at(b"still served", 4096).unwrap();
        srv.add_export("disk", dev, false);
        let client = NbdClient::connect(&srv.addr().to_string(), "disk").unwrap();
        let mut buf = [0u8; 12];
        client.read_at(&mut buf, 4096).unwrap();
        drop(srv);
        // Shutdown stops accepting; the open connection is still served.
        buf.fill(0);
        client.read_at(&mut buf, 4096).unwrap();
        assert_eq!(&buf, b"still served");
    });
}

#[test]
fn disconnect_mid_write_payload_ends_every_connection_thread() {
    watchdog(|| {
        let srv = NbdServer::start("127.0.0.1:0").unwrap();
        srv.set_pipeline_depth(4);
        let disk: SharedDev = Arc::new(SleepDev {
            inner: Arc::new(MemDev::with_len(1 << 20)),
            delay: Duration::from_millis(20),
        });
        srv.add_export("disk", disk.clone(), false);
        let mut c = RawConn::connect(&srv.addr().to_string(), "disk");
        // Two slow reads in service, a WRITE cut off 100 bytes into its
        // 4 KiB payload, then the client hangs up.
        c.send(NBD_CMD_READ, 1, 0, 4096, &[]);
        c.send(NBD_CMD_READ, 2, 4096, 4096, &[]);
        c.send(NBD_CMD_WRITE, 3, 0, 4096, &[7u8; 100]);
        drop(c);
        // Each connection thread holds the export, and so the device,
        // until it exits.
        assert!(srv.remove_export("disk"));
        while Arc::strong_count(&disk) > 1 {
            #[expect(clippy::disallowed_methods, reason = "polls real connection threads")]
            std::thread::sleep(Duration::from_millis(1));
        }
    });
}
