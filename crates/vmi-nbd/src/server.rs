//! The NBD server: export any [`BlockDev`] — in particular an opened
//! `vmi-qcow` cache chain — to standard NBD clients over TCP.
//!
//! This is the deployment shape the paper's architecture maps onto today:
//! a storage node keeps warm cache images in memory and *serves* them as
//! network block devices; compute nodes attach and boot. The server speaks
//! fixed-newstyle negotiation (`NBD_OPT_EXPORT_NAME`, `LIST`, `ABORT`) and
//! the simple transmission phase (`READ`/`WRITE`/`FLUSH`/`TRIM`/`DISC`).

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{lockrank, Mutex, RwLock};
use vmi_blockdev::{BlockErrorKind, Result, SharedDev};
use vmi_obs::{met, Obs, SpanId};
use vmi_qcow::{ConcurrentImage, QcowImage};

use crate::proto::*;

/// One served export.
struct Export {
    dev: SharedDev,
    read_only: bool,
}

impl Export {
    /// TRIM maps to image discard when the export is an image layer (plain
    /// or wrapped in [`ConcurrentImage`]); raw devices acknowledge without
    /// action, and read-only exports refuse, as they refuse WRITE. The
    /// range is validated against the export like a READ/WRITE range (no
    /// size cap: TRIM carries no payload).
    fn trim(&self, off: u64, len: u64) -> u32 {
        match off.checked_add(len) {
            Some(end) if end <= self.dev.len() => {}
            _ => return NBD_EINVAL,
        }
        if self.read_only {
            return NBD_EPERM;
        }
        let any = self.dev.as_any();
        if let Some(conc) = any.and_then(|a| a.downcast_ref::<ConcurrentImage>()) {
            return status(conc.discard(off, len));
        }
        match any.and_then(|a| a.downcast_ref::<QcowImage>()) {
            Some(img) => status(img.discard(off, len)),
            None => 0,
        }
    }
}

/// `Ok` when `[off, off+len)` is a sane request against `dev_len`:
/// within the per-request size cap and within the export, with overflow
/// rejected. `Err` carries the NBD errno for the reply.
fn validate_range(off: u64, len: u32, dev_len: u64) -> std::result::Result<(), u32> {
    if len > MAX_REQUEST_BYTES {
        return Err(NBD_EINVAL);
    }
    match off.checked_add(len as u64) {
        Some(end) if end <= dev_len => Ok(()),
        _ => Err(NBD_EINVAL),
    }
}

/// A running NBD server.
///
/// Exports are looked up by name at `NBD_OPT_EXPORT_NAME` time; each client
/// connection is handled on its own thread. Drop the handle (or call
/// [`NbdServer::shutdown`]) to stop accepting; live connections keep
/// being served until their client disconnects.
pub struct NbdServer {
    addr: SocketAddr,
    exports: Arc<Mutex<HashMap<String, Arc<Export>>>>,
    stop: Arc<AtomicBool>,
    served_requests: Arc<AtomicU64>,
    pipeline_depth: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl NbdServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// accepting in a background thread.
    pub fn start(addr: &str) -> Result<Self> {
        Self::start_with_obs(addr, Obs::disabled())
    }

    /// [`NbdServer::start`] with an observability handle: every served
    /// transmission request records its wall-clock service time into the
    /// [`met::NBD_REQUEST_NS`] histogram.
    pub fn start_with_obs(addr: &str, obs: Obs) -> Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| vmi_blockdev::BlockError::new(BlockErrorKind::Io, format!("bind: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| vmi_blockdev::BlockError::new(BlockErrorKind::Io, e.to_string()))?;
        let exports: Arc<Mutex<HashMap<String, Arc<Export>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        exports.set_rank(lockrank::NBD_EXPORTS);
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let pipeline_depth = Arc::new(AtomicUsize::new(1));
        let accept_thread = {
            let exports = exports.clone();
            let stop = stop.clone();
            let served = served.clone();
            let pipeline_depth = pipeline_depth.clone();
            // Blocks in `accept`; `shutdown` sets `stop` and then connects
            // once to wake it, so the flag is read after every accept.
            std::thread::spawn(move || loop {
                let accepted = listener.accept();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        let exports = exports.clone();
                        let served = served.clone();
                        let obs = obs.clone();
                        let depth = pipeline_depth.load(Ordering::Acquire);
                        std::thread::spawn(move || {
                            let _ = handle_connection(stream, &exports, &served, &obs, depth);
                        });
                    }
                    // A peer that gave up while queued, or a signal: the
                    // listener itself is fine.
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => break,
                }
            })
        };
        Ok(Self {
            addr: local,
            exports,
            stop,
            served_requests: served,
            pipeline_depth,
            accept_thread: Some(accept_thread),
        })
    }

    /// Set the per-connection request pipeline depth for connections
    /// accepted *from now on*.
    ///
    /// A connection at depth N is served by N threads taking turns on its
    /// socket: one parses a request, then serves it against the export
    /// device while the next thread parses, so up to N requests are in
    /// service at once and replies go out in completion order (NBD
    /// explicitly permits out-of-order replies — clients match on the
    /// handle). Depth 1 (the default) is the connection thread alone:
    /// read a request, serve it, reply, repeat — and with it the
    /// bit-identical span stream the tracing tests pin down.
    pub fn set_pipeline_depth(&self, depth: usize) {
        self.pipeline_depth.store(depth.max(1), Ordering::Release);
    }

    /// The currently configured pipeline depth.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth.load(Ordering::Acquire)
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Register `dev` under `name`.
    pub fn add_export(&self, name: impl Into<String>, dev: SharedDev, read_only: bool) {
        self.exports
            .lock()
            .insert(name.into(), Arc::new(Export { dev, read_only }));
    }

    /// Register an opened image chain under `name` (the usual case: a CoW
    /// or cache chain served to a booting VM).
    pub fn add_image(&self, name: impl Into<String>, img: Arc<QcowImage>) {
        let ro = img.is_read_only();
        self.add_export(name, img as SharedDev, ro);
    }

    /// Register an image wrapped in [`ConcurrentImage`], so many
    /// connections (and pipelined requests within one connection) serve
    /// warm reads in parallel instead of convoying on the image mutex.
    pub fn add_image_concurrent(&self, name: impl Into<String>, img: Arc<QcowImage>) {
        let ro = img.is_read_only();
        self.add_export(name, ConcurrentImage::new(img) as SharedDev, ro);
    }

    /// Remove an export; existing connections keep their handle.
    pub fn remove_export(&self, name: &str) -> bool {
        self.exports.lock().remove(name).is_some()
    }

    /// Total transmission requests served across all connections.
    pub fn served_requests(&self) -> u64 {
        self.served_requests.load(Ordering::Relaxed)
    }

    /// Stop accepting new connections: set the flag, wake the blocked
    /// `accept` with one connection to the bound port (over loopback when
    /// bound to an unspecified address), and join the accept thread, which
    /// closes the listener. Live connections are not touched.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        let Some(t) = self.accept_thread.take() else {
            return;
        };
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without a wake-up (the thread already gone, or no socket to be
        // had) joining could block forever; a thread left blocked exits at
        // its next accept, since the flag is set.
        if TcpStream::connect(wake).is_ok() || t.is_finished() {
            let _ = t.join();
        }
    }
}

impl Drop for NbdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state machine: handshake → option haggling → transmission.
fn handle_connection(
    stream: TcpStream,
    exports: &Mutex<HashMap<String, Arc<Export>>>,
    served: &AtomicU64,
    obs: &Obs,
    depth: usize,
) -> Result<()> {
    let mut r = BufReader::new(stream.try_clone().map_err(io_err)?);
    let mut w = BufWriter::new(stream);

    // --- handshake ------------------------------------------------------
    write_all(&mut w, &NBDMAGIC.to_be_bytes())?;
    write_all(&mut w, &IHAVEOPT.to_be_bytes())?;
    write_all(
        &mut w,
        &(NBD_FLAG_FIXED_NEWSTYLE | NBD_FLAG_NO_ZEROES).to_be_bytes(),
    )?;
    w.flush().map_err(io_err)?;
    let client_flags = read_u32(&mut r)?;
    let no_zeroes = client_flags & NBD_FLAG_C_NO_ZEROES != 0;

    // --- option haggling --------------------------------------------------
    let export: Arc<Export> = loop {
        let magic = read_u64(&mut r)?;
        if magic != IHAVEOPT {
            return Err(vmi_blockdev::BlockError::corrupt("bad option magic"));
        }
        let option = read_u32(&mut r)?;
        let len = read_u32(&mut r)? as usize;
        if len > 4096 {
            return Err(vmi_blockdev::BlockError::corrupt("oversized option"));
        }
        let mut payload = vec![0u8; len];
        read_exact(&mut r, &mut payload)?;
        match option {
            NBD_OPT_EXPORT_NAME => {
                let name = String::from_utf8_lossy(&payload).to_string();
                let Some(export) = exports.lock().get(&name).cloned() else {
                    // EXPORT_NAME has no error reply path: drop the session.
                    return Err(vmi_blockdev::BlockError::unsupported(format!(
                        "unknown export {name:?}"
                    )));
                };
                // Export info: size + transmission flags (+ pad).
                write_all(&mut w, &export.dev.len().to_be_bytes())?;
                let mut flags = NBD_FLAG_HAS_FLAGS | NBD_FLAG_SEND_FLUSH | NBD_FLAG_SEND_TRIM;
                if export.read_only {
                    flags |= NBD_FLAG_READ_ONLY;
                }
                write_all(&mut w, &flags.to_be_bytes())?;
                if !no_zeroes {
                    write_all(&mut w, &[0u8; 124])?;
                }
                w.flush().map_err(io_err)?;
                break export;
            }
            NBD_OPT_LIST => {
                let names: Vec<String> = exports.lock().keys().cloned().collect();
                for name in names {
                    let mut item = (name.len() as u32).to_be_bytes().to_vec();
                    item.extend_from_slice(name.as_bytes());
                    write_option_reply(&mut w, option, NBD_REP_SERVER, &item)?;
                }
                write_option_reply(&mut w, option, NBD_REP_ACK, &[])?;
                w.flush().map_err(io_err)?;
            }
            NBD_OPT_ABORT => {
                write_option_reply(&mut w, option, NBD_REP_ACK, &[])?;
                w.flush().map_err(io_err)?;
                return Ok(());
            }
            _ => {
                write_option_reply(&mut w, option, NBD_REP_ERR_UNSUP, &[])?;
                w.flush().map_err(io_err)?;
            }
        }
    };

    // --- transmission ------------------------------------------------------
    let conn = Transmission {
        export: &export,
        served,
        obs,
        pipelined: depth > 1,
        reader: Mutex::new(r),
        writer: Mutex::new(w),
        in_service: RwLock::new(()),
        done: AtomicBool::new(false),
    };
    conn.reader.set_rank(lockrank::NBD_READER);
    conn.writer.set_rank(lockrank::NBD_WRITER);
    conn.in_service.set_rank(lockrank::NBD_IN_SERVICE);
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..depth).map(|_| s.spawn(|| conn.serve())).collect();
        helpers.into_iter().fold(conn.serve(), |outcome, h| {
            outcome.and(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })
    })
}

/// One connection's transmission phase, shared by the threads serving it.
///
/// Each thread loops: take the reader lock, parse one request (with its
/// WRITE payload), enter service, release the reader, serve the request
/// with its own reused buffer, and reply under the writer lock. So a
/// connection at depth N has up to N requests in service, and a request is
/// served on the thread that parsed it. `FLUSH` and `TRIM` keep the reader
/// lock until every earlier-parsed request has replied, then act: nothing
/// parsed before them is still running, and nothing parsed after them
/// starts before they are done.
struct Transmission<'a> {
    export: &'a Export,
    served: &'a AtomicU64,
    obs: &'a Obs,
    /// Marks the request spans of connections deeper than 1.
    pipelined: bool,
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
    /// Held shared by each request from its parse to its reply: the count
    /// of its holders is the count of requests in service, and a barrier
    /// waits for it to reach 0 by taking it exclusively.
    in_service: RwLock<()>,
    /// Set on `DISC` or a socket or framing error: threads waiting for
    /// their turn on the reader exit instead.
    done: AtomicBool,
}

impl Transmission<'_> {
    /// One serving thread's loop; returns when the connection is done.
    fn serve(&self) -> Result<()> {
        let mut data = Vec::new();
        loop {
            let mut r = self.reader.lock();
            if self.done.load(Ordering::Acquire) {
                return Ok(());
            }
            let req = self.or_done(read_request(&mut *r))?;
            self.served.fetch_add(1, Ordering::Relaxed);
            // vmi-nbd talks to a real network and never runs under the
            // simulator, so request latency is wall time.
            #[expect(clippy::disallowed_methods, reason = "real server request latency")]
            let start = self.obs.enabled().then(Instant::now);
            // One root span per request: everything the device layers emit
            // while serving it (qcow reads, L2 walks, CoR fills, retries)
            // parents here.
            let span = self.obs.span("nbd.request", || {
                format!(
                    "ty={} off={} len={}{}",
                    cmd_name(req.ty),
                    req.offset,
                    req.length,
                    if self.pipelined { " pipelined" } else { "" }
                )
            });
            match req.ty {
                // An oversized write is rejected *without* buffering its
                // payload: drain it to keep the stream framed.
                NBD_CMD_WRITE if req.length > MAX_REQUEST_BYTES => {
                    self.or_done(drain_payload(&mut *r, req.length as u64))?
                }
                NBD_CMD_WRITE => {
                    data.resize(req.length as usize, 0);
                    self.or_done(read_exact(&mut *r, &mut data))?;
                }
                NBD_CMD_DISC => {
                    self.done.store(true, Ordering::Release);
                    self.wait_idle();
                    return Ok(());
                }
                NBD_CMD_FLUSH | NBD_CMD_TRIM => {
                    self.wait_idle();
                    let err = if req.ty == NBD_CMD_FLUSH {
                        status(self.export.dev.flush())
                    } else {
                        self.export.trim(req.offset, req.length as u64)
                    };
                    drop(r);
                    self.reply(req.handle, err, &[])?;
                    self.finish(span, start);
                    continue;
                }
                _ => {}
            }
            let serving = self.in_service.read();
            drop(r);
            let err = self.execute(&req, &mut data, span.id());
            let payload: &[u8] = match (req.ty, err) {
                (NBD_CMD_READ, 0) => &data,
                _ => &[],
            };
            let sent = self.reply(req.handle, err, payload);
            drop(serving);
            sent?;
            self.finish(span, start);
        }
    }

    /// Serve a parsed READ, WRITE or unknown command against the export;
    /// returns the reply's error. A READ leaves its payload in `data`, a
    /// WRITE finds its payload there.
    fn execute(&self, req: &Request, data: &mut Vec<u8>, parent: Option<SpanId>) -> u32 {
        let dev = &self.export.dev;
        match req.ty {
            NBD_CMD_READ => match validate_range(req.offset, req.length, dev.len()) {
                Err(err) => err,
                Ok(()) => {
                    data.resize(req.length as usize, 0);
                    status(dev.read_at_in(data, req.offset, parent))
                }
            },
            NBD_CMD_WRITE if req.length > MAX_REQUEST_BYTES => NBD_EINVAL,
            NBD_CMD_WRITE if self.export.read_only => NBD_EPERM,
            NBD_CMD_WRITE => match validate_range(req.offset, req.length, dev.len()) {
                Err(err) => err,
                Ok(()) => status(dev.write_at_in(data, req.offset, parent)),
            },
            _ => NBD_EINVAL,
        }
    }

    /// Block until every request in service has replied. Called with the
    /// reader lock held, so no further request enters service meanwhile.
    fn wait_idle(&self) {
        drop(self.in_service.write());
    }

    /// Write one reply frame (header and READ payload in one vectored
    /// write) atomically with respect to the connection's other threads.
    fn reply(&self, handle: u64, err: u32, payload: &[u8]) -> Result<()> {
        let mut w = self.writer.lock();
        let sent = write_frame(&mut *w, &encode_simple_reply(err, handle), payload)
            .and_then(|()| w.flush().map_err(io_err));
        self.or_done(sent)
    }

    /// Close the request's span and time it.
    fn finish(&self, span: vmi_obs::SpanGuard, start: Option<Instant>) {
        drop(span);
        if let Some(start) = start {
            self.obs
                .observe(met::NBD_REQUEST_NS, start.elapsed().as_nanos() as u64);
        }
    }

    /// `res`, marking the connection done if it is a socket or framing
    /// error.
    fn or_done<T>(&self, res: Result<T>) -> Result<T> {
        if res.is_err() {
            self.done.store(true, Ordering::Release);
        }
        res
    }
}

fn cmd_name(ty: u16) -> &'static str {
    match ty {
        NBD_CMD_READ => "read",
        NBD_CMD_WRITE => "write",
        NBD_CMD_FLUSH => "flush",
        NBD_CMD_TRIM => "trim",
        NBD_CMD_DISC => "disc",
        _ => "other",
    }
}

/// The error a device result replies with (0 on success).
fn status<T>(res: Result<T>) -> u32 {
    match res.map_err(|e| e.kind()) {
        Ok(_) => 0,
        Err(BlockErrorKind::NoSpace) => NBD_ENOSPC,
        Err(BlockErrorKind::ReadOnly) => NBD_EPERM,
        Err(BlockErrorKind::OutOfBounds) => NBD_EINVAL,
        Err(_) => NBD_EIO,
    }
}

fn io_err(e: std::io::Error) -> vmi_blockdev::BlockError {
    vmi_blockdev::BlockError::new(BlockErrorKind::Io, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::{BlockDev, MemDev};

    #[test]
    fn server_binds_and_lists_exports() {
        let mut srv = NbdServer::start("127.0.0.1:0").unwrap();
        srv.add_export("disk0", Arc::new(MemDev::with_len(1 << 20)), false);
        assert!(srv.addr().port() > 0);
        assert!(srv.remove_export("disk0"));
        assert!(!srv.remove_export("disk0"));
        srv.shutdown();
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "waits on real threads")]
    fn request_latency_lands_in_histogram() {
        let rec: Arc<vmi_obs::JsonlSink> = vmi_obs::JsonlSink::new();
        let obs = Obs::new(Arc::new(vmi_obs::WallClock::new()), rec);
        let mut srv = NbdServer::start_with_obs("127.0.0.1:0", obs.clone()).unwrap();
        srv.add_export("disk0", Arc::new(MemDev::with_len(1 << 20)), false);
        let client = crate::NbdClient::connect(&srv.addr().to_string(), "disk0").unwrap();
        let mut buf = [0u8; 512];
        client.read_at(&mut buf, 0).unwrap();
        client.read_at(&mut buf, 4096).unwrap();
        drop(client);
        srv.shutdown();
        // The connection thread records a request's latency after it has
        // flushed the reply (the write is part of what is measured), and
        // shutdown does not join connection threads: the client can see
        // the second reply before its latency lands. Wait for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let count = loop {
            let h = obs
                .histogram(met::NBD_REQUEST_NS)
                .expect("recorder attached");
            if h.count >= 2 || std::time::Instant::now() >= deadline {
                break h.count;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert!(count >= 2, "two reads must be timed, saw {count}");
    }

    #[test]
    fn add_image_marks_read_only() {
        let srv = NbdServer::start("127.0.0.1:0").unwrap();
        let dev: SharedDev = Arc::new(MemDev::new());
        {
            let img = vmi_qcow::QcowImage::create(
                dev.clone(),
                vmi_qcow::CreateOpts::plain(1 << 20),
                None,
            )
            .unwrap();
            img.close().unwrap();
        }
        let img = vmi_qcow::QcowImage::open(dev, None, true).unwrap();
        srv.add_image("ro-img", img);
        assert!(srv.exports.lock().get("ro-img").unwrap().read_only);
        // BlockDev::len is visible through the export.
        assert_eq!(srv.exports.lock().get("ro-img").unwrap().dev.len(), 1 << 20);
    }
}
