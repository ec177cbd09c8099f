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

use parking_lot::{lockrank, Mutex};
use vmi_blockdev::{BlockErrorKind, Result, SharedDev};
use vmi_obs::{met, Obs};
use vmi_qcow::{ConcurrentImage, QcowImage, RequestEngine};

use crate::proto::*;

/// One served export.
struct Export {
    dev: SharedDev,
    read_only: bool,
}

impl Export {
    /// TRIM maps to image discard when the export is an image layer (plain
    /// or wrapped in [`ConcurrentImage`]); raw devices acknowledge without
    /// action, and read-only image exports refuse. The range is validated
    /// against the export like a READ/WRITE range (no size cap: TRIM
    /// carries no payload).
    fn trim(&self, off: u64, len: u64) -> u32 {
        match off.checked_add(len) {
            Some(end) if end <= self.dev.len() => {}
            _ => return NBD_EINVAL,
        }
        let any = self.dev.as_any();
        if let Some(conc) = any.and_then(|a| a.downcast_ref::<ConcurrentImage>()) {
            if self.read_only {
                return NBD_EPERM;
            }
            return match conc.discard(off, len) {
                Ok(_) => 0,
                Err(e) => errno(&e),
            };
        }
        match any.and_then(|a| a.downcast_ref::<QcowImage>()) {
            Some(img) if !self.read_only => match img.discard(off, len) {
                Ok(_) => 0,
                Err(e) => errno(&e),
            },
            Some(_) => NBD_EPERM,
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
    /// Depth 1 (the default) keeps the classic serial loop: read a request,
    /// serve it, reply, repeat — and with it the bit-identical span stream
    /// the tracing tests pin down. Depth ≥ 2 switches new connections to
    /// the submission/completion front-end: the reader thread parses and
    /// submits up to `depth` requests into a [`RequestEngine`] whose
    /// workers serve them against the shared export device, and replies go
    /// out in completion order (NBD explicitly permits out-of-order replies
    /// — clients match on the handle).
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
    if depth > 1 {
        return transmission_pipelined(r, w, &export, served, obs, depth);
    }
    transmission_serial(r, w, &export, served, obs)
}

/// Classic serial transmission loop: one request at a time, in order.
fn transmission_serial(
    mut r: BufReader<TcpStream>,
    mut w: BufWriter<TcpStream>,
    export: &Export,
    served: &AtomicU64,
    obs: &Obs,
) -> Result<()> {
    let mut data = Vec::new();
    loop {
        let req = read_request(&mut r)?;
        served.fetch_add(1, Ordering::Relaxed);
        let req_start = obs.enabled().then(std::time::Instant::now);
        // One root span per request: everything the device layers emit while
        // serving it (qcow reads, L2 walks, CoR fills, retries) parents here.
        let span = obs.span("nbd.request", || {
            format!(
                "ty={} off={} len={}",
                cmd_name(req.ty),
                req.offset,
                req.length
            )
        });
        match req.ty {
            NBD_CMD_DISC => return Ok(()),
            NBD_CMD_READ => match validate_range(req.offset, req.length, export.dev.len()) {
                Err(err) => write_simple_reply(&mut w, err, req.handle)?,
                Ok(()) => {
                    data.resize(req.length as usize, 0);
                    match export.dev.read_at_in(&mut data, req.offset, span.id()) {
                        Ok(()) => write_frame(&mut w, &encode_simple_reply(0, req.handle), &data)?,
                        Err(e) => write_simple_reply(&mut w, errno(&e), req.handle)?,
                    }
                }
            },
            NBD_CMD_WRITE => {
                // An oversized write is rejected *without* buffering its
                // payload: drain it to keep the stream framed, then reply.
                if req.length > MAX_REQUEST_BYTES {
                    drain_payload(&mut r, req.length as u64)?;
                    write_simple_reply(&mut w, NBD_EINVAL, req.handle)?;
                } else {
                    data.resize(req.length as usize, 0);
                    read_exact(&mut r, &mut data)?;
                    let err = if export.read_only {
                        NBD_EPERM
                    } else if validate_range(req.offset, req.length, export.dev.len()).is_err() {
                        NBD_EINVAL
                    } else {
                        match export.dev.write_at_in(&data, req.offset, span.id()) {
                            Ok(()) => 0,
                            Err(e) => errno(&e),
                        }
                    };
                    write_simple_reply(&mut w, err, req.handle)?;
                }
            }
            NBD_CMD_FLUSH => {
                let err = match export.dev.flush() {
                    Ok(()) => 0,
                    Err(e) => errno(&e),
                };
                write_simple_reply(&mut w, err, req.handle)?;
            }
            NBD_CMD_TRIM => {
                let err = export.trim(req.offset, req.length as u64);
                write_simple_reply(&mut w, err, req.handle)?;
            }
            _ => {
                write_simple_reply(&mut w, NBD_EINVAL, req.handle)?;
            }
        }
        w.flush().map_err(io_err)?;
        drop(span);
        if let Some(start) = req_start {
            obs.observe(met::NBD_REQUEST_NS, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Bookkeeping for one in-flight pipelined request.
struct Pending {
    handle: u64,
    is_read: bool,
    span: vmi_obs::SpanGuard,
    start: Option<std::time::Instant>,
}

/// Write one reply frame (header + optional read payload, in one vectored
/// write) atomically with respect to other repliers sharing the writer.
fn locked_reply(
    writer: &Mutex<BufWriter<TcpStream>>,
    err: u32,
    handle: u64,
    payload: Option<&[u8]>,
) -> Result<()> {
    let payload = match payload {
        Some(p) if err == 0 => p,
        _ => &[],
    };
    let mut w = writer.lock();
    write_frame(&mut *w, &encode_simple_reply(err, handle), payload)?;
    w.flush().map_err(io_err)
}

/// Pipelined transmission: the reader thread parses and submits requests
/// into a [`RequestEngine`] (up to `depth` workers serving the shared
/// export device); a drain thread writes replies as completions arrive, in
/// whatever order the device finishes them. `FLUSH`/`TRIM`/`DISC` drain
/// in-flight requests first, preserving their barrier meaning.
fn transmission_pipelined(
    mut r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    export: &Arc<Export>,
    served: &AtomicU64,
    obs: &Obs,
    depth: usize,
) -> Result<()> {
    let engine = Arc::new(RequestEngine::new(export.dev.clone(), depth));
    let writer = Arc::new(Mutex::new(w));
    writer.set_rank(lockrank::NBD_WRITER);
    let pending: Arc<Mutex<HashMap<u64, Pending>>> = Arc::new(Mutex::new(HashMap::new()));
    pending.set_rank(lockrank::NBD_PENDING);

    let drain = {
        let engine = engine.clone();
        let writer = writer.clone();
        let pending = pending.clone();
        let obs = obs.clone();
        std::thread::spawn(move || {
            while let Some(c) = engine.next_completion() {
                let Some(p) = pending.lock().remove(&c.id) else {
                    continue;
                };
                let err = match &c.result {
                    Ok(()) => 0,
                    Err(e) => errno(e),
                };
                let payload = if p.is_read { c.data.as_deref() } else { None };
                let sent = locked_reply(&writer, err, p.handle, payload);
                drop(p.span);
                if let Some(start) = p.start {
                    obs.observe(met::NBD_REQUEST_NS, start.elapsed().as_nanos() as u64);
                }
                if sent.is_err() {
                    // Client went away; stop writing. The reader will hit
                    // EOF and shut the engine down.
                    break;
                }
            }
        })
    };

    let outcome = (|| -> Result<()> {
        let mut data = Vec::new();
        loop {
            let req = read_request(&mut r)?;
            served.fetch_add(1, Ordering::Relaxed);
            let start = obs.enabled().then(std::time::Instant::now);
            let span = obs.span("nbd.request", || {
                format!(
                    "ty={} off={} len={} pipelined",
                    cmd_name(req.ty),
                    req.offset,
                    req.length
                )
            });
            let inline_err: Option<u32> = match req.ty {
                NBD_CMD_DISC => {
                    engine.wait_idle();
                    return Ok(());
                }
                NBD_CMD_READ => match validate_range(req.offset, req.length, export.dev.len()) {
                    Err(err) => Some(err),
                    Ok(()) => {
                        // Hold the pending lock across submit: a fast worker
                        // could otherwise complete before the insert and the
                        // drain thread would drop the reply on the floor.
                        let mut p = pending.lock();
                        let id = engine.submit_in(
                            vmi_qcow::Request::Read {
                                off: req.offset,
                                len: req.length as usize,
                            },
                            span.id(),
                        );
                        p.insert(
                            id,
                            Pending {
                                handle: req.handle,
                                is_read: true,
                                span,
                                start,
                            },
                        );
                        continue;
                    }
                },
                NBD_CMD_WRITE => {
                    if req.length > MAX_REQUEST_BYTES {
                        drain_payload(&mut r, req.length as u64)?;
                        Some(NBD_EINVAL)
                    } else {
                        data.resize(req.length as usize, 0);
                        read_exact(&mut r, &mut data)?;
                        if export.read_only {
                            Some(NBD_EPERM)
                        } else if validate_range(req.offset, req.length, export.dev.len()).is_err()
                        {
                            Some(NBD_EINVAL)
                        } else {
                            // Same submit-vs-drain race as the read path:
                            // insert must be visible before the completion.
                            let mut p = pending.lock();
                            let id = engine.submit_in(
                                vmi_qcow::Request::Write {
                                    off: req.offset,
                                    data: std::mem::take(&mut data),
                                },
                                span.id(),
                            );
                            p.insert(
                                id,
                                Pending {
                                    handle: req.handle,
                                    is_read: false,
                                    span,
                                    start,
                                },
                            );
                            continue;
                        }
                    }
                }
                NBD_CMD_FLUSH => {
                    // Barrier: everything submitted before the flush must
                    // have hit the device before the flush itself runs.
                    engine.wait_idle();
                    Some(match export.dev.flush() {
                        Ok(()) => 0,
                        Err(e) => errno(&e),
                    })
                }
                NBD_CMD_TRIM => {
                    engine.wait_idle();
                    Some(export.trim(req.offset, req.length as u64))
                }
                _ => Some(NBD_EINVAL),
            };
            if let Some(err) = inline_err {
                locked_reply(&writer, err, req.handle, None)?;
            }
            drop(span);
            if let Some(start) = start {
                obs.observe(met::NBD_REQUEST_NS, start.elapsed().as_nanos() as u64);
            }
        }
    })();

    engine.shutdown();
    let _ = drain.join();
    outcome
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

fn errno(e: &vmi_blockdev::BlockError) -> u32 {
    match e.kind() {
        BlockErrorKind::NoSpace => NBD_ENOSPC,
        BlockErrorKind::ReadOnly => NBD_EPERM,
        BlockErrorKind::OutOfBounds => NBD_EINVAL,
        _ => NBD_EIO,
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
