//! `serve_warm`: the storage-node role (paper Figs. 13/14). A warm cache
//! held in memory is exported read-only through `ConcurrentImage` by a
//! server with pipeline depth 4; two connections each keep four READs in
//! flight over the boot trace's reads. One unit is one pass per connection,
//! both at once, the second starting half a pass ahead.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{MemDev, Result, SharedDev};
use vmi_nbd::proto::*;
use vmi_nbd::NbdServer;
use vmi_qcow::{ConcStats, ConcurrentImage, QcowImage};

use crate::fixture::{bench_err, Fixture, GuestOp, Oracle};
use crate::spandev::{Phase, Recorder, Role};
use crate::workload::{conc_since, cor_since, ns_since, Unit, Workload};

pub const CONNECTIONS: usize = 2;
pub const DEPTH: usize = 4;

pub struct Serve {
    server: NbdServer,
    rec: Arc<Recorder>,
    conc: Arc<ConcurrentImage>,
    conns: Vec<PipeConn>,
    reads: Vec<GuestOp>,
    container_bytes: u64,
    seen_cor: vmi_qcow::CorStats,
    seen_conc: ConcStats,
}

impl Serve {
    pub fn new(fx: &Fixture, rec: Arc<Recorder>) -> Result<Self> {
        let container = fx.warm_cache_bytes()?;
        let container_bytes = container.len() as u64;
        let cache_dev = rec.wrap(Role::Cache, Arc::new(MemDev::from_vec(container)));
        let base: SharedDev = fx.open_base()?;
        let image = QcowImage::open(cache_dev, Some(base), true)?;
        // What `NbdServer::add_image_concurrent` does, with the exported
        // device wrapped so that time inside it can be told from time in
        // the NBD layer.
        let conc = ConcurrentImage::new(image);
        let server = NbdServer::start("127.0.0.1:0")?;
        server.set_pipeline_depth(DEPTH);
        server.add_export(
            "warm",
            rec.wrap(Role::Export, conc.clone() as SharedDev),
            true,
        );
        let addr = server.addr().to_string();
        let conns = (0..CONNECTIONS)
            .map(|_| PipeConn::connect(&addr, "warm"))
            .collect::<Result<Vec<_>>>()?;
        rec.set_phase(Phase::Read);
        Ok(Self {
            server,
            rec,
            conc,
            conns,
            reads: fx.ops.iter().filter(|o| !o.write).copied().collect(),
            container_bytes,
            seen_cor: Default::default(),
            seen_conc: Default::default(),
        })
    }
}

impl Workload for Serve {
    fn unit(&mut self, verify: Option<&mut Oracle>, lat: &mut Vec<u32>) -> Result<Unit> {
        let before = self.rec.snapshot();
        let served = self.server.served_requests();
        let reads = &self.reads;
        let oracle = verify.as_deref();
        let started = Instant::now();
        let passes: Vec<Result<(Unit, Vec<u32>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let first = i * reads.len() / CONNECTIONS;
                    s.spawn(move || conn.pass(reads, first, oracle))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(bench_err("reader panicked")))
                })
                .collect()
        });
        let mut unit = Unit {
            wall_ns: ns_since(started),
            ..Unit::default()
        };
        for pass in passes {
            let (part, part_lat) = pass?;
            unit.ops += part.ops;
            unit.errors += part.errors;
            unit.mismatches += part.mismatches;
            unit.op_ns += part.op_ns;
            unit.read_op_ns += part.read_op_ns;
            unit.read_bytes += part.read_bytes;
            lat.extend(part_lat);
        }
        unit.devs = self.rec.snapshot().since(&before);
        unit.nbd_requests = self.server.served_requests() - served;
        unit.store_bytes = self.container_bytes;
        let cor = self.conc.image().cor_stats();
        unit.cor = cor_since(cor, self.seen_cor);
        self.seen_cor = cor;
        unit.cache_used = self.conc.image().cache_used();
        let conc = self.conc.stats();
        unit.conc = conc_since(conc, self.seen_conc);
        self.seen_conc = conc;
        Ok(unit)
    }
}

/// The benchmark's own NBD reader, built on `vmi_nbd::proto`: unlike
/// `NbdClient` it keeps several READs in flight on one connection.
pub struct PipeConn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    next_handle: u64,
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl PipeConn {
    /// Fixed-newstyle negotiation, as `NbdClient::connect` does it.
    pub fn connect(addr: &str, export: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut r = BufReader::new(stream.try_clone()?);
        let mut w = BufWriter::new(stream);
        if read_u64(&mut r)? != NBDMAGIC || read_u64(&mut r)? != IHAVEOPT {
            return Err(bench_err("not a newstyle NBD server"));
        }
        let server_flags = read_u16(&mut r)?;
        if server_flags & NBD_FLAG_NO_ZEROES == 0 {
            return Err(bench_err("server does not offer NO_ZEROES"));
        }
        let client_flags = NBD_FLAG_C_FIXED_NEWSTYLE | NBD_FLAG_C_NO_ZEROES;
        write_all(&mut w, &client_flags.to_be_bytes())?;
        write_all(&mut w, &IHAVEOPT.to_be_bytes())?;
        write_all(&mut w, &NBD_OPT_EXPORT_NAME.to_be_bytes())?;
        write_all(&mut w, &(export.len() as u32).to_be_bytes())?;
        write_all(&mut w, export.as_bytes())?;
        w.flush()?;
        let _size = read_u64(&mut r)?;
        let _transmission_flags = read_u16(&mut r)?;
        Ok(Self {
            r,
            w,
            next_handle: 1,
            buf: vec![0u8; 1 << 20],
            scratch: Vec::new(),
        })
    }

    fn send_read(&mut self, op: GuestOp) -> Result<(u64, Instant)> {
        let handle = self.next_handle;
        self.next_handle += 1;
        let sent = Instant::now();
        write_request(
            &mut self.w,
            &Request {
                flags: 0,
                ty: NBD_CMD_READ,
                handle,
                offset: op.off,
                length: op.len,
            },
        )?;
        self.w.flush()?;
        Ok((handle, sent))
    }

    /// Read every extent of `reads` once, starting at index `first` and
    /// wrapping, with up to [`DEPTH`] requests in flight.
    pub fn pass(
        &mut self,
        reads: &[GuestOp],
        first: usize,
        oracle: Option<&Oracle>,
    ) -> Result<(Unit, Vec<u32>)> {
        let mut unit = Unit::default();
        let mut lat = Vec::with_capacity(reads.len());
        let mut in_flight: Vec<(u64, GuestOp, Instant)> = Vec::with_capacity(DEPTH);
        let mut sent = 0;
        while unit.ops < reads.len() as u64 {
            while in_flight.len() < DEPTH && sent < reads.len() {
                let op = reads[(first + sent) % reads.len()];
                let (handle, at) = self.send_read(op)?;
                in_flight.push((handle, op, at));
                sent += 1;
            }
            let (err, handle) = read_simple_reply(&mut self.r)?;
            let slot = in_flight
                .iter()
                .position(|(h, _, _)| *h == handle)
                .ok_or_else(|| bench_err("reply to a request that is not in flight"))?;
            let (_, op, at) = in_flight.swap_remove(slot);
            let buf = &mut self.buf[..op.len as usize];
            if err == 0 {
                read_exact(&mut self.r, buf)?;
            }
            unit.note_op(false, op.len, ns_since(at), err == 0, &mut lat);
            if let (0, Some(oracle)) = (err, oracle) {
                if !oracle.matches(buf, op.off, &mut self.scratch) {
                    unit.mismatches += 1;
                }
            }
        }
        Ok((unit, lat))
    }
}

impl Drop for PipeConn {
    fn drop(&mut self) {
        let bye = Request {
            flags: 0,
            ty: NBD_CMD_DISC,
            handle: self.next_handle,
            offset: 0,
            length: 0,
        };
        let _ = write_request(&mut self.w, &bye);
        let _ = self.w.flush();
    }
}
