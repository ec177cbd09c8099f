//! Shared by the wire suites: the frame sizes where header-and-payload
//! framing can go wrong, a raw connection that drives arbitrary frames, and
//! a device that sleeps per operation. Each suite uses part of it.
#![allow(dead_code)]

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use vmi_blockdev::{BlockDev, Result, SharedDev};
use vmi_nbd::proto::*;
use vmi_nbd::NbdClient;

/// Around the 8 KiB `BufWriter`/`BufReader` capacity, a typical large
/// request, and one byte past the request cap (which the client splits).
const FRAMING_SIZES: [usize; 6] = [
    8175,
    8176,
    8192,
    8193,
    65536,
    MAX_REQUEST_BYTES as usize + 1,
];

/// An export large enough for every extent [`assert_framing_round_trips`]
/// touches.
pub const FRAMING_EXPORT_LEN: u64 = 34 << 20;

/// Write then read back each of [`FRAMING_SIZES`] through `client`, at
/// offsets that are not sector-aligned. The reads must return exactly what
/// was written, and so must `export` — the device behind the server — so a
/// fault symmetric in both directions of the wire still shows.
pub fn assert_framing_round_trips(client: &NbdClient, export: &dyn BlockDev) {
    for (i, &len) in FRAMING_SIZES.iter().enumerate() {
        let off = 4093 + i as u64 * 8192;
        let data: Vec<u8> = (0..len).map(|j| ((j * 7 + i) % 253) as u8).collect();
        client.write_at(&data, off).unwrap();
        let mut back = vec![0u8; len];
        client.read_at(&mut back, off).unwrap();
        assert!(back == data, "{len}-byte read did not round-trip");
        export.read_at(&mut back, off).unwrap();
        assert!(back == data, "{len}-byte write did not land intact");
    }
}

/// A raw NBD connection that lets tests drive arbitrary frames.
pub struct RawConn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    pub size: u64,
}

impl RawConn {
    pub fn connect(addr: &str, export: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).ok();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        assert_eq!(read_u64(&mut r).unwrap(), NBDMAGIC);
        assert_eq!(read_u64(&mut r).unwrap(), IHAVEOPT);
        let flags = read_u16(&mut r).unwrap();
        assert!(flags & NBD_FLAG_FIXED_NEWSTYLE != 0);
        let cflags = NBD_FLAG_C_FIXED_NEWSTYLE | NBD_FLAG_C_NO_ZEROES;
        write_all(&mut w, &cflags.to_be_bytes()).unwrap();
        write_all(&mut w, &IHAVEOPT.to_be_bytes()).unwrap();
        write_all(&mut w, &NBD_OPT_EXPORT_NAME.to_be_bytes()).unwrap();
        write_all(&mut w, &(export.len() as u32).to_be_bytes()).unwrap();
        write_all(&mut w, export.as_bytes()).unwrap();
        w.flush().unwrap();
        let size = read_u64(&mut r).unwrap();
        let _tflags = read_u16(&mut r).unwrap();
        Self { r, w, size }
    }

    /// Send one request header with `payload` after it; `payload` may be
    /// shorter than `length`, leaving the request cut mid-payload.
    pub fn send(&mut self, ty: u16, handle: u64, offset: u64, length: u32, payload: &[u8]) {
        write_request(
            &mut self.w,
            &Request {
                flags: 0,
                ty,
                handle,
                offset,
                length,
            },
        )
        .unwrap();
        if !payload.is_empty() {
            write_all(&mut self.w, payload).unwrap();
        }
        self.w.flush().unwrap();
    }

    pub fn recv(&mut self) -> (u32, u64) {
        read_simple_reply(&mut self.r).unwrap()
    }

    pub fn recv_data(&mut self, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.r.read_exact(&mut buf).unwrap();
        buf
    }

    /// Whether the server has closed the connection (and sent nothing more).
    pub fn at_eof(&mut self) -> bool {
        matches!(self.r.read(&mut [0u8; 1]), Ok(0))
    }
}

/// Sleeps for `delay` before every read and write it forwards (a run is
/// one operation), so requests only finish sooner together if the server
/// really serves them at once.
pub struct SleepDev {
    pub inner: SharedDev,
    pub delay: Duration,
}

#[expect(clippy::disallowed_methods, reason = "service time is a real sleep")]
impl BlockDev for SleepDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.write_at(buf, off)
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
}
