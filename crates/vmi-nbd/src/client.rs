//! The NBD client: attach to a served export and use it as a [`BlockDev`].
//!
//! Because [`NbdClient`] implements `BlockDev`, a remote export can sit
//! anywhere a local device can — including as the *backing device* of a
//! local `vmi-qcow` cache image: a compute node can chain
//! `local cache ← NBD ← storage-node export`, which is exactly the paper's
//! deployment realized over a real network protocol.

use std::io::{BufReader, BufWriter, ErrorKind, IoSliceMut, Read, Write};
use std::net::TcpStream;

use parking_lot::{lockrank, Mutex};
use vmi_blockdev::{BlockDev, BlockError, BlockErrorKind, Result};

use crate::proto::*;

struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
    next_handle: u64,
}

/// A connected NBD client bound to one export.
pub struct NbdClient {
    conn: Mutex<Conn>,
    size: u64,
    read_only: bool,
    export: String,
}

impl NbdClient {
    /// Connect to `addr` and bind to `export` via fixed-newstyle
    /// negotiation.
    pub fn connect(addr: &str, export: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| BlockError::new(BlockErrorKind::Io, format!("connect: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut r = BufReader::new(stream.try_clone().map_err(io_err)?);
        let mut w = BufWriter::new(stream);

        // Handshake.
        let magic = read_u64(&mut r)?;
        if magic != NBDMAGIC {
            return Err(BlockError::corrupt(format!("bad server magic {magic:#x}")));
        }
        let opt_magic = read_u64(&mut r)?;
        if opt_magic != IHAVEOPT {
            return Err(BlockError::corrupt("server is not newstyle"));
        }
        let server_flags = read_u16(&mut r)?;
        if server_flags & NBD_FLAG_FIXED_NEWSTYLE == 0 {
            return Err(BlockError::unsupported("server lacks fixed-newstyle"));
        }
        let no_zeroes = server_flags & NBD_FLAG_NO_ZEROES != 0;
        let mut cflags = NBD_FLAG_C_FIXED_NEWSTYLE;
        if no_zeroes {
            cflags |= NBD_FLAG_C_NO_ZEROES;
        }
        write_all(&mut w, &cflags.to_be_bytes())?;

        // Bind to the export.
        write_all(&mut w, &IHAVEOPT.to_be_bytes())?;
        write_all(&mut w, &NBD_OPT_EXPORT_NAME.to_be_bytes())?;
        write_all(&mut w, &(export.len() as u32).to_be_bytes())?;
        write_all(&mut w, export.as_bytes())?;
        w.flush().map_err(io_err)?;

        let size = read_u64(&mut r)?;
        let tflags = read_u16(&mut r)?;
        if !no_zeroes {
            let mut pad = [0u8; 124];
            read_exact(&mut r, &mut pad)?;
        }
        let conn = Mutex::new(Conn {
            r,
            w,
            next_handle: 1,
        });
        conn.set_rank(lockrank::NBD_CLIENT);
        Ok(Self {
            conn,
            size,
            read_only: tflags & NBD_FLAG_READ_ONLY != 0,
            export: export.to_string(),
        })
    }

    /// Whether the server exported read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// The export name this client is bound to.
    pub fn export_name(&self) -> &str {
        &self.export
    }

    /// Issue `TRIM` for `[off, off + len)`: one request per `u32::MAX` bytes,
    /// the most the wire format's length field holds.
    pub fn trim(&self, off: u64, len: u64) -> Result<()> {
        if self.read_only {
            return Err(BlockError::read_only("NBD export is read-only"));
        }
        let mut c = self.conn.lock();
        let (mut at, mut left) = (off, len);
        while left > 0 {
            let n = left.min(u32::MAX as u64);
            let handle = Self::send(&mut c, NBD_CMD_TRIM, at, n as u32, &[])?;
            Self::expect_ok(&mut c, handle)?;
            // A range that wraps `u64` is the server's to refuse, on the
            // request that crosses the export's end; never a client panic.
            at = at.wrapping_add(n);
            left -= n;
        }
        Ok(())
    }

    /// Cleanly disconnect (best-effort; Drop also sends it).
    pub fn disconnect(&self) {
        let mut c = self.conn.lock();
        let handle = c.next_handle;
        c.next_handle += 1;
        let _ = write_request(
            &mut c.w,
            &Request {
                flags: 0,
                ty: NBD_CMD_DISC,
                handle,
                offset: 0,
                length: 0,
            },
        );
        let _ = c.w.flush();
    }

    /// Send one request frame: header and payload in one vectored write.
    fn send(c: &mut Conn, ty: u16, offset: u64, length: u32, payload: &[u8]) -> Result<u64> {
        let handle = c.next_handle;
        c.next_handle += 1;
        let head = encode_request(&Request {
            flags: 0,
            ty,
            handle,
            offset,
            length,
        });
        write_frame(&mut c.w, &head, payload)?;
        c.w.flush().map_err(io_err)?;
        Ok(handle)
    }

    fn expect_ok(c: &mut Conn, handle: u64) -> Result<()> {
        let (err, h) = read_simple_reply(&mut c.r)?;
        check_handle(h, handle)?;
        err_to_result(err)
    }

    /// Receive the reply to READ `handle` into `buf`. One vectored read
    /// takes the header and as much payload as has arrived; the header's
    /// magic, handle and error are checked before the payload counts, and
    /// an error reply — which has no payload — ends the read at its header.
    ///
    /// The read may take up to `buf.len()` bytes past the header. That is
    /// sound only because this client keeps one request in flight: nothing
    /// but this reply's own payload can follow its header.
    fn recv_read(c: &mut Conn, handle: u64, buf: &mut [u8]) -> Result<()> {
        let mut head = [0u8; SIMPLE_REPLY_LEN];
        let mut got = 0;
        {
            let mut slices = [IoSliceMut::new(&mut head), IoSliceMut::new(buf)];
            let mut bufs = &mut slices[..];
            while got < SIMPLE_REPLY_LEN {
                match c.r.read_vectored(bufs) {
                    Ok(0) => return Err(io_err(ErrorKind::UnexpectedEof.into())),
                    Ok(n) => {
                        got += n;
                        IoSliceMut::advance_slices(&mut bufs, n);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_err(e)),
                }
            }
        }
        let (err, h) = decode_simple_reply(&head)?;
        check_handle(h, handle)?;
        let taken = got - SIMPLE_REPLY_LEN;
        if err != 0 {
            if taken > 0 {
                return Err(BlockError::corrupt("payload after an error reply"));
            }
            return err_to_result(err);
        }
        read_exact(&mut c.r, &mut buf[taken..])
    }
}

fn check_handle(got: u64, want: u64) -> Result<()> {
    if got != want {
        return Err(BlockError::corrupt(format!("reply handle {got} != {want}")));
    }
    Ok(())
}

fn err_to_result(err: u32) -> Result<()> {
    match err {
        0 => Ok(()),
        NBD_ENOSPC => Err(BlockError::no_space("remote: no space")),
        NBD_EPERM => Err(BlockError::read_only("remote: read-only export")),
        NBD_EINVAL => Err(BlockError::unsupported("remote: invalid request")),
        e => Err(BlockError::new(
            BlockErrorKind::Io,
            format!("remote errno {e}"),
        )),
    }
}

fn io_err(e: std::io::Error) -> BlockError {
    BlockError::new(BlockErrorKind::Io, e.to_string())
}

impl BlockDev for NbdClient {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        match off.checked_add(buf.len() as u64) {
            Some(end) if end <= self.size => {}
            _ => return Err(BlockError::out_of_bounds(off, buf.len(), self.size)),
        }
        let mut c = self.conn.lock();
        let mut at = off;
        // The server refuses requests above `MAX_REQUEST_BYTES`.
        for part in buf.chunks_mut(MAX_REQUEST_BYTES as usize) {
            let handle = Self::send(&mut c, NBD_CMD_READ, at, part.len() as u32, &[])?;
            Self::recv_read(&mut c, handle, part)?;
            at += part.len() as u64;
        }
        Ok(())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        if self.read_only {
            return Err(BlockError::read_only("NBD export is read-only"));
        }
        let mut c = self.conn.lock();
        let mut at = off;
        for part in buf.chunks(MAX_REQUEST_BYTES as usize) {
            let handle = Self::send(&mut c, NBD_CMD_WRITE, at, part.len() as u32, part)?;
            Self::expect_ok(&mut c, handle)?;
            // Bounds are the server's call (see `trim`).
            at = at.wrapping_add(part.len() as u64);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.size
    }

    fn set_len(&self, _len: u64) -> Result<()> {
        Err(BlockError::unsupported("NBD exports have a fixed size"))
    }

    fn flush(&self) -> Result<()> {
        let mut c = self.conn.lock();
        let handle = Self::send(&mut c, NBD_CMD_FLUSH, 0, 0, &[])?;
        Self::expect_ok(&mut c, handle)
    }

    fn describe(&self) -> String {
        format!("nbd-client({})", self.export)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for NbdClient {
    fn drop(&mut self) {
        self.disconnect();
    }
}
