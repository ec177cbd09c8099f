//! NBD wire-protocol constants and framing helpers (fixed-newstyle
//! handshake + simple replies), per the canonical protocol document
//! <https://github.com/NetworkBlockDevice/nbd/blob/master/doc/proto.md>.
//!
//! Framing rule: a frame's header is encoded into a stack array and leaves
//! together with its payload in one vectored write (`write_frame`), so
//! the peer never wakes for a header whose payload is still in flight.

use std::io::{ErrorKind, IoSlice, Read, Write};

use vmi_blockdev::{BlockError, Result};

/// `NBDMAGIC` — first 8 bytes of the server greeting.
pub const NBDMAGIC: u64 = 0x4e42_444d_4147_4943;
/// `IHAVEOPT` — second 8 bytes of the greeting, and the option-request magic.
pub const IHAVEOPT: u64 = 0x4948_4156_454F_5054;
/// Option *reply* magic.
pub const OPT_REPLY_MAGIC: u64 = 0x0003_e889_0455_65a9;
/// Transmission request magic.
pub const REQUEST_MAGIC: u32 = 0x2560_9513;
/// Transmission (simple) reply magic.
pub const SIMPLE_REPLY_MAGIC: u32 = 0x6744_6698;

/// Handshake flag: fixed-newstyle negotiation.
pub const NBD_FLAG_FIXED_NEWSTYLE: u16 = 1 << 0;
/// Handshake flag: omit the 124-byte zero pad after export info.
pub const NBD_FLAG_NO_ZEROES: u16 = 1 << 1;

/// Client handshake flag mirror of [`NBD_FLAG_FIXED_NEWSTYLE`].
pub const NBD_FLAG_C_FIXED_NEWSTYLE: u32 = 1 << 0;
/// Client handshake flag mirror of [`NBD_FLAG_NO_ZEROES`].
pub const NBD_FLAG_C_NO_ZEROES: u32 = 1 << 1;

/// Option: bind to an export and enter transmission.
pub const NBD_OPT_EXPORT_NAME: u32 = 1;
/// Option: abort the session.
pub const NBD_OPT_ABORT: u32 = 2;
/// Option: list export names.
pub const NBD_OPT_LIST: u32 = 3;

/// Option-reply type: acknowledged.
pub const NBD_REP_ACK: u32 = 1;
/// Option-reply type: one export-name item.
pub const NBD_REP_SERVER: u32 = 2;
/// Option-reply error: unsupported option.
pub const NBD_REP_ERR_UNSUP: u32 = 0x8000_0001;
/// Option-reply error: unknown export.
pub const NBD_REP_ERR_UNKNOWN: u32 = 0x8000_0006;

/// Transmission flag: this export has flags (always set).
pub const NBD_FLAG_HAS_FLAGS: u16 = 1 << 0;
/// Transmission flag: export is read-only.
pub const NBD_FLAG_READ_ONLY: u16 = 1 << 1;
/// Transmission flag: `FLUSH` is supported.
pub const NBD_FLAG_SEND_FLUSH: u16 = 1 << 2;
/// Transmission flag: `TRIM` is supported.
pub const NBD_FLAG_SEND_TRIM: u16 = 1 << 5;

/// Command: read.
pub const NBD_CMD_READ: u16 = 0;
/// Command: write.
pub const NBD_CMD_WRITE: u16 = 1;
/// Command: disconnect.
pub const NBD_CMD_DISC: u16 = 2;
/// Command: flush.
pub const NBD_CMD_FLUSH: u16 = 3;
/// Command: trim (discard).
pub const NBD_CMD_TRIM: u16 = 4;

/// Maximum payload a single transmission request may carry (the protocol
/// document suggests servers SHOULD support at least 32 MiB; we cap there).
/// Requests beyond this get a proper `NBD_EINVAL` *reply* — never an
/// unbounded allocation, and never a dropped connection.
pub const MAX_REQUEST_BYTES: u32 = 32 << 20;

/// Bytes in a transmission request header.
pub(crate) const REQUEST_LEN: usize = 28;
/// Bytes in a simple reply header.
pub(crate) const SIMPLE_REPLY_LEN: usize = 16;

/// POSIX-style error codes carried in replies.
pub const NBD_EIO: u32 = 5;
/// Invalid argument (out-of-range request).
pub const NBD_EINVAL: u32 = 22;
/// No space (cache quota exhausted surfaces as this).
pub const NBD_ENOSPC: u32 = 28;
/// Operation not permitted (write to read-only export).
pub const NBD_EPERM: u32 = 1;

/// One parsed transmission request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Command flags (unused by this implementation).
    pub flags: u16,
    /// Command type (`NBD_CMD_*`).
    pub ty: u16,
    /// Opaque client handle echoed in the reply.
    pub handle: u64,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub length: u32,
}

/// Read exactly `n` bytes.
pub fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf)
        .map_err(|e| BlockError::new(vmi_blockdev::BlockErrorKind::Io, format!("nbd read: {e}")))
}

/// Consume and discard exactly `n` payload bytes in bounded chunks.
///
/// Used when a request must be rejected but its payload is already on the
/// wire (e.g. an oversized `WRITE`): the stream stays framed so the
/// connection can carry further requests after the error reply.
pub fn drain_payload(r: &mut impl Read, n: u64) -> Result<()> {
    let mut remaining = n;
    let mut sink = [0u8; 8192];
    while remaining > 0 {
        let take = (remaining as usize).min(sink.len());
        read_exact(r, &mut sink[..take])?;
        remaining -= take as u64;
    }
    Ok(())
}

/// Write all bytes.
pub fn write_all(w: &mut impl Write, buf: &[u8]) -> Result<()> {
    w.write_all(buf).map_err(write_err)
}

/// Write one frame — `head` then `payload` — with vectored writes, so a
/// frame that bypasses a `BufWriter`'s buffer still leaves in one `send`
/// (or, when the socket takes it in parts, as few as it allows).
pub(crate) fn write_frame(w: &mut impl Write, head: &[u8], payload: &[u8]) -> Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(write_err(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(write_err(e)),
        }
    }
    Ok(())
}

fn write_err(e: std::io::Error) -> BlockError {
    BlockError::new(vmi_blockdev::BlockErrorKind::Io, format!("nbd write: {e}"))
}

/// The `N` bytes of `b` starting at `at`.
fn field<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&b[at..at + N]);
    out
}

/// Read a big-endian u16.
pub fn read_u16(r: &mut impl Read) -> Result<u16> {
    let mut b = [0u8; 2];
    read_exact(r, &mut b)?;
    Ok(u16::from_be_bytes(b))
}

/// Read a big-endian u32.
pub fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_be_bytes(b))
}

/// Read a big-endian u64.
pub fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b)?;
    Ok(u64::from_be_bytes(b))
}

/// Parse one transmission request header, magic included.
pub fn read_request(r: &mut impl Read) -> Result<Request> {
    let mut b = [0u8; REQUEST_LEN];
    read_exact(r, &mut b)?;
    let magic = u32::from_be_bytes(field(&b, 0));
    if magic != REQUEST_MAGIC {
        return Err(BlockError::corrupt(format!("bad request magic {magic:#x}")));
    }
    Ok(Request {
        flags: u16::from_be_bytes(field(&b, 4)),
        ty: u16::from_be_bytes(field(&b, 6)),
        handle: u64::from_be_bytes(field(&b, 8)),
        offset: u64::from_be_bytes(field(&b, 16)),
        length: u32::from_be_bytes(field(&b, 24)),
    })
}

/// Encode one transmission request header.
pub(crate) fn encode_request(req: &Request) -> [u8; REQUEST_LEN] {
    let mut b = [0u8; REQUEST_LEN];
    b[0..4].copy_from_slice(&REQUEST_MAGIC.to_be_bytes());
    b[4..6].copy_from_slice(&req.flags.to_be_bytes());
    b[6..8].copy_from_slice(&req.ty.to_be_bytes());
    b[8..16].copy_from_slice(&req.handle.to_be_bytes());
    b[16..24].copy_from_slice(&req.offset.to_be_bytes());
    b[24..28].copy_from_slice(&req.length.to_be_bytes());
    b
}

/// Serialize one transmission request header.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<()> {
    write_all(w, &encode_request(req))
}

/// Encode a simple reply header.
pub(crate) fn encode_simple_reply(error: u32, handle: u64) -> [u8; SIMPLE_REPLY_LEN] {
    let mut b = [0u8; SIMPLE_REPLY_LEN];
    b[0..4].copy_from_slice(&SIMPLE_REPLY_MAGIC.to_be_bytes());
    b[4..8].copy_from_slice(&error.to_be_bytes());
    b[8..16].copy_from_slice(&handle.to_be_bytes());
    b
}

/// Decode a simple reply header, checking its magic; returns
/// (error, handle).
pub(crate) fn decode_simple_reply(b: &[u8; SIMPLE_REPLY_LEN]) -> Result<(u32, u64)> {
    let magic = u32::from_be_bytes(field(b, 0));
    if magic != SIMPLE_REPLY_MAGIC {
        return Err(BlockError::corrupt(format!("bad reply magic {magic:#x}")));
    }
    Ok((
        u32::from_be_bytes(field(b, 4)),
        u64::from_be_bytes(field(b, 8)),
    ))
}

/// Read a simple reply header; returns (error, handle).
pub fn read_simple_reply(r: &mut impl Read) -> Result<(u32, u64)> {
    let mut b = [0u8; SIMPLE_REPLY_LEN];
    read_exact(r, &mut b)?;
    decode_simple_reply(&b)
}

/// Write one option reply (server → client during negotiation).
pub fn write_option_reply(
    w: &mut impl Write,
    option: u32,
    reply_type: u32,
    payload: &[u8],
) -> Result<()> {
    let mut b = [0u8; 20];
    b[0..8].copy_from_slice(&OPT_REPLY_MAGIC.to_be_bytes());
    b[8..12].copy_from_slice(&option.to_be_bytes());
    b[12..16].copy_from_slice(&reply_type.to_be_bytes());
    b[16..20].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    write_frame(w, &b, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            flags: 0,
            ty: NBD_CMD_READ,
            handle: 0xDEAD,
            offset: 4096,
            length: 512,
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(buf.len(), 28);
        let back = read_request(&mut &buf[..]).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn simple_reply_roundtrip() {
        let buf = encode_simple_reply(NBD_ENOSPC, 77);
        let (err, handle) = read_simple_reply(&mut &buf[..]).unwrap();
        assert_eq!(err, NBD_ENOSPC);
        assert_eq!(handle, 77);
    }

    #[test]
    fn bad_magic_detected() {
        let buf = [0u8; 28];
        assert!(read_request(&mut &buf[..]).is_err());
        assert!(read_simple_reply(&mut &buf[..16]).is_err());
    }

    #[test]
    fn magics_match_spec() {
        // Spot-check the protocol constants against their ASCII identities.
        assert_eq!(&NBDMAGIC.to_be_bytes(), b"NBDMAGIC");
        assert_eq!(&IHAVEOPT.to_be_bytes(), b"IHAVEOPT");
    }
}
