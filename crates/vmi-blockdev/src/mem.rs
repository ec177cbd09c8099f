//! Contiguous in-memory device — models `tmpfs` and node RAM.

use parking_lot::{lockrank, RwLock};

use crate::dev::check_bounds;
use crate::{BlockDev, Result};

/// A heap-backed block device.
///
/// This is the "memory" medium of the paper: caches created on compute-node
/// memory to keep cache writes off the boot critical path (§5.1, Fig. 7),
/// and the storage node's `tmpfs` exports (§5). Writes past the current end
/// grow the buffer, zero-filling any gap, like a POSIX file.
#[derive(Debug)]
pub struct MemDev {
    data: RwLock<Vec<u8>>,
}

impl Default for MemDev {
    fn default() -> Self {
        Self::new()
    }
}

impl MemDev {
    /// An empty device of length zero.
    pub fn new() -> Self {
        Self::from_vec(Vec::new())
    }

    /// A zero-filled device of `len` bytes.
    pub fn with_len(len: u64) -> Self {
        Self::from_vec(vec![0; len as usize])
    }

    /// A device initialized with `content`.
    pub fn from_vec(content: Vec<u8>) -> Self {
        let data = RwLock::new(content);
        data.set_rank(lockrank::DEV_LEAF);
        Self { data }
    }

    /// Clone out the full contents (test/diagnostic helper).
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.read().clone()
    }
}

impl BlockDev for MemDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        let data = self.data.read();
        check_bounds(off, buf.len(), data.len() as u64)?;
        let off = off as usize;
        buf.copy_from_slice(&data[off..off + buf.len()]);
        Ok(())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut data = self.data.write();
        let (off, len) = (off as usize, data.len());
        let end = off + buf.len();
        if end <= len {
            data[off..end].copy_from_slice(buf);
            return Ok(());
        }
        // Past the end: reserve the whole growth at once, so capacity grows
        // as `Vec::resize` grows it, then write each byte once: the part of
        // `buf` inside the device, zeroes for any gap, the rest appended.
        data.reserve(end - len);
        let kept = len.saturating_sub(off);
        data[off.min(len)..].copy_from_slice(&buf[..kept]);
        data.resize(off.max(len), 0);
        data.extend_from_slice(&buf[kept..]);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.data.write().resize(len as usize, 0);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn describe(&self) -> String {
        format!("mem({} B)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockErrorKind;

    #[test]
    fn write_grows_and_zero_fills_gap() {
        let dev = MemDev::new();
        dev.write_at(b"xy", 10).unwrap();
        assert_eq!(dev.len(), 12);
        let mut buf = [1u8; 12];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..10], &[0; 10]);
        assert_eq!(&buf[10..], b"xy");
    }

    #[test]
    fn write_straddling_the_end_keeps_the_head_and_appends_the_rest() {
        let dev = MemDev::from_vec(vec![9; 8]);
        dev.write_at(&[1, 2, 3, 4, 5], 6).unwrap();
        assert_eq!(dev.to_vec(), vec![9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5]);
        // Appending exactly at the end leaves no gap to fill.
        dev.write_at(&[7, 7], 11).unwrap();
        assert_eq!(dev.len(), 13);
        assert_eq!(&dev.to_vec()[11..], &[7, 7]);
    }

    #[test]
    fn read_past_end_errors() {
        let dev = MemDev::with_len(4);
        let mut buf = [0u8; 8];
        let err = dev.read_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::OutOfBounds);
    }

    #[test]
    fn empty_write_is_noop_even_past_end() {
        let dev = MemDev::new();
        dev.write_at(&[], 1000).unwrap();
        assert_eq!(dev.len(), 0);
        assert!(dev.is_empty());
    }

    #[test]
    fn set_len_shrinks_and_grows() {
        let dev = MemDev::from_vec(vec![5; 8]);
        dev.set_len(4).unwrap();
        assert_eq!(dev.to_vec(), vec![5; 4]);
        dev.set_len(6).unwrap();
        assert_eq!(dev.to_vec(), vec![5, 5, 5, 5, 0, 0]);
    }

    #[test]
    fn overwrite_in_place() {
        let dev = MemDev::from_vec(vec![0; 8]);
        dev.write_at(&[1, 2, 3], 2).unwrap();
        assert_eq!(dev.to_vec(), vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(dev.len(), 8);
    }

    #[test]
    fn describe_mentions_medium() {
        assert!(MemDev::new().describe().starts_with("mem("));
    }
}
