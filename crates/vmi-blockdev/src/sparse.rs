//! Sparse in-memory device for multi-GiB virtual images.
//!
//! A base VMI is "typically sized at several GB" while a boot touches less
//! than 200 MB of it (paper §1). Backing such an image with a contiguous
//! allocation would waste gigabytes per simulated node; [`SparseDev`] stores
//! only pages that have ever been written, reading untouched pages as zero.

use std::collections::HashMap;

use parking_lot::{lockrank, RwLock};

use crate::dev::check_bounds;
use crate::{BlockDev, Result};

/// Power-of-two page size used by the sparse store: 512 B, the smallest
/// QCOW2 cluster, so a 512 B L2-table write into an otherwise all-zero
/// cache container materialises 512 B rather than a much larger page.
pub const SPARSE_PAGE: usize = 512;

#[derive(Debug, Default)]
struct Inner {
    pages: HashMap<u64, Box<[u8; SPARSE_PAGE]>>,
    len: u64,
}

/// A sparse, page-table-backed memory device.
///
/// Unwritten regions read as zeroes. The logical length is tracked
/// explicitly so the device behaves like a file of that size regardless of
/// how many pages are materialized.
#[derive(Debug)]
pub struct SparseDev {
    inner: RwLock<Inner>,
}

impl Default for SparseDev {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseDev {
    /// An empty device of length zero.
    pub fn new() -> Self {
        Self::with_len(0)
    }

    /// A zero device of logical size `len` with no materialized pages.
    pub fn with_len(len: u64) -> Self {
        Self::from_inner(Inner {
            pages: HashMap::new(),
            len,
        })
    }

    fn from_inner(content: Inner) -> Self {
        let inner = RwLock::new(content);
        inner.set_rank(lockrank::DEV_LEAF);
        Self { inner }
    }

    /// Number of pages actually materialized (resident footprint /
    /// `SPARSE_PAGE`).
    pub fn resident_pages(&self) -> usize {
        self.inner.read().pages.len()
    }

    /// Resident bytes (materialized pages × page size).
    pub fn resident_bytes(&self) -> u64 {
        (self.resident_pages() * SPARSE_PAGE) as u64
    }

    /// Deep-copy the device: an independent device with identical content.
    ///
    /// Cheap when the content is mostly zero (only materialized pages are
    /// copied) — used to give every compute node its own private copy of a
    /// warm cache image.
    pub fn fork(&self) -> Self {
        let inner = self.inner.read();
        Self::from_inner(Inner {
            pages: inner.pages.clone(),
            len: inner.len,
        })
    }
}

impl BlockDev for SparseDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        let inner = self.inner.read();
        check_bounds(off, buf.len(), inner.len)?;
        let mut done = 0usize;
        while done < buf.len() {
            let pos = off + done as u64;
            let page_idx = pos / SPARSE_PAGE as u64;
            let in_page = (pos % SPARSE_PAGE as u64) as usize;
            let n = (SPARSE_PAGE - in_page).min(buf.len() - done);
            match inner.pages.get(&page_idx) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
        }
        Ok(())
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        let end = off + buf.len() as u64;
        if end > inner.len {
            inner.len = end;
        }
        let mut done = 0usize;
        while done < buf.len() {
            let pos = off + done as u64;
            let page_idx = pos / SPARSE_PAGE as u64;
            let in_page = (pos % SPARSE_PAGE as u64) as usize;
            let n = (SPARSE_PAGE - in_page).min(buf.len() - done);
            let chunk = &buf[done..done + n];
            // Writing zeroes onto a page that was never materialized is a
            // no-op for content: skip the allocation. This keeps cluster-scale
            // experiments with synthetic all-zero image content at a near-zero
            // resident footprint.
            if !inner.pages.contains_key(&page_idx) && chunk.iter().all(|&b| b == 0) {
                done += n;
                continue;
            }
            let page = inner
                .pages
                .entry(page_idx)
                .or_insert_with(|| Box::new([0u8; SPARSE_PAGE]));
            page[in_page..in_page + n].copy_from_slice(chunk);
            done += n;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.read().len
    }

    fn set_len(&self, len: u64) -> Result<()> {
        let mut inner = self.inner.write();
        if len < inner.len {
            // Drop whole pages past the new end and zero the tail of the
            // boundary page so re-growth exposes zeroes, like a file.
            let boundary_page = len / SPARSE_PAGE as u64;
            let keep_in_boundary = (len % SPARSE_PAGE as u64) as usize;
            inner.pages.retain(|&idx, _| idx <= boundary_page);
            if keep_in_boundary == 0 {
                inner.pages.remove(&boundary_page);
            } else if let Some(p) = inner.pages.get_mut(&boundary_page) {
                p[keep_in_boundary..].fill(0);
            }
        }
        inner.len = len;
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "sparse({} B, {} pages resident)",
            self.len(),
            self.resident_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_regions_read_zero() {
        let dev = SparseDev::with_len(10 << 30); // 10 GiB logical, 0 resident
        assert_eq!(dev.resident_pages(), 0);
        let mut buf = [1u8; 128];
        dev.read_at(&mut buf, 5 << 30).unwrap();
        assert_eq!(buf, [0u8; 128]);
        assert_eq!(dev.resident_pages(), 0, "reads must not materialize pages");
    }

    #[test]
    fn write_spanning_pages_roundtrips() {
        let dev = SparseDev::new();
        let off = SPARSE_PAGE as u64 - 10;
        let data: Vec<u8> = (0..40).map(|i| i as u8 + 1).collect();
        dev.write_at(&data, off).unwrap();
        assert_eq!(dev.resident_pages(), 2);
        let mut back = vec![0u8; 40];
        dev.read_at(&mut back, off).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn shrink_then_grow_exposes_zeroes() {
        let dev = SparseDev::new();
        dev.write_at(&[0xAA; 100], 0).unwrap();
        dev.set_len(50).unwrap();
        dev.set_len(100).unwrap();
        let mut buf = [1u8; 100];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..50], &[0xAA; 50]);
        assert_eq!(&buf[50..], &[0; 50]);
    }

    #[test]
    fn shrink_to_page_boundary_drops_page() {
        let dev = SparseDev::new();
        dev.write_at(&[1; 8], SPARSE_PAGE as u64).unwrap();
        assert_eq!(dev.resident_pages(), 1);
        dev.set_len(SPARSE_PAGE as u64).unwrap();
        assert_eq!(dev.resident_pages(), 0);
    }

    #[test]
    fn big_image_small_footprint() {
        let dev = SparseDev::with_len(8 << 30);
        // Touch 100 spots of 4 KiB each, like a boot's scattered reads-as-writes.
        for i in 0..100u64 {
            dev.write_at(&[7u8; 4096], i * (64 << 20)).unwrap();
        }
        // 100 × 4 KiB, rounded up to whole pages.
        let touched = (100 * 4096u64).div_ceil(SPARSE_PAGE as u64) * SPARSE_PAGE as u64;
        assert!(dev.resident_bytes() <= touched);
        assert_eq!(dev.len(), 8 << 30);
    }

    #[test]
    fn smallest_cluster_write_materialises_one_cluster() {
        let dev = SparseDev::with_len(1 << 20);
        dev.write_at(&[1u8; 512], 4096).unwrap();
        assert_eq!(dev.resident_bytes(), 512);
    }

    #[test]
    fn fork_is_independent() {
        let a = SparseDev::with_len(1 << 20);
        a.write_at(&[5; 100], 0).unwrap();
        let b = a.fork();
        b.write_at(&[9; 100], 0).unwrap();
        let mut buf = [0u8; 100];
        a.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [5; 100], "fork must not alias the original");
        b.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [9; 100]);
        assert_eq!(b.len(), 1 << 20);
    }

    #[test]
    fn zero_writes_do_not_materialize_pages() {
        let dev = SparseDev::new();
        dev.write_at(&[0u8; 4096], 0).unwrap();
        assert_eq!(dev.resident_pages(), 0);
        assert_eq!(dev.len(), 4096);
        // A later nonzero write to the same page still works.
        dev.write_at(&[3u8; 16], 100).unwrap();
        assert_eq!(dev.resident_pages(), 1);
        let mut buf = [9u8; 120];
        dev.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..100], &[0; 100]);
        assert_eq!(&buf[100..116], &[3; 16]);
    }

    #[test]
    fn read_past_logical_end_errors() {
        let dev = SparseDev::with_len(100);
        let mut buf = [0u8; 8];
        assert!(dev.read_at(&mut buf, 96).is_err());
    }
}
