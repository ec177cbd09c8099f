//! Crafted L2 entries: a closed plain image whose first data entry points
//! far past the container, off a cluster boundary, or at the L1 table.
//! Opening succeeds (L2 tables load lazily), but every read or write
//! through that table fails as `Corrupt`, the container keeps every byte
//! and reopens; `check` still walks the table and reports the entry.
//!
//! Each container sits behind [`Bounded`], which fails any operation ending
//! more than one cluster past the container's starting length, so an entry
//! that escaped the check would fail the test instead of growing the
//! container by hundreds of gigabytes.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, BlockErrorKind, MemDev, Result, SharedDev};
use vmi_qcow::{check, ConcurrentImage, CreateOpts, QcowImage};

const CS: u64 = 64 << 10;

/// Fails every operation that ends past `limit`.
struct Bounded {
    inner: MemDev,
    limit: u64,
}

impl Bounded {
    fn over(raw: Vec<u8>) -> Arc<Self> {
        let limit = raw.len() as u64 + CS;
        Arc::new(Self {
            inner: MemDev::from_vec(raw),
            limit,
        })
    }

    fn bound(&self, off: u64, len: usize) -> Result<()> {
        match off.checked_add(len as u64) {
            Some(end) if end <= self.limit => Ok(()),
            _ => Err(BlockError::out_of_bounds(off, len, self.limit)),
        }
    }
}

impl BlockDev for Bounded {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.bound(off, buf.len())?;
        self.inner.read_at(buf, off)
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.bound(off, buf.len())?;
        self.inner.write_at(buf, off)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.bound(len, 0)?;
        self.inner.set_len(len)
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }
}

/// A closed 1 MiB plain image with 4 KiB of ones at guest 0, its first L2
/// entry replaced by `entry(valid, l1)`, where `valid` is the entry it had
/// and `l1` the L1 table's offset.
fn crafted(entry: impl Fn(u64, u64) -> u64) -> Arc<Bounded> {
    let mem = Arc::new(MemDev::new());
    let img = QcowImage::create(mem.clone() as SharedDev, CreateOpts::plain(1 << 20), None);
    let img = img.unwrap();
    img.write_at(&[1u8; 4096], 0).unwrap();
    let l2_off = img.l1_snapshot()[0] as usize;
    let l1 = img.header().l1_table_offset;
    img.close().unwrap();
    drop(img);
    let mut raw = mem.to_vec();
    let at = &mut raw[l2_off..l2_off + 8];
    let valid = u64::from_be_bytes(at.try_into().unwrap());
    assert_ne!(valid, 0, "guest cluster 0 is mapped");
    at.copy_from_slice(&entry(valid, l1).to_be_bytes());
    Bounded::over(raw)
}

fn assert_refused(entry: impl Fn(u64, u64) -> u64, reported: &str) {
    let corrupt = |res: Result<()>, what: &str| {
        let err = res.unwrap_err();
        assert_eq!(err.kind(), BlockErrorKind::Corrupt, "{what}: {err}");
    };
    let dev = crafted(entry);
    let bytes = dev.inner.to_vec();
    let img = QcowImage::open(dev.clone() as SharedDev, None, false).unwrap();
    let mut buf = [0u8; 512];
    corrupt(img.write_at(&[0xAB; 700], 100), "write");
    corrupt(img.write_at(&[0xAB; 512], 0), "head write");
    corrupt(img.read_at(&mut buf, 0), "read");
    assert!(dev.inner.to_vec() == bytes, "nothing was written");

    let rep = check(&img).unwrap();
    assert!(
        rep.errors.iter().any(|e| e.contains(reported)),
        "check reports the entry: {:?}",
        rep.errors
    );

    // The concurrent warm path loads its own table snapshot.
    let conc = ConcurrentImage::new(img);
    corrupt(conc.read_at(&mut buf, 0), "concurrent read");
    corrupt(conc.write_at(&[0xAB; 700], 100), "concurrent write");
    corrupt(conc.write_at(&[0xAB; 512], 0), "concurrent head write");
    drop(conc);
    assert!(dev.inner.to_vec() == bytes, "nothing was written");
    QcowImage::open(dev as SharedDev, None, false).unwrap();
}

#[test]
fn entry_at_2_pow_57_is_corrupt() {
    assert_refused(
        |_, _| 0x0200_0000_0000_0000,
        "l2_entry_out_of_bounds: L2[0][0]",
    );
}

#[test]
fn entry_at_558_gb_is_corrupt() {
    assert_refused(
        |_, _| 558_000_000_000 / CS * CS,
        "l2_entry_out_of_bounds: L2[0][0]",
    );
}

#[test]
fn unaligned_entry_is_corrupt() {
    assert_refused(|valid, _| valid + 512, "l2_entry_unaligned: L2[0][0]");
}

#[test]
fn entry_at_the_l1_table_is_corrupt() {
    assert_refused(|_, l1| l1, "overlapping_clusters: L2[0][0]");
}
