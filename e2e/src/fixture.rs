//! Inputs of a run, all derived from `--seed`: the boot trace, the base
//! image holding the oracle pattern, the warm cache container, and the
//! oracle that says what every guest read must return.

use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, BlockError, FileDev, Result, SharedDev};
use vmi_cluster::deploy::{build_chain, ChainSpec, Mode, Placement};
use vmi_obs::Obs;
use vmi_qcow::{CreateOpts, QcowImage};
use vmi_trace::{BootTrace, OpKind, RangeSet, VmiProfile, SECTOR};

/// Cluster size of every cache image: the paper's final choice, 512 B.
pub const CACHE_CLUSTER_BITS: u32 = 9;

pub fn bench_err(msg: impl Into<String>) -> BlockError {
    BlockError::corrupt(msg)
}

/// A private directory beside the benchmark's executable, which is inside
/// the checkout. Removed on drop, so on error paths too.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let parent = exe.parent().unwrap_or(Path::new("."));
        // The id keeps concurrent test threads of one process apart.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = parent.join(format!("e2e-scratch-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The medium of every container the benchmark writes: a `FileDev` whose
/// flush succeeds without `sync_data`. The program keeps its own flush
/// policy (`barrier()` → `flush`), and `SpanDev` counts each flush; what is
/// left out is the latency of the sandbox's virtual disk, which is noise
/// here and not the program's (a file on tmpfs would behave the same, and
/// the benchmark may not leave its checkout to use one).
///
/// For the same reason a container is always a new file, and is never
/// truncated while empty: ext4 writes a file out when it is closed after a
/// truncation to nothing (`auto_da_alloc`), and discards the blocks when the
/// file goes, which put a gigabyte of disk traffic and its kernel threads
/// beside every ten seconds of `guest_rw`.
pub struct UnsyncedFile(FileDev);

impl UnsyncedFile {
    pub fn create(path: &Path) -> Result<SharedDev> {
        let _ = std::fs::remove_file(path);
        Ok(Arc::new(Self(FileDev::create(path)?)))
    }

    pub fn open(path: &Path) -> Result<SharedDev> {
        Ok(Arc::new(Self(FileDev::open(path)?)))
    }
}

impl BlockDev for UnsyncedFile {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        self.0.read_at(buf, off)
    }
    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        self.0.write_at(buf, off)
    }
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn set_len(&self, len: u64) -> Result<()> {
        if len == self.0.len() {
            return Ok(());
        }
        self.0.set_len(len)
    }
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    fn describe(&self) -> String {
        self.0.describe()
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded stream behind `guest_rw`'s choices.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// What a guest read must return: a pure function of the byte's offset,
/// written into the base image at set-up, xor-ed with the number of times
/// the guest has written the sector since.
pub struct Oracle {
    key: u64,
    versions: HashMap<u64, u8>,
}

impl Oracle {
    pub fn new(key: u64) -> Self {
        Self {
            key,
            versions: HashMap::new(),
        }
    }

    fn fill_sector(&self, sector: &mut [u8], off: u64, version: u8) {
        let splat = u64::from_ne_bytes([version; 8]);
        for (i, word) in sector.chunks_exact_mut(8).enumerate() {
            let w = mix((off / 8 + i as u64) ^ self.key) ^ splat;
            word.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// The bytes the guest must currently see at `[off, off + buf.len())`.
    pub fn expected(&self, buf: &mut [u8], off: u64) {
        for (i, sector) in buf.chunks_exact_mut(SECTOR as usize).enumerate() {
            let at = off + i as u64 * SECTOR;
            let version = self.versions.get(&(at / SECTOR)).copied().unwrap_or(0);
            self.fill_sector(sector, at, version);
        }
    }

    /// Fill `buf` with the payload of the guest's next write at `off` and
    /// remember it.
    pub fn next_write(&mut self, buf: &mut [u8], off: u64) {
        for (i, sector) in buf.chunks_exact_mut(SECTOR as usize).enumerate() {
            let at = off + i as u64 * SECTOR;
            let v = self.versions.entry(at / SECTOR).or_insert(0);
            *v = v.wrapping_add(1);
            let version = *v;
            self.fill_sector(sector, at, version);
        }
    }

    /// Whether `got`, read at `off`, is what the guest must see.
    pub fn matches(&self, got: &[u8], off: u64, scratch: &mut Vec<u8>) -> bool {
        scratch.resize(got.len(), 0);
        self.expected(scratch, off);
        scratch.as_slice() == got
    }

    /// Make the oracle disagree with the images (used to test that a wrong
    /// read is reported).
    pub fn corrupt(&mut self) {
        self.key ^= 1;
    }
}

/// One guest request of the trace, think time stripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestOp {
    pub write: bool,
    pub off: u64,
    pub len: u32,
}

pub struct Fixture {
    pub profile: VmiProfile,
    pub seed: u64,
    /// The boot trace's requests, in order.
    pub ops: Vec<GuestOp>,
    /// Bytes the trace reads, re-reads included.
    pub read_bytes: u64,
    /// Unique bytes the trace reads: the working set.
    pub ws_bytes: u64,
    /// Quota of the warm cache and of `boot_cold`'s cache: 4 x working set.
    pub roomy_quota: u64,
    /// Time of `vmi_trace::generate` alone, within set-up.
    pub trace_gen_ms: f64,
    base_path: PathBuf,
    warm_path: PathBuf,
}

impl Fixture {
    /// Generate the trace, write the base image and boot once through a
    /// cold cache to make the warm cache container.
    pub fn build(scratch: &Scratch, profile: &VmiProfile, seed: u64) -> Result<Self> {
        let started = Instant::now();
        let trace = vmi_trace::generate(profile, seed);
        let trace_gen_ms = started.elapsed().as_secs_f64() * 1e3;
        let ops = guest_ops(&trace)?;
        let mut read_set = RangeSet::new();
        for op in ops.iter().filter(|o| !o.write) {
            read_set.insert(op.off, op.off + op.len as u64);
        }
        let ws_bytes = read_set.covered();
        let fx = Self {
            profile: profile.clone(),
            seed,
            read_bytes: trace.read_bytes(),
            ws_bytes,
            roomy_quota: 4 * ws_bytes,
            trace_gen_ms,
            ops,
            base_path: scratch.path("base.img"),
            warm_path: scratch.path("warm.img"),
        };
        fx.write_base(&read_set)?;
        fx.write_warm_cache()?;
        Ok(fx)
    }

    pub fn oracle(&self) -> Oracle {
        Oracle::new(mix(self.seed))
    }

    /// The base image holds the oracle pattern wherever the trace reads.
    fn write_base(&self, read_set: &RangeSet) -> Result<()> {
        let dev = UnsyncedFile::create(&self.base_path)?;
        let img = QcowImage::create(dev, CreateOpts::plain(self.profile.virtual_size), None)?;
        let oracle = self.oracle();
        let mut buf = vec![0u8; 1 << 20];
        for (start, end) in read_set.iter() {
            let mut off = start;
            while off < end {
                let n = buf.len().min((end - off) as usize);
                oracle.expected(&mut buf[..n], off);
                img.write_at(&buf[..n], off)?;
                off += n as u64;
            }
        }
        img.close()
    }

    /// The base image, opened read-only as the storage node holds it.
    pub fn open_base(&self) -> Result<Arc<QcowImage>> {
        let dev: SharedDev = Arc::new(FileDev::open_read_only(&self.base_path)?);
        QcowImage::open(dev, None, true)
    }

    /// Boot a sample VM over an empty cache, as the paper's deployment does
    /// when an image is registered (§3.2), and keep the cache container.
    fn write_warm_cache(&self) -> Result<()> {
        let chain = build_chain(ChainSpec {
            mode: Mode::ColdCache {
                placement: Placement::ComputeDisk,
                quota: self.roomy_quota,
                cluster_bits: CACHE_CLUSTER_BITS,
            },
            profile: &self.profile,
            base_dev: self.open_base()?,
            cache_dev: Some(UnsyncedFile::create(&self.warm_path)?),
            cow_dev: UnsyncedFile::create(&self.warm_path.with_extension("cow"))?,
            cache_read_only: false,
            obs: Obs::disabled(),
        })?;
        let mut buf = vec![0u8; 1 << 20];
        for op in &self.ops {
            let b = &mut buf[..op.len as usize];
            if op.write {
                chain.write_at(b, op.off)?;
            } else {
                chain.read_at(b, op.off)?;
            }
        }
        cache_layer(&chain)?.close()
    }

    /// A private copy of the warm cache container at `to`.
    pub fn copy_warm_cache(&self, to: &Path) -> Result<()> {
        std::fs::copy(&self.warm_path, to)?;
        Ok(())
    }

    /// Whether the container at `copy` still holds the warm cache's bytes.
    pub fn warm_cache_unchanged(&self, copy: &Path) -> Result<bool> {
        let mut files = [File::open(&self.warm_path)?, File::open(copy)?];
        if files[0].metadata()?.len() != files[1].metadata()?.len() {
            return Ok(false);
        }
        let mut bufs = [vec![0u8; 1 << 20], vec![0u8; 1 << 20]];
        loop {
            let n = files[0].read(&mut bufs[0])?;
            if n == 0 {
                return Ok(true);
            }
            files[1].read_exact(&mut bufs[1][..n])?;
            if bufs[0][..n] != bufs[1][..n] {
                return Ok(false);
            }
        }
    }

    pub fn warm_cache_bytes(&self) -> Result<Vec<u8>> {
        Ok(std::fs::read(&self.warm_path)?)
    }
}

/// The cache image under a CoW image built by `build_chain`.
pub fn cache_layer(chain: &QcowImage) -> Result<&QcowImage> {
    chain
        .backing()
        .and_then(|b| b.as_any())
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .filter(|img| img.is_cache())
        .ok_or_else(|| bench_err("chain has no cache layer"))
}

fn guest_ops(trace: &BootTrace) -> Result<Vec<GuestOp>> {
    trace
        .ops
        .iter()
        .map(|op| {
            let aligned = |x: u64| x.is_multiple_of(SECTOR);
            if !aligned(op.offset) || !aligned(op.len as u64) || op.len == 0 {
                return Err(bench_err("trace request is not sector-aligned"));
            }
            Ok(GuestOp {
                write: op.kind == OpKind::Write,
                off: op.offset,
                len: op.len,
            })
        })
        .collect()
}
