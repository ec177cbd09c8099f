//! Bringing an image into existence: `create`, `open`, and the two
//! operations that rewrite the header and reopen (`resize`, `rebase_unsafe`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vmi_audit::TableVisitor;
use vmi_blockdev::{BlockDev, BlockError, Result, SharedDev};
use vmi_obs::Obs;

use crate::header::{CacheExt, Header, VERSION};
use crate::image::{state_rank_for, CreateOpts, MutState, QcowImage, UNALLOCATED};
use crate::l2cache::{default_limit, L2Cache};
use crate::layout::{decode_entries, encode_entries, Geometry};

/// The mapping tables of the last audit walk over a container, decoded by
/// the driver's own [`decode_entries`]: what a warm open needs instead of
/// reading them again. Holds at most the default L2 cache limit of tables,
/// in L1 order.
#[derive(Debug, Default)]
pub(crate) struct TableSeed {
    l1: Vec<u64>,
    l2: Vec<(usize, Vec<u64>)>,
}

impl TableVisitor for TableSeed {
    fn l1(&mut self, raw: &[u8]) {
        // A new walk: the previous one's tables may since have been repaired.
        self.l1 = decode_entries(raw);
        self.l2.clear();
    }

    fn l2(&mut self, l1_index: u64, raw: &[u8]) {
        if self.l2.len() < default_limit(raw.len() as u64) {
            self.l2.push((l1_index as usize, decode_entries(raw)));
        }
    }
}

impl QcowImage {
    /// Assemble an image handle over `dev` from decoded or freshly written
    /// metadata; `fill_enabled` is the initial state of the copy-on-read
    /// latch.
    #[allow(clippy::too_many_arguments)] // the fields create and open set differently
    fn assemble(
        dev: SharedDev,
        header: Header,
        geom: Geometry,
        backing: Option<SharedDev>,
        read_only: bool,
        fill_enabled: bool,
        st: MutState,
        obs: Obs,
    ) -> Arc<Self> {
        let img = Arc::new(Self {
            geom,
            read_only,
            fill_enabled: AtomicBool::new(fill_enabled),
            degraded: AtomicBool::new(false),
            detached: AtomicBool::new(false),
            coalesce: AtomicBool::new(true),
            state: Mutex::new(st),
            header,
            backing,
            dev,
            hit_bytes: AtomicU64::new(0),
            miss_bytes: AtomicU64::new(0),
            fill_bytes: AtomicU64::new(0),
            fill_rejects: AtomicU64::new(0),
            degraded_read_bytes: AtomicU64::new(0),
            obs,
        });
        img.state.set_rank(state_rank_for(img.backing.as_ref()));
        img
    }

    /// Create a fresh image in `dev` (the container device) and open it.
    ///
    /// `backing` is the resolved device for the backing file named in
    /// `opts.backing_file` (pass `None` for a standalone image).
    pub fn create(
        dev: SharedDev,
        opts: CreateOpts,
        backing: Option<SharedDev>,
    ) -> Result<Arc<Self>> {
        Self::create_with_obs(dev, opts, backing, Obs::disabled())
    }

    /// [`QcowImage::create`] with an observability handle attached: events
    /// and metrics from this image's read/CoR path flow into `obs`.
    pub fn create_with_obs(
        dev: SharedDev,
        opts: CreateOpts,
        backing: Option<SharedDev>,
        obs: Obs,
    ) -> Result<Arc<Self>> {
        let geom = Geometry::new(opts.cluster_bits, opts.size)?;
        if opts.backing_file.is_some() != backing.is_some() {
            return Err(BlockError::unsupported(
                "backing name and backing device must be given together",
            ));
        }
        let l1_entries = geom.l1_entries();
        if l1_entries > (64 << 20) {
            return Err(BlockError::unsupported("L1 table too large (>64M entries)"));
        }
        let l1_table_offset = geom.cluster_size(); // cluster 1
        let header = Header {
            version: VERSION,
            cluster_bits: opts.cluster_bits,
            size: opts.size,
            l1_table_offset,
            l1_size: l1_entries as u32,
            backing_file: opts.backing_file,
            cache: (opts.cache_quota > 0).then_some(CacheExt {
                quota: opts.cache_quota,
                used: 0,
            }),
        };
        let encoded = header.encode();
        if encoded.len() as u64 > geom.cluster_size() {
            return Err(BlockError::unsupported(
                "header (incl. backing name) does not fit in one cluster",
            ));
        }
        dev.set_len(0)?;
        dev.write_at(&encoded, 0)?;
        // Zero the L1 table region.
        let l1_bytes = geom.l1_table_bytes();
        let zeros = vec![0u8; (1usize << 20).min(l1_bytes as usize)];
        let mut off = l1_table_offset;
        let l1_end = l1_table_offset + l1_bytes;
        while off < l1_end {
            let n = zeros.len().min((l1_end - off) as usize);
            dev.write_at(&zeros[..n], off)?;
            off += n as u64;
        }
        let eof = l1_end;
        // "size of the header and initial tables" counts toward the quota.
        // A quota smaller than the initial metadata is allowed: the cache
        // simply rejects its first fill with a space error and serves
        // pass-through reads forever after.
        let initial_used = geom.cluster_size() + l1_bytes;
        if header.cache.is_some() {
            Header::update_cache_used(dev.as_ref() as &dyn BlockDev, initial_used)?;
        }
        let st = MutState {
            l1: vec![UNALLOCATED; l1_entries as usize],
            l2: L2Cache::new(&geom),
            eof,
            cache_used: initial_used,
            free_clusters: Vec::new(),
        };
        let fill = header.is_cache();
        let img = Self::assemble(dev, header, geom, backing, false, fill, st, obs);
        // A freshly created image is durable before it is handed out: a
        // crash afterwards can tear later mutations but never the skeleton.
        img.barrier()?;
        Ok(img)
    }

    /// Open an existing image stored in `dev`.
    ///
    /// `backing` must be the resolved device for the header's backing file
    /// (or `None` if the header names none). `read_only` mirrors QEMU's
    /// open flag; the §4.3 "flag dance" lives in [`crate::chain`].
    pub fn open(dev: SharedDev, backing: Option<SharedDev>, read_only: bool) -> Result<Arc<Self>> {
        Self::open_with_obs(dev, backing, read_only, Obs::disabled())
    }

    /// [`QcowImage::open`] with an observability handle attached.
    pub fn open_with_obs(
        dev: SharedDev,
        backing: Option<SharedDev>,
        read_only: bool,
        obs: Obs,
    ) -> Result<Arc<Self>> {
        Self::open_seeded(dev, backing, read_only, obs, TableSeed::default())
    }

    /// [`QcowImage::open_with_obs`] that takes the L1 table and the first
    /// L2 tables from `seed` instead of the device. A seed whose L1 does
    /// not match the header's `l1_size` (the empty one, say) is ignored and
    /// the L1 read as usual. Every check runs on the seeded bytes just as on
    /// read ones. The caller guarantees that nothing wrote the container
    /// after the seed's tables were read.
    pub(crate) fn open_seeded(
        dev: SharedDev,
        backing: Option<SharedDev>,
        read_only: bool,
        obs: Obs,
        seed: TableSeed,
    ) -> Result<Arc<Self>> {
        let header = Header::decode(dev.as_ref() as &dyn BlockDev)?;
        let geom = header.geometry()?;
        if header.backing_file.is_some() && backing.is_none() {
            return Err(BlockError::unsupported(format!(
                "image names backing file {:?} but no backing device was supplied",
                header.backing_file
            )));
        }
        if header.backing_file.is_none() && backing.is_some() {
            return Err(BlockError::unsupported(
                "backing device supplied for standalone image",
            ));
        }
        if header.l1_size as u64 != geom.l1_entries() {
            return Err(BlockError::corrupt(format!(
                "header l1_size {} does not match geometry {}",
                header.l1_size,
                geom.l1_entries()
            )));
        }
        let (l1, l2) = if seed.l1.len() == header.l1_size as usize {
            (seed.l1, seed.l2)
        } else {
            let mut l1_raw = vec![0u8; (header.l1_size as usize) * 8];
            dev.read_at(&mut l1_raw, header.l1_table_offset)
                .map_err(|_| BlockError::corrupt("truncated L1 table"))?;
            (decode_entries(&l1_raw), Vec::new())
        };
        let cluster_size = geom.cluster_size();
        for &e in &l1 {
            if e != UNALLOCATED && (e % cluster_size != 0 || e >= dev.len()) {
                return Err(BlockError::corrupt(format!("invalid L1 entry {e:#x}")));
            }
        }
        let eof = geom.align_up(dev.len());
        let cache_used = header.cache.map(|c| c.used).unwrap_or(0);
        if let Some(c) = &header.cache {
            // Fills never push `used` beyond the quota, but the initial
            // metadata may already exceed a tiny quota; anything beyond both
            // bounds is corruption.
            let initial = cluster_size + geom.l1_table_bytes();
            if c.used > c.quota.max(initial) {
                return Err(BlockError::corrupt("cache used exceeds quota"));
            }
        }
        // The copy-on-read latch describes the image: a read-only handle
        // reports whether the cache has room, and its read path never fills.
        let fill = header
            .cache
            .is_some_and(|c| c.used + 2 * cluster_size <= c.quota);
        let st = MutState {
            l1,
            l2: L2Cache::with_tables(&geom, l2),
            eof,
            cache_used,
            free_clusters: Vec::new(),
        };
        Ok(Self::assemble(
            dev, header, geom, backing, read_only, fill, st, obs,
        ))
    }

    /// Grow the virtual disk to `new_size` (shrinking is not supported —
    /// it would orphan mapped clusters).
    ///
    /// The L1 table must cover the new size; if the existing table is too
    /// small, a larger one is allocated at end-of-file, entries are copied,
    /// and the header is rewritten to point at it (the old table's clusters
    /// become leaks reclaimable by `compact`). The cluster size is fixed at
    /// creation, exactly like `qemu-img resize`.
    pub fn resize(self: &Arc<Self>, new_size: u64) -> Result<Arc<Self>> {
        if self.read_only {
            return Err(BlockError::read_only("resize of read-only image"));
        }
        if new_size < self.geom.virtual_size {
            return Err(BlockError::unsupported(
                "shrinking an image is not supported",
            ));
        }
        if new_size == self.geom.virtual_size {
            return Ok(self.clone());
        }
        let new_geom = Geometry::new(self.geom.cluster_bits, new_size)?;
        let mut st = self.state.lock();
        let new_entries = new_geom.l1_entries() as usize;
        let relocate = new_entries > st.l1.len();
        let new_l1_bytes = new_geom.l1_table_bytes();
        let mut header = self.header.clone();
        header.size = new_size;
        header.l1_size = new_entries as u32;
        if relocate {
            // Relocate the L1 table to a fresh region at end-of-file.
            header.l1_table_offset = st.eof;
        }
        // Every refusal comes before the first write, so a failed resize
        // leaves the container as it was.
        let encoded = header.encode();
        if encoded.len() as u64 > self.geom.cluster_size() {
            return Err(BlockError::unsupported(
                "resized header does not fit its cluster",
            ));
        }
        if relocate {
            // The new table counts toward `used`, which the reopen bounds
            // by the quota or the new initial metadata, whichever is larger.
            if let Some(c) = &header.cache {
                let initial = new_geom.cluster_size() + new_l1_bytes;
                if st.cache_used + new_l1_bytes > c.quota.max(initial) {
                    return Err(self.quota_exhausted(&st));
                }
            }
            let mut raw = encode_entries(&st.l1);
            raw.resize(new_l1_bytes as usize, 0);
            self.dev.write_at(&raw, header.l1_table_offset)?;
            // The new table is durable before the header publishes it.
            self.barrier()?;
            st.eof += new_l1_bytes;
            st.cache_used += new_l1_bytes;
            st.l1.resize(new_entries, UNALLOCATED);
        }
        self.dev.write_at(&encoded, 0)?;
        drop(st);
        self.close()?;
        self.detached.store(true, Ordering::Release);
        // Reopen with the new geometry over the same container + backing.
        QcowImage::open(self.dev.clone(), self.backing.clone(), false)
    }

    /// Rewrite the backing-file *name* in the header without touching any
    /// data — `qemu-img rebase -u` (unsafe rebase). The caller asserts the
    /// new backing has identical content where this image is unallocated.
    ///
    /// Returns the image reopened against `new_backing`.
    pub fn rebase_unsafe(
        self: &Arc<Self>,
        new_name: Option<String>,
        new_backing: Option<SharedDev>,
    ) -> Result<Arc<Self>> {
        if self.read_only {
            return Err(BlockError::read_only("rebase of read-only image"));
        }
        if new_name.is_some() != new_backing.is_some() {
            return Err(BlockError::unsupported(
                "backing name and device must be given together",
            ));
        }
        if self.header.is_cache() && new_backing.is_none() {
            return Err(BlockError::unsupported(
                "a cache image requires a backing image (§3: it recurses to the base)",
            ));
        }
        let mut header = self.header.clone();
        header.backing_file = new_name;
        // Refresh persisted dynamic fields while we rewrite the header.
        if let Some(c) = &mut header.cache {
            c.used = self.cache_used();
        }
        let encoded = header.encode();
        if encoded.len() as u64 > self.geom.cluster_size() {
            return Err(BlockError::unsupported(
                "rebased header does not fit its cluster",
            ));
        }
        self.dev.write_at(&encoded, 0)?;
        self.barrier()?;
        self.detached.store(true, Ordering::Release);
        QcowImage::open(self.dev.clone(), new_backing, false)
    }
}
