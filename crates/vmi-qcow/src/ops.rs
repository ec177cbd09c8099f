//! `qemu-img`-style maintenance operations: `info`, `map`, `check`, `commit`.
//!
//! These are the manipulation entry points §4.2 describes (`qemu-img` "is
//! used for creating and/or manipulating virtualized images"), extended with
//! cache awareness: `info` reports quota/used, `check` validates the cache
//! accounting invariants.

use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, ByteRange, Result};

use crate::image::QcowImage;

/// Structured output of [`info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageInfo {
    /// Virtual disk size in bytes.
    pub virtual_size: u64,
    /// Container file size in bytes (the Table 2 metric for caches).
    pub file_size: u64,
    /// Cluster size in bytes.
    pub cluster_size: u64,
    /// Backing file name if chained.
    pub backing_file: Option<String>,
    /// Cache quota (`None` for plain images).
    pub cache_quota: Option<u64>,
    /// Live cache used size (`None` for plain images).
    pub cache_used: Option<u64>,
    /// Bytes of guest data mapped in this layer.
    pub mapped_bytes: u64,
    /// Whether copy-on-read is still filling.
    pub fill_enabled: bool,
}

impl ImageInfo {
    /// Render in a `qemu-img info`-like textual form.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "virtual size: {} ({} bytes)\n",
            human(self.virtual_size),
            self.virtual_size
        ));
        s.push_str(&format!("disk size: {}\n", human(self.file_size)));
        s.push_str(&format!("cluster_size: {}\n", self.cluster_size));
        if let Some(b) = &self.backing_file {
            s.push_str(&format!("backing file: {b}\n"));
        }
        if let (Some(q), Some(u)) = (self.cache_quota, self.cache_used) {
            s.push_str(&format!(
                "cache quota: {} used: {} ({:.1}%) filling: {}\n",
                human(q),
                human(u),
                100.0 * u as f64 / q as f64,
                if self.fill_enabled { "yes" } else { "stopped" }
            ));
        }
        s.push_str(&format!("mapped: {}\n", human(self.mapped_bytes)));
        s
    }
}

fn human(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Gather [`ImageInfo`] for an open image. `mapped_bytes` comes from the
/// same audit walk as [`check`].
pub fn info(img: &QcowImage) -> ImageInfo {
    let h = img.header();
    let data_clusters = img.audit(&img.state.lock()).data_clusters;
    ImageInfo {
        virtual_size: img.virtual_size(),
        file_size: img.file_size(),
        cluster_size: img.geometry().cluster_size(),
        backing_file: h.backing_file.clone(),
        cache_quota: h.cache.map(|c| c.quota),
        cache_used: h.cache.map(|_| img.cache_used()),
        mapped_bytes: data_clusters * img.geometry().cluster_size(),
        fill_enabled: img.fill_enabled(),
    }
}

/// One extent of the guest address space and where it is served from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapExtent {
    /// Guest byte range.
    pub range: ByteRange,
    /// Chain depth serving it: 0 = this image, 1 = first backing, …;
    /// `None` = unallocated anywhere (reads as zeroes).
    pub depth: Option<usize>,
}

/// Compute the allocation map of a chain, scanning cluster by cluster from
/// the top image. Adjacent clusters with the same source are merged.
pub fn map(img: &QcowImage) -> Result<Vec<MapExtent>> {
    let cs = img.geometry().cluster_size();
    let vsize = img.virtual_size();
    let mut extents: Vec<MapExtent> = Vec::new();
    let mut vba = 0u64;
    while vba < vsize {
        let depth = source_depth(img, vba)?;
        let end = (vba + cs).min(vsize);
        match extents.last_mut() {
            Some(last) if last.depth == depth && last.range.end == vba => {
                last.range.end = end;
            }
            _ => extents.push(MapExtent {
                range: ByteRange { start: vba, end },
                depth,
            }),
        }
        vba = end;
    }
    Ok(extents)
}

/// Depth of the chain layer that would serve `vba` (without triggering any
/// copy-on-read side effects — this probes metadata only).
fn source_depth(img: &QcowImage, vba: u64) -> Result<Option<usize>> {
    if img.is_mapped(vba)? {
        return Ok(Some(0));
    }
    let mut depth = 1usize;
    let mut backing = img.backing().cloned();
    // Walk down through QcowImage layers where possible; a raw backing
    // device is considered fully mapped.
    while let Some(dev) = backing {
        match dev.as_any().and_then(|a| a.downcast_ref::<QcowImage>()) {
            Some(q) => {
                if q.is_mapped(vba)? {
                    return Ok(Some(depth));
                }
                let next = q.backing().cloned();
                depth += 1;
                backing = next;
            }
            None => {
                // Raw base: serves everything within its length.
                return Ok(if vba < dev.len() { Some(depth) } else { None });
            }
        }
    }
    Ok(None)
}

/// Structural check report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of allocated L2 tables.
    pub l2_tables: u64,
    /// Number of allocated data clusters.
    pub data_clusters: u64,
    /// Container clusters that are neither referenced nor queued for reuse
    /// (space discarded in an earlier session; reclaim with
    /// [`compact`]). Leaks are not errors — `qemu-img check` reports them
    /// the same way.
    pub leaked_clusters: u64,
    /// Structural errors found (empty = clean).
    pub errors: Vec<String>,
}

impl CheckReport {
    /// `true` when no errors were found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validate the structural invariants of an image with `vmi-audit`'s walk
/// over its container ([`vmi_audit::audit_image_visit`]): header and L1
/// placement, every L1/L2 entry aligned and inside the container, no
/// container cluster (header and L1 included) referenced twice, no entry
/// mapping past the virtual size, and for cache images the recomputed
/// `used` equal to the live counter and within the quota. Each violation
/// becomes one `errors` line in its `Display` form.
pub fn check(img: &QcowImage) -> Result<CheckReport> {
    let st = img.state.lock();
    let audit = img.audit(&st);
    let free = st.free_clusters.len() as u64;
    drop(st);
    // Leak accounting: clusters in the data area that the tables do not
    // reference and that are not queued for reuse.
    let g = img.geometry();
    let cs = g.cluster_size();
    let data_area_start = cs + g.l1_table_bytes();
    let data_area_clusters = g.align_up(img.file_size()).saturating_sub(data_area_start) / cs;
    Ok(CheckReport {
        l2_tables: audit.l2_tables,
        data_clusters: audit.data_clusters,
        leaked_clusters: data_area_clusters
            .saturating_sub(audit.l2_tables + audit.data_clusters)
            .saturating_sub(free),
        errors: audit.violations.iter().map(ToString::to_string).collect(),
    })
}

/// Compact: rewrite `img` into a fresh container, dropping leaked clusters
/// (space discarded in earlier sessions) and packing data densely. The new
/// image keeps the same geometry, backing name and cache quota; its `used`
/// accounting reflects the compacted layout.
///
/// Returns the reopened, compacted image. `backing` must be the resolved
/// backing device (same as would be passed to [`QcowImage::open`]).
pub fn compact(
    img: &QcowImage,
    new_dev: vmi_blockdev::SharedDev,
    backing: Option<vmi_blockdev::SharedDev>,
) -> Result<Arc<QcowImage>> {
    let h = img.header();
    let opts = crate::image::CreateOpts {
        size: img.virtual_size(),
        cluster_bits: img.geometry().cluster_bits,
        backing_file: h.backing_file.clone(),
        cache_quota: h.cache.map(|c| c.quota).unwrap_or(0),
    };
    let fresh = QcowImage::create(new_dev, opts, backing)?;
    // Mapped ⇒ served locally; the writes allocate densely in the fresh
    // container (quota-checked for cache images — the compacted layout can
    // only be smaller than the source).
    copy_mapped(img, fresh.as_ref())?;
    fresh.close()?;
    Ok(fresh)
}

/// Commit: copy every run mapped in `img` down into its backing image,
/// which must be writable. Returns bytes committed.
pub fn commit(img: &QcowImage) -> Result<u64> {
    let backing = img
        .backing()
        .cloned()
        .ok_or_else(|| BlockError::unsupported("commit: image has no backing file"))?;
    let committed = copy_mapped(img, backing.as_ref())?;
    backing.flush()?;
    Ok(committed)
}

/// Copy every run of guest bytes mapped in `img` to the same guest offsets
/// of `dst`, a run at a time (at most 1 MiB, or one cluster when clusters
/// are larger). Returns the bytes copied.
fn copy_mapped(img: &QcowImage, dst: &dyn BlockDev) -> Result<u64> {
    let mut buf = vec![0u8; (1usize << 20).max(img.geometry().cluster_size() as usize)];
    let mut copied = 0;
    img.for_each_mapped_run(buf.len() as u64, |vba, len| {
        img.read_at(&mut buf[..len], vba)?;
        dst.write_at(&buf[..len], vba)?;
        copied += len as u64;
        Ok(())
    })?;
    Ok(copied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::CreateOpts;
    use std::sync::Arc;
    use vmi_blockdev::MemDev;

    const MB: u64 = 1 << 20;

    fn mem() -> vmi_blockdev::SharedDev {
        Arc::new(MemDev::new())
    }

    #[test]
    fn info_reports_cache_fields() {
        let base = QcowImage::create(mem(), CreateOpts::plain(8 * MB), None).unwrap();
        base.write_at(&[1; 4096], 0).unwrap();
        let cache = QcowImage::create(
            mem(),
            CreateOpts::cache(8 * MB, "b", 4 * MB),
            Some(base as vmi_blockdev::SharedDev),
        )
        .unwrap();
        let mut buf = [0u8; 4096];
        cache.read_at(&mut buf, 0).unwrap();
        let i = info(&cache);
        assert_eq!(i.cache_quota, Some(4 * MB));
        assert!(i.cache_used.unwrap() > 0);
        assert!(i.fill_enabled);
        assert!(i.mapped_bytes >= 4096);
        let text = i.render();
        assert!(text.contains("cache quota"));
        assert!(text.contains("backing file: b"));
    }

    #[test]
    fn info_plain_image_has_no_cache_fields() {
        let img = QcowImage::create(mem(), CreateOpts::plain(MB), None).unwrap();
        let i = info(&img);
        assert_eq!(i.cache_quota, None);
        assert!(!i.render().contains("cache quota"));
    }

    #[test]
    fn check_clean_image() {
        let base = QcowImage::create(mem(), CreateOpts::plain(8 * MB), None).unwrap();
        base.write_at(&[1; 100_000], 50_000).unwrap();
        let rep = check(&base).unwrap();
        assert!(rep.is_clean(), "{:?}", rep.errors);
        assert!(rep.data_clusters >= 2);
    }

    #[test]
    fn check_clean_cache_accounting() {
        let base = QcowImage::create(mem(), CreateOpts::plain(8 * MB), None).unwrap();
        base.write_at(&[1; 300_000], 0).unwrap();
        let cache = QcowImage::create(
            mem(),
            CreateOpts::cache(8 * MB, "b", 4 * MB),
            Some(base as vmi_blockdev::SharedDev),
        )
        .unwrap();
        let mut buf = vec![0u8; 300_000];
        cache.read_at(&mut buf, 0).unwrap();
        let rep = check(&cache).unwrap();
        assert!(rep.is_clean(), "{:?}", rep.errors);
    }

    #[test]
    fn map_reports_layer_depths() {
        let base = QcowImage::create(mem(), CreateOpts::plain(4 * MB), None).unwrap();
        base.write_at(&[1; 65536], 0).unwrap(); // cluster 0 in base
        let cow = QcowImage::create(
            mem(),
            CreateOpts::cow(4 * MB, "b"),
            Some(base as vmi_blockdev::SharedDev),
        )
        .unwrap();
        cow.write_at(&[2; 65536], 65536).unwrap(); // cluster 1 in cow
        let extents = map(&cow).unwrap();
        // cluster 0 ← depth 1 (base), cluster 1 ← depth 0 (cow), rest zero.
        assert_eq!(extents.len(), 3);
        assert_eq!(extents[0].depth, Some(1));
        assert_eq!(extents[0].range.len(), 65536);
        assert_eq!(extents[1].depth, Some(0));
        assert_eq!(extents[2].depth, None);
        assert_eq!(extents[2].range.end, 4 * MB);
    }

    #[test]
    fn map_over_raw_base_marks_backing() {
        let raw: vmi_blockdev::SharedDev = Arc::new(MemDev::from_vec(vec![9u8; (4 * MB) as usize]));
        let cow = QcowImage::create(
            mem(),
            CreateOpts::cow(4 * MB, "raw"),
            Some(Arc::new(vmi_blockdev::ReadOnlyDev::new(raw)) as vmi_blockdev::SharedDev),
        )
        .unwrap();
        let extents = map(&cow).unwrap();
        assert_eq!(extents.len(), 1, "raw base serves everything at one depth");
        assert_eq!(extents[0].depth, Some(1));
    }

    #[test]
    fn commit_pushes_data_down() {
        let base_dev = mem();
        let base = QcowImage::create(base_dev.clone(), CreateOpts::plain(4 * MB), None).unwrap();
        base.write_at(&[1; 1024], 0).unwrap();
        let cow = QcowImage::create(
            mem(),
            CreateOpts::cow(4 * MB, "b"),
            Some(base.clone() as vmi_blockdev::SharedDev),
        )
        .unwrap();
        cow.write_at(&[2; 1024], 0).unwrap();
        cow.write_at(&[3; 512], 2 * MB).unwrap();
        let n = commit(&cow).unwrap();
        assert!(n >= 1024 + 512);
        let mut buf = [0u8; 1024];
        base.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [2; 1024], "committed data visible in backing");
    }

    #[test]
    fn commit_without_backing_fails() {
        let img = QcowImage::create(mem(), CreateOpts::plain(MB), None).unwrap();
        assert!(commit(&img).is_err());
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human(512), "512 B");
        assert_eq!(human(93 * MB), "93.0 MiB");
    }
}
