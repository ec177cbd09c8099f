//! Image-chain construction: the `qemu-img` workflows of §4.4 and the
//! backing-file "flag dance" of §4.3.
//!
//! With plain QCOW2 the deployment flow is: create a CoW image backed by the
//! base, boot from the CoW image. With VMI caches there is one more step:
//! first create a *cache* image (quota, 512 B clusters) backed by the base,
//! then create the CoW image backed by the cache (Fig. 4). This module
//! automates both flows over an abstract [`DevResolver`] so the same code
//! works on host files ([`FsResolver`]), in-memory media and
//! simulator-instrumented devices ([`MapResolver`]).
//!
//! It is the only place a backing-file name becomes an opened layer:
//! [`open_backing`] runs the §4.3 flag dance for every backing, and every
//! layer opened or created here emits one [`Event::ChainOpen`] whose `depth`
//! is its distance from the chain top, so a created chain and the same chain
//! reopened report the same layers.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use vmi_blockdev::{BlockDev, BlockError, FileDev, MemDev, ReadOnlyDev, Result, SharedDev};
use vmi_obs::{met, Event, Obs};

use crate::header::Header;
use crate::image::{CreateOpts, QcowImage};
use crate::recover::open_cache_recovered;

/// Record one layer open/create: bump the counter and emit a
/// [`Event::ChainOpen`]. No-op on a disabled handle.
fn note_open(obs: &Obs, image: &str, kind: &str, writable: bool, depth: usize) {
    obs.count(met::CHAIN_OPENS, 1);
    obs.emit(|| Event::ChainOpen {
        image: image.to_string(),
        kind: kind.to_string(),
        writable,
        depth: depth as u64,
    });
}

/// Classify a decoded header for [`Event::ChainOpen`].
fn layer_kind(header: &Header) -> &'static str {
    if header.is_cache() {
        "cache"
    } else if header.backing_file.is_some() {
        "cow"
    } else {
        "base"
    }
}

/// Maps a backing-file *name* (as stored in a header) to a container device.
///
/// This stands in for the filesystem/NFS namespace: the cluster layer
/// registers each image file under its name (local path or NFS path) and
/// chains resolve through it.
pub trait DevResolver {
    /// Resolve `name` to the device holding that image file.
    fn resolve(&self, name: &str) -> Result<SharedDev>;
}

/// A simple in-memory name → device map (the test/simulation namespace).
pub struct MapResolver {
    map: Mutex<HashMap<String, SharedDev>>,
}

impl Default for MapResolver {
    fn default() -> Self {
        let map = Mutex::new(HashMap::new());
        map.set_rank(parking_lot::lockrank::QCOW_CHAIN);
        Self { map }
    }
}

impl MapResolver {
    /// An empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `dev` under `name`, replacing any previous registration.
    pub fn insert(&self, name: impl Into<String>, dev: SharedDev) {
        self.map.lock().insert(name.into(), dev);
    }

    /// Register a fresh empty [`MemDev`] under `name` and return it.
    pub fn create_mem(&self, name: impl Into<String>) -> SharedDev {
        let dev: SharedDev = Arc::new(MemDev::new());
        self.insert(name, dev.clone());
        dev
    }
}

impl DevResolver for MapResolver {
    fn resolve(&self, name: &str) -> Result<SharedDev> {
        self.map
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| BlockError::unsupported(format!("unknown backing file {name:?}")))
    }
}

/// Resolves backing-file names against a directory on the real filesystem,
/// the way QEMU does: an absolute name as given, a relative one next to the
/// image that names it.
pub struct FsResolver {
    /// Directory that relative backing names are resolved against.
    pub dir: PathBuf,
}

impl FsResolver {
    /// Resolver rooted at the directory containing `image_path`.
    pub fn for_image(image_path: &Path) -> Self {
        Self {
            dir: image_path.parent().unwrap_or(Path::new(".")).to_path_buf(),
        }
    }

    /// The file the backing name `name` denotes.
    pub fn path(&self, name: &str) -> PathBuf {
        if Path::new(name).is_absolute() {
            PathBuf::from(name)
        } else {
            self.dir.join(name)
        }
    }
}

impl DevResolver for FsResolver {
    fn resolve(&self, name: &str) -> Result<SharedDev> {
        let path = self.path(name);
        // The flag dance needs caches writable: open read-write when
        // permitted, falling back to read-only (`open_backing` wraps plain
        // layers read-only regardless).
        match FileDev::open(&path) {
            Ok(dev) => Ok(Arc::new(dev)),
            Err(_) => Ok(Arc::new(FileDev::open_read_only(&path)?)),
        }
    }
}

/// Open the image stored under `name`, recursively opening its backing
/// chain through [`open_backing`]. The top-level image is opened read-write
/// unless `read_only`.
///
/// Every opened layer emits an [`Event::ChainOpen`] at its distance from
/// `name`, and `obs` is attached to each image for read/CoR
/// instrumentation ([`Obs::disabled`] for neither).
pub fn open_chain(
    resolver: &dyn DevResolver,
    name: &str,
    read_only: bool,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    let dev = resolver.resolve(name)?;
    open_layer(resolver, name, dev, read_only, 0, obs)
}

/// Depth guard: a backing loop would otherwise recurse forever.
const MAX_CHAIN_DEPTH: usize = 16;

/// Open the image in `dev`, registered as `name`, `depth` layers below the
/// chain top, with its backing chain below it.
fn open_layer(
    resolver: &dyn DevResolver,
    name: &str,
    dev: SharedDev,
    read_only: bool,
    depth: usize,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    if depth > MAX_CHAIN_DEPTH {
        return Err(BlockError::corrupt("backing chain too deep (loop?)"));
    }
    let header = Header::decode(dev.as_ref() as &dyn BlockDev)?;
    let backing = match &header.backing_file {
        None => None,
        Some(bname) => Some(open_backing(resolver, bname, depth + 1, obs)?),
    };
    note_open(obs, name, layer_kind(&header), !read_only, depth);
    QcowImage::open_with_obs(dev, backing, read_only, obs.clone())
}

/// Resolve `name` and open it as a backing layer `depth` levels below the
/// chain top, applying the §4.3 permission dance:
///
/// > "we first open the backing image with read and write permissions, and
/// > then if we detect that the image is not a cache image, we re-open the
/// > image with read-only permission."
///
/// A cache image opens read-write (copy-on-read warms it), any other image
/// read-only, and a raw (non-image) device is wrapped read-only as a base.
pub fn open_backing(
    resolver: &dyn DevResolver,
    name: &str,
    depth: usize,
    obs: &Obs,
) -> Result<SharedDev> {
    let dev = resolver.resolve(name)?;
    match Header::decode(dev.as_ref() as &dyn BlockDev) {
        Ok(h) => Ok(open_layer(resolver, name, dev, !h.is_cache(), depth, obs)? as SharedDev),
        Err(_) => {
            note_open(obs, name, "raw", false, depth);
            Ok(Arc::new(ReadOnlyDev::new(dev)))
        }
    }
}

/// Create the CoW layer, the chain top, over `backing` named `backing_name`.
fn create_cow(
    backing_name: &str,
    backing: SharedDev,
    cow_dev: SharedDev,
    virtual_size: u64,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    note_open(obs, "cow", "cow", true, 0);
    QcowImage::create_with_obs(
        cow_dev,
        CreateOpts::cow(virtual_size, backing_name),
        Some(backing),
        obs.clone(),
    )
}

/// Create the classic two-layer arrangement: `base ← CoW` (§2, Fig. 1).
/// Returns the opened CoW image ready to hand to a VM.
pub fn create_cow_chain(
    resolver: &dyn DevResolver,
    base_name: &str,
    cow_dev: SharedDev,
    virtual_size: u64,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    let base = open_backing(resolver, base_name, 1, obs)?;
    create_cow(base_name, base, cow_dev, virtual_size, obs)
}

/// Create the paper's three-layer arrangement (§4.4):
/// `base ← cache(quota, 512 B clusters) ← CoW`.
///
/// Step 1: "qemu-img is invoked with a cache quota and pointing to the base
/// image as its backing file." Step 2: "qemu-img is invoked with no cache
/// quota and pointing to the cache image as its backing file."
#[allow(clippy::too_many_arguments)] // mirrors the §4.4 qemu-img invocation
pub fn create_cached_chain(
    resolver: &dyn DevResolver,
    base_name: &str,
    cache_name: &str,
    cache_dev: SharedDev,
    cow_dev: SharedDev,
    virtual_size: u64,
    quota: u64,
    cache_cluster_bits: u32,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    let base = open_backing(resolver, base_name, 2, obs)?;
    note_open(obs, cache_name, "cache", true, 1);
    let cache = QcowImage::create_with_obs(
        cache_dev,
        CreateOpts::cache(virtual_size, base_name, quota).with_cluster_bits(cache_cluster_bits),
        Some(base),
        obs.clone(),
    )?;
    create_cow(cache_name, cache, cow_dev, virtual_size, obs)
}

/// Create a CoW image on top of an *existing, already-warm* cache image
/// registered under `cache_name` (the warm-boot flow: "With a warm cache,
/// there is obviously no need to invoke qemu-img for creating the cache").
pub fn create_cow_over_cache(
    resolver: &dyn DevResolver,
    cache_name: &str,
    cow_dev: SharedDev,
    virtual_size: u64,
    obs: &Obs,
) -> Result<Arc<QcowImage>> {
    let cache = open_backing(resolver, cache_name, 1, obs)?;
    let is_cache = cache
        .as_any()
        .and_then(|a| a.downcast_ref::<QcowImage>())
        .is_some_and(QcowImage::is_cache);
    if !is_cache {
        return Err(BlockError::unsupported(format!(
            "{cache_name:?} is not a cache image"
        )));
    }
    create_cow(cache_name, cache, cow_dev, virtual_size, obs)
}

/// The deployment's warm-boot flow: crash-recover the cache container
/// registered under `cache_name` ([`open_cache_recovered`]), then create a
/// CoW image over it.
///
/// The cache's backing is `base_name` as resolved, neither probed nor
/// wrapped, so building the chain reads nothing below the cache. Returns
/// `Ok(None)`, with no layer recorded as opened, when recovery condemns the
/// cache; the caller then deploys without it.
pub fn create_cow_over_recovered_cache(
    resolver: &dyn DevResolver,
    base_name: &str,
    cache_name: &str,
    cow_dev: SharedDev,
    virtual_size: u64,
    cache_read_only: bool,
    obs: &Obs,
) -> Result<Option<Arc<QcowImage>>> {
    let base = resolver.resolve(base_name)?;
    let cache_dev = resolver.resolve(cache_name)?;
    let Some(cache) = open_cache_recovered(cache_dev, Some(base), cache_read_only, obs.clone())?
    else {
        return Ok(None);
    };
    note_open(obs, cache_name, "cache", !cache_read_only, 1);
    create_cow(cache_name, cache, cow_dev, virtual_size, obs).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn setup_base(resolver: &MapResolver, name: &str, size: u64) -> Arc<QcowImage> {
        let dev = resolver.create_mem(name);
        QcowImage::create(dev, CreateOpts::plain(size), None).unwrap()
    }

    fn mem() -> SharedDev {
        Arc::new(MemDev::new())
    }

    fn no_obs() -> Obs {
        Obs::disabled()
    }

    /// Every [`Event::ChainOpen`] `f` emits, as `image/kind@depth`.
    fn chain_opens<T>(f: impl FnOnce(&Obs) -> T) -> String {
        let (rec, sink) = vmi_obs::RecorderHandle::jsonl();
        drop(f(&rec.attach(Arc::new(vmi_obs::ManualClock::new(0)))));
        let mut opens = String::new();
        for (_, ev) in sink.events() {
            if let Event::ChainOpen {
                image, kind, depth, ..
            } = ev
            {
                opens += &format!("{image}/{kind}@{depth} ");
            }
        }
        opens
    }

    #[test]
    fn created_and_reopened_chains_report_the_same_layers() {
        for raw_base in [true, false] {
            let r = MapResolver::new();
            let base = if raw_base {
                r.create_mem("base").set_len(4 * MB).unwrap();
                "raw"
            } else {
                setup_base(&r, "base", 4 * MB).close().unwrap();
                "base"
            };
            let reopen = || chain_opens(|obs| open_chain(&r, "cow", false, obs).unwrap());

            let cow = r.create_mem("cow");
            let created =
                chain_opens(|obs| create_cow_chain(&r, "base", cow, 4 * MB, obs).unwrap());
            assert_eq!(created, format!("base/{base}@1 cow/cow@0 "));
            assert_eq!(reopen(), created);

            let (cache, cow) = (r.create_mem("cache"), r.create_mem("cow"));
            let created = chain_opens(|obs| {
                create_cached_chain(&r, "base", "cache", cache, cow, 4 * MB, 2 * MB, 9, obs)
                    .unwrap()
            });
            assert_eq!(created, format!("base/{base}@2 cache/cache@1 cow/cow@0 "));
            assert_eq!(reopen(), created);
            let cow = r.create_mem("cow");
            let over =
                chain_opens(|obs| create_cow_over_cache(&r, "cache", cow, 4 * MB, obs).unwrap());
            assert_eq!(over, created);
        }
    }

    #[test]
    fn map_resolver_basics() {
        let r = MapResolver::new();
        assert!(r.resolve("x").is_err());
        let d = r.create_mem("x");
        d.write_at(b"z", 0).unwrap();
        assert_eq!(r.resolve("x").unwrap().len(), 1);
        r.insert("x", Arc::new(MemDev::new()));
        assert_eq!(r.resolve("x").unwrap().len(), 0, "insert replaces");
    }

    #[test]
    fn cow_chain_over_qcow_base() {
        let r = MapResolver::new();
        let base = setup_base(&r, "base.img", 8 * MB);
        base.write_at(&[0xC3; 1000], 5000).unwrap();
        base.close().unwrap();
        drop(base);
        let cow = create_cow_chain(&r, "base.img", mem(), 8 * MB, &no_obs()).unwrap();
        let mut buf = [0u8; 1000];
        cow.read_at(&mut buf, 5000).unwrap();
        assert_eq!(buf, [0xC3; 1000]);
    }

    #[test]
    fn cow_chain_over_raw_base() {
        let r = MapResolver::new();
        let raw = r.create_mem("raw.img");
        raw.set_len(8 * MB).unwrap();
        raw.write_at(&[0x11; 100], 0).unwrap();
        let cow = create_cow_chain(&r, "raw.img", mem(), 8 * MB, &no_obs()).unwrap();
        let mut buf = [0u8; 100];
        cow.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [0x11; 100]);
        // Guest write must not reach the raw base.
        cow.write_at(&[0x22; 100], 0).unwrap();
        let mut raw_buf = [0u8; 100];
        raw.read_at(&mut raw_buf, 0).unwrap();
        assert_eq!(raw_buf, [0x11; 100]);
    }

    #[test]
    fn cached_chain_cold_then_warm() {
        let r = MapResolver::new();
        let base = setup_base(&r, "base.img", 8 * MB);
        base.write_at(&[0x77; 4096], 100 * 1024).unwrap();
        base.close().unwrap();
        drop(base);

        let cache_dev = r.create_mem("cache.img");
        // Cold boot: full three-layer create.
        {
            let cow = create_cached_chain(
                &r,
                "base.img",
                "cache.img",
                cache_dev.clone(),
                mem(),
                8 * MB,
                4 * MB,
                9,
                &no_obs(),
            )
            .unwrap();
            let mut buf = [0u8; 4096];
            cow.read_at(&mut buf, 100 * 1024).unwrap();
            assert_eq!(buf, [0x77; 4096]);
            // Dropping the chain closes the cache and persists `used`.
        }
        // Warm boot: new CoW over the existing cache; the read is a pure
        // cache hit, served without touching the base.
        let cow2 = create_cow_over_cache(&r, "cache.img", mem(), 8 * MB, &no_obs()).unwrap();
        let mut buf = [0u8; 4096];
        cow2.read_at(&mut buf, 100 * 1024).unwrap();
        assert_eq!(buf, [0x77; 4096]);
        let cache = cow2.backing().and_then(|b| b.as_any());
        let cache = cache.and_then(|a| a.downcast_ref::<QcowImage>()).unwrap();
        assert!(cache.is_cache());
        assert_eq!(cache.cor_stats().miss_bytes, 0, "nothing fetched from base");
    }

    #[test]
    fn open_chain_flag_dance_reopens_plain_backing_read_only() {
        let r = MapResolver::new();
        let base = setup_base(&r, "base.img", 4 * MB);
        base.close().unwrap();
        drop(base);
        let cow_dev = r.create_mem("cow.img");
        create_cow_chain(&r, "base.img", cow_dev, 4 * MB, &no_obs())
            .unwrap()
            .close()
            .unwrap();

        let cow = open_chain(&r, "cow.img", false, &no_obs()).unwrap();
        assert!(!cow.is_read_only());
        // Its backing is a QcowImage opened read-only.
        let backing = cow.backing().unwrap();
        assert!(backing.describe().contains("qcow"));
        assert!(
            backing.write_at(&[1], 0).is_err(),
            "plain backing must be read-only"
        );
    }

    #[test]
    fn open_chain_keeps_cache_backing_writable() {
        let r = MapResolver::new();
        let base = setup_base(&r, "base.img", 4 * MB);
        base.write_at(&[5; 512], 0).unwrap();
        base.close().unwrap();
        drop(base);
        let cache_dev = r.create_mem("cache.img");
        let cow_dev = r.create_mem("cow.img");
        create_cached_chain(
            &r,
            "base.img",
            "cache.img",
            cache_dev.clone(),
            cow_dev,
            4 * MB,
            2 * MB,
            9,
            &no_obs(),
        )
        .unwrap();

        let before = cache_dev.len();
        let cow = open_chain(&r, "cow.img", false, &no_obs()).unwrap();
        let mut buf = [0u8; 512];
        cow.read_at(&mut buf, 0).unwrap();
        assert_eq!(buf, [5; 512]);
        assert!(
            cache_dev.len() > before,
            "cache warming must write through reopened chain"
        );
    }

    #[test]
    fn open_chain_detects_backing_loop() {
        let r = MapResolver::new();
        // a backs b backs a.
        let da = r.create_mem("a");
        let db = r.create_mem("b");
        // Build headers by hand via create with placeholder backing, then
        // we simply create images that name each other. create() requires a
        // resolved backing device, so pass the raw dev of the other.
        QcowImage::create(da.clone(), CreateOpts::cow(MB, "b"), Some(db.clone())).unwrap();
        QcowImage::create(db, CreateOpts::cow(MB, "a"), Some(da)).unwrap();
        let err = open_chain(&r, "a", false, &no_obs()).unwrap_err();
        assert!(err.to_string().contains("too deep"));
    }

    #[test]
    fn create_cow_over_non_cache_rejected() {
        let r = MapResolver::new();
        let base = setup_base(&r, "base.img", MB);
        base.close().unwrap();
        drop(base);
        let err = create_cow_over_cache(&r, "base.img", mem(), MB, &no_obs()).unwrap_err();
        assert!(err.to_string().contains("not a cache"));
    }
}
