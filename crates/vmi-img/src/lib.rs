//! # vmi-img — `qemu-img`-style operations on image files
//!
//! The operational entry points of §4.2/§4.4, usable as a library (this
//! crate) or a CLI (the `vmi-img` binary):
//!
//! * `create` — plain, CoW, or cache image (a non-zero `--cache-quota`
//!   makes it a cache, exactly the §4.3 convention);
//! * `info`, `map`, `check` — inspect a file and its backing chain;
//! * `commit` — push a CoW layer into its (writable) backing file;
//! * `chain` — the §4.4 two-step flow in one command: create
//!   `base ← cache(quota) ← CoW`;
//! * `warm` — warm a cache image by replaying a synthetic boot trace
//!   through it (the §3.2 "boot a sample VM upon registration" flow).
//!
//! Backing files are resolved relative to the image's directory, like QEMU
//! does, by [`vmi_qcow::FsResolver`]; chains open and backings get their
//! §4.3 permissions through `vmi_qcow::chain` alone. All commands work on
//! real files through [`vmi_blockdev::FileDev`].

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, FileDev, Result, SharedDev};
use vmi_obs::Obs;
use vmi_qcow::{open_backing, CreateOpts, FsResolver, QcowImage};

pub mod fixtures;

/// Open the image at `path` together with its backing chain, resolving
/// backing names next to it ([`FsResolver`]). `obs` is attached to every
/// layer, so reads through the returned image feed its metrics registry (the
/// `vmi-img stats` command renders the result via
/// [`vmi_obs::MetricsSnapshot::to_prometheus`]); pass [`Obs::disabled`] for
/// none.
pub fn open_image(path: &Path, read_only: bool, obs: &Obs) -> Result<Arc<QcowImage>> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| BlockError::unsupported("invalid image path"))?;
    vmi_qcow::open_chain(&FsResolver::for_image(path), name, read_only, obs)
}

/// Open `path` and every layer reachable through backing-file names as raw
/// read-only devices, ordered top → base, for [`vmi_audit::audit_chain`].
///
/// This deliberately bypasses the driver's open path: an fsck must be able
/// to look at containers too corrupt for [`open_image`] to accept. Backing
/// names are resolved like the driver resolves them, relative to the layer
/// naming them ([`FsResolver::path`]). A file reached twice yields the
/// *same* `Arc`, so the auditor's device-identity check sees backing cycles;
/// the walk itself stops at the first repeat, and anything deeper than the
/// auditor's depth limit is left for the auditor to condemn.
pub fn collect_chain_devs(path: &Path) -> Result<Vec<SharedDev>> {
    let mut seen: HashMap<PathBuf, SharedDev> = HashMap::new();
    let mut devs: Vec<SharedDev> = Vec::new();
    let mut current = path.to_path_buf();
    loop {
        let canon = std::fs::canonicalize(&current).unwrap_or_else(|_| current.clone());
        if let Some(dev) = seen.get(&canon) {
            devs.push(dev.clone());
            break;
        }
        let dev: SharedDev = Arc::new(FileDev::open_read_only(&current)?);
        seen.insert(canon, dev.clone());
        devs.push(dev.clone());
        if devs.len() > vmi_audit::MAX_CHAIN_DEPTH {
            break;
        }
        match vmi_audit::probe_backing(dev.as_ref() as &dyn BlockDev) {
            Some(name) => current = FsResolver::for_image(&current).path(&name),
            None => break,
        }
    }
    Ok(devs)
}

/// Parameters for [`create_image`].
#[derive(Debug, Clone)]
pub struct CreateSpec {
    /// Path of the new image file.
    pub path: PathBuf,
    /// Virtual size in bytes.
    pub size: u64,
    /// Cluster size (log2).
    pub cluster_bits: u32,
    /// Backing file name (relative names resolve next to the image).
    pub backing: Option<String>,
    /// Cache quota; non-zero creates a cache image.
    pub cache_quota: u64,
}

/// Create an image file on disk; returns the opened image. A backing file
/// opens through [`vmi_qcow::open_backing`], the §4.3 flag dance.
pub fn create_image(spec: &CreateSpec) -> Result<Arc<QcowImage>> {
    let dev: SharedDev = Arc::new(FileDev::create(&spec.path)?);
    let resolver = FsResolver::for_image(&spec.path);
    let backing = spec
        .backing
        .as_deref()
        .map(|name| open_backing(&resolver, name, 1, &Obs::disabled()))
        .transpose()?;
    let opts = CreateOpts {
        size: spec.size,
        cluster_bits: spec.cluster_bits,
        backing_file: spec.backing.clone(),
        cache_quota: spec.cache_quota,
    };
    QcowImage::create(dev, opts, backing)
}

/// The §4.4 two-step chain in one call ([`vmi_qcow::create_cached_chain`]
/// on files): creates `<stem>.cache` and `<stem>.cow` next to `base`,
/// returns the CoW path.
pub fn create_chain(
    base: &Path,
    stem: &str,
    size: u64,
    quota: u64,
    cache_cluster_bits: u32,
) -> Result<PathBuf> {
    let base_name = base
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| BlockError::unsupported("invalid base path"))?;
    let resolver = FsResolver::for_image(base);
    let cache_name = format!("{stem}.cache");
    let cow_path = resolver.path(&format!("{stem}.cow"));
    vmi_qcow::create_cached_chain(
        &resolver,
        base_name,
        &cache_name,
        Arc::new(FileDev::create(resolver.path(&cache_name))?),
        Arc::new(FileDev::create(&cow_path)?),
        size,
        quota,
        cache_cluster_bits,
        &Obs::disabled(),
    )?
    .close()?;
    Ok(cow_path)
}

/// Warm a cache image by replaying a generated boot trace through it
/// (§3.2's sample-VM boot). Returns (bytes fetched from base, cache used).
pub fn warm_cache(
    cache_path: &Path,
    profile: &vmi_trace::VmiProfile,
    seed: u64,
) -> Result<(u64, u64)> {
    let img = open_image(cache_path, false, &Obs::disabled())?;
    if !img.is_cache() {
        return Err(BlockError::unsupported("not a cache image"));
    }
    if img.virtual_size() < profile.virtual_size {
        return Err(BlockError::unsupported(format!(
            "image virtual size {} smaller than profile's {}",
            img.virtual_size(),
            profile.virtual_size
        )));
    }
    let trace = vmi_trace::generate(profile, seed);
    let mut buf = vec![0u8; 1 << 20];
    for op in trace
        .ops
        .iter()
        .filter(|o| o.kind == vmi_trace::OpKind::Read)
    {
        img.read_at(&mut buf[..op.len as usize], op.offset)?;
    }
    let fetched = img.cor_stats().miss_bytes;
    let used = img.cache_used();
    img.close()?;
    Ok((fetched, used))
}

/// Parse a human size: plain bytes, or `K`/`M`/`G` binary suffixes
/// (`512`, `64K`, `200M`, `8G`).
pub fn parse_size(s: &str) -> Result<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let n: u64 = num
        .parse()
        .map_err(|e| BlockError::unsupported(format!("bad size {s:?}: {e}")))?;
    n.checked_mul(mult)
        .ok_or_else(|| BlockError::unsupported(format!("size {s:?} overflows")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vmi-img-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("512").unwrap(), 512);
        assert_eq!(parse_size("64K").unwrap(), 64 << 10);
        assert_eq!(parse_size("200m").unwrap(), 200 << 20);
        assert_eq!(parse_size("8G").unwrap(), 8 << 30);
        assert!(parse_size("abc").is_err());
        assert!(parse_size("99999999999G").is_err(), "overflow rejected");
    }

    #[test]
    fn create_info_roundtrip_on_disk() {
        let d = tmpdir("create");
        let img = create_image(&CreateSpec {
            path: d.join("a.img"),
            size: 16 << 20,
            cluster_bits: 16,
            backing: None,
            cache_quota: 0,
        })
        .unwrap();
        img.write_at(b"persisted", 4096).unwrap();
        img.close().unwrap();
        drop(img);
        let back = open_image(&d.join("a.img"), true, &Obs::disabled()).unwrap();
        let mut buf = [0u8; 9];
        back.read_at(&mut buf, 4096).unwrap();
        assert_eq!(&buf, b"persisted");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn full_chain_flow_on_disk() {
        let d = tmpdir("chain");
        // Raw base.
        let base = FileDev::create(d.join("base.raw")).unwrap();
        base.set_len(16 << 20).unwrap();
        base.write_at(&[0x42; 8192], 1 << 20).unwrap();
        base.flush().unwrap();
        drop(base);

        let cow_path = create_chain(&d.join("base.raw"), "vm1", 16 << 20, 4 << 20, 9).unwrap();
        let cow = open_image(&cow_path, false, &Obs::disabled()).unwrap();
        let mut buf = [0u8; 8192];
        cow.read_at(&mut buf, 1 << 20).unwrap();
        assert_eq!(buf, [0x42; 8192]);
        cow.write_at(&[1; 512], 0).unwrap();
        drop(cow);

        // The cache file persisted its fill; reopen and verify warm read.
        let cache = open_image(&d.join("vm1.cache"), true, &Obs::disabled()).unwrap();
        assert!(cache.is_cache());
        cache.read_at(&mut buf, 1 << 20).unwrap();
        assert_eq!(buf, [0x42; 8192]);
        assert_eq!(cache.cor_stats().miss_bytes, 0, "read must be warm");
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn warm_cache_command_flow() {
        let d = tmpdir("warm");
        let profile = vmi_trace::VmiProfile::tiny_test();
        let base = FileDev::create(d.join("base.raw")).unwrap();
        base.set_len(profile.virtual_size).unwrap();
        base.flush().unwrap();
        drop(base);
        create_chain(&d.join("base.raw"), "vm", profile.virtual_size, 16 << 20, 9).unwrap();
        let (fetched, used) = warm_cache(&d.join("vm.cache"), &profile, 5).unwrap();
        assert!(fetched >= profile.unique_read_bytes / 2);
        assert!(used > profile.unique_read_bytes);
        // Re-warming does nothing new.
        let (fetched2, _) = warm_cache(&d.join("vm.cache"), &profile, 5).unwrap();
        assert_eq!(fetched2, 0);
        std::fs::remove_dir_all(d).unwrap();
    }

    #[test]
    fn warm_on_non_cache_rejected() {
        let d = tmpdir("notcache");
        create_image(&CreateSpec {
            path: d.join("p.img"),
            size: 64 << 20,
            cluster_bits: 16,
            backing: None,
            cache_quota: 0,
        })
        .unwrap()
        .close()
        .unwrap();
        let err = warm_cache(&d.join("p.img"), &vmi_trace::VmiProfile::tiny_test(), 1).unwrap_err();
        assert!(err.to_string().contains("not a cache"));
        std::fs::remove_dir_all(d).unwrap();
    }
}
