//! `vmi-img` — the command-line face of the image library.
//!
//! ```text
//! vmi-img create  <path> --size 8G [--cluster 64K] [--backing base.img] [--cache-quota 200M]
//! vmi-img info    <path>
//! vmi-img map     <path>
//! vmi-img check   <path>
//! vmi-img fsck    <path> [--chain] [--deep] [--json]
//! vmi-img commit  <path>
//! vmi-img chain   <base> --stem vm1 --size 8G --quota 200M
//! vmi-img warm    <cache> [--profile centos|debian|windows|tiny] [--seed N]
//! vmi-img make-fixtures <dir>
//! ```

use std::path::PathBuf;
use std::process::exit;

use vmi_img::{create_chain, create_image, open_image, warm_cache, CreateSpec};
use vmi_obs::Obs;
use vmi_trace::VmiProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        exit(2);
    }
    let cmd = args[0].as_str();
    let rest = &args[1..];
    let result = match cmd {
        "create" => cmd_create(rest),
        "info" => cmd_info(rest),
        "map" => cmd_map(rest),
        "check" => cmd_check(rest),
        "fsck" => cmd_fsck(rest),
        "recover" => cmd_recover(rest),
        "make-fixtures" => cmd_make_fixtures(rest),
        "commit" => cmd_commit(rest),
        "compact" => cmd_compact(rest),
        "discard" => cmd_discard(rest),
        "resize" => cmd_resize(rest),
        "rebase" => cmd_rebase(rest),
        "chain" => cmd_chain(rest),
        "warm" => cmd_warm(rest),
        "stats" => cmd_stats(rest),
        "--help" | "-h" | "help" => {
            usage();
            return;
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("vmi-img {cmd}: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!("usage: vmi-img <create|info|map|check|commit|chain|warm> ...");
    eprintln!("  create <path> --size N [--cluster N] [--backing F] [--cache-quota N]");
    eprintln!("  info|map|check|commit|compact <path>");
    eprintln!("  fsck <path> [--chain] [--deep] [--json]   (--deep implies --chain)");
    eprintln!("  recover <path> [--json]   (crash recovery in place; exit 1 on refetch verdict)");
    eprintln!("  discard <path> --off N --len N");
    eprintln!("  resize <path> --size N   (grow only)");
    eprintln!("  rebase <path> [--backing F]   (unsafe rebase; omit --backing to detach)");
    eprintln!("  chain <base> --stem S --size N [--quota N] [--cluster N]");
    eprintln!("  warm <cache> [--profile centos|debian|windows|tiny] [--seed N]");
    eprintln!("  stats <path> [--limit N]   (read pass; Prometheus metrics on stdout)");
    eprintln!("  make-fixtures <dir>   (golden ok-*/bad-* fsck fixtures)");
    eprintln!("sizes accept K/M/G suffixes (powers of two)");
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn parse_size(s: &str) -> Result<u64, Box<dyn std::error::Error>> {
    Ok(vmi_img::parse_size(s)?)
}

fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1).cloned())
}

fn positional(rest: &[String]) -> Result<PathBuf, Box<dyn std::error::Error>> {
    rest.iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .ok_or_else(|| "missing image path".into())
}

fn cmd_create(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let size = parse_size(&flag(rest, "--size").ok_or("--size required")?)?;
    let cluster = match flag(rest, "--cluster") {
        Some(c) => parse_size(&c)?.trailing_zeros(),
        None => vmi_qcow::DEFAULT_CLUSTER_BITS,
    };
    let quota = match flag(rest, "--cache-quota") {
        Some(q) => parse_size(&q)?,
        None => 0,
    };
    let spec = CreateSpec {
        path: path.clone(),
        size,
        cluster_bits: cluster,
        backing: flag(rest, "--backing"),
        cache_quota: quota,
    };
    create_image(&spec)?.close()?;
    println!(
        "created {} ({} bytes virtual{})",
        path.display(),
        size,
        if quota > 0 {
            format!(", cache quota {quota}")
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_info(rest: &[String]) -> CliResult {
    let img = open_image(&positional(rest)?, true, &Obs::disabled())?;
    print!("{}", vmi_qcow::info(&img).render());
    Ok(())
}

fn cmd_map(rest: &[String]) -> CliResult {
    let img = open_image(&positional(rest)?, true, &Obs::disabled())?;
    let extents = vmi_qcow::map(&img)?;
    println!("{:>12} {:>12} {:>8}", "start", "length", "layer");
    for e in extents {
        let layer = match e.depth {
            Some(0) => "this".to_string(),
            Some(d) => format!("back+{d}"),
            None => "zero".to_string(),
        };
        println!("{:>12} {:>12} {:>8}", e.range.start, e.range.len(), layer);
    }
    Ok(())
}

fn cmd_check(rest: &[String]) -> CliResult {
    let img = open_image(&positional(rest)?, true, &Obs::disabled())?;
    let rep = vmi_qcow::check(&img)?;
    println!("L2 tables: {}", rep.l2_tables);
    println!("data clusters: {}", rep.data_clusters);
    if rep.is_clean() {
        println!("No errors were found on the image.");
        Ok(())
    } else {
        for e in &rep.errors {
            eprintln!("ERROR: {e}");
        }
        Err(format!("{} error(s)", rep.errors.len()).into())
    }
}

fn cmd_fsck(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let json = rest.iter().any(|a| a == "--json");
    let deep = rest.iter().any(|a| a == "--deep");
    let chain = deep || rest.iter().any(|a| a == "--chain");

    let (violations, l2_tables, data_clusters) = if chain {
        let devs = vmi_img::collect_chain_devs(&path)?;
        let rep = vmi_audit::audit_chain(&devs, deep);
        let top = rep.layers.first();
        (
            rep.all_violations(),
            top.map_or(0, |l| l.l2_tables),
            top.map_or(0, |l| l.data_clusters),
        )
    } else {
        let dev = vmi_blockdev::FileDev::open_read_only(&path)?;
        let rep = vmi_audit::audit_image(&dev);
        (rep.violations, rep.l2_tables, rep.data_clusters)
    };

    if json {
        let items: Vec<String> = violations.iter().map(|v| v.to_json()).collect();
        println!(
            "{{\"image\":\"{}\",\"clean\":{},\"l2_tables\":{},\"data_clusters\":{},\"violations\":[{}]}}",
            path.display(),
            violations.is_empty(),
            l2_tables,
            data_clusters,
            items.join(",")
        );
    } else {
        println!("L2 tables: {l2_tables}");
        println!("data clusters: {data_clusters}");
        if violations.is_empty() {
            println!("No invariant violations were found.");
        }
        for v in &violations {
            eprintln!("{v}");
            if v.repair != vmi_audit::RepairHint::None {
                eprintln!("    repair: {}", v.repair.describe());
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} violation(s)", violations.len()).into())
    }
}

fn cmd_recover(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let json = rest.iter().any(|a| a == "--json");
    let dev: vmi_blockdev::SharedDev = std::sync::Arc::new(vmi_blockdev::FileDev::open(&path)?);
    let rep = vmi_qcow::recover(&dev);
    if json {
        println!("{}", rep.to_json());
    } else {
        println!(
            "{}: {} ({} repair(s), {} pass(es))",
            path.display(),
            rep.verdict.as_str(),
            rep.verdict.repairs(),
            rep.passes
        );
        for r in &rep.repairs {
            println!("  applied: {r}");
        }
        for v in &rep.remaining {
            eprintln!("  unrepaired: {v}");
        }
    }
    if rep.is_usable() {
        Ok(())
    } else {
        Err("unrecoverable image: refetch from the storage node".into())
    }
}

fn cmd_make_fixtures(rest: &[String]) -> CliResult {
    let dir = positional(rest)?;
    let made = vmi_img::fixtures::make_fixtures(&dir)?;
    for p in &made {
        println!("{}", p.display());
    }
    Ok(())
}

fn cmd_commit(rest: &[String]) -> CliResult {
    let img = open_image(&positional(rest)?, false, &Obs::disabled())?;
    let n = vmi_qcow::commit(&img)?;
    println!("committed {n} bytes into the backing file");
    Ok(())
}

fn cmd_compact(rest: &[String]) -> CliResult {
    use vmi_blockdev::FileDev;
    let path = positional(rest)?;
    let img = open_image(&path, false, &Obs::disabled())?;
    let before = img.file_size();
    // Compact into a sibling file, then swap it into place.
    let tmp = path.with_extension("compact.tmp");
    let new_dev: std::sync::Arc<FileDev> = std::sync::Arc::new(FileDev::create(&tmp)?);
    let backing = img.backing().cloned();
    let compacted = vmi_qcow::compact(&img, new_dev, backing)?;
    let after = compacted.file_size();
    drop(compacted);
    drop(img);
    std::fs::rename(&tmp, &path)?;
    println!(
        "compacted {}: {} -> {} bytes ({:.1}% saved)",
        path.display(),
        before,
        after,
        100.0 * (before.saturating_sub(after)) as f64 / before.max(1) as f64
    );
    Ok(())
}

fn cmd_discard(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let off = parse_size(&flag(rest, "--off").ok_or("--off required")?)?;
    let len = parse_size(&flag(rest, "--len").ok_or("--len required")?)?;
    let img = open_image(&path, false, &Obs::disabled())?;
    let n = img.discard(off, len)?;
    img.close()?;
    println!("discarded {n} cluster(s) in [{off}, {})", off + len);
    Ok(())
}

fn cmd_resize(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let new_size = parse_size(&flag(rest, "--size").ok_or("--size required")?)?;
    let img = open_image(&path, false, &Obs::disabled())?;
    let old = img.virtual_size();
    let grown = img.resize(new_size)?;
    grown.close()?;
    println!("resized {}: {} -> {} bytes", path.display(), old, new_size);
    Ok(())
}

fn cmd_rebase(rest: &[String]) -> CliResult {
    let path = positional(rest)?;
    let img = open_image(&path, false, &Obs::disabled())?;
    let rebased = match flag(rest, "--backing") {
        Some(name) => {
            let resolver = vmi_qcow::FsResolver::for_image(&path);
            let bdev = vmi_qcow::DevResolver::resolve(&resolver, &name)?;
            img.rebase_unsafe(Some(name.clone()), Some(bdev))?
        }
        None => img.rebase_unsafe(None, None)?,
    };
    rebased.close()?;
    println!(
        "rebased {} onto {:?}",
        path.display(),
        rebased.header().backing_file.as_deref().unwrap_or("<none>")
    );
    Ok(())
}

fn cmd_chain(rest: &[String]) -> CliResult {
    let base = positional(rest)?;
    let stem = flag(rest, "--stem").ok_or("--stem required")?;
    let size = parse_size(&flag(rest, "--size").ok_or("--size required")?)?;
    let quota = match flag(rest, "--quota") {
        Some(q) => parse_size(&q)?,
        None => 200 << 20,
    };
    let cluster = match flag(rest, "--cluster") {
        Some(c) => parse_size(&c)?.trailing_zeros(),
        None => 9, // 512 B, the paper's final arrangement
    };
    let cow = create_chain(&base, &stem, size, quota, cluster)?;
    println!("chain ready: boot from {}", cow.display());
    Ok(())
}

fn cmd_stats(rest: &[String]) -> CliResult {
    use vmi_blockdev::BlockDev;
    use vmi_obs::{ManualClock, NullRecorder};

    let path = positional(rest)?;
    let obs = Obs::new(
        std::sync::Arc::new(ManualClock::new(0)),
        std::sync::Arc::new(NullRecorder),
    );
    let img = open_image(&path, true, &obs)?;
    // One sequential read pass through the metrics-instrumented chain:
    // every L2 lookup, cache hit/miss, and backing fetch lands in the
    // registry, which then renders in the Prometheus text format.
    let limit = match flag(rest, "--limit") {
        Some(l) => parse_size(&l)?.min(img.virtual_size()),
        None => img.virtual_size(),
    };
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0u64;
    while off < limit {
        let n = buf.len().min((limit - off) as usize);
        img.read_at(&mut buf[..n], off)?;
        off += n as u64;
    }
    let snap = obs
        .metrics_snapshot()
        .ok_or("metrics snapshot unavailable")?;
    print!("{}", snap.to_prometheus());
    Ok(())
}

fn cmd_warm(rest: &[String]) -> CliResult {
    let cache = positional(rest)?;
    let profile = match flag(rest, "--profile").as_deref() {
        None | Some("centos") => VmiProfile::centos_6_3(),
        Some("debian") => VmiProfile::debian_6_0_7(),
        Some("windows") => VmiProfile::windows_server_2012(),
        Some("tiny") => VmiProfile::tiny_test(),
        Some(other) => return Err(format!("unknown profile {other:?}").into()),
    };
    let seed = flag(rest, "--seed")
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1);
    let (fetched, used) = warm_cache(&cache, &profile, seed)?;
    println!(
        "warmed {}: fetched {:.1} MiB from base, cache uses {:.1} MiB",
        cache.display(),
        fetched as f64 / (1 << 20) as f64,
        used as f64 / (1 << 20) as f64
    );
    Ok(())
}
