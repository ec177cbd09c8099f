//! `vmi-nbd` — serve image files over NBD.
//!
//! ```text
//! vmi-nbd serve --addr 127.0.0.1:10809 NAME=PATH [NAME=PATH ...]
//! ```
//!
//! Each `PATH` is opened with its backing chain (the §4.3 flag dance) and
//! exported under `NAME`; with `--pipeline N` for N ≥ 2 an image chain is
//! exported through `ConcurrentImage`, so a connection's N requests in
//! service do not queue on the image's state mutex. Caches opened through
//! a chain keep warming as clients read. Ctrl-C to stop.

use std::path::Path;
use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, FileDev, Result, SharedDev};
use vmi_nbd::NbdServer;
use vmi_obs::Obs;
use vmi_qcow::{open_chain, ConcurrentImage, FsResolver, Header};

fn usage() -> ! {
    eprintln!("usage: vmi-nbd serve [--addr HOST:PORT] [--ro] [--pipeline N] NAME=PATH ...");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("serve") {
        usage();
    }
    let mut addr = "127.0.0.1:10809".to_string();
    let mut read_only = false;
    let mut pipeline = 1usize;
    let mut exports: Vec<(String, String)> = Vec::new();
    let mut iter = args[1..].iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--addr" => {
                addr = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--addr needs a value");
                    std::process::exit(2);
                })
            }
            "--ro" => read_only = true,
            "--pipeline" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => pipeline = n,
                _ => {
                    eprintln!("--pipeline needs a positive integer");
                    usage();
                }
            },
            spec => match spec.split_once('=') {
                Some((name, path)) => exports.push((name.to_string(), path.to_string())),
                None => {
                    eprintln!("export spec must be NAME=PATH, got {spec:?}");
                    std::process::exit(2);
                }
            },
        }
    }
    if exports.is_empty() {
        eprintln!("no exports given");
        std::process::exit(2);
    }

    let server = match NbdServer::start(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    server.set_pipeline_depth(pipeline);
    for (name, path) in &exports {
        match vmi_img_open(path, read_only, pipeline) {
            Ok(dev) => {
                println!("exported {name} <- {path} as {}", dev.describe());
                server.add_export(name.clone(), dev, read_only);
            }
            Err(e) => {
                eprintln!("open {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "serving on {} — attach with: nbd-client or NbdClient::connect",
        server.addr()
    );
    loop {
        #[expect(clippy::disallowed_methods, reason = "parks main while serving")]
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Open `path` as an image chain if it parses as one (wrapped in
/// `ConcurrentImage` when `pipeline` ≥ 2, as `NbdServer::add_image_concurrent`
/// does), else as a raw file.
fn vmi_img_open(path: &str, read_only: bool, pipeline: usize) -> Result<SharedDev> {
    let p = Path::new(path);
    let raw: SharedDev = if read_only {
        Arc::new(FileDev::open_read_only(p)?)
    } else {
        Arc::new(FileDev::open(p)?)
    };
    if Header::decode(raw.as_ref() as &dyn BlockDev).is_err() {
        return Ok(raw);
    }
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| BlockError::unsupported("bad path"))?;
    let img = open_chain(&FsResolver::for_image(p), name, read_only, &Obs::disabled())?;
    Ok(if pipeline > 1 {
        ConcurrentImage::new(img)
    } else {
        img
    })
}
