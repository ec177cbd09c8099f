//! The `vmi-nbd serve` command line: argument checks, and which device an
//! image chain is exported through at each pipeline depth.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

use vmi_blockdev::{FileDev, SharedDev};
use vmi_qcow::{CreateOpts, QcowImage};

const BIN: &str = env!("CARGO_BIN_EXE_vmi-nbd");

#[test]
fn pipeline_zero_is_refused_with_the_usage_line() {
    let out = Command::new(BIN)
        .args(["serve", "--pipeline", "0", "disk=unused.img"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: vmi-nbd serve"), "stderr: {stderr}");
}

/// Serve `path` read-only at pipeline `depth` on an ephemeral port and
/// return the line the server prints for the export.
fn exported_line(path: &Path, depth: &str) -> String {
    let mut child = Command::new(BIN)
        .args(["serve", "--addr", "127.0.0.1:0", "--ro", "--pipeline"])
        .arg(depth)
        .arg(format!("disk={}", path.display()))
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().unwrap()).read_line(&mut line);
    let _ = child.kill();
    child.wait().unwrap();
    read.unwrap();
    line
}

#[test]
fn pipelined_serve_exports_images_through_the_concurrent_driver() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("vmi-nbd-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("disk.img");
    let dev: SharedDev = Arc::new(FileDev::create(&path).unwrap());
    QcowImage::create(dev, CreateOpts::plain(1 << 20), None)
        .unwrap()
        .close()
        .unwrap();
    let pipelined = exported_line(&path, "4");
    assert!(pipelined.contains(" as concurrent(qcow"), "{pipelined}");
    let serial = exported_line(&path, "1");
    assert!(serial.contains(" as qcow"), "{serial}");
}
