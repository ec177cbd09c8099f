//! vmi-lint — project-specific source lints for the vmcache workspace.
//!
//! Thin CLI over [`vmi_audit::lint`]; see that module for the rule list
//! (the per-line `obs-twin` and `qcow-barrier` rules plus the
//! `LOCK_ORDER.toml`-driven `lock-order` and `blocking-under-lock`
//! analysis) and the engine internals.
//!
//! Exceptions live in an allowlist file (default `.vmi-lint.allow` at the
//! scan root), one `rule:path-substring:line-substring` triple per line, or
//! inline as `lint:allow(rule)` in a comment on the offending line. Under
//! `--strict`, allowlist entries that match nothing are failures.
//!
//! Exit status: 0 clean, 1 findings, 2 usage/I-O error.

use std::path::PathBuf;
use std::process::ExitCode;

use vmi_audit::lint;

const USAGE: &str =
    "usage: vmi-lint [--root DIR] [--allowlist FILE] [--manifest FILE] [--json] [--strict]";

fn main() -> ExitCode {
    let mut opts = lint::Options::new(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => opts.root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--allowlist" => match args.next() {
                Some(v) => opts.allow_path = Some(PathBuf::from(v)),
                None => return usage("--allowlist needs a value"),
            },
            "--manifest" => match args.next() {
                Some(v) => opts.manifest_path = Some(PathBuf::from(v)),
                None => return usage("--manifest needs a value"),
            },
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let out = lint::run(&opts);
    print!("{}", out.stdout);
    eprint!("{}", out.stderr);
    ExitCode::from(out.exit)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("vmi-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
