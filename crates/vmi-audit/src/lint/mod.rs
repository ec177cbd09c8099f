//! Source-level lint engine for the workspace (`vmi-lint` is the thin CLI).
//!
//! Three layers:
//!
//! * [`tokenizer`] — dependency-free lexical scanner (strings, nested block
//!   comments, attributes, brace/`cfg(test)`/`fn` scope tracking);
//! * [`rules`] — the per-line rules (`obs-twin`, `qcow-barrier`) on top
//!   of it;
//! * [`lockorder`] — the interprocedural lock-order analyzer driven by
//!   `LOCK_ORDER.toml` (`lock-order`, `blocking-under-lock`).
//!
//! The engine keeps only what clippy cannot express. Raw clocks, raw
//! sleeps and `std` locks are `disallowed-methods` / `disallowed-types` in
//! the root `clippy.toml`, `unwrap`/`expect`/`panic!` are crate-root clippy
//! lints, and `vmi-obs` seals its span events with `#[non_exhaustive]`.
//! Their exemptions are `#[expect(..., reason = "...")]` at each site.
//!
//! [`run`] emits findings as text or `--json` objects. Exceptions are
//! allowlist lines (`rule:path-substring:line-substring`) or inline
//! `lint:allow(rule)` comments. Exit codes: 0 clean, 1 findings, 2
//! usage/I-O error. `--strict` turns stale allowlist entries from
//! warnings into failures.

pub mod lockorder;
pub mod rules;
pub mod tokenizer;
pub mod toml;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

pub use rules::RULES;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Root-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line_no: usize,
    /// Human-readable message.
    pub message: String,
    /// Raw source line, used for allowlist `line-substring` matching.
    pub line_text: String,
}

/// Per-crate registry for the obs-twin rule: the crate's `pub fn` names and
/// every `*_with_obs` definition as `(file, line, name)`.
pub type ObsTwinRegistry = (Vec<String>, Vec<(String, usize, String)>);

#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path_sub: String,
    line_sub: String,
    /// Set when the entry matched at least one finding (unused entries are
    /// reported so the allowlist cannot silently rot).
    used: Cell<bool>,
}

/// Configuration for one lint run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (holds `crates/`).
    pub root: PathBuf,
    /// Allowlist file; defaults to `<root>/.vmi-lint.allow`.
    pub allow_path: Option<PathBuf>,
    /// Lock-order manifest; defaults to `<root>/LOCK_ORDER.toml`. The
    /// lock-order rules are skipped when the file does not exist.
    pub manifest_path: Option<PathBuf>,
    /// Emit findings as JSON lines instead of text.
    pub json: bool,
    /// Stale allowlist entries become failures instead of warnings.
    pub strict: bool,
}

impl Options {
    /// Defaults rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Options {
            root: root.into(),
            allow_path: None,
            manifest_path: None,
            json: false,
            strict: false,
        }
    }
}

/// Result of a lint run: the process exit code plus the exact stdout /
/// stderr text the CLI should print.
#[derive(Debug)]
pub struct Outcome {
    /// 0 clean, 1 findings (or stale allows under strict), 2 usage/IO error.
    pub exit: u8,
    /// Findings / clean summary.
    pub stdout: String,
    /// Warnings and error messages.
    pub stderr: String,
    /// Findings that were reported (not allowlisted), sorted.
    pub reported: Vec<Finding>,
}

impl Outcome {
    fn error(msg: String) -> Outcome {
        Outcome {
            exit: 2,
            stdout: String::new(),
            stderr: msg,
            reported: Vec::new(),
        }
    }
}

/// Run the full lint + lock-order pass.
pub fn run(opts: &Options) -> Outcome {
    let root = &opts.root;
    let allow_file = opts
        .allow_path
        .clone()
        .unwrap_or_else(|| root.join(".vmi-lint.allow"));
    let allow = match load_allowlist(&allow_file) {
        Ok(a) => a,
        Err(e) => {
            return Outcome::error(format!(
                "vmi-lint: cannot read {}: {e}\n",
                allow_file.display()
            ))
        }
    };

    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Outcome::error(format!(
            "vmi-lint: {} is not a directory\n",
            crates_dir.display()
        ));
    }
    let mut files = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => return Outcome::error(format!("vmi-lint: {e}\n")),
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files);
        }
    }
    files.sort();

    // Scan every file once; keep the views for the lock-order pass.
    struct Scanned {
        rel: String,
        krate: String,
        text: String,
        view: tokenizer::FileView,
    }
    let mut scanned: Vec<Scanned> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut pub_fns: BTreeMap<String, ObsTwinRegistry> = BTreeMap::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = rel.split('/').nth(1).unwrap_or("").to_string();
        let text = match fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => return Outcome::error(format!("vmi-lint: cannot read {rel}: {e}\n")),
        };
        let view = tokenizer::scan(&text);
        let raw_lines: Vec<&str> = text.lines().collect();
        let entry = pub_fns.entry(crate_name.clone()).or_default();
        rules::scan_file(&rel, &crate_name, &view, &raw_lines, &mut findings, entry);
        scanned.push(Scanned {
            rel,
            krate: crate_name,
            text,
            view,
        });
    }

    // obs-twin closes over the whole crate: the twin may live in another
    // module of the same crate.
    for registry in pub_fns.values() {
        rules::check_obs_twins(registry, &mut findings);
    }

    // Lock-order analysis, when a manifest is present.
    let manifest_file = opts
        .manifest_path
        .clone()
        .unwrap_or_else(|| root.join("LOCK_ORDER.toml"));
    if manifest_file.exists() {
        let text = match fs::read_to_string(&manifest_file) {
            Ok(t) => t,
            Err(e) => {
                return Outcome::error(format!(
                    "vmi-lint: cannot read {}: {e}\n",
                    manifest_file.display()
                ))
            }
        };
        let manifest = match lockorder::Manifest::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                return Outcome::error(format!("vmi-lint: {}: {e}\n", manifest_file.display()))
            }
        };
        let raw_per_file: Vec<Vec<&str>> =
            scanned.iter().map(|s| s.text.lines().collect()).collect();
        let sources: Vec<lockorder::SourceFile<'_>> = scanned
            .iter()
            .zip(&raw_per_file)
            .map(|(s, raw)| lockorder::SourceFile {
                rel: &s.rel,
                krate: &s.krate,
                view: &s.view,
                raw_lines: raw,
            })
            .collect();
        for f in lockorder::analyze(&manifest, &sources) {
            // Honour inline `lint:allow(rule)` at the site line, matching
            // the per-line rules.
            let inline = scanned
                .iter()
                .find(|s| s.rel == f.path)
                .and_then(|s| s.view.lines.get(f.line_no.saturating_sub(1)))
                .is_some_and(|lv| lv.comment.contains(&format!("lint:allow({})", f.rule)));
            if !inline {
                findings.push(f);
            }
        }
    }

    // Allowlist filtering and output, bit-compatible with the historical
    // binary.
    let mut stdout = String::new();
    let mut stderr = String::new();
    let mut reported: Vec<Finding> = Vec::new();
    findings.sort_by(|a, b| (&a.path, a.line_no).cmp(&(&b.path, b.line_no)));
    for f in &findings {
        if let Some(a) = allow.iter().find(|a| {
            a.rule == f.rule && f.path.contains(&a.path_sub) && f.line_text.contains(&a.line_sub)
        }) {
            a.used.set(true);
            continue;
        }
        if opts.json {
            let _ = writeln!(
                stdout,
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                f.rule,
                f.path,
                f.line_no,
                f.message.replace('"', "\\\"")
            );
        } else {
            let _ = writeln!(
                stdout,
                "{}:{}: [{}] {}",
                f.path, f.line_no, f.rule, f.message
            );
        }
        reported.push(f.clone());
    }
    let mut stale = 0usize;
    for a in &allow {
        if !a.used.get() {
            stale += 1;
            if opts.strict {
                let _ = writeln!(
                    stderr,
                    "vmi-lint: error: allowlist entry `{}:{}:{}` matched nothing (stale \
                     entries are fatal under --strict)",
                    a.rule, a.path_sub, a.line_sub
                );
            } else {
                let _ = writeln!(
                    stderr,
                    "vmi-lint: warning: allowlist entry `{}:{}:{}` matched nothing (stale?)",
                    a.rule, a.path_sub, a.line_sub
                );
            }
        }
    }
    let exit = if !reported.is_empty() {
        let _ = writeln!(stderr, "vmi-lint: {} finding(s)", reported.len());
        1
    } else if opts.strict && stale > 0 {
        let _ = writeln!(
            stderr,
            "vmi-lint: {stale} stale allowlist entr{}",
            ies(stale)
        );
        1
    } else {
        if !opts.json {
            let _ = writeln!(
                stdout,
                "vmi-lint: clean ({} files, {} rules, {} allowlisted)",
                files.len(),
                RULES.len(),
                findings.len() - reported.len()
            );
        }
        0
    };
    Outcome {
        exit,
        stdout,
        stderr,
        reported,
    }
}

fn ies(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn load_allowlist(path: &Path) -> std::io::Result<Vec<AllowEntry>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for line in fs::read_to_string(path)?.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, ':');
        let (Some(rule), Some(path_sub), Some(line_sub)) =
            (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        out.push(AllowEntry {
            rule: rule.trim().to_string(),
            path_sub: path_sub.trim().to_string(),
            line_sub: line_sub.trim().to_string(),
            used: Cell::new(false),
        });
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
