//! The per-line lint rules, on top of the [`tokenizer`](super::tokenizer).
//!
//! Only what clippy cannot express lives here. Raw clocks and sleeps and
//! `std` locks are `disallowed-methods` / `disallowed-types` in the root
//! `clippy.toml`; `unwrap`/`expect`/`panic!` are crate-root clippy lints;
//! span events are sealed by `#[non_exhaustive]` in `vmi-obs`.

use super::tokenizer::FileView;
use super::{Finding, ObsTwinRegistry};

/// Every rule the linter knows, in reporting order. The lock-order rules
/// are implemented in [`lockorder`](super::lockorder) but share this
/// registry (and the allowlist machinery).
pub const RULES: [&str; 4] = [
    "obs-twin",
    "qcow-barrier",
    "lock-order",
    "blocking-under-lock",
];

/// Run the per-line rules (`obs-twin` inventory, `qcow-barrier`) over one
/// scanned file.
///
/// `rel` is the root-relative path (forward slashes), `raw_lines` the
/// original source lines (for `line_text` used by allowlist matching).
pub fn scan_file(
    rel: &str,
    crate_name: &str,
    view: &FileView,
    raw_lines: &[&str],
    findings: &mut Vec<Finding>,
    pub_fns: &mut ObsTwinRegistry,
) {
    for (i, lv) in view.lines.iter().enumerate() {
        if lv.in_test {
            continue;
        }
        let line_no = i + 1;
        let code = lv.code.as_str();
        let inline_allow = |rule: &str| lv.comment.contains(&format!("lint:allow({rule})"));

        // Collect the pub fn inventory.
        if let Some(name) = pub_fn_name(code.trim()) {
            pub_fns.0.push(name.to_string());
            if name.ends_with("_with_obs") && !inline_allow("obs-twin") {
                pub_fns.1.push((rel.to_string(), line_no, name.to_string()));
            }
        }

        if crate_name == "vmi-qcow" && code.contains(".flush()") && !inline_allow("qcow-barrier") {
            findings.push(Finding {
                rule: "qcow-barrier",
                path: rel.to_string(),
                line_no,
                message: "direct `.flush()` in vmi-qcow; order metadata through \
                          `QcowImage::barrier` (or justify with an allow entry)"
                    .to_string(),
                line_text: raw_lines.get(i).copied().unwrap_or("").to_string(),
            });
        }
    }
}

/// Cross-file pass for `obs-twin`: every `pub fn *_with_obs` needs a
/// delegating non-obs twin somewhere in the same crate.
pub fn check_obs_twins(registry: &ObsTwinRegistry, findings: &mut Vec<Finding>) {
    let (names, with_obs) = registry;
    for (path, line_no, name) in with_obs {
        let base = name.trim_end_matches("_with_obs");
        if !names.iter().any(|n| n == base) {
            findings.push(Finding {
                rule: "obs-twin",
                path: path.clone(),
                line_no: *line_no,
                message: format!(
                    "pub fn {name} has no delegating non-obs twin `pub fn {base}` in this crate"
                ),
                line_text: String::new(),
            });
        }
    }
}

fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.strip_prefix("pub fn ").or_else(|| {
        code.strip_prefix("pub const fn ")
            .or_else(|| code.strip_prefix("pub async fn "))
    })?;
    let end = rest.find(|c: char| !c.is_alphanumeric() && c != '_')?;
    (end > 0).then(|| &rest[..end])
}
