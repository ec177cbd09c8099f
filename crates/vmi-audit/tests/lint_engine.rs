//! Golden corpus for the lint engine: one known-bad snippet per rule, the
//! tokenizer edge cases that used to defeat the line scanner, allowlist /
//! strict / JSON semantics, and the committed lock-order bad fixture. The
//! scanner tests use `qcow-barrier`, the one per-line rule with findings of
//! its own. The rules clippy enforces are checked by the `clippy-bad`
//! fixture instead.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use vmi_audit::lint::{self, Options};

static NEXT: AtomicU32 = AtomicU32::new(0);

/// A scratch workspace root, deleted on drop.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new() -> TempRoot {
        let dir = std::env::temp_dir().join(format!(
            "vmi-lint-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        TempRoot(dir)
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let p = self.0.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, content).unwrap();
        self
    }

    fn run(&self) -> lint::Outcome {
        lint::run(&Options::new(&self.0))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn rules_of(out: &lint::Outcome) -> Vec<&'static str> {
    out.reported.iter().map(|f| f.rule).collect()
}

// ---- per-rule golden snippets ------------------------------------------

#[test]
fn obs_twin_requires_delegating_twin_in_crate() {
    let t = TempRoot::new();
    t.write(
        "crates/x/src/lib.rs",
        "pub fn open_with_obs() -> u32 { 1 }\n",
    );
    let out = t.run();
    assert_eq!(rules_of(&out), ["obs-twin"]);
    assert!(out.reported[0].message.contains("pub fn open"));

    let t2 = TempRoot::new();
    // The twin may live in a different module of the same crate.
    t2.write("crates/x/src/a.rs", "pub fn open_with_obs() -> u32 { 1 }\n");
    t2.write(
        "crates/x/src/b.rs",
        "pub fn open() -> u32 { open_with_obs() }\n",
    );
    assert_eq!(t2.run().exit, 0);
}

#[test]
fn qcow_barrier_fires_only_inside_vmi_qcow() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f(d: &D) { d.flush(); }\n",
    );
    t.write(
        "crates/other/src/lib.rs",
        "pub fn f(d: &D) { d.flush(); }\n",
    );
    let out = t.run();
    assert_eq!(rules_of(&out), ["qcow-barrier"]);
    assert_eq!(out.reported[0].path, "crates/vmi-qcow/src/lib.rs");
}

// ---- tokenizer edge cases ----------------------------------------------

#[test]
fn needles_inside_multiline_raw_strings_do_not_fire() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f() -> &'static str {\n    r#\"first d.flush()\nsecond d.flush()\"#\n}\n",
    );
    assert_eq!(t.run().exit, 0);
}

#[test]
fn needles_inside_nested_block_comments_do_not_fire() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "/* outer /* d.flush() */ still comment d.flush() */\npub fn f() -> u32 { 1 }\n",
    );
    assert_eq!(t.run().exit, 0);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { d.flush(); }\n}\n",
    );
    assert_eq!(t.run().exit, 0);
}

#[test]
fn inline_allow_suppresses_a_finding() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f(d: &D) { d.flush(); } // lint:allow(qcow-barrier)\n",
    );
    assert_eq!(t.run().exit, 0);
}

// ---- allowlist / strict / output semantics ------------------------------

#[test]
fn allowlist_entry_suppresses_and_stale_entry_warns() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f(d: &D) { d.flush(); }\n",
    );
    t.write(
        ".vmi-lint.allow",
        "qcow-barrier:crates/vmi-qcow/src/lib.rs:d.flush()\nqcow-barrier:nowhere.rs:nothing\n",
    );
    let out = t.run();
    assert_eq!(out.exit, 0, "stderr: {}", out.stderr);
    assert!(out.stdout.contains("1 allowlisted"), "{}", out.stdout);
    assert!(
        out.stderr.contains("matched nothing (stale?)"),
        "{}",
        out.stderr
    );
}

#[test]
fn strict_turns_stale_allow_entries_into_failure() {
    let t = TempRoot::new();
    t.write("crates/vmi-qcow/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
    t.write(".vmi-lint.allow", "qcow-barrier:nowhere.rs:nothing\n");
    let mut opts = Options::new(&t.0);
    opts.strict = true;
    let out = lint::run(&opts);
    assert_eq!(out.exit, 1);
    assert!(
        out.stderr.contains("fatal under --strict"),
        "{}",
        out.stderr
    );
    // Without strict the same tree is clean.
    assert_eq!(t.run().exit, 0);
}

#[test]
fn json_output_shape_is_stable() {
    let t = TempRoot::new();
    t.write(
        "crates/vmi-qcow/src/lib.rs",
        "pub fn f(d: &D) { d.flush(); }\n",
    );
    let mut opts = Options::new(&t.0);
    opts.json = true;
    let out = lint::run(&opts);
    assert_eq!(
        out.stdout,
        "{\"rule\":\"qcow-barrier\",\"path\":\"crates/vmi-qcow/src/lib.rs\",\"line\":1,\
         \"message\":\"direct `.flush()` in vmi-qcow; order metadata through \
         `QcowImage::barrier` (or justify with an allow entry)\"}\n"
    );
}

#[test]
fn missing_crates_dir_is_a_usage_error() {
    let t = TempRoot::new();
    assert_eq!(t.run().exit, 2);
}

// ---- lock-order rules ---------------------------------------------------

const TINY_MANIFEST: &str = "\
[class.a]\nrank = 10\nblocking = \"forbid\"\n\
[class.b]\nrank = 20\nblocking = \"allow\"\n\
[[site]]\nclass = \"a\"\npattern = \".a.lock(\"\ncrate = \"x\"\n\
[[site]]\nclass = \"b\"\npattern = \".b.lock(\"\ncrate = \"x\"\n\
[analysis]\nblocking = [\"recv\"]\nstop = [\"drop\"]\n";

#[test]
fn lock_order_inversion_is_detected() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", TINY_MANIFEST);
    t.write(
        "crates/x/src/lib.rs",
        "pub fn f(s: &S) {\n    let g = s.b.lock();\n    let h = s.a.lock();\n}\n",
    );
    let out = t.run();
    assert_eq!(rules_of(&out), ["lock-order"]);
    assert!(
        out.reported[0].message.contains("ascending"),
        "{}",
        out.reported[0].message
    );
    assert_eq!(out.reported[0].line_no, 3);
}

#[test]
fn lock_order_correct_nesting_is_clean() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", TINY_MANIFEST);
    t.write(
        "crates/x/src/lib.rs",
        "pub fn f(s: &S) {\n    let g = s.a.lock();\n    let h = s.b.lock();\n}\n",
    );
    assert_eq!(t.run().exit, 0);
}

#[test]
fn lock_order_inversion_through_a_callee_is_detected() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", TINY_MANIFEST);
    // No direct inversion: the held->acquired edge only exists through the
    // interprocedural fixpoint.
    t.write(
        "crates/x/src/lib.rs",
        "pub fn outer(s: &S) {\n    let g = s.b.lock();\n    helper(s);\n}\n\
         fn helper(s: &S) {\n    let h = s.a.lock();\n}\n",
    );
    let out = t.run();
    assert_eq!(rules_of(&out), ["lock-order"]);
    assert_eq!(out.reported[0].line_no, 3, "flagged at the call site");
}

#[test]
fn lock_order_release_via_drop_and_block_end_is_respected() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", TINY_MANIFEST);
    t.write(
        "crates/x/src/lib.rs",
        "pub fn explicit(s: &S) {\n    let g = s.b.lock();\n    drop(g);\n    let h = s.a.lock();\n}\n\
         pub fn scoped(s: &S) {\n    {\n        let g = s.b.lock();\n    }\n    let h = s.a.lock();\n}\n",
    );
    let out = t.run();
    assert_eq!(out.exit, 0, "{}", out.stdout);
}

#[test]
fn blocking_under_forbid_class_is_detected() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", TINY_MANIFEST);
    t.write(
        "crates/x/src/lib.rs",
        "pub fn f(s: &S, ch: &Receiver) {\n    let g = s.a.lock();\n    ch.recv();\n}\n",
    );
    let out = t.run();
    assert_eq!(rules_of(&out), ["blocking-under-lock"]);
}

#[test]
fn chained_class_may_self_nest() {
    let t = TempRoot::new();
    t.write(
        "LOCK_ORDER.toml",
        "[class.a]\nrank = 10\nchained = true\n\
         [[site]]\nclass = \"a\"\npattern = \".a.lock(\"\ncrate = \"x\"\n",
    );
    t.write(
        "crates/x/src/lib.rs",
        "pub fn f(s: &S, t: &S) {\n    let g = s.a.lock();\n    let h = t.a.lock();\n}\n",
    );
    assert_eq!(t.run().exit, 0);
}

#[test]
fn broken_manifest_is_a_usage_error() {
    let t = TempRoot::new();
    t.write("LOCK_ORDER.toml", "[class.a]\nrank = \"ten\"\n");
    t.write("crates/x/src/lib.rs", "pub fn f() -> u32 { 1 }\n");
    let out = t.run();
    assert_eq!(out.exit, 2);
    assert!(out.stderr.contains("LOCK_ORDER.toml"), "{}", out.stderr);
}

// ---- the committed bad fixture (same tree CI runs) ----------------------

#[test]
fn committed_bad_fixture_trips_the_analyzer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/lockorder-bad");
    let out = lint::run(&Options::new(&root));
    assert_eq!(out.exit, 1);
    let rules = rules_of(&out);
    assert!(rules.contains(&"lock-order"), "{rules:?}");
    assert!(rules.contains(&"blocking-under-lock"), "{rules:?}");
    assert!(
        out.stdout.contains("lock acquisition cycle"),
        "{}",
        out.stdout
    );
    assert!(
        out.stdout.contains("re-acquiring `front`"),
        "{}",
        out.stdout
    );
}

// ---- the real workspace must be clean (the analyzer's acceptance bar) ---

#[test]
fn workspace_lock_order_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = lint::run(&Options::new(&root));
    let lock_findings: Vec<_> = out
        .reported
        .iter()
        .filter(|f| f.rule == "lock-order" || f.rule == "blocking-under-lock")
        .collect();
    assert!(
        lock_findings.is_empty(),
        "workspace lock-order findings: {lock_findings:#?}"
    );
}
