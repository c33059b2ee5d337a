//! End-to-end tests of the `tpu-lint` binary: exit codes, deterministic
//! output, and the `--format json` schema.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Builds a throwaway mini-workspace under `target/` with a DESIGN.md,
/// a docs/ dir, and the given source files.
fn mini_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("reset mini workspace");
    }
    std::fs::create_dir_all(root.join("docs")).expect("mkdir docs");
    std::fs::write(root.join("DESIGN.md"), "# §1 Overview\n\n# §2 Fabric\n").expect("DESIGN.md");
    std::fs::write(root.join("docs/perf.md"), "notes\n").expect("docs/perf.md");
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdirs");
        std::fs::write(&path, contents).expect("write fixture file");
    }
    root
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tpu-lint"))
        .args(args)
        .output()
        .expect("spawn tpu-lint")
}

#[test]
fn clean_workspace_exits_zero() {
    let root = mini_workspace(
        "cli_clean",
        &[(
            "crates/net/src/lib.rs",
            "//! See DESIGN.md §2.\nfn f() -> u32 { 1 }\n",
        )],
    );
    let out = run_lint(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn violations_exit_one_with_deterministic_file_line_diagnostics() {
    let root = mini_workspace(
        "cli_dirty",
        &[(
            "crates/net/src/lib.rs",
            "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> u32 { *m.get(&0).unwrap() }\n",
        )],
    );
    let args = ["--check", "--root", root.to_str().expect("utf-8 path")];
    let out = run_lint(&args);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        text.contains("crates/net/src/lib.rs:1:23: determinism:"),
        "{text}"
    );
    assert!(
        text.contains("crates/net/src/lib.rs:2:14: determinism:"),
        "{text}"
    );
    assert!(
        text.contains("crates/net/src/lib.rs:2:53: panic-policy:"),
        "{text}"
    );
    // Byte-identical across runs: the property CI diffing relies on.
    let again = run_lint(&args);
    assert_eq!(text, String::from_utf8(again.stdout).expect("utf-8"));
}

#[test]
fn json_format_emits_the_documented_schema() {
    let root = mini_workspace(
        "cli_json",
        &[("crates/net/src/lib.rs", "fn f() -> f64 { 3.0 * 1e9 }\n")],
    );
    let out = run_lint(&[
        "--check",
        "--format",
        "json",
        "--root",
        root.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let value = tpu_spec::json::parse(&text).expect("output is valid JSON");
    assert_eq!(value.key("version").and_then(as_num), Some(1.0));
    assert_eq!(value.key("count").and_then(as_num), Some(1.0));
    let diags = match value.key("diagnostics") {
        Some(tpu_spec::json::JsonValue::Arr(items)) => items,
        other => panic!("diagnostics should be an array, got {other:?}"),
    };
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(
        d.key("file").and_then(as_str),
        Some("crates/net/src/lib.rs")
    );
    assert_eq!(d.key("line").and_then(as_num), Some(1.0));
    assert_eq!(d.key("rule").and_then(as_str), Some("unit-hygiene"));
    assert!(d.key("message").and_then(as_str).is_some());
}

#[test]
fn missing_root_exits_two() {
    let out = run_lint(&["--check", "--root", "/nonexistent/nowhere"]);
    assert_eq!(out.status.code(), Some(2));
}

fn as_num(v: &tpu_spec::json::JsonValue) -> Option<f64> {
    match v {
        tpu_spec::json::JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

fn as_str(v: &tpu_spec::json::JsonValue) -> Option<&str> {
    match v {
        tpu_spec::json::JsonValue::Str(s) => Some(s),
        _ => None,
    }
}
