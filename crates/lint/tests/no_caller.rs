//! The `no-caller` rule over a multi-file fixture workspace,
//! `tests/fixtures/no_caller/`: which mentions of a name count as a
//! call, and that suppressions work on the rule as on any other. The
//! exact findings are pinned in `tests/fixtures/no_caller/expected`.

use std::path::Path;

fn fixture_findings() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/no_caller");
    let diags = tpu_lint::analyze_workspace(&root).expect("fixture workspace walk succeeds");
    let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    let expected = std::fs::read_to_string(root.join("expected")).expect("read expected");
    assert_eq!(
        rendered.join("\n") + "\n",
        expected,
        "no_caller fixture diverged from its expected file"
    );
    rendered
}

fn flagged(findings: &[String], name: &str) -> bool {
    findings
        .iter()
        .any(|f| f.contains(" no-caller: ") && f.contains(&format!("`{name}`")))
}

#[test]
fn items_without_a_caller_are_flagged() {
    let findings = fixture_findings();
    for name in [
        "uncalled",
        "named_in_cfg_test",
        "named_in_tests_dir",
        "named_in_doc_comment",
        "only_reexported",
        "UNREAD",
        "const_fn_uncalled",
    ] {
        assert!(flagged(&findings, name), "{name} should be flagged");
    }
}

#[test]
fn calls_from_library_examples_and_perfbench_count() {
    let findings = fixture_findings();
    for name in [
        "called_across_files",
        "called_from_example",
        "called_from_perfbench",
        "entry",
        "crate_visible",
    ] {
        assert!(!flagged(&findings, name), "{name} has a caller");
    }
}

#[test]
fn suppressions_apply_to_the_rule() {
    let findings = fixture_findings();
    assert!(!flagged(&findings, "kept_hook"));
    // The stale suppression above `called_but_suppressed` silences
    // nothing, so it is a finding of its own.
    assert!(findings.iter().any(|f| f
        .contains("crates/alpha/src/lib.rs:38:1: unused-suppression: suppression for no-caller")));
}
