//! Golden fixture tests: every `tests/fixtures/{clean,violation}_*.rs`
//! file is linted under a pretend workspace path and its rendered
//! diagnostics are compared against the `.expected` file next to it.
//!
//! To regenerate after an intentional rule change:
//! `TPU_LINT_BLESS=1 cargo test -p tpu-lint --test golden_fixtures`

use std::collections::BTreeSet;
use std::path::Path;
use tpu_lint::{lint_source, CitationResolver};

/// Fixture resolver: DESIGN.md has §2 and §7.3; docs/ holds perf.md.
fn fixture_resolver() -> CitationResolver {
    let sections: BTreeSet<String> = ["2", "7.3"].iter().map(|s| s.to_string()).collect();
    let docs: BTreeSet<String> = ["docs/perf.md"].iter().map(|s| s.to_string()).collect();
    CitationResolver { sections, docs }
}

/// Each fixture is linted as if it lived at a path chosen to put the
/// rules it exercises in scope (sim-crate for determinism, plain library
/// for the rest).
fn pretend_path(stem: &str) -> &'static str {
    match stem {
        "clean_sim" | "clean_suppressed" | "violation_determinism" => "crates/net/src/fixture.rs",
        _ => "crates/chip/src/fixture.rs",
    }
}

fn run_fixture(stem: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src_path = dir.join(format!("{stem}.rs"));
    let source = std::fs::read_to_string(&src_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", src_path.display()));
    let resolver = fixture_resolver();
    let mut diags = lint_source(pretend_path(stem), &source, &resolver);
    diags.sort_by_key(|d| d.sort_key());
    let mut rendered: String = diags
        .iter()
        .map(|d| format!("{d}\n"))
        .collect::<Vec<_>>()
        .join("");
    if rendered.is_empty() {
        rendered = "(clean)\n".to_string();
    }

    let expected_path = dir.join(format!("{stem}.expected"));
    if std::env::var_os("TPU_LINT_BLESS").is_some() {
        std::fs::write(&expected_path, &rendered).expect("write .expected");
        return rendered;
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (bless with TPU_LINT_BLESS=1)",
            expected_path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "fixture {stem} diverged from its .expected file"
    );
    rendered
}

#[test]
fn clean_fixtures_produce_no_findings() {
    for stem in ["clean_sim", "clean_suppressed"] {
        let out = run_fixture(stem);
        assert_eq!(out, "(clean)\n", "{stem} should lint clean:\n{out}");
    }
}

#[test]
fn violation_fixtures_produce_the_seeded_findings() {
    let cases = [
        ("violation_determinism", "determinism"),
        ("violation_unit_hygiene", "unit-hygiene"),
        ("violation_panic_policy", "panic-policy"),
        ("violation_citation", "citation"),
        ("violation_suppression", "bad-suppression"),
    ];
    for (stem, rule) in cases {
        let out = run_fixture(stem);
        assert!(
            out.contains(&format!(" {rule}: ")),
            "{stem} should trip {rule}:\n{out}"
        );
        assert_ne!(out, "(clean)\n", "{stem} should not be clean");
    }
}

#[test]
fn fixture_diagnostics_are_deterministic() {
    // Same input, same output, token for token — the property the CI
    // gate and the .expected files rely on.
    let a = run_fixture("violation_determinism");
    let b = run_fixture("violation_determinism");
    assert_eq!(a, b);
}

#[test]
fn every_fixture_has_an_expected_file_and_vice_versa() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut stems_rs = BTreeSet::new();
    let mut stems_expected = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        if let Some(stem) = name.strip_suffix(".rs") {
            stems_rs.insert(stem.to_string());
        } else if let Some(stem) = name.strip_suffix(".expected") {
            stems_expected.insert(stem.to_string());
        }
    }
    assert!(!stems_rs.is_empty(), "no fixtures found");
    assert_eq!(
        stems_rs, stems_expected,
        "every fixture .rs needs a .expected and vice versa"
    );
}
