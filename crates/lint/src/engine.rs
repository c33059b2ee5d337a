//! The rule engine: file classification, `#[cfg(test)]` span detection,
//! suppression parsing, and workspace walking.
//!
//! Diagnostics are fully deterministic: files are visited in sorted
//! relative-path order and findings are sorted by `(file, line, col,
//! rule, message)` before being rendered.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use crate::rules;
use std::path::{Path, PathBuf};

/// How a file participates in rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some crate's `src/` (rules fully apply).
    Library,
    /// Binary code (`src/bin/**`, `src/main.rs`): fail-fast panics are
    /// CLI policy, so `panic-policy` does not apply.
    Binary,
    /// Integration tests, examples, benches: only `citation` applies.
    TestCode,
}

/// Everything a rule needs to know about one source file.
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel_path: &'a str,
    /// The token stream.
    pub tokens: &'a [Token<'a>],
    /// Lines covered by `#[cfg(test)]` items (attribute through item end).
    pub test_lines: &'a [(u32, u32)],
    /// Library / binary / test classification.
    pub kind: FileKind,
    /// True for the simulation crates (`core`, `net`, `sched`, `ocs`)
    /// whose runs must be bit-identical.
    pub sim_crate: bool,
    /// True for the two designated unit-conversion modules.
    pub unit_module: bool,
}

impl FileContext<'_> {
    /// True when `line` falls inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    let in_test_dir = rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/examples/")
        || rel_path.contains("/benches/");
    if in_test_dir {
        return FileKind::TestCode;
    }
    if rel_path.contains("/src/bin/")
        || rel_path.ends_with("/src/main.rs")
        || rel_path == "src/main.rs"
    {
        return FileKind::Binary;
    }
    FileKind::Library
}

/// True for files in the simulation crates whose lib code must stay
/// deterministic — the workspace generator among them, since every
/// Monte Carlo stream and golden is its output.
pub fn is_sim_crate(rel_path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/net/src/",
        "crates/sched/src/",
        "crates/ocs/src/",
        "crates/shims/rand/src/",
    ]
    .iter()
    .any(|p| rel_path.starts_with(p))
}

/// True for the two modules allowed to own raw power-of-ten unit
/// conversions.
pub fn is_unit_module(rel_path: &str) -> bool {
    rel_path == "crates/net/src/units.rs" || rel_path == "crates/spec/src/consts.rs"
}

/// Computes the line spans of `#[cfg(test)]`- and `#[test]`-gated items:
/// from the attribute's line through the end of the annotated item (the
/// matching `}` of its body, or the `;` of a bodiless item).
pub fn test_spans(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let code: Vec<(usize, &Token<'_>)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut i = 0;
    while i < code.len() {
        if let Some(end_idx) = match_test_attr(&code, i) {
            let start_line = code[i].1.line;
            // Skip any further attributes / doc comments, then consume
            // the item itself.
            let mut j = end_idx;
            while j < code.len() && code[j].1.text == "#" {
                j = skip_attr(&code, j);
            }
            let end_line = item_end(&code, j).unwrap_or(start_line);
            spans.push((start_line, end_line));
            // Continue scanning *after* the item: nested #[cfg(test)]
            // inside it is already covered.
            while i < code.len() && code[i].1.line <= end_line {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    spans
}

/// If `code[i]` starts a `#[cfg(test)]`/`#[cfg(any(test, …))]`/`#[test]`
/// attribute, returns the index one past its closing `]`.
fn match_test_attr(code: &[(usize, &Token<'_>)], i: usize) -> Option<usize> {
    if code[i].1.text != "#" || code.get(i + 1)?.1.text != "[" {
        return None;
    }
    // Collect idents inside the attribute, up to the matching `]`.
    let mut depth = 0usize;
    let mut j = i + 1;
    let mut idents: Vec<&str> = Vec::new();
    while j < code.len() {
        let t = code[j].1;
        match t.text {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if t.kind == TokenKind::Ident => idents.push(t.text),
            _ => {}
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test"),
        _ => false,
    };
    if is_test {
        Some(j + 1)
    } else {
        None
    }
}

/// Skips one `#[…]` attribute starting at `code[i] == "#"`, returning the
/// index one past its closing `]`.
fn skip_attr(code: &[(usize, &Token<'_>)], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < code.len() {
        match code[j].1.text {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Finds the last line of the item starting at `code[j]`: the matching
/// `}` of its first brace block, or the first `;` before any `{`.
fn item_end(code: &[(usize, &Token<'_>)], j: usize) -> Option<u32> {
    let mut depth = 0usize;
    let mut k = j;
    while k < code.len() {
        match code[k].1.text {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(code[k].1.line);
                }
            }
            ";" if depth == 0 => return Some(code[k].1.line),
            _ => {}
        }
        k += 1;
    }
    code.last().map(|(_, t)| t.line)
}

/// One parsed `// tpu-lint: allow(<rule>) -- <reason>` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule names inside `allow(…)`.
    pub rules: Vec<String>,
    /// The justification after `--`.
    pub reason: String,
    /// Line of the comment itself.
    pub line: u32,
    /// The line the suppression covers: its own line for a trailing
    /// comment, the next code line for a standalone comment.
    pub target_line: u32,
    /// Set when the comment failed to parse; the message explains how.
    pub malformed: Option<String>,
}

/// Extracts suppressions from a token stream; `known` holds the rule
/// names this run can suppress.
pub fn parse_suppressions(tokens: &[Token<'_>], known: &[&str]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::LineComment || !tok.text.contains("tpu-lint:") {
            continue;
        }
        // Doc comments describing the suppression grammar are prose, not
        // suppressions; only plain `//` comments count.
        if tok.is_doc_comment() {
            continue;
        }
        let trailing = tokens[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let target_line = if trailing {
            tok.line
        } else {
            tokens[idx + 1..]
                .iter()
                .find(|t| !t.is_comment())
                .map(|t| t.line)
                .unwrap_or(tok.line + 1)
        };
        out.push(parse_one_suppression(tok, target_line, known));
    }
    out
}

fn parse_one_suppression(tok: &Token<'_>, target_line: u32, known: &[&str]) -> Suppression {
    let mut s = Suppression {
        rules: Vec::new(),
        reason: String::new(),
        line: tok.line,
        target_line,
        malformed: None,
    };
    let Some(rest) = tok.text.split("tpu-lint:").nth(1) else {
        s.malformed = Some("unreadable tpu-lint comment".to_string());
        return s;
    };
    let rest = rest.trim_start();
    let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
        s.malformed = Some("expected `tpu-lint: allow(<rule>) -- <reason>`".to_string());
        return s;
    };
    let (inside, tail) = args;
    for name in inside.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        if !known.contains(&name) {
            s.malformed = Some(format!(
                "unknown rule '{name}' (expected one of: {})",
                known.join(", ")
            ));
            return s;
        }
        s.rules.push(name.to_string());
    }
    if s.rules.is_empty() {
        s.malformed = Some("allow() names no rule".to_string());
        return s;
    }
    let Some(reason) = tail.trim_start().strip_prefix("--") else {
        s.malformed = Some("missing ` -- <reason>` justification".to_string());
        return s;
    };
    let reason = reason.trim();
    if reason.is_empty() {
        s.malformed = Some("empty justification after `--`".to_string());
        return s;
    }
    s.reason = reason.to_string();
    s
}

/// Lints one file's source text as if it lived at `rel_path`, resolving
/// citations against `resolver`. This is the unit the golden fixture
/// tests drive. One file alone says nothing about callers, so
/// `no-caller` is not among its rules; [`analyze_workspace`] runs it.
// tpu-lint: allow(no-caller) -- the golden fixture harness lints one file at a time through it
pub fn lint_source(
    rel_path: &str,
    source: &str,
    resolver: &rules::CitationResolver,
) -> Vec<Diagnostic> {
    lint_file(rel_path, source, resolver, None)
}

/// [`lint_source`], plus `no-caller` when the workspace's `callers`
/// are given.
fn lint_file(
    rel_path: &str,
    source: &str,
    resolver: &rules::CitationResolver,
    callers: Option<&rules::CallerIndex>,
) -> Vec<Diagnostic> {
    let tokens = lex(source);
    let spans = test_spans(&tokens);
    let ctx = FileContext {
        rel_path,
        tokens: &tokens,
        test_lines: &spans,
        kind: classify(rel_path),
        sim_crate: is_sim_crate(rel_path),
        unit_module: is_unit_module(rel_path),
    };

    let mut raw = Vec::new();
    rules::determinism(&ctx, &mut raw);
    rules::unit_hygiene(&ctx, &mut raw);
    rules::panic_policy(&ctx, &mut raw);
    rules::citation(&ctx, resolver, &mut raw);
    let mut known = rules::RULE_NAMES.to_vec();
    if let Some(callers) = callers {
        rules::no_caller(&ctx, callers, &mut raw);
        known.push(rules::NO_CALLER);
    }

    // Apply suppressions: a finding on a suppression's target (or
    // comment) line for a named rule is silenced; each suppression must
    // be well-formed and must silence at least one finding.
    let sups = parse_suppressions(&tokens, &known);
    let mut used = vec![false; sups.len()];
    let mut diags: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (si, sup) in sups.iter().enumerate() {
            if sup.malformed.is_none()
                && (d.line == sup.target_line || d.line == sup.line)
                && sup.rules.iter().any(|r| r == d.rule)
            {
                used[si] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            diags.push(d);
        }
    }
    for (si, sup) in sups.iter().enumerate() {
        if let Some(why) = &sup.malformed {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: sup.line,
                col: 1,
                rule: "bad-suppression",
                message: why.clone(),
            });
        } else if !used[si] {
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: sup.line,
                col: 1,
                rule: "unused-suppression",
                message: format!(
                    "suppression for {} matches no finding; remove it",
                    sup.rules.join(", ")
                ),
            });
        }
    }
    diags
}

/// Directories never walked: build output, VCS metadata, the no-op
/// serde derives under `crates/shims` (the workspace `rand` generator
/// beside them is walked), and the lint crate's own
/// deliberately-violating fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(
        rel,
        "target"
            | ".git"
            | "crates/shims/serde"
            | "crates/shims/serde_derive"
            | "crates/lint/tests/fixtures"
    )
}

/// Collects every workspace `.rs` file, sorted by relative path.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if rel.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort_by_key(|p| rel_path(root, p));
    Ok(out)
}

/// Workspace-relative path with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule over the whole workspace rooted at `root`, plus the
/// committed `BENCH_*.json` schema check, returning sorted diagnostics.
/// A first pass indexes the workspace's callers for `no-caller`.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let resolver = rules::CitationResolver::from_workspace(root)?;
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push((rel_path(root, &path), source));
    }
    let mut callers = rules::CallerIndex::default();
    for (rel, source) in &files {
        callers.add_file(rel, source);
    }
    let mut diags = Vec::new();
    for (rel, source) in &files {
        diags.extend(lint_file(rel, source, &resolver, Some(&callers)));
    }
    diags.extend(crate::bench_schema::check_workspace(root)?);
    diags.sort_by_key(|d| d.sort_key());
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/net/src/lib.rs"), FileKind::Library);
        assert_eq!(classify("crates/bench/src/bin/repro.rs"), FileKind::Binary);
        assert_eq!(classify("src/main.rs"), FileKind::Binary);
        assert_eq!(
            classify("crates/sched/tests/fleet_golden.rs"),
            FileKind::TestCode
        );
        assert_eq!(classify("tests/property_based.rs"), FileKind::TestCode);
        assert_eq!(classify("examples/cross_backend.rs"), FileKind::TestCode);
        assert_eq!(
            classify("crates/bench/benches/collectives.rs"),
            FileKind::TestCode
        );
    }

    #[test]
    fn sim_crates_and_unit_modules() {
        assert!(is_sim_crate("crates/net/src/flows.rs"));
        assert!(is_sim_crate("crates/ocs/src/wiring.rs"));
        assert!(is_sim_crate("crates/shims/rand/src/lib.rs"));
        assert!(!is_sim_crate("crates/shims/serde/src/lib.rs"));
        assert!(!is_sim_crate("crates/chip/src/memory.rs"));
        // The HTTP service is I/O-bound library code, not a simulator:
        // it may spawn threads and take wall-clock timestamps, but its
        // library code still answers to the panic-policy rule.
        assert!(!is_sim_crate("crates/serve/src/server.rs"));
        assert_eq!(classify("crates/serve/src/http.rs"), FileKind::Library);
        assert_eq!(classify("crates/serve/src/main.rs"), FileKind::Binary);
        assert!(is_unit_module("crates/net/src/units.rs"));
        assert!(is_unit_module("crates/spec/src/consts.rs"));
        assert!(!is_unit_module("crates/net/src/latency.rs"));
    }

    #[test]
    fn walk_reads_the_generator_and_skips_the_serde_derives() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files: Vec<String> = workspace_files(&root)
            .unwrap()
            .iter()
            .map(|p| rel_path(&root, p))
            .collect();
        assert!(files.iter().any(|f| f == "crates/shims/rand/src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("crates/shims/serde")));
    }

    #[test]
    fn test_span_covers_cfg_test_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let toks = lex(src);
        let spans = test_spans(&toks);
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn test_span_covers_attributed_fn_and_bodiless_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let toks = lex(src);
        assert_eq!(test_spans(&toks), vec![(1, 2)]);
        // #[cfg(any(test, feature = "x"))] also counts as test-gated.
        let src = "#[cfg(any(test, feature = \"slow\"))]\nfn helper() { panic!(\"x\") }\n";
        let toks = lex(src);
        assert_eq!(test_spans(&toks), vec![(1, 2)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(feature = \"extra\")]\nfn f() {}\n";
        let toks = lex(src);
        assert!(test_spans(&toks).is_empty());
    }

    #[test]
    fn suppression_parsing_trailing_and_standalone() {
        let src =
            "let a = m.get(k).unwrap(); // tpu-lint: allow(panic-policy) -- key inserted above\n\
                   // tpu-lint: allow(determinism) -- order irrelevant, drained via sort\n\
                   let s = HashSet::new();\n";
        let sups = parse_suppressions(&lex(src), &rules::RULE_NAMES);
        assert_eq!(sups.len(), 2);
        assert_eq!(sups[0].target_line, 1);
        assert!(sups[0].malformed.is_none());
        assert_eq!(sups[1].line, 2);
        assert_eq!(sups[1].target_line, 3);
        assert_eq!(sups[1].rules, vec!["determinism"]);
    }

    #[test]
    fn malformed_suppressions_are_reported() {
        for (src, needle) in [
            (
                "// tpu-lint: allow(panic-policy)\n",
                "missing ` -- <reason>`",
            ),
            (
                "// tpu-lint: allow(panic-policy) -- \n",
                "empty justification",
            ),
            ("// tpu-lint: allow(no-such-rule) -- x\n", "unknown rule"),
            (
                "// tpu-lint: deny(panic-policy) -- x\n",
                "expected `tpu-lint:",
            ),
        ] {
            let sups = parse_suppressions(&lex(src), &rules::RULE_NAMES);
            assert_eq!(sups.len(), 1, "{src}");
            let why = sups[0].malformed.as_deref().unwrap_or("");
            assert!(why.contains(needle), "{src} -> {why}");
        }
    }
}
