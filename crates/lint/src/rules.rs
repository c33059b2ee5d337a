//! The rule set: each rule maps one repo invariant to a token-level
//! check. The catalog, with the invariant each rule protects, lives in
//! DESIGN.md §13 and `docs/static-analysis.md`.

use crate::diag::Diagnostic;
use crate::engine::{test_spans, FileContext, FileKind};
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;
use std::path::Path;

/// The rules that need only the file they lint, in catalog order.
pub const RULE_NAMES: [&str; 4] = ["determinism", "unit-hygiene", "panic-policy", "citation"];

/// The rule that also needs a [`CallerIndex`] of the whole workspace.
pub const NO_CALLER: &str = "no-caller";

fn diag(ctx: &FileContext<'_>, tok: &Token<'_>, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: ctx.rel_path.to_string(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
    }
}

/// Code tokens (non-comment) outside `#[cfg(test)]` spans.
fn code_tokens<'a, 'b>(ctx: &'b FileContext<'a>) -> impl Iterator<Item = (usize, &'b Token<'a>)> {
    ctx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .filter(|(_, t)| !ctx.is_test_line(t.line))
}

/// True when `tokens[i..]` starts with `::` followed by the ident `name`
/// (tolerating the `:`+`:` two-token shape the lexer emits).
fn path_sep_then(tokens: &[Token<'_>], i: usize, name: &str) -> bool {
    let rest: Vec<&Token<'_>> = tokens[i..]
        .iter()
        .filter(|t| !t.is_comment())
        .take(3)
        .collect();
    matches!(rest.as_slice(),
        [a, b, c] if a.text == ":" && b.text == ":" && c.text == name)
}

/// # Rule `determinism`
///
/// Monte Carlo trials and the DES must be bit-identical across runs and
/// thread counts (DESIGN.md §11–§12), so the simulation crates (`core`,
/// `net`, `sched`, `ocs`) may not use nondeterministically-ordered or
/// wall-clock-dependent constructs in library code: `HashMap`/`HashSet`
/// (random iteration order), `Instant`/`SystemTime` (wall clock),
/// `thread_rng` (OS-seeded), bare `std::thread::spawn`, and
/// `BinaryHeap` (pops same-key ties in unspecified order). The one
/// allowlisted spawn site is `tpu_sched::trials`, whose scatter-gather
/// reduces chunks in deterministic order. A heap is allowed only under
/// a suppression whose reason says why its keys are total, as the
/// fleet DES's heap keys are (DESIGN.md §12).
pub fn determinism(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.sim_crate || ctx.kind == FileKind::TestCode {
        return;
    }
    let spawn_allowed = ctx.rel_path == "crates/sched/src/trials.rs";
    for (i, tok) in code_tokens(ctx) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let msg = match tok.text {
            "HashMap" | "HashSet" => Some(format!(
                "{} iterates in nondeterministic order; use BTreeMap/BTreeSet or a sorted Vec \
                 (sim crates must be bit-identical across runs)",
                tok.text
            )),
            "Instant" | "SystemTime" => Some(format!(
                "{} reads the wall clock; simulation time must come from the event engine",
                tok.text
            )),
            "BinaryHeap" => Some(
                "BinaryHeap pops same-key ties in unspecified order; make the keys total \
                 (e.g. a unique sequence number) and suppress, stating why they never tie"
                    .to_string(),
            ),
            "thread_rng" => Some(
                "thread_rng is OS-seeded; use the per-chunk SplitMix64 streams from \
                 tpu_sched::trials"
                    .to_string(),
            ),
            "thread" if !spawn_allowed && path_sep_then(ctx.tokens, i + 1, "spawn") => Some(
                "bare std::thread::spawn in a sim crate; route parallelism through \
                 tpu_sched::trials::run_chunks so reductions stay chunk-ordered"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(m) = msg {
            out.push(diag(ctx, tok, "determinism", m));
        }
    }
}

/// Power-of-ten literals that spell a unit conversion (`s↔ms/µs/ns`,
/// `B↔KB/MB/GB/TB`). Underscores and an `f32`/`f64` suffix are ignored;
/// `1e-12`-style comparison epsilons need a suppression with a reason.
const UNIT_LITERALS: [&str; 8] = ["1e3", "1e-3", "1e6", "1e-6", "1e9", "1e-9", "1e12", "1e-12"];

/// # Rule `unit-hygiene`
///
/// Alpha-beta calibration bugs in this repo have historically been unit
/// slips (GB/s vs Gbit/s, s vs µs). All raw `1e9`-style conversion
/// factors must live in the two audited modules —
/// `crates/net/src/units.rs` and `crates/spec/src/consts.rs` — and
/// everything else goes through their named constants.
pub fn unit_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.unit_module || ctx.kind == FileKind::TestCode {
        return;
    }
    for (_, tok) in code_tokens(ctx) {
        if tok.kind != TokenKind::NumLit {
            continue;
        }
        let mut norm = tok.text.replace('_', "").to_ascii_lowercase();
        for suffix in ["f64", "f32"] {
            if let Some(stripped) = norm.strip_suffix(suffix) {
                norm = stripped.to_string();
            }
        }
        if UNIT_LITERALS.contains(&norm.as_str()) {
            out.push(diag(
                ctx,
                tok,
                "unit-hygiene",
                format!(
                    "raw power-of-ten factor {}; use the named unit constants in \
                     tpu_spec::consts (GIGA/MILLI/…) or tpu_net::units",
                    tok.text
                ),
            ));
        }
    }
}

/// # Rule `panic-policy`
///
/// Library code may not panic on reachable inputs: `unwrap()`,
/// `expect(…)` and `panic!` in non-test, non-binary code need either a
/// `Result` path or a suppression whose reason states the invariant that
/// makes the panic unreachable. Binaries (`src/bin/**`, `src/main.rs`)
/// are exempt: fail-fast is CLI policy.
pub fn panic_policy(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Library {
        return;
    }
    let toks = ctx.tokens;
    for (i, tok) in code_tokens(ctx) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let after_dot_or_path = i > 0 && matches!(toks[i - 1].text, "." | ":");
        let msg = match tok.text {
            "unwrap" | "expect" if after_dot_or_path => Some(format!(
                "{}() in library code can panic on reachable inputs; return a Result \
                 (or suppress, stating the invariant that makes this unreachable)",
                tok.text
            )),
            "panic" if toks.get(i + 1).is_some_and(|t| t.text == "!") => Some(
                "panic! in library code; return an error (or suppress, stating the \
                 invariant that makes this unreachable)"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(m) = msg {
            out.push(diag(ctx, tok, "panic-policy", m));
        }
    }
}

/// Resolves `DESIGN.md §N` and `docs/…` citations against the workspace.
pub struct CitationResolver {
    /// Section numbers (`"7"`, `"7.3"`) parsed from DESIGN.md headings.
    pub sections: BTreeSet<String>,
    /// Workspace-relative `docs/…` paths that exist.
    pub docs: BTreeSet<String>,
}

impl CitationResolver {
    /// Parses DESIGN.md headings and the `docs/` directory listing.
    pub fn from_workspace(root: &Path) -> Result<CitationResolver, String> {
        let design_path = root.join("DESIGN.md");
        let design = std::fs::read_to_string(&design_path)
            .map_err(|e| format!("cannot read {}: {e}", design_path.display()))?;
        let mut sections = BTreeSet::new();
        for line in design.lines() {
            let heading = line.trim_start_matches('#');
            if heading.len() == line.len() {
                continue; // not a heading
            }
            if let Some(rest) = heading.trim_start().strip_prefix('§') {
                let num: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                let num = num.trim_end_matches('.').to_string();
                if !num.is_empty() {
                    sections.insert(num);
                }
            }
        }
        let mut docs = BTreeSet::new();
        let docs_dir = root.join("docs");
        if let Ok(entries) = std::fs::read_dir(&docs_dir) {
            for entry in entries.flatten() {
                docs.insert(format!("docs/{}", entry.file_name().to_string_lossy()));
            }
        }
        Ok(CitationResolver { sections, docs })
    }

    fn section_exists(&self, num: &str) -> bool {
        self.sections.contains(num)
    }

    fn doc_exists(&self, path: &str) -> bool {
        self.docs.contains(path)
    }
}

/// # Rule `citation`
///
/// Comments citing the calibration notes must resolve: `DESIGN.md §N`
/// (and `DESIGN §N`) must name a real DESIGN.md heading, and `docs/…`
/// mentions must name a file that exists. Bare `§N` cites the *paper*
/// and is not checked. Applies to every comment in every file, test code
/// included — stale citations mislead regardless of where they live.
pub fn citation(ctx: &FileContext<'_>, resolver: &CitationResolver, out: &mut Vec<Diagnostic>) {
    // Join consecutive comment tokens so references wrapped across
    // `///` lines ("… DESIGN.md\n/// §7.3 …") still resolve.
    let mut run: Vec<&Token<'_>> = Vec::new();
    let mut runs: Vec<Vec<&Token<'_>>> = Vec::new();
    for tok in ctx.tokens {
        if tok.is_comment() {
            run.push(tok);
        } else if !run.is_empty() {
            runs.push(std::mem::take(&mut run));
        }
    }
    if !run.is_empty() {
        runs.push(run);
    }
    for run in runs {
        // Build the joined text with a map from joined offset -> line.
        let mut joined = String::new();
        let mut line_at: Vec<(usize, u32)> = Vec::new(); // (start offset, line)
        for tok in run {
            let cleaned = tok
                .text
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_start_matches('!');
            line_at.push((joined.len(), tok.line));
            joined.push_str(cleaned);
            joined.push(' ');
        }
        let line_of = |offset: usize| -> u32 {
            line_at
                .iter()
                .rev()
                .find(|(start, _)| *start <= offset)
                .map(|(_, line)| *line)
                .unwrap_or(1)
        };
        check_design_refs(ctx, resolver, &joined, &line_of, out);
        check_docs_refs(ctx, resolver, &joined, &line_of, out);
    }
}

fn check_design_refs(
    ctx: &FileContext<'_>,
    resolver: &CitationResolver,
    joined: &str,
    line_of: &dyn Fn(usize) -> u32,
    out: &mut Vec<Diagnostic>,
) {
    let mut from = 0;
    while let Some(pos) = joined[from..].find("DESIGN") {
        let at = from + pos;
        from = at + "DESIGN".len();
        // Optional ".md", then whitespace (possibly a wrapped `///`
        // line boundary), then the section marker.
        let mut tail = &joined[from..];
        if let Some(rest) = tail.strip_prefix(".md") {
            tail = rest;
        }
        let tail = tail.trim_start();
        let Some(section) = tail.strip_prefix('§') else {
            continue; // plain "DESIGN.md" mention, nothing to resolve
        };
        let num: String = section
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        if !num.is_empty() && !resolver.section_exists(&num) {
            out.push(Diagnostic {
                file: ctx.rel_path.to_string(),
                line: line_of(at),
                col: 1,
                rule: "citation",
                message: format!("cites DESIGN.md §{num}, but DESIGN.md has no §{num} heading"),
            });
        }
    }
}

fn check_docs_refs(
    ctx: &FileContext<'_>,
    resolver: &CitationResolver,
    joined: &str,
    line_of: &dyn Fn(usize) -> u32,
    out: &mut Vec<Diagnostic>,
) {
    let mut from = 0;
    while let Some(pos) = joined[from..].find("docs/") {
        let at = from + pos;
        let path: String = joined[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | '-' | '_' | '.'))
            .collect();
        let path = path.trim_end_matches(['.', ',']).to_string();
        from = at + 5;
        // Only flag references to concrete markdown files; a bare
        // "docs/" directory mention has nothing to resolve.
        if !path.ends_with(".md") {
            continue;
        }
        if !resolver.doc_exists(&path) {
            out.push(Diagnostic {
                file: ctx.rel_path.to_string(),
                line: line_of(at),
                col: 1,
                rule: "citation",
                message: format!("mentions {path}, which does not exist in the workspace"),
            });
        }
    }
}

/// The identifiers the workspace uses as code, for the `no-caller`
/// rule. [`crate::analyze_workspace`] builds it in a first pass, as it
/// builds the [`CitationResolver`].
#[derive(Debug, Default)]
pub struct CallerIndex {
    used: BTreeSet<String>,
}

impl CallerIndex {
    /// Records every identifier `source` uses as code. Comments, test
    /// code (`tests/` directories and `#[cfg(test)]`/`#[test]` items),
    /// `use` items and the names that `fn` and `const` define add
    /// nothing. Examples, benches, binaries and `perfbench/src` count
    /// like library code.
    pub fn add_file(&mut self, rel_path: &str, source: &str) {
        if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
            return;
        }
        let tokens = lex(source);
        let spans = test_spans(&tokens);
        let mut prev = "";
        let mut in_use = false;
        for tok in tokens.iter().filter(|t| !t.is_comment()) {
            let before = std::mem::replace(&mut prev, tok.text);
            if in_use {
                // A use tree holds no `;` of its own.
                in_use = tok.text != ";";
            } else if tok.kind == TokenKind::Ident
                && !spans.iter().any(|&(a, b)| (a..=b).contains(&tok.line))
            {
                if tok.text == "use" {
                    in_use = true;
                } else if before != "fn" && before != "const" {
                    self.used.insert(tok.text.to_string());
                }
            }
        }
    }
}

/// True under some `crates/<name>/src/` or the root `src/`.
fn in_crate_src(rel_path: &str) -> bool {
    rel_path.starts_with("src/")
        || rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// # Rule `no-caller`
///
/// Code with no caller goes. A `pub fn` or `pub const` in library code
/// under `crates/*/src` or `src/` is flagged when its name is used as
/// code nowhere in the workspace (see [`CallerIndex`]): a mention in a
/// comment, a test, a `use` item or a definition is not a call. Rustc's
/// `dead_code` sees neither across crates nor `pub` items; `pub(crate)`
/// and narrower stay its job. The check goes by name, so an item that
/// shares its name with another item is hidden behind it, and the
/// findings are a lower bound.
pub fn no_caller(ctx: &FileContext<'_>, callers: &CallerIndex, out: &mut Vec<Diagnostic>) {
    if ctx.kind != FileKind::Library || !in_crate_src(ctx.rel_path) {
        return;
    }
    let code: Vec<&Token<'_>> = code_tokens(ctx).map(|(_, t)| t).collect();
    for (i, tok) in code.iter().enumerate() {
        if tok.text != "pub" {
            continue;
        }
        // Step over `const`/`async`/`unsafe`/`extern "C"`; `pub(…)`
        // stops at the parenthesis and is left alone.
        let mut j = i + 1;
        let mut saw_const = false;
        while let Some(t) = code.get(j) {
            match t.text {
                "const" => saw_const = true,
                "async" | "unsafe" | "extern" => {}
                _ if t.kind == TokenKind::StrLit => {}
                _ => break,
            }
            j += 1;
        }
        let (what, name) = match code.get(j) {
            Some(t) if t.text == "fn" => ("fn", code.get(j + 1)),
            Some(t) if saw_const => ("const", Some(t)),
            _ => continue,
        };
        let Some(name) = name.filter(|n| n.kind == TokenKind::Ident && n.text != "_") else {
            continue;
        };
        if !callers.used.contains(name.text) {
            out.push(diag(
                ctx,
                name,
                NO_CALLER,
                format!(
                    "pub {what} `{}` has no caller outside tests, comments and `use` items; \
                     delete it, move it into its test, or suppress, stating why it stays",
                    name.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    fn resolver() -> CitationResolver {
        let mut sections = BTreeSet::new();
        for s in ["1", "7", "7.3", "13"] {
            sections.insert(s.to_string());
        }
        let mut docs = BTreeSet::new();
        docs.insert("docs/spec-format.md".to_string());
        CitationResolver { sections, docs }
    }

    fn run(rel: &str, src: &str) -> Vec<String> {
        lint_source(rel, src, &resolver())
            .into_iter()
            .map(|d| d.to_string())
            .collect()
    }

    #[test]
    fn determinism_only_fires_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/net/src/x.rs", src).len(), 1);
        assert_eq!(run("crates/chip/src/x.rs", src).len(), 0);
    }

    #[test]
    fn determinism_spawn_allowlist() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(run("crates/sched/src/trials.rs", src).is_empty());
        let found = run("crates/sched/src/fleet.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("thread::spawn"), "{found:?}");
    }

    #[test]
    fn determinism_heap_allowlist() {
        let bare = "use std::collections::BinaryHeap;\n";
        let found = run("crates/sched/src/fleet.rs", bare);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("BinaryHeap"), "{found:?}");
        let suppressed = "// tpu-lint: allow(determinism) -- keys are total: seq is unique\n\
                          use std::collections::BinaryHeap;\n";
        assert!(run("crates/sched/src/fleet.rs", suppressed).is_empty());
    }

    #[test]
    fn unit_hygiene_allows_the_unit_modules_and_tests() {
        let src = "pub const G: f64 = 1e9;\n";
        assert_eq!(run("crates/workloads/src/x.rs", src).len(), 1);
        assert!(run("crates/net/src/units.rs", src).is_empty());
        assert!(run("crates/spec/src/consts.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { const G: f64 = 1e9; }\n";
        assert!(run("crates/workloads/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn unit_hygiene_normalizes_suffixes_not_other_numbers() {
        assert_eq!(run("crates/chip/src/x.rs", "let a = 1e9f64;\n").len(), 1);
        assert_eq!(run("crates/chip/src/x.rs", "let a = 1E9;\n").len(), 1);
        assert!(run("crates/chip/src/x.rs", "let a = 2e9; let b = 1e8;\n").is_empty());
    }

    #[test]
    fn panic_policy_scope() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(run("crates/net/src/x.rs", src).len(), 1);
        // Binaries and test code are exempt.
        assert!(run("crates/bench/src/bin/repro.rs", src).is_empty());
        assert!(run("crates/sched/tests/x.rs", src).is_empty());
        // unwrap_or is not unwrap.
        assert!(run(
            "crates/net/src/x.rs",
            "fn f(x: Option<u8>) { x.unwrap_or(0); }\n"
        )
        .is_empty());
        // Fn-reference form Option::unwrap also counts.
        assert_eq!(
            run(
                "crates/net/src/x.rs",
                "fn f() { let g = Option::<u8>::unwrap; }\n"
            )
            .len(),
            1
        );
        // panic! and expect.
        let found = run("crates/net/src/x.rs", "fn f() { panic!(\"boom\"); }\n");
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("panic!"));
    }

    #[test]
    fn suppression_silences_and_requires_reason() {
        let ok = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // tpu-lint: allow(panic-policy) -- x checked by caller\n}\n";
        assert!(run("crates/net/src/x.rs", ok).is_empty());
        let unused = "fn f() {} // tpu-lint: allow(panic-policy) -- nothing here\n";
        let found = run("crates/net/src/x.rs", unused);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("unused-suppression"));
    }

    #[test]
    fn citation_resolves_against_design_sections() {
        let ok = "/// Calibrated in DESIGN.md §7.3.\nfn f() {}\n";
        assert!(run("crates/net/src/x.rs", ok).is_empty());
        let stale = "/// See DESIGN.md §99 for details.\nfn f() {}\n";
        let found = run("crates/net/src/x.rs", stale);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("no §99"), "{found:?}");
        // Bare §N cites the paper, not DESIGN.md.
        assert!(run("crates/net/src/x.rs", "/// Paper §7.9 wall.\nfn f() {}\n").is_empty());
    }

    #[test]
    fn citation_handles_wrapped_lines_and_docs_paths() {
        let wrapped = "/// Documented in DESIGN.md\n/// §7.3 with the alphas.\nfn f() {}\n";
        assert!(run("crates/net/src/x.rs", wrapped).is_empty());
        let wrapped_stale = "/// Documented in DESIGN.md\n/// §42 with the alphas.\nfn f() {}\n";
        assert_eq!(run("crates/net/src/x.rs", wrapped_stale).len(), 1);
        assert!(run(
            "crates/net/src/x.rs",
            "// see docs/spec-format.md\nfn f() {}\n"
        )
        .is_empty());
        let dangling = run("crates/net/src/x.rs", "// see docs/missing.md\nfn f() {}\n");
        assert_eq!(dangling.len(), 1);
        assert!(dangling[0].contains("docs/missing.md"));
        // Citations are checked in test files too.
        assert_eq!(run("crates/net/tests/x.rs", "// DESIGN.md §42\n").len(), 1);
    }
}
