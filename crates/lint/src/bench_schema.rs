//! Schema validation for committed `BENCH_*.json` perf reports.
//!
//! `perf_report` emits a JSON array of rows with exactly the five
//! documented keys —
//! `bench`, `config`, `wall_s`, `trials_per_s`, `git_describe`
//! (DESIGN.md §11). The perf trajectory is only comparable across PRs if
//! every committed row keeps that shape, so the lint pass validates the
//! committed reports and fails fast on a malformed row.

use crate::diag::Diagnostic;
use std::path::Path;
use tpu_spec::json::{self, JsonValue};

/// The exact row keys, in canonical order.
const STRING_KEYS: [&str; 3] = ["bench", "config", "git_describe"];
const NUMERIC_KEYS: [&str; 2] = ["wall_s", "trials_per_s"];

/// Validates every `BENCH_*.json` at the workspace root.
pub fn check_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let path = root.join(&name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        check_report(&name, &text, &mut out);
    }
    Ok(out)
}

/// Validates one report document; findings land in `out` with the row
/// index in the message.
pub fn check_report(file: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let mut fail = |message: String| {
        out.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            col: 1,
            rule: "bench-schema",
            message,
        });
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return fail(format!("not valid JSON: {e}")),
    };
    let JsonValue::Arr(rows) = value else {
        return fail("top level must be a JSON array of bench rows".to_string());
    };
    if rows.is_empty() {
        return fail("no bench rows".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let JsonValue::Obj(fields) = row else {
            fail(format!("row {i} is not an object"));
            continue;
        };
        for key in STRING_KEYS {
            match row.key(key) {
                Some(JsonValue::Str(s)) if !s.is_empty() => {}
                Some(_) => fail(format!("row {i} key '{key}' must be a non-empty string")),
                None => fail(format!("row {i} is missing key '{key}'")),
            }
        }
        for key in NUMERIC_KEYS {
            match row.key(key) {
                Some(JsonValue::Num(n)) if *n >= 0.0 => {}
                Some(_) => fail(format!("row {i} key '{key}' must be a non-negative number")),
                None => fail(format!("row {i} is missing key '{key}'")),
            }
        }
        for (key, _) in fields {
            if !STRING_KEYS.contains(&key.as_str()) && !NUMERIC_KEYS.contains(&key.as_str()) {
                fail(format!(
                    "row {i} has unexpected key '{key}' (schema is exactly: bench, config, \
                     wall_s, trials_per_s, git_describe)"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        check_report("BENCH_x.json", text, &mut out);
        out.into_iter().map(|d| d.message).collect()
    }

    const GOOD_ROW: &str = r#"{"bench":"goodput_v4_ocs","config":"4096 chips","wall_s":0.03,"trials_per_s":31050.4,"git_describe":"abc1234"}"#;

    #[test]
    fn a_conforming_report_passes() {
        assert!(check(&format!("[{GOOD_ROW}]")).is_empty());
    }

    #[test]
    fn malformed_reports_fail_fast() {
        assert!(check("not json")[0].contains("not valid JSON"));
        assert!(check("{}")[0].contains("array"));
        assert!(check("[]")[0].contains("no bench rows"));
        assert!(check(r#"[{"bench":"x"}]"#)
            .iter()
            .any(|m| m.contains("missing key 'wall_s'")));
        assert!(check(
            r#"[{"bench":"","config":"c","wall_s":1,"trials_per_s":1,"git_describe":"g"}]"#
        )
        .iter()
        .any(|m| m.contains("'bench' must be a non-empty string")));
        assert!(check(
            r#"[{"bench":"b","config":"c","wall_s":-1,"trials_per_s":1,"git_describe":"g"}]"#
        )
        .iter()
        .any(|m| m.contains("non-negative number")));
        let extra = GOOD_ROW.replace("}", r#","surprise":1}"#);
        assert!(check(&format!("[{extra}]"))[0].contains("unexpected key 'surprise'"));
    }
}
