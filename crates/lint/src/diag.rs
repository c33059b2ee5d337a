//! Diagnostics: the unit of lint output.

use std::fmt;

/// One finding, pointing at a workspace-relative `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Stable rule name (`determinism`, `unit-hygiene`, `panic-policy`,
    /// `citation`, `no-caller`, `bench-schema`, `bad-suppression`,
    /// `unused-suppression`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Sort key giving the deterministic output order: path, then
    /// position, then rule name.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str, String) {
        (
            self.file.clone(),
            self.line,
            self.col,
            self.rule,
            self.message.clone(),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON document for CI consumption.
///
/// Schema (documented in `docs/static-analysis.md`):
/// `{"version":1,"count":N,"diagnostics":[{"file","line","col","rule","message"}…]}`
pub fn to_json(diags: &[Diagnostic]) -> String {
    use tpu_spec::json::JsonValue;
    let rows: Vec<JsonValue> = diags
        .iter()
        .map(|d| {
            JsonValue::Obj(vec![
                ("file".to_string(), JsonValue::Str(d.file.clone())),
                ("line".to_string(), JsonValue::Num(f64::from(d.line))),
                ("col".to_string(), JsonValue::Num(f64::from(d.col))),
                ("rule".to_string(), JsonValue::Str(d.rule.to_string())),
                ("message".to_string(), JsonValue::Str(d.message.clone())),
            ])
        })
        .collect();
    let doc = JsonValue::Obj(vec![
        ("version".to_string(), JsonValue::Num(1.0)),
        ("count".to_string(), JsonValue::Num(diags.len() as f64)),
        ("diagnostics".to_string(), JsonValue::Arr(rows)),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_col_rule_message() {
        let d = Diagnostic {
            file: "crates/net/src/lib.rs".into(),
            line: 3,
            col: 7,
            rule: "determinism",
            message: "HashMap has nondeterministic iteration order".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/net/src/lib.rs:3:7: determinism: HashMap has nondeterministic iteration order"
        );
    }

    #[test]
    fn json_round_trips_through_the_spec_parser() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 1,
            col: 2,
            rule: "citation",
            message: "m \"quoted\"".into(),
        };
        let text = to_json(&[d]);
        let v = tpu_spec::json::parse(&text).unwrap();
        assert_eq!(v.key("count"), Some(&tpu_spec::json::JsonValue::Num(1.0)));
    }
}
