//! Fuzz-ish robustness tests for the spec JSON parse path: every
//! mutation of the committed `specs/*.json` files must produce a clean
//! `Err`, never a panic. A panic anywhere in `json::parse` or
//! `MachineSpec::from_json` fails the test by unwinding.

use std::path::Path;
use tpu_spec::{json, MachineSpec, SpecError};

fn committed_specs() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("specs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .to_string();
            let text = std::fs::read_to_string(&path).expect("read spec");
            out.push((name, text));
        }
    }
    out.sort();
    assert!(out.len() >= 9, "expected the committed spec set");
    out
}

/// Parse attempts must return, not panic; both Ok and Err are fine
/// (some mutations leave the document valid).
fn must_not_panic(text: &str) {
    let _ = json::parse(text);
    let _ = MachineSpec::from_json(text);
}

#[test]
fn committed_specs_round_trip() {
    for (name, text) in committed_specs() {
        let spec = MachineSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back = MachineSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back, "{name} round trip changed the spec");
    }
}

#[test]
fn truncated_specs_error_cleanly() {
    for (_, text) in committed_specs() {
        for end in 0..text.len() {
            if text.is_char_boundary(end) {
                must_not_panic(&text[..end]);
            }
        }
    }
}

#[test]
fn byte_substitutions_error_cleanly() {
    // Replace each character with tokens chosen to confuse a parser:
    // delimiters, escapes, string openers, signs, and digits.
    let poisons = ['{', '}', '[', '"', '\\', '-', 'e', '9', '\u{0}'];
    for (_, text) in committed_specs() {
        let chars: Vec<char> = text.chars().collect();
        for i in 0..chars.len() {
            for &p in &poisons {
                let mut mutated: String = chars[..i].iter().collect();
                mutated.push(p);
                mutated.extend(&chars[i + 1..]);
                must_not_panic(&mutated);
            }
        }
    }
}

#[test]
fn splice_mutations_error_cleanly() {
    // Deterministic pseudo-random splices: delete a span, double a span,
    // or swap two spans. SplitMix64 keeps the stream reproducible.
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for (_, text) in committed_specs() {
        let chars: Vec<char> = text.chars().collect();
        let n = chars.len();
        for _ in 0..500 {
            let a = (next() as usize) % n;
            let b = a + (next() as usize) % (n - a).min(16);
            let mutated: String = match next() % 3 {
                0 => chars[..a].iter().chain(&chars[b..]).collect(),
                1 => chars[..b]
                    .iter()
                    .chain(&chars[a..b])
                    .chain(&chars[b..])
                    .collect(),
                _ => chars[a..b]
                    .iter()
                    .chain(&chars[..a])
                    .chain(&chars[b..])
                    .collect(),
            };
            must_not_panic(&mutated);
        }
    }
}

#[test]
fn handcrafted_pathological_documents_error_cleanly() {
    let cases: Vec<String> = vec![
        String::new(),
        " ".to_string(),
        "\u{feff}{}".to_string(), // BOM before the document
        "{".repeat(10_000),       // deep nesting
        "[".repeat(10_000),
        format!("{}1{}", "[".repeat(2_000), "]".repeat(2_000)),
        "{\"generation\":".to_string(), // cut mid-value
        "{\"generation\":}".to_string(),
        "{\"a\":1,}".to_string(), // trailing comma
        "{\"a\" 1}".to_string(),  // missing colon
        "\"unterminated".to_string(),
        "\"bad escape \\q\"".to_string(),
        "\"bad unicode \\u12".to_string(),
        "\"bad code point \\udfff\"".to_string(),
        "1e999".to_string(), // overflows to inf
        "-1e999".to_string(),
        "1e".to_string(),
        "--1".to_string(),
        "+1".to_string(),
        "0x10".to_string(),
        "NaN".to_string(),
        "nul".to_string(),
        "truefalse".to_string(),
        "{} {}".to_string(),                    // trailing document
        "{\"generation\":\"v99\"}".to_string(), // unknown generation
        format!("{{\"generation\":\"v4\",\"chip\":{}}}", "null"),
        "\u{1f600}".to_string(), // non-ASCII at top level
    ];
    for text in &cases {
        assert!(
            json::parse(text).is_err() || MachineSpec::from_json(text).is_err(),
            "pathological input unexpectedly produced a full spec: {text:.40}"
        );
        must_not_panic(text);
    }
}

#[test]
fn geometry_no_model_can_hold_is_rejected() {
    // Every placement model divides the fleet into blocks (or islands)
    // of hosts: a zero edge or host size, an edge whose cube overflows,
    // blocks of partial hosts, or a torus fleet that is not a positive
    // whole number of blocks, or is more blocks than the OCS fabric's
    // 64, must fail to parse, not crash later.
    for (name, text) in committed_specs() {
        let spec = MachineSpec::from_json(&text).unwrap();
        let block_chips = u64::from(spec.block.chips());
        let mut mutations: Vec<(&str, MachineSpec)> = Vec::new();
        let mut with = |field, edit: &dyn Fn(&mut MachineSpec)| {
            let mut mutated = spec.clone();
            edit(&mut mutated);
            mutations.push((field, mutated));
        };
        with("block.edge", &|s| s.block.edge = 0);
        with("block.edge", &|s| s.block.edge = 1626);
        with("block.tpus_per_host", &|s| s.block.tpus_per_host = 0);
        if spec.torus_dims == 0 {
            with("fleet_chips", &|s| s.fleet_chips = 0);
        } else {
            with("block.tpus_per_host", &|s| {
                s.block.tpus_per_host = s.block.chips() + 1
            });
            for fleet in [0, block_chips / 2, spec.fleet_chips + 1, 65 * block_chips] {
                with("fleet_chips", &|s| s.fleet_chips = fleet);
            }
        }
        for (field, mutated) in mutations {
            match MachineSpec::from_json(&mutated.to_json()) {
                Err(SpecError::InvalidField { field: got, .. }) => {
                    assert_eq!(got, field, "{name}: {mutated:?}");
                }
                other => panic!("{name}: {field} mutation gave {other:?}"),
            }
        }
    }
}
