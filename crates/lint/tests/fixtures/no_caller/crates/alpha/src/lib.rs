//! Library items, one per case the `no-caller` rule decides.

/// Nothing names this anywhere: flagged.
pub fn uncalled() {}

/// Called from another crate's library code: not flagged.
pub fn called_across_files() {}

/// Named only in this file's `#[cfg(test)]` module: flagged.
pub fn named_in_cfg_test() {}

/// Named only in `crates/alpha/tests/`: flagged.
pub fn named_in_tests_dir() {}

/// Named only in a doc comment of `beta`: flagged.
pub fn named_in_doc_comment() {}

/// Re-exported by `beta` and never called: flagged.
pub fn only_reexported() {}

/// Called from `examples/`: not flagged.
pub fn called_from_example() {}

/// Called from `perfbench/src`: not flagged.
pub fn called_from_perfbench() {}

/// A constant nothing reads: flagged.
pub const UNREAD: u32 = 1;

/// Crate-visible items are rustc's `dead_code` to judge: not flagged.
pub(crate) fn crate_visible() {}

/// Kept on purpose: the suppression silences the finding.
// tpu-lint: allow(no-caller) -- the fixture's golden suite drives it
pub fn kept_hook() {}

/// Has a caller, so its suppression silences nothing.
// tpu-lint: allow(no-caller) -- stale: `beta` calls this now
pub fn called_but_suppressed() {}

/// Qualifiers before `fn` do not hide an uncalled item: flagged.
pub const fn const_fn_uncalled() -> u32 {
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exercises_the_helper() {
        named_in_cfg_test();
    }
}
