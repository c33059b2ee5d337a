//! Callers in library code, plus names that are not calls.

pub use alpha::only_reexported;

/// Unlike [`alpha::named_in_doc_comment`], this calls its helpers.
pub fn entry() {
    alpha::called_across_files();
    alpha::called_but_suppressed();
}
