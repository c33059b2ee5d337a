//! No-op `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros.
//!
//! This crate stands in for the real `serde_derive`. The derives expand
//! to nothing: the annotated types gain no trait impls, which is
//! sufficient because the workspace only *marks* types as serializable
//! and never calls a serde serializer. Real wire formats go through
//! `tpu_spec::json`, which is hand-rolled.

use proc_macro::TokenStream;

/// Expands to nothing; accepts anything `#[derive(Serialize)]` is put
/// on, including `#[serde(...)]` field/container attributes (which the
/// real derive also registers and consumes).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing; accepts anything `#[derive(Deserialize)]` is put
/// on, including `#[serde(...)]` field/container attributes.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
