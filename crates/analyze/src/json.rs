//! First-party byte-round-tripping JSON values for SARIF.
//!
//! The implementation lives in [`eua_sim::json`] — one JSON tree is
//! shared by every serializer in the workspace (decision certificates,
//! SARIF, bench result files), and one writer holds its layouts, so their
//! byte-round-trip guarantees come from a single writer/parser pair. The
//! tree borrows its text (`Json<'a>`): a builder's `"key".into()` is a
//! `'static` key, and a parsed document borrows from its input. This
//! module re-exports it under the `crate::json` path the SARIF writer
//! and the `--check` flag use.

pub use eua_sim::json::{parse, Json};
