//! First-party byte-round-tripping JSON values for result files.
//!
//! The implementation lives in [`eua_sim::json`] — one JSON tree is
//! shared by every serializer in the workspace (decision certificates,
//! SARIF, bench result files), and one writer holds its layouts, so their
//! byte-round-trip guarantees come from a single writer/parser pair. The
//! tree borrows its text (`Json<'a>`): a parsed journal line borrows from
//! the line, so a record kept past it (a resumed campaign) is detached
//! with `Json::into_owned`. This module re-exports it under the
//! `crate::json` path the report writers and `--check` flags use.

pub use eua_sim::json::{parse, Json};
