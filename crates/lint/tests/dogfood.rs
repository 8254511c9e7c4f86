#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! The dogfood gate: the workspace's own first-party sources must lint
//! clean. This is the same scan `ci.sh` runs; having it as a test keeps
//! `cargo test` sufficient to catch a new hazard before CI does.

use std::path::PathBuf;

use eua_lint::lexer::lex;
use eua_lint::{all_codes, collect_sources, lint_roots, DEFAULT_ROOTS};

/// The default scan roots that exist under the workspace root.
fn workspace_roots() -> Vec<PathBuf> {
    let ws = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let roots: Vec<PathBuf> = DEFAULT_ROOTS
        .iter()
        .map(|r| ws.join(r))
        .filter(|p| p.exists())
        .collect();
    assert!(!roots.is_empty(), "no scan roots under {}", ws.display());
    roots
}

#[test]
fn workspace_sources_lint_clean() {
    let lints = lint_roots(&workspace_roots(), &all_codes()).expect("workspace readable");
    assert!(lints.len() > 50, "suspiciously few files: {}", lints.len());
    let dirty: Vec<String> = lints
        .iter()
        .filter(|l| !l.report.diagnostics.is_empty())
        .map(|l| l.report.render_text())
        .collect();
    assert!(dirty.is_empty(), "{}", dirty.join("\n"));
}

/// The lexer must survive any text a `.rs` file can hold, including one
/// cut mid-string or mid-comment, where prose (often non-ASCII) lands
/// in code position: every first-party source is lexed cut at 16 evenly
/// spaced char boundaries, prefix and suffix.
#[test]
fn lexer_survives_sources_cut_at_any_char_boundary() {
    let mut files = Vec::new();
    for root in workspace_roots() {
        collect_sources(&root, &mut files).expect("workspace readable");
    }
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source readable");
        let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        for k in 1..=16 {
            let cut = bounds
                .get(bounds.len() * k / 17)
                .copied()
                .unwrap_or(text.len());
            for part in [&text[..cut], &text[cut..]] {
                let lexed = std::panic::catch_unwind(|| lex(part).len());
                assert!(lexed.is_ok(), "{} cut at byte {cut}", path.display());
            }
        }
    }
}
