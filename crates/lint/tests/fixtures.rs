#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! The fixture corpus contract: one minimal bad-snippet `.rs` file per
//! `lint-*` code, each tripping **exactly** its own code — at least one
//! finding, and no finding of any other code. This pins both directions
//! of every rule at once: the rule fires on its canonical hazard, and no
//! other rule misfires on the same snippet (the cross-contamination trap
//! that grep-based lints cannot express).

use std::collections::BTreeSet;
use std::path::PathBuf;

use eua_analyze::DiagCode;
use eua_lint::{all_codes, lint_source, LINT_CODES};

fn fixture_path(name: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture file for a code: `lint-time-unit` → `time_unit.rs`.
fn fixture_name(code: DiagCode) -> String {
    format!(
        "{}.rs",
        code.as_str()
            .strip_prefix("lint-")
            .expect("lint codes are lint-*")
            .replace('-', "_")
    )
}

/// Lints one fixture and returns the distinct codes plus finding count.
fn lint_fixture(code: DiagCode) -> (BTreeSet<&'static str>, usize) {
    let path = fixture_path(&fixture_name(code));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let lint = lint_source(&path.display().to_string(), &text, &all_codes());
    let codes: BTreeSet<&'static str> = lint
        .report
        .diagnostics
        .iter()
        .map(|d| d.code.as_str())
        .collect();
    (codes, lint.report.diagnostics.len())
}

/// Every code has a fixture, and every fixture trips exactly its code.
#[test]
fn each_code_has_a_fixture_tripping_exactly_itself() {
    for code in LINT_CODES {
        let (codes, count) = lint_fixture(code);
        assert!(count >= 1, "fixture for {} tripped nothing", code.as_str());
        assert_eq!(
            codes,
            BTreeSet::from([code.as_str()]),
            "fixture for {} must trip exactly that code",
            code.as_str()
        );
    }
}

/// No stray files: the corpus is exactly one fixture per code, so a
/// renamed code cannot leave an orphan behind. Subdirectories (the
/// lexer edge-case corpus) are exempt — the contract governs rule
/// fixtures, which are all top-level files.
#[test]
fn fixture_corpus_is_exactly_one_file_per_code() {
    let dir = fixture_path("");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry"))
        .filter(|e| e.file_type().expect("file type").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = LINT_CODES.iter().map(|c| fixture_name(*c)).collect();
    expected.sort();
    assert_eq!(on_disk, expected);
}

/// The lexer edge-case corpus: raw strings with hashes, nested block
/// comments, raw and non-ASCII identifiers, and a shebang line. Each
/// file hides hazard names inside non-code contexts, so each must lint
/// fully clean AND leak none of those names into the code token stream.
#[test]
fn lexer_edge_fixtures_produce_no_spurious_tokens() {
    use eua_lint::lexer::{lex, TokKind};

    let dir = fixture_path("lexer");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("lexer fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "nested_comments.rs",
            "non_ascii.rs",
            "raw_idents.rs",
            "raw_strings.rs",
            "shebang.rs"
        ]
    );
    for name in &names {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let lint = lint_source(name, &text, &all_codes());
        assert!(
            lint.report.diagnostics.is_empty(),
            "{name} must lint clean:\n{}",
            lint.report.render_text()
        );
        let toks = lex(&text);
        for hidden in ["thread", "spawn", "Instant", "HashMap", "SystemTime", "now"] {
            assert!(
                !toks
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == hidden),
                "{name} leaked `{hidden}` into the code token stream"
            );
        }
        match name.as_str() {
            "shebang.rs" => {
                let first = toks.first().expect("tokens after shebang");
                assert!(first.line >= 2, "shebang line must produce no tokens");
            }
            "non_ascii.rs" => {
                for ident in ["ρ", "r#σ", "größe"] {
                    assert!(
                        toks.iter()
                            .any(|t| t.kind == TokKind::Ident && t.text == ident),
                        "non-ASCII identifier `{ident}` must lex as one token"
                    );
                }
            }
            "raw_idents.rs" => {
                assert!(
                    toks.iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "r#type"),
                    "raw identifier must lex as one token, r# included"
                );
            }
            _ => {}
        }
    }
}

/// The CFG edge-case corpus: each fixture's graph shape is pinned —
/// block, edge, and back-edge counts plus the maximum loop depth — so
/// a builder change that silently reshapes graphs fails here, next to
/// the source that exhibits the shape.
#[test]
fn cfg_corpus_graph_shapes_are_pinned() {
    use eua_lint::cfg::Cfg;
    use eua_lint::lexer::{lex, Tok, TokKind};
    use eua_lint::parser::parse_file;

    // (file, blocks, edges, back edges, max loop depth)
    let pins: [(&str, usize, usize, usize, u32); 5] = [
        ("early_returns.rs", 6, 7, 0, 0),
        ("labeled_break.rs", 10, 12, 2, 2),
        ("match_guards.rs", 6, 7, 0, 0),
        ("nested_loops.rs", 11, 12, 2, 3),
        ("question_mark.rs", 2, 1, 0, 0),
    ];
    let dir = fixture_path("cfg");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("cfg fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, pins.map(|p| p.0), "corpus and pins must agree");

    let mut actual = Vec::new();
    for (name, ..) in pins {
        let text = std::fs::read_to_string(dir.join(name)).expect("fixture readable");
        let toks = lex(&text);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let parsed = parse_file(&code);
        assert_eq!(parsed.fns.len(), 1, "{name} holds exactly one fn");
        let cfg = Cfg::build(&code, parsed.fns[0].body);
        let depth = cfg.blocks.iter().map(|b| b.depth).max().unwrap_or(0);
        assert!(
            cfg.back_edges.iter().all(|e| cfg.edges.contains(e)),
            "{name}: back edges must be a subset of edges"
        );
        actual.push((
            name,
            cfg.blocks.len(),
            cfg.edges.len(),
            cfg.back_edges.len(),
            depth,
        ));
    }
    assert_eq!(actual, pins, "graph shapes drifted");
}

/// Spot-check spans and entities on the wall-clock fixture (the same
/// fixture the golden SARIF pin renders, so a drift here points at the
/// rule rather than the SARIF writer).
#[test]
fn wall_clock_fixture_has_token_exact_spans() {
    let path = fixture_path("wall_clock.rs");
    let text = std::fs::read_to_string(&path).expect("fixture");
    let lint = lint_source("tests/fixtures/wall_clock.rs", &text, &all_codes());
    let entities: Vec<&str> = lint
        .report
        .diagnostics
        .iter()
        .filter_map(|d| d.entity.as_deref())
        .collect();
    assert_eq!(entities, ["Instant::now", "SystemTime"]);
    let spans: Vec<_> = lint.spans.iter().map(|s| s.expect("spanned")).collect();
    assert_eq!((spans[0].start_line, spans[0].start_col), (5, 19));
    assert_eq!(spans[0].end_col, spans[0].start_col + 12);
    assert_eq!((spans[1].start_line, spans[1].start_col), (6, 17));
}

/// The hot-path fixture only fires inside the marked function.
#[test]
fn hot_path_fixture_spares_the_unmarked_function() {
    let path = fixture_path("hot_path_alloc.rs");
    let text = std::fs::read_to_string(&path).expect("fixture");
    let lint = lint_source("hot_path_alloc.rs", &text, &all_codes());
    assert_eq!(lint.report.diagnostics.len(), 1);
    // The marked `decide` body starts on line 9; `cold_copy`'s identical
    // call on line 5 must stay clean.
    assert_eq!(lint.spans[0].expect("spanned").start_line, 10);
}
