#![allow(clippy::expect_used, clippy::unwrap_used)] // test code

//! Binary-level contract tests for `eua-lint`: the strict 2>1>0 exit
//! ordering, format selection, `--only` narrowing, the `codes` listing,
//! and golden SARIF pins for fixture sets and the whole fixture corpus.
//!
//! Regenerate the golden file with:
//!
//! ```text
//! EUA_REGEN_GOLDEN=1 cargo test -p eua-lint --test cli
//! ```

use std::path::Path;
use std::process::{Command, Output};

use eua_lint::LINT_CODES;

fn eua_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eua-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("eua-lint runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Byte-compares `rendered` with `tests/golden/<name>` and returns the
/// pinned text; under `EUA_REGEN_GOLDEN=1` rewrites the file instead.
fn golden(name: &str, rendered: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("EUA_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, rendered).expect("golden written");
        return rendered.to_string();
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (regenerate with EUA_REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "{name} drifted; regenerate with EUA_REGEN_GOLDEN=1 if deliberate"
    );
    golden
}

#[test]
fn clean_file_exits_zero_with_summary() {
    let out = eua_lint(&["check", "src/main.rs"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(stdout(&out), "eua-lint: 1 file(s) scanned, 0 finding(s)\n");
}

#[test]
fn hazard_fixture_exits_one() {
    let out = eua_lint(&["check", "tests/fixtures/wall_clock.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("lint-wall-clock"), "{text}");
    assert!(text.contains("Instant::now"), "{text}");
}

#[test]
fn missing_path_exits_two_even_with_findings_elsewhere() {
    let out = eua_lint(&["check", "tests/fixtures/wall_clock.rs", "no/such/file.rs"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(eua_lint(&[]).status.code(), Some(2));
    assert_eq!(
        eua_lint(&["check", "--format", "yaml"]).status.code(),
        Some(2)
    );
    assert_eq!(
        eua_lint(&["check", "--frmat", "text"]).status.code(),
        Some(2)
    );
    assert_eq!(
        eua_lint(&["check", "--check", "src/main.rs"]).status.code(),
        Some(2),
        "--check without sarif is a usage error"
    );
    assert_eq!(
        eua_lint(&["check", "--only", "lint-bogus", "src/main.rs"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn only_narrows_the_scan() {
    // The wall-clock fixture is clean under a thread-spawn-only scan.
    let out = eua_lint(&[
        "check",
        "--only",
        "lint-thread-spawn",
        "tests/fixtures/wall_clock.rs",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    // And dirty when its own code is selected.
    let out = eua_lint(&[
        "check",
        "--only",
        "lint-wall-clock",
        "tests/fixtures/wall_clock.rs",
    ]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn only_keeps_directive_meta_codes_live() {
    // A typo'd directive must fail even under a narrowed run.
    let out = eua_lint(&[
        "check",
        "--only",
        "lint-wall-clock",
        "tests/fixtures/unknown_suppression.rs",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("lint-unknown-suppression"));
}

#[test]
fn codes_lists_the_registry_in_order() {
    let out = eua_lint(&["codes"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let listed: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("code column"))
        .collect();
    let expected: Vec<&str> = LINT_CODES.iter().map(|c| c.as_str()).collect();
    assert_eq!(listed, expected);
    assert!(text.lines().all(|l| l.contains("error")), "{text}");
}

#[test]
fn json_format_renders_reports() {
    let out = eua_lint(&["check", "--format", "json", "tests/fixtures/wall_clock.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.starts_with('['), "{text}");
    assert!(text.contains("\"lint-wall-clock\""), "{text}");
}

/// The SARIF output for the wall-clock fixture is byte-pinned: a drift
/// means the SARIF writer, the rule's spans, or the message text changed
/// — all deliberate events that must update the fixture.
#[test]
fn wall_clock_sarif_is_golden() {
    let out = eua_lint(&[
        "check",
        "--format",
        "sarif",
        "--check",
        "tests/fixtures/wall_clock.rs",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let rendered = stdout(&out);
    let golden = golden("wall_clock.sarif", &rendered);
    // The pinned document names the right driver and both findings.
    assert!(golden.contains("\"name\": \"eua-lint\""));
    assert_eq!(golden.matches("\"ruleId\": \"lint-wall-clock\"").count(), 2);
}

/// A scratch file for the `--fix` tests, removed on drop.
struct Scratch {
    dir: std::path::PathBuf,
    file: std::path::PathBuf,
}

impl Scratch {
    fn new(name: &str, content: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("eua-lint-fix-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let file = dir.join("scratch.rs");
        std::fs::write(&file, content).expect("scratch file");
        Scratch { dir, file }
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.file).expect("scratch readable")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const FIXABLE: &str = "// eua-lint: allow(lint-wall-clock)\n\
                       fn rank(xs: &mut [f64]) {\n\
                       \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                       }\n";

const FIXED: &str = "fn rank(xs: &mut [f64]) {\n\
                     \x20   xs.sort_by(|a, b| a.total_cmp(b));\n\
                     }\n";

#[test]
fn apply_without_fix_is_a_usage_error() {
    assert_eq!(
        eua_lint(&["check", "--apply", "src/main.rs"]).status.code(),
        Some(2)
    );
    assert_eq!(
        eua_lint(&["check", "--fix", "--format", "sarif", "src/main.rs"])
            .status
            .code(),
        Some(2),
        "--fix only applies to text output"
    );
}

#[test]
fn fix_dry_run_prints_fixed_text_without_touching_the_file() {
    let scratch = Scratch::new("dry", FIXABLE);
    let path = scratch.file.display().to_string();
    let out = eua_lint(&["check", "--fix", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(stdout(&out), FIXED);
    let err = String::from_utf8(out.stderr.clone()).expect("utf-8 stderr");
    assert!(err.contains("fixed [lint-unused-suppression]"), "{err}");
    assert!(err.contains("fixed [lint-float-sort-partial-cmp]"), "{err}");
    assert!(err.contains("2 fix(es) applied"), "{err}");
    assert_eq!(scratch.read(), FIXABLE, "dry run must not rewrite");
}

#[test]
fn fix_apply_rewrites_in_place_and_is_idempotent() {
    let scratch = Scratch::new("apply", FIXABLE);
    let path = scratch.file.display().to_string();
    let out = eua_lint(&["check", "--fix", "--apply", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(stdout(&out), "", "--apply prints no file contents");
    assert_eq!(scratch.read(), FIXED);
    // Second run: nothing left to fix, file untouched.
    let again = eua_lint(&["check", "--fix", "--apply", &path]);
    assert_eq!(again.status.code(), Some(0));
    let err = String::from_utf8(again.stderr.clone()).expect("utf-8 stderr");
    assert!(err.contains("nothing to fix"), "{err}");
    assert_eq!(scratch.read(), FIXED);
}

/// The `--fix` rewrite for raw time arithmetic, pinned against an
/// on-disk before/after pair: applying the fix to the before file must
/// produce the after file byte-for-byte, and a second pass must find
/// nothing left to fix (the idempotence contract at the binary level).
#[test]
fn time_arith_fix_matches_the_fixture_pair() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fix");
    let before = std::fs::read_to_string(dir.join("time_arith_before.rs")).expect("before");
    let after = std::fs::read_to_string(dir.join("time_arith_after.rs")).expect("after");
    let scratch = Scratch::new("arith", &before);
    let path = scratch.file.display().to_string();
    let out = eua_lint(&["check", "--fix", "--apply", &path]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(scratch.read(), after);
    let again = eua_lint(&["check", "--fix", "--apply", &path]);
    assert_eq!(again.status.code(), Some(0));
    let err = String::from_utf8(again.stderr.clone()).expect("utf-8 stderr");
    assert!(err.contains("nothing to fix"), "{err}");
    assert_eq!(scratch.read(), after);
}

/// The three dataflow-rule fixtures, scanned as one workspace and
/// byte-pinned through the SARIF self-check (`--check` re-parses the
/// output and asserts `render(parse(x)) == x` before printing). This
/// pins the loop-depth message, the taint witness text, and the
/// saturating fix marker as they appear on the wire.
#[test]
fn dataflow_fixtures_sarif_is_golden() {
    let out = eua_lint(&[
        "check",
        "--format",
        "sarif",
        "--check",
        "tests/fixtures/loop_alloc.rs",
        "tests/fixtures/seed_taint.rs",
        "tests/fixtures/unchecked_time_arith.rs",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let rendered = stdout(&out);
    let golden = golden("dataflow.sarif", &rendered);
    for rule in [
        "lint-loop-alloc",
        "lint-seed-taint",
        "lint-unchecked-time-arith",
    ] {
        assert_eq!(
            golden.matches(&format!("\"ruleId\": \"{rule}\"")).count(),
            1,
            "{rule}"
        );
    }
}

/// The four interprocedural fixtures, scanned as one workspace, are
/// byte-pinned through the SARIF self-check (`--check` re-parses the
/// output and asserts `render(parse(x)) == x` before printing). This
/// pins the chain text, the unit-flow message, and the witness chain
/// as they appear on the wire.
#[test]
fn interprocedural_fixtures_sarif_is_golden() {
    let out = eua_lint(&[
        "check",
        "--format",
        "sarif",
        "--check",
        "tests/fixtures/hot_path_blocking.rs",
        "tests/fixtures/unit_flow_mismatch.rs",
        "tests/fixtures/pool_closure_impure.rs",
        "tests/fixtures/unresolved_call.rs",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let rendered = stdout(&out);
    let golden = golden("interproc.sarif", &rendered);
    for rule in [
        "lint-hot-path-blocking",
        "lint-unit-flow-mismatch",
        "lint-pool-closure-impure",
        "lint-unresolved-call",
    ] {
        assert_eq!(
            golden.matches(&format!("\"ruleId\": \"{rule}\"")).count(),
            1,
            "{rule}"
        );
    }
}

/// The whole fixture corpus — every rule fixture plus the lexer, CFG
/// and fix corpora — scanned as one workspace and byte-pinned, so a
/// change to any finding, span or message anywhere in it shows up
/// here, not only in the subsets the goldens above pin.
#[test]
fn fixture_corpus_sarif_is_golden() {
    let out = eua_lint(&["check", "--format", "sarif", "--check", "tests/fixtures"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let golden = golden("fixtures.sarif", &stdout(&out));
    for code in LINT_CODES {
        assert!(
            golden.contains(&format!("\"ruleId\": \"{}\"", code.as_str())),
            "{} has no finding in the corpus",
            code.as_str()
        );
    }
}
