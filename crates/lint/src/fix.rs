//! Machine-applicable fixes for `eua-lint` findings.
//!
//! [`fix_file`] takes a file's findings (computed under workspace
//! semantics, so cross-file cold barriers are judged fairly) and its
//! text, and returns the rewritten text plus what changed. The same
//! contract as `eua-analyze check --fix`: the rewrite is **idempotent**
//! — re-linting the result and re-fixing applies nothing — and only
//! provably mechanical conditions are touched:
//!
//! | finding | rewrite |
//! |---------|---------|
//! | unused `allow(...)` | delete the directive, or narrow it to the codes still earning their keep |
//! | stale `cold` barrier | delete the directive |
//! | surplus `unresolved-budget(n)` | tighten `n` to the file's actual count, or delete at zero |
//! | `partial_cmp` in a sort comparator | `.partial_cmp(x).unwrap()` → `.total_cmp(x)` (also `expect`/`unwrap_or`/`unwrap_or_else`) |
//! | raw time arithmetic | `a + b` → `a.saturating_add(b)` (method named by the finding; also `saturating_sub`/`mul`/`since`) |
//!
//! The float rewrite is gated on a `lint-float-sort-partial-cmp`
//! finding: inside a sort-family comparator the operands are floats (the
//! rule's premise), so `total_cmp` exists there. A bare `partial_cmp`
//! with no unwrapping adapter is left alone — dropping an `Option`
//! cannot be done mechanically without changing the expression's type.
//!
//! The time-arith rewrite is gated the same way: the dataflow rule only
//! names a method (the `use \`.saturating_add(…)\`` marker) when both
//! operand kinds are proven, so the method is type-correct by the
//! rule's premise. The fixer still re-derives the *shape* from the
//! tokens at the finding span — a single-ident left operand with an
//! expression boundary before it, and a single-ident or literal right
//! operand with a boundary after — so a precedence-sensitive neighbor
//! (`x * a + b`) or an operand that is itself an expression is left
//! for the human. After the splice no raw operator remains, so the
//! rewrite is idempotent by construction.

use std::ops::Range;

use eua_analyze::{DiagCode, Span};

use crate::lexer::{lex, Tok, TokKind};
use crate::parser::match_bracket;
use crate::FileLint;

/// One applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedFix {
    /// The code the rewrite discharges.
    pub code: DiagCode,
    /// 1-based line of the rewritten text.
    pub line: u32,
    /// Human-readable description of the rewrite.
    pub action: String,
}

/// A pending byte-range splice on the original text.
struct Edit {
    range: Range<usize>,
    replacement: String,
    fix: Option<AppliedFix>,
}

/// Byte offset of each 1-based line's first byte.
fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Byte offset of a token inside the text it was lexed from (token
/// texts are slices of the source, so plain address arithmetic works).
fn off(text: &str, t: &Tok<'_>) -> usize {
    t.text.as_ptr() as usize - text.as_ptr() as usize
}

/// The byte extent of a directive-comment deletion: the whole line when
/// the directive is alone on it (trailing newline included), otherwise
/// the comment and the whitespace run before it.
fn directive_deletion(text: &str, starts: &[usize], span: Span) -> Range<usize> {
    let line_start = starts[span.start_line as usize - 1];
    let comment_at = line_start + span.start_col as usize - 1;
    let eol = text[comment_at..]
        .find('\n')
        .map_or(text.len(), |i| comment_at + i);
    if text[line_start..comment_at].trim().is_empty() {
        line_start..(eol + 1).min(text.len())
    } else {
        let code_end = line_start + text[line_start..comment_at].trim_end().len();
        code_end..eol
    }
}

/// The byte extent of the directive comment itself (to end of line),
/// for in-place rewrites that keep the line.
fn directive_extent(text: &str, starts: &[usize], span: Span) -> Range<usize> {
    let line_start = starts[span.start_line as usize - 1];
    let comment_at = line_start + span.start_col as usize - 1;
    let eol = text[comment_at..]
        .find('\n')
        .map_or(text.len(), |i| comment_at + i);
    comment_at..eol
}

/// Parses the `allow(a, b, …)` code list out of a directive comment.
fn allow_codes(comment: &str) -> Option<Vec<String>> {
    let rest = comment
        .strip_prefix("//")?
        .trim_start()
        .strip_prefix("eua-lint:")?
        .trim();
    let inner = rest.strip_prefix("allow(")?.strip_suffix(')')?;
    Some(
        inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// Pulls the actual consequential-site count out of the surplus-budget
/// message ("unresolved-budget(b) exceeds the file's N consequential
/// ambiguous call(s); …").
fn surplus_actual(message: &str) -> Option<usize> {
    let after = message.split("the file's ").nth(1)?;
    after.split_whitespace().next()?.parse::<usize>().ok()
}

/// Builds the unused-suppression edits: findings are grouped by
/// directive span because one `allow(a, b)` yields one finding per
/// unused code and must be rewritten (or deleted) exactly once.
fn suppression_edits(lint: &FileLint, text: &str, starts: &[usize], edits: &mut Vec<Edit>) {
    let mut groups: Vec<(Span, Vec<usize>)> = Vec::new();
    for (i, d) in lint.report.diagnostics.iter().enumerate() {
        if d.code != DiagCode::LintUnusedSuppression {
            continue;
        }
        let Some(span) = lint.spans[i] else { continue };
        match groups.iter_mut().find(|(s, _)| *s == span) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((span, vec![i])),
        }
    }
    for (span, idxs) in groups {
        let extent = directive_extent(text, starts, span);
        let comment = &text[extent.clone()];
        let entities: Vec<&str> = idxs
            .iter()
            .filter_map(|&i| lint.report.diagnostics[i].entity.as_deref())
            .collect();
        if entities.contains(&"cold") {
            edits.push(Edit {
                range: directive_deletion(text, starts, span),
                replacement: String::new(),
                fix: Some(AppliedFix {
                    code: DiagCode::LintUnusedSuppression,
                    line: span.start_line,
                    action: "removed stale cold barrier".into(),
                }),
            });
        } else if entities.contains(&"unresolved-budget") {
            let Some(actual) = surplus_actual(&lint.report.diagnostics[idxs[0]].message) else {
                continue;
            };
            if actual == 0 {
                edits.push(Edit {
                    range: directive_deletion(text, starts, span),
                    replacement: String::new(),
                    fix: Some(AppliedFix {
                        code: DiagCode::LintUnusedSuppression,
                        line: span.start_line,
                        action: "removed surplus unresolved-budget".into(),
                    }),
                });
            } else {
                edits.push(Edit {
                    range: extent,
                    replacement: format!("// eua-lint: unresolved-budget({actual})"),
                    fix: Some(AppliedFix {
                        code: DiagCode::LintUnusedSuppression,
                        line: span.start_line,
                        action: format!("tightened unresolved-budget to {actual}"),
                    }),
                });
            }
        } else if let Some(named) = allow_codes(comment) {
            let kept: Vec<String> = named
                .iter()
                .filter(|c| !entities.contains(&c.as_str()))
                .cloned()
                .collect();
            if kept.is_empty() {
                edits.push(Edit {
                    range: directive_deletion(text, starts, span),
                    replacement: String::new(),
                    fix: Some(AppliedFix {
                        code: DiagCode::LintUnusedSuppression,
                        line: span.start_line,
                        action: format!("removed stale allow({})", named.join(", ")),
                    }),
                });
            } else {
                edits.push(Edit {
                    range: extent,
                    replacement: format!("// eua-lint: allow({})", kept.join(", ")),
                    fix: Some(AppliedFix {
                        code: DiagCode::LintUnusedSuppression,
                        line: span.start_line,
                        action: format!("narrowed allow to ({})", kept.join(", ")),
                    }),
                });
            }
        }
    }
}

/// The unwrapping adapters whose removal turns `Option<Ordering>` back
/// into `Ordering` (what `total_cmp` returns directly).
const UNWRAP_FAMILY: [&str; 4] = ["unwrap", "expect", "unwrap_or", "unwrap_or_else"];

/// Builds the `partial_cmp` → `total_cmp` edits for flagged sort
/// comparators.
fn float_edits(lint: &FileLint, text: &str, edits: &mut Vec<Edit>) {
    let toks = lex(text);
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
        .collect();
    for (i, d) in lint.report.diagnostics.iter().enumerate() {
        if d.code != DiagCode::LintFloatSortPartialCmp {
            continue;
        }
        let Some(span) = lint.spans[i] else { continue };
        let Some(at) = code.iter().position(|t| {
            t.line == span.start_line && t.col == span.start_col && t.text == "partial_cmp"
        }) else {
            continue;
        };
        // Shape: `.partial_cmp ( … ) . adapter ( … )` — anything else
        // is not mechanically rewritable.
        if at == 0 || code[at - 1].kind != TokKind::Dot {
            continue;
        }
        if code.get(at + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        // An unbalanced call leaves `args_close` at `code.len()`, where
        // the adapter match below finds nothing.
        let args_close = match_bracket(&code, at + 1);
        let adapter = match (code.get(args_close + 1), code.get(args_close + 2)) {
            (Some(dot), Some(name))
                if dot.kind == TokKind::Dot
                    && name.kind == TokKind::Ident
                    && UNWRAP_FAMILY.contains(&name.text) =>
            {
                name.text
            }
            _ => continue,
        };
        if code.get(args_close + 3).map(|t| t.text) != Some("(") {
            continue;
        }
        let Some(adapter_close) = code.get(match_bracket(&code, args_close + 3)) else {
            continue;
        };
        edits.push(Edit {
            range: off(text, code[at])..off(text, code[at]) + "partial_cmp".len(),
            replacement: "total_cmp".into(),
            fix: Some(AppliedFix {
                code: DiagCode::LintFloatSortPartialCmp,
                line: span.start_line,
                action: format!("rewrote partial_cmp(…).{adapter}(…) to total_cmp(…)"),
            }),
        });
        edits.push(Edit {
            range: off(text, code[args_close]) + 1..off(text, adapter_close) + 1,
            replacement: String::new(),
            fix: None,
        });
    }
}

/// Pulls the replacement method out of a fixable time-arith message
/// ("… use `.saturating_add(…)` instead"). Unfixable findings
/// (compound assignments, unit-newtype mixes with no matching method)
/// carry no marker and return `None`.
fn time_arith_method(message: &str) -> Option<&str> {
    let after = message.split("use `.").nth(1)?;
    Some(&after[..after.find('(')?])
}

/// Whether `t` can immediately precede a whole binary expression — the
/// guard that keeps `x * a + b` from being spliced into
/// `x * a.saturating_add(b)`.
fn expr_boundary_before(t: &Tok<'_>) -> bool {
    matches!(t.kind, TokKind::Open)
        || (t.kind == TokKind::Punct && matches!(t.text, "=" | "," | ";" | "|" | ">"))
        || t.is_ident("return")
}

/// Whether `t` terminates the right operand — nothing after it binds
/// tighter than the spliced call would.
fn expr_boundary_after(t: &Tok<'_>) -> bool {
    matches!(t.kind, TokKind::Close) || (t.kind == TokKind::Punct && matches!(t.text, ";" | ","))
}

/// Whether `s` looks like one numeric literal (`10`, `1_000`, `0x9E37`)
/// — the only right-operand text safe to carry into the call verbatim.
fn numeric_literal(s: &str) -> bool {
    let mut bytes = s.bytes();
    bytes.next().is_some_and(|b| b.is_ascii_digit())
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Builds the `lhs op rhs` → `lhs.method(rhs)` edits for flagged raw
/// time arithmetic.
fn time_arith_edits(lint: &FileLint, text: &str, edits: &mut Vec<Edit>) {
    let toks = lex(text);
    let code: Vec<&Tok<'_>> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
        .collect();
    for (i, d) in lint.report.diagnostics.iter().enumerate() {
        if d.code != DiagCode::LintUncheckedTimeArith {
            continue;
        }
        let Some(method) = time_arith_method(&d.message) else {
            continue;
        };
        let Some(span) = lint.spans[i] else { continue };
        // A fixable finding proved the left operand's kind, which
        // requires an ident — the span therefore starts on it.
        let Some(at) = code.iter().position(|t| {
            t.line == span.start_line && t.col == span.start_col && t.kind == TokKind::Ident
        }) else {
            continue;
        };
        let lhs = code[at];
        if at > 0 && !expr_boundary_before(code[at - 1]) {
            continue;
        }
        let Some(op) = code.get(at + 1) else { continue };
        if op.kind != TokKind::Punct || !matches!(op.text, "+" | "-" | "*") {
            continue;
        }
        if code
            .get(at + 2)
            .is_some_and(|n| n.text == "=" && crate::flow::adjacent(op, n))
        {
            continue;
        }
        let lhs_at = off(text, lhs);
        let op_end = off(text, op) + op.text.len();
        let Some(after_rhs) = code.get(at + 2) else {
            continue;
        };
        let (range, rhs_txt) = if after_rhs.kind == TokKind::Ident {
            // `lhs op rhs` with a terminator right after: the right
            // operand is exactly one ident.
            if !code.get(at + 3).is_some_and(|t| expr_boundary_after(t)) {
                continue;
            }
            let rhs_end = off(text, after_rhs) + after_rhs.text.len();
            (lhs_at..rhs_end, after_rhs.text.to_string())
        } else if expr_boundary_after(after_rhs) {
            // A numeric literal lexes to no token: the right operand is
            // the source text between the operator and the terminator.
            let seg = &text[op_end..off(text, after_rhs)];
            let lit = seg.trim();
            if !numeric_literal(lit) {
                continue;
            }
            let lit_at = op_end + (seg.len() - seg.trim_start().len());
            (lhs_at..lit_at + lit.len(), lit.to_string())
        } else {
            continue;
        };
        edits.push(Edit {
            range,
            replacement: format!("{}.{method}({rhs_txt})", lhs.text),
            fix: Some(AppliedFix {
                code: DiagCode::LintUncheckedTimeArith,
                line: span.start_line,
                action: format!(
                    "rewrote `{}` to `.{method}(…)`",
                    d.entity.as_deref().unwrap_or("raw time arithmetic")
                ),
            }),
        });
    }
}

/// Applies every machine rewrite for this file's findings, returning
/// the new text and the applied fixes (empty when nothing was fixable).
#[must_use]
pub fn fix_file(lint: &FileLint, text: &str) -> (String, Vec<AppliedFix>) {
    let starts = line_starts(text);
    let mut edits: Vec<Edit> = Vec::new();
    suppression_edits(lint, text, &starts, &mut edits);
    float_edits(lint, text, &mut edits);
    time_arith_edits(lint, text, &mut edits);

    edits.sort_by_key(|e| e.range.start);
    let mut out = String::with_capacity(text.len());
    let mut cursor = 0usize;
    let mut applied = Vec::new();
    for e in edits {
        if e.range.start < cursor {
            // Overlapping edits never arise from disjoint findings;
            // skip defensively rather than corrupt the file.
            continue;
        }
        out.push_str(&text[cursor..e.range.start]);
        out.push_str(&e.replacement);
        cursor = e.range.end;
        if let Some(fix) = e.fix {
            applied.push(fix);
        }
    }
    out.push_str(&text[cursor..]);
    (out, applied)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::{all_codes, lint_source};

    fn fix(src: &str) -> (String, Vec<AppliedFix>) {
        let lint = lint_source("x.rs", src, &all_codes());
        fix_file(&lint, src)
    }

    /// Fix, then assert a second round applies nothing (the contract).
    fn fix_to_fixpoint(src: &str) -> (String, Vec<AppliedFix>) {
        let (fixed, applied) = fix(src);
        let (refixed, again) = fix(&fixed);
        assert!(again.is_empty(), "not idempotent: {again:?}");
        assert_eq!(refixed, fixed);
        (fixed, applied)
    }

    #[test]
    fn stale_standalone_allow_line_is_deleted() {
        let src = "// eua-lint: allow(lint-wall-clock)\nfn f() -> u32 { 7 }\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(fixed, "fn f() -> u32 { 7 }\n");
        assert_eq!(applied.len(), 1);
        assert!(applied[0].action.contains("removed stale allow"));
    }

    #[test]
    fn stale_trailing_allow_is_stripped_keeping_the_code() {
        let src = "fn f() -> u32 { 7 } // eua-lint: allow(lint-wall-clock)\n";
        let (fixed, _) = fix_to_fixpoint(src);
        assert_eq!(fixed, "fn f() -> u32 { 7 }\n");
    }

    #[test]
    fn partially_used_allow_is_narrowed() {
        let src = "// eua-lint: allow(lint-wall-clock, lint-thread-spawn)\n\
                   let t = Instant::now();\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(
            fixed,
            "// eua-lint: allow(lint-wall-clock)\nlet t = Instant::now();\n"
        );
        assert_eq!(applied.len(), 1);
        assert!(applied[0].action.contains("narrowed"));
    }

    #[test]
    fn stale_cold_barrier_is_deleted() {
        let src = "// eua-lint: cold\nfn f() -> u32 { 7 }\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(fixed, "fn f() -> u32 { 7 }\n");
        assert!(applied[0].action.contains("cold"));
    }

    #[test]
    fn surplus_budget_is_deleted_at_zero() {
        let src = "// eua-lint: unresolved-budget(3)\nfn f() -> u32 { 7 }\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(fixed, "fn f() -> u32 { 7 }\n");
        assert!(applied[0].action.contains("surplus"));
    }

    #[test]
    fn sort_comparator_partial_cmp_is_rewritten() {
        let src = "fn rank(xs: &mut [f64]) {\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   }\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(
            fixed,
            "fn rank(xs: &mut [f64]) {\n\
             \x20   xs.sort_by(|a, b| a.total_cmp(b));\n\
             }\n"
        );
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].code, DiagCode::LintFloatSortPartialCmp);
    }

    #[test]
    fn expect_and_unwrap_or_adapters_are_also_dropped() {
        let src = "fn rank(xs: &mut [f64]) {\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));\n\
                   \x20   xs.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(core::cmp::Ordering::Equal));\n\
                   }\n";
        let (fixed, _) = fix_to_fixpoint(src);
        assert!(fixed.contains("a.total_cmp(b));"), "{fixed}");
        assert!(fixed.contains("b.total_cmp(a));"), "{fixed}");
        assert!(!fixed.contains("partial_cmp"), "{fixed}");
    }

    #[test]
    fn bare_partial_cmp_without_adapter_is_left_alone() {
        let src = "fn rank(xs: &mut [f64]) {\n\
                   \x20   xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| panic!()));\n\
                   \x20   let _ = xs.iter().max_by(|a, b| ord(a.partial_cmp(b)));\n\
                   }\n\
                   fn ord(o: Option<core::cmp::Ordering>) -> core::cmp::Ordering {\n\
                   \x20   o.unwrap_or(core::cmp::Ordering::Equal)\n\
                   }\n";
        let (fixed, applied) = fix(src);
        // The first call has an adapter and is rewritten; the second
        // (partial_cmp not directly unwrapped) is untouched.
        assert!(fixed.contains("a.total_cmp(b));"), "{fixed}");
        assert!(fixed.contains("ord(a.partial_cmp(b))"), "{fixed}");
        assert_eq!(applied.len(), 1);
    }

    #[test]
    fn raw_time_addition_is_rewritten_to_saturating_add() {
        let src = "fn f(start_us: u64, dur_us: u64) -> u64 { start_us + dur_us }\n";
        let (fixed, applied) = fix_to_fixpoint(src);
        assert_eq!(
            fixed,
            "fn f(start_us: u64, dur_us: u64) -> u64 { start_us.saturating_add(dur_us) }\n"
        );
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].code, DiagCode::LintUncheckedTimeArith);
        assert!(applied[0].action.contains("saturating_add"));
    }

    #[test]
    fn literal_operands_ride_into_the_call_verbatim() {
        let src = "fn f(now_us: u64) -> u64 { let t = now_us - 1_000; t }\n";
        let (fixed, _) = fix_to_fixpoint(src);
        assert_eq!(
            fixed,
            "fn f(now_us: u64) -> u64 { let t = now_us.saturating_sub(1_000); t }\n"
        );
    }

    #[test]
    fn sim_time_subtraction_becomes_saturating_since() {
        let src = "fn f(end: SimTime, start: SimTime) -> TimeDelta { end - start }\n";
        let (fixed, _) = fix_to_fixpoint(src);
        assert_eq!(
            fixed,
            "fn f(end: SimTime, start: SimTime) -> TimeDelta { end.saturating_since(start) }\n"
        );
    }

    #[test]
    fn precedence_sensitive_neighbors_are_left_for_the_human() {
        // `k * a_us + b_us`: splicing `a_us.saturating_add(b_us)` would
        // re-parenthesize the expression, so the fixer must skip it.
        let src = "fn f(a_us: u64, b_us: u64, k: u64) -> u64 { k * a_us + b_us }\n";
        let (fixed, applied) = fix(src);
        assert_eq!(fixed, src);
        assert!(applied.is_empty(), "{applied:?}");
    }

    #[test]
    fn compound_time_assignments_are_not_rewritten() {
        let src = "fn f(mut total_us: u64, step_us: u64) { total_us += step_us; }\n";
        let (fixed, applied) = fix(src);
        assert_eq!(fixed, src);
        assert!(applied.is_empty(), "{applied:?}");
    }

    #[test]
    fn clean_source_applies_nothing() {
        let (fixed, applied) = fix("fn main() { let a = 1 + 2; }\n");
        assert_eq!(fixed, "fn main() { let a = 1 + 2; }\n");
        assert!(applied.is_empty());
    }
}
