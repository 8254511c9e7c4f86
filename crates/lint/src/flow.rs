//! Time-unit classification for the unit-flow analysis.
//!
//! The workspace keeps three incompatible quantity domains: simulated
//! microseconds (`SimTime`/`TimeDelta`), clock frequency (`Frequency`,
//! MHz in the tables), and work (`Cycles`). The newtypes make crossing
//! them a type error — but the moment a quantity is unwrapped to `u64`
//! for arithmetic, only naming conventions distinguish `elapsed_us`
//! from `freq_mhz` from `demand_cycles`. This module classifies
//! parameters, returns, and argument identifiers into that three-point
//! lattice (plus "unknown") so the call-graph layer can flag cross-unit
//! flows the single-token `lint-time-unit` rule cannot see.
//!
//! Classification is deliberately conservative: type tokens win over
//! names, name matching demands the workspace's actual suffix idioms
//! (`_us`, `_mhz`, `_cycles`, …), and anything rate-like (`per`),
//! index-like (`idx`), or merely reminiscent stays unknown. A missed
//! classification costs a finding, never a false one.

/// One point of the unit lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Integer microseconds of simulated time.
    Micros,
    /// Clock frequency (Hz/MHz domain).
    Hertz,
    /// Processor work in cycles.
    Cycles,
}

impl Unit {
    /// Human-readable domain name for diagnostics.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Unit::Micros => "microseconds (SimTime domain)",
            Unit::Hertz => "a frequency (Hz domain)",
            Unit::Cycles => "cycles (work domain)",
        }
    }
}

/// The workspace newtypes that pin a unit regardless of naming.
fn unit_of_type_token(tok: &str) -> Option<Unit> {
    match tok {
        "SimTime" | "TimeDelta" => Some(Unit::Micros),
        "Frequency" => Some(Unit::Hertz),
        "Cycles" => Some(Unit::Cycles),
        _ => None,
    }
}

/// Classifies a quantity from its binding name and declared type
/// tokens. Type tokens win; the name is only consulted when no unit
/// newtype appears (the unwrapped-`u64` case the newtypes cannot
/// protect).
#[must_use]
pub fn classify(name: Option<&str>, ty_tokens: &[String]) -> Option<Unit> {
    if let Some(unit) = ty_tokens.iter().find_map(|t| unit_of_type_token(t)) {
        return Some(unit);
    }
    let lower = name?.to_ascii_lowercase();
    // Rates (`cycles_per_us`), indices (`freq_idx`), and identifiers
    // are different quantities than the unit their substring suggests.
    if lower.contains("per") || lower.contains("idx") || lower.contains("index") {
        return None;
    }
    if lower == "us" || lower.ends_with("_us") || lower.contains("micros") {
        return Some(Unit::Micros);
    }
    if matches!(lower.as_str(), "hz" | "mhz" | "khz")
        || lower.ends_with("_hz")
        || lower.ends_with("_mhz")
        || lower.ends_with("_khz")
    {
        return Some(Unit::Hertz);
    }
    if lower == "cycles" || lower.ends_with("_cycles") {
        return Some(Unit::Cycles);
    }
    None
}

// ---------------------------------------------------------------------
// `lint-unchecked-time-arith`: raw `+`/`-`/`*` on microsecond values.
//
// The unit lattice above says *what* a quantity is; this analysis says
// *how it may be combined*. A forward dataflow over the function's CFG
// tracks, per binding, whether it holds a `SimTime`, a `TimeDelta`, an
// unwrapped microsecond integer, or a float (never flagged), seeded
// from parameter types and updated through `let` bindings and plain
// assignments. At every binary `+`/`-`/`*` whose operand environment
// types either side as microseconds, a finding fires — with a
// machine-applicable saturating rewrite when both operand kinds pin a
// lossless replacement method.

use std::ops::Range;

use eua_analyze::DiagCode;

use crate::cfg::Cfg;
use crate::dataflow::{visit_bindings, Bindings, Env};
use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};
use crate::rules::{span_between, Finding};

/// The per-binding value kind the time-arithmetic lattice tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vk {
    /// A `SimTime` instant.
    SimTime,
    /// A `TimeDelta` duration.
    TimeDelta,
    /// An unwrapped integer carrying microseconds.
    RawMicros,
    /// A float: rate math, never flagged (and it suppresses the
    /// `_us`-name fallback for the binding).
    Float,
}

/// Integral type tokens that make a `_us`-named binding a raw
/// microsecond integer.
const INTEGRALS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Keywords that can appear adjacent to an operator but are never an
/// operand (`return -x`, `x as f64`, …). Shared with the taint scan.
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "continue"
            | "else"
            | "if"
            | "match"
            | "in"
            | "as"
            | "mut"
            | "let"
            | "move"
            | "ref"
            | "loop"
            | "while"
            | "for"
            | "fn"
            | "impl"
            | "use"
            | "pub"
            | "where"
            | "dyn"
            | "await"
    )
}

/// The kind carried by the identifier `name` at an operand position:
/// the environment wins; an untracked name falls back to the unit
/// lattice's `_us` suffix idiom.
fn kind_of(name: &str, env: &Env<Vk>) -> Option<Vk> {
    if let Some(k) = env.get(name) {
        return Some(*k);
    }
    if is_keyword(name) {
        return None;
    }
    match classify(Some(name), &[]) {
        Some(Unit::Micros) => Some(Vk::RawMicros),
        _ => None,
    }
}

/// The kind pinned by declared type tokens, if any; falls back to the
/// raw-integer rule for `_us`-named integral bindings.
fn kind_from_ty(tys: &[String], name: &str) -> Option<Vk> {
    let has = |s: &str| tys.iter().any(|t| t == s);
    if has("f64") || has("f32") {
        Some(Vk::Float)
    } else if has("SimTime") {
        Some(Vk::SimTime)
    } else if has("TimeDelta") {
        Some(Vk::TimeDelta)
    } else if INTEGRALS.iter().any(|i| has(i)) && classify(Some(name), &[]) == Some(Unit::Micros) {
        Some(Vk::RawMicros)
    } else {
        None
    }
}

/// The kind of an initializer expression spanning code tokens
/// `range`. Deliberately shallow: constructor and conversion markers
/// win, then a single-identifier copy propagates its kind; anything
/// else is unknown (which only costs a finding's fix, never causes a
/// wrong one).
fn expr_kind(code: &[&Tok<'_>], range: Range<usize>, env: &Env<Vk>) -> Option<Vk> {
    let idents: Vec<&str> = range
        .filter_map(|j| {
            let t = code.get(j)?;
            (t.kind == TokKind::Ident).then_some(t.text)
        })
        .collect();
    if idents.iter().any(|s| matches!(*s, "f64" | "f32")) {
        return Some(Vk::Float);
    }
    if idents
        .iter()
        .any(|s| matches!(*s, "TimeDelta" | "saturating_since"))
    {
        return Some(Vk::TimeDelta);
    }
    if idents.contains(&"SimTime") {
        return Some(Vk::SimTime);
    }
    if idents.contains(&"as_micros") {
        return Some(Vk::RawMicros);
    }
    if let [single] = idents.as_slice() {
        return kind_of(single, env);
    }
    None
}

/// The time-arithmetic lattice: a binding keeps a kind only when every
/// path agrees on it (a must-analysis), so a merge never invents a fix.
struct TimeKinds;

impl Bindings for TimeKinds {
    type V = Vk;

    fn params(&self, f: &FnItem) -> Env<Vk> {
        f.params
            .iter()
            .filter_map(|p| {
                let name = p.name.as_ref()?;
                Some((name.clone(), kind_from_ty(&p.ty, name)?))
            })
            .collect()
    }

    /// A declared type wins over the initializer's kind.
    fn bind(
        &self,
        code: &[&Tok<'_>],
        name: &str,
        tys: &[String],
        init: Option<Range<usize>>,
        env: &Env<Vk>,
    ) -> Option<Vk> {
        kind_from_ty(tys, name).or_else(|| expr_kind(code, init?, env))
    }

    fn join(&self, a: Option<Vk>, b: Option<Vk>) -> Option<Vk> {
        if a == b {
            a
        } else {
            None
        }
    }
}

/// Whether `b` starts at the byte immediately after `a` ends (the
/// lexer emits `->` as two adjacent single-byte puncts).
pub(crate) fn adjacent(a: &Tok<'_>, b: &Tok<'_>) -> bool {
    a.end_line == b.line && a.end_col == b.col
}

/// A kind that makes an operand worth flagging.
fn is_us(k: Option<Vk>) -> bool {
    matches!(k, Some(Vk::SimTime | Vk::TimeDelta | Vk::RawMicros))
}

/// Last token of the postfix chain headed by the ident at `i`
/// (`delta.as_micros()` → its closing paren), so a trailing cast is
/// judged against the chain's result rather than its head ident.
fn postfix_end(code: &[&Tok<'_>], i: usize) -> usize {
    let mut e = i;
    loop {
        match code.get(e + 1) {
            Some(d) if d.kind == TokKind::Dot => match code.get(e + 2) {
                Some(m) if m.kind == TokKind::Ident => e += 2,
                _ => break,
            },
            Some(p) if p.kind == TokKind::Open && p.text == "(" => {
                let close = match_bracket(code, e + 1);
                if close >= code.len() {
                    break;
                }
                e = close;
            }
            _ => break,
        }
    }
    e
}

/// Checks the code token at `j` for a raw binary `+`/`-`/`*` (or
/// compound `+=`-family) over microsecond operands under `env`, and
/// reports it.
fn check_op(code: &[&Tok<'_>], j: usize, env: &Env<Vk>, out: &mut Vec<Finding>) {
    let t = code[j];
    if t.kind != TokKind::Punct || !matches!(t.text, "+" | "-" | "*") {
        return;
    }
    let Some(pj) = j.checked_sub(1) else { return };
    let prev = code[pj];
    // `self.0 + rhs.0` inside the newtype impls: the integer field
    // lexes to nothing, so the operator's neighbor is the `.` itself.
    if prev.kind == TokKind::Dot {
        return;
    }
    // `->` return-type arrows lex as `-` then an adjacent `>`.
    if t.text == "-"
        && code
            .get(j + 1)
            .is_some_and(|n| n.text == ">" && adjacent(t, n))
    {
        return;
    }
    // Binary position only: a unary `-`/`*` follows a punct or keyword.
    let lhs_ident = prev.kind == TokKind::Ident && !is_keyword(prev.text);
    if !(lhs_ident || prev.kind == TokKind::Close) {
        return;
    }
    let compound = code
        .get(j + 1)
        .is_some_and(|n| n.kind == TokKind::Punct && n.text == "=" && adjacent(t, n));
    let rj = if compound { j + 2 } else { j + 1 };
    let lhs_kind = if lhs_ident {
        kind_of(prev.text, env)
    } else {
        None
    };
    let mut rhs_name = None;
    let mut rhs_kind = None;
    let mut rhs_literal = false;
    match code.get(rj) {
        Some(n) if n.kind == TokKind::Ident && !is_keyword(n.text) => {
            rhs_name = Some(*n);
            // A trailing float cast — on the ident itself or on its
            // postfix chain (`delta.as_micros() as f64`) — makes the
            // whole expression rate math.
            let e = postfix_end(code, rj);
            let cast_float = code.get(e + 1).is_some_and(|a| a.is_ident("as"))
                && code
                    .get(e + 2)
                    .is_some_and(|c| c.is_ident("f64") || c.is_ident("f32"));
            rhs_kind = if cast_float {
                Some(Vk::Float)
            } else {
                kind_of(n.text, env)
            };
        }
        // A numeric literal lexes to no token, so `a + 10;` puts the
        // terminator right after the operator.
        Some(n)
            if n.kind == TokKind::Close
                || (n.kind == TokKind::Punct && matches!(n.text, ";" | ",")) =>
        {
            rhs_literal = true;
        }
        _ => {}
    }
    if lhs_kind == Some(Vk::Float) || rhs_kind == Some(Vk::Float) {
        return;
    }
    if !is_us(lhs_kind) && !is_us(rhs_kind) {
        return;
    }
    let method = if compound {
        None
    } else {
        match (lhs_kind, t.text, rhs_kind) {
            (Some(Vk::RawMicros), "+", Some(Vk::RawMicros)) => Some("saturating_add"),
            (Some(Vk::RawMicros), "-", Some(Vk::RawMicros)) => Some("saturating_sub"),
            (Some(Vk::RawMicros), "*", Some(Vk::RawMicros)) => Some("saturating_mul"),
            (Some(Vk::RawMicros), "+", None) if rhs_literal => Some("saturating_add"),
            (Some(Vk::RawMicros), "-", None) if rhs_literal => Some("saturating_sub"),
            (Some(Vk::RawMicros), "*", None) if rhs_literal => Some("saturating_mul"),
            (Some(Vk::SimTime), "-", Some(Vk::SimTime)) => Some("saturating_since"),
            (Some(Vk::SimTime), "+", Some(Vk::TimeDelta)) => Some("saturating_add"),
            (Some(Vk::TimeDelta), "-", Some(Vk::TimeDelta)) => Some("saturating_sub"),
            _ => None,
        }
    };
    let op_txt = if compound {
        format!("{}=", t.text)
    } else {
        t.text.to_string()
    };
    let lhs_txt = if lhs_ident { prev.text } else { "…" };
    let rhs_txt = rhs_name.map_or(if rhs_literal { "<literal>" } else { "…" }, |n| n.text);
    let what = match (lhs_kind, rhs_kind) {
        (Some(Vk::SimTime), _) | (_, Some(Vk::SimTime)) => "SimTime values",
        (Some(Vk::TimeDelta), _) | (_, Some(Vk::TimeDelta)) => "TimeDelta values",
        _ => "microsecond integers",
    };
    let message = match method {
        Some(m) => format!(
            "raw `{op_txt}` on {what}: overflow wraps silently in release; \
             use `.{m}(…)` instead"
        ),
        None => format!(
            "raw `{op_txt}` on {what}: overflow wraps silently in release; use the \
             checked/saturating methods on the unit newtypes \
             (crates/platform/src/units.rs)"
        ),
    };
    let start_tok = if lhs_ident { prev } else { t };
    let end_tok = rhs_name.unwrap_or(if compound { code[j + 1] } else { t });
    out.push(Finding {
        code: DiagCode::LintUncheckedTimeArith,
        span: span_between(start_tok, end_tok),
        entity: format!("{lhs_txt} {op_txt} {rhs_txt}"),
        message,
    });
}

/// Runs the time-arithmetic analysis over every function of a parsed
/// file that has a graph in `cfgs` (see [`Cfg::for_fns`]) and appends
/// its findings.
pub fn unchecked_time_arith(
    code: &[&Tok<'_>],
    fns: &[FnItem],
    cfgs: &[Option<Cfg>],
    out: &mut Vec<Finding>,
) {
    let check = |j, env: &Env<Vk>| check_op(code, j, env, out);
    visit_bindings(code, fns, cfgs, &TimeKinds, |_| true, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn type_tokens_win_over_names() {
        assert_eq!(
            classify(Some("freq_mhz"), &ty(&["SimTime"])),
            Some(Unit::Micros)
        );
        assert_eq!(classify(Some("x"), &ty(&["Frequency"])), Some(Unit::Hertz));
        assert_eq!(
            classify(None, &ty(&["Vec", "Cycles"])),
            Some(Unit::Cycles),
            "a container of a unit newtype still pins the domain"
        );
    }

    #[test]
    fn name_suffixes_classify_unwrapped_integers() {
        assert_eq!(
            classify(Some("elapsed_us"), &ty(&["u64"])),
            Some(Unit::Micros)
        );
        assert_eq!(classify(Some("freq_mhz"), &ty(&["u64"])), Some(Unit::Hertz));
        assert_eq!(
            classify(Some("demand_cycles"), &ty(&["u64"])),
            Some(Unit::Cycles)
        );
        assert_eq!(classify(Some("us"), &[]), Some(Unit::Micros));
    }

    #[test]
    fn lookalikes_stay_unknown() {
        for name in [
            "bus",
            "status",
            "modulus",
            "radius",
            "cycles_per_us",
            "freq_idx",
            "hz_index",
            "deadline",
            "freq",
            "frequency",
            "period",
        ] {
            assert_eq!(classify(Some(name), &[]), None, "{name}");
        }
    }

    #[test]
    fn unknown_types_defer_to_nothing() {
        assert_eq!(classify(None, &ty(&["u64"])), None);
        assert_eq!(classify(Some("n"), &ty(&["usize"])), None);
    }

    fn arith(src: &str) -> Vec<Finding> {
        let toks = crate::lexer::lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let parsed = crate::parser::parse_file(&code);
        let cfgs = Cfg::for_fns(&code, &parsed.fns);
        let mut out = Vec::new();
        unchecked_time_arith(&code, &parsed.fns, &cfgs, &mut out);
        out
    }

    #[test]
    fn raw_plus_on_us_params_fires_with_a_fix_method() {
        let hits = arith("fn f(start_us: u64, dur_us: u64) -> u64 { start_us + dur_us }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "start_us + dur_us");
        assert!(hits[0].message.contains("`.saturating_add(…)`"));
    }

    #[test]
    fn literal_rhs_still_fires() {
        let hits = arith("fn f(now_us: u64) -> u64 { let t = now_us + 1; t }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "now_us + <literal>");
        assert!(hits[0].message.contains("`.saturating_add(…)`"));
    }

    #[test]
    fn sim_time_minus_sim_time_suggests_saturating_since() {
        let hits = arith("fn f(end: SimTime, start: SimTime) { let d = end - start; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`.saturating_since(…)`"));
    }

    #[test]
    fn float_rate_math_is_clean() {
        assert!(arith("fn f(load_us: f64, n: f64) -> f64 { load_us * n }").is_empty());
        assert!(arith("fn f(t_us: u64, r: f64) -> f64 { r * (t_us as f64) }").is_empty());
        let cast = arith("fn f(a: f64, t_us: u64) -> f64 { a * t_us as f64 }");
        assert!(cast.is_empty(), "{cast:?}");
        // The cast may sit on a postfix chain, not just a bare ident.
        let chain = arith(
            "fn f(p: f64, d: TimeDelta) -> f64 { let delta = d; p * delta.as_micros() as f64 }",
        );
        assert!(chain.is_empty(), "{chain:?}");
    }

    #[test]
    fn let_bindings_flow_kinds_through_the_cfg() {
        // `span` is not `_us`-named: only the dataflow knows it holds
        // a raw microsecond value.
        let hits =
            arith("fn f(now_us: u64) -> u64 { let span = now_us; if c() { span + 4 } else { 0 } }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "span + <literal>");
    }

    #[test]
    fn a_float_binding_suppresses_the_name_fallback() {
        let clean = arith("fn f(x: u64) -> f64 { let avg_us = x as f64; avg_us * 0.5 }");
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn must_join_keeps_only_agreeing_kinds() {
        // One branch rebinds to float; after the merge the name is
        // unknown *and* the fallback is gone only if we kept tracking —
        // intersection drops it, so the `_ms`-free name stays silent.
        let src = "fn f(c: bool, t_us: u64) -> u64 {\n\
                   let mut v = t_us;\n\
                   if c { v = 0; }\n\
                   v + 1\n\
                   }";
        // `v = 0;` infers nothing (literal initializer) so `v` degrades
        // to unknown on that path; the join drops it and `v + 1` stays
        // silent — a missed finding, never a wrong fix.
        assert!(arith(src).is_empty(), "{:?}", arith(src));
    }

    #[test]
    fn compound_assign_flags_without_a_fix() {
        let hits = arith("fn f(mut total_us: u64, step: u64) { total_us += step; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].entity, "total_us += step");
        assert!(!hits[0].message.contains("use `."), "{:?}", hits[0].message);
    }

    #[test]
    fn newtype_field_impls_and_test_mods_are_exempt() {
        assert!(
            arith("fn add(self, rhs: TimeDelta) -> TimeDelta { TimeDelta(self.0 + rhs.0) }")
                .is_empty()
        );
        assert!(arith(
            "#[cfg(test)] mod tests { fn probe(a_us: u64, b_us: u64) -> u64 { a_us + b_us } }"
        )
        .is_empty());
    }

    #[test]
    fn arrow_and_unary_positions_are_not_operators() {
        assert!(arith("fn f(t_us: u64) -> u64 { t_us }").is_empty());
        assert!(arith("fn f(d_us: i64) -> i64 { g(); -d_us }").is_empty());
    }
}
