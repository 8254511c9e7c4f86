//! Seed-provenance taint: proving every RNG stream flows from a
//! master seed.
//!
//! The determinism story of the whole workspace rests on one
//! convention: every `SmallRng` is built with `seed_from_u64(expr)`
//! where `expr` derives — however it is salted, hashed, or mixed —
//! from a master seed that the caller threads in. `lint-entropy-rng`
//! bans the obvious escape hatches (`from_entropy`, `thread_rng`);
//! this module proves the positive claim at each construction site.
//!
//! The lattice is three-point: `Seed ⊑ Unknown ⊑ Entropy`. A forward
//! dataflow over each function's CFG tracks per-binding taint (seeded
//! from parameter names, flowed through `let` bindings and plain
//! reassignments), and each `seed_from_u64` argument expression is
//! judged by its *ingredients*: any entropy ingredient makes it
//! entropy; otherwise a single seed-tagged ingredient proves it
//! (mixing a lane index into a master seed is the sanctioned idiom);
//! an expression with no value ingredients at all (a literal) is also
//! proven; only unknown ingredients with no seed leave it unproven.
//! Mixer calls
//! (`wrapping_mul`, `rotate_left`, resolved first-party helpers
//! without an entropy witness) are transparent: they pass their
//! arguments' taint through. Resolved call-graph edges contribute two
//! interprocedural facts: a callee whose purity mask reaches entropy
//! taints the expression (with the rendered witness chain), and a
//! seed-deriving callee (`derive_seed`, `salt_for`, …) proves it.
//!
//! Soundness limits (documented in DESIGN.md §17): unresolved calls
//! are transparent rather than unknown, index expressions (`seeds[i]`)
//! judge the collection rather than the selector, and `SCREAMING_CASE`
//! constants count as deterministic. Each trades a missed exotic flow
//! for zero noise on the workspace's real derivation idioms.

use std::collections::BTreeMap;
use std::ops::Range;

use eua_analyze::DiagCode;

use crate::callgraph::FileInput;
use crate::dataflow::{visit_bindings, Bindings};
use crate::flow::is_keyword;
use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};
use crate::rules::{span_between, Finding, ENTROPY_SOURCES};

/// What the call graph resolved at one `(file, name-token)` call site.
pub(crate) struct Callee {
    /// The callee's display name.
    pub name: String,
    /// The rendered witness chain when the callee's purity mask
    /// reaches entropy; `None` for entropy-clean callees.
    pub entropy: Option<String>,
}

/// Per-site resolution facts, keyed by `(file index, name-token index)`.
pub(crate) type CallOracle = BTreeMap<(usize, usize), Callee>;

/// The provenance lattice, ordered so `max` is the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    /// Provably derived from a master seed (or compile-time constant).
    Seed,
    /// No proof either way.
    Unknown,
    /// Reaches an entropy source.
    Entropy,
}

/// Per-binding taint; absent means [`Taint::Unknown`].
type Env = crate::dataflow::Env<Taint>;

/// Whether a name is seed-tagged by the workspace naming convention.
fn seedish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("seed") || lower.contains("salt")
}

/// Whether an identifier is a `SCREAMING_CASE` constant — a
/// compile-time value, deterministic by construction.
fn is_const_name(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
        && name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The taint contribution of the identifier at code index `j`, with a
/// human-readable provenance note — or `None` for neutral tokens
/// (mixers, paths, constants, field-access bases) that pass taint
/// through.
fn ingredient(
    code: &[&Tok<'_>],
    fi: usize,
    j: usize,
    env: &Env,
    oracle: &CallOracle,
) -> Option<(Taint, String)> {
    let t = code[j];
    // A path qualifier (`SmallRng::`, `u64::`) names a type or module,
    // not a value.
    if code.get(j + 1).map(|n| n.kind) == Some(TokKind::PathSep) {
        return None;
    }
    match t.text {
        s if ENTROPY_SOURCES.contains(&s) => {
            return Some((Taint::Entropy, format!("`{}` is an entropy source", t.text)));
        }
        "random" if j > 0 && code[j - 1].kind == TokKind::PathSep => {
            return Some((Taint::Entropy, "`rand::random` is an entropy source".into()));
        }
        _ => {}
    }
    let called = code
        .get(j + 1)
        .is_some_and(|n| n.kind == TokKind::Open && n.text == "(");
    if called {
        if let Some(c) = oracle.get(&(fi, j)) {
            if let Some(chain) = &c.entropy {
                return Some((
                    Taint::Entropy,
                    format!("call to `{}` reaches entropy via {chain}", c.name),
                ));
            }
            if seedish(&c.name) {
                return Some((Taint::Seed, format!("call to seed-deriving `{}`", c.name)));
            }
        }
        if seedish(t.text) {
            return Some((Taint::Seed, format!("call to seed-deriving `{}`", t.text)));
        }
        // Mixers and unresolved helpers: transparent, the arguments
        // decide.
        return None;
    }
    if is_keyword(t.text) || t.text == "self" {
        return None;
    }
    // `x as u64`: the cast target is not a value.
    if j > 0 && code[j - 1].is_ident("as") {
        return None;
    }
    // `cfg.seed`: the field, not the base, carries the provenance —
    // but a method receiver (`master_seed.wrapping_mul(…)`) is a real
    // ingredient, so only skip when the member is *not* called.
    if code.get(j + 1).map(|n| n.kind) == Some(TokKind::Dot)
        && code.get(j + 2).map(|n| n.kind) == Some(TokKind::Ident)
        && !code
            .get(j + 3)
            .is_some_and(|n| n.kind == TokKind::Open && n.text == "(")
    {
        return None;
    }
    if let Some(k) = env.get(t.text) {
        let note = match k {
            Taint::Seed => format!("`{}` binds a seed-derived value", t.text),
            Taint::Unknown => format!("`{}` binds a value of unknown provenance", t.text),
            Taint::Entropy => format!("`{}` binds an entropy-derived value", t.text),
        };
        return Some((*k, note));
    }
    if seedish(t.text) {
        return Some((Taint::Seed, format!("`{}` names a seed quantity", t.text)));
    }
    if is_const_name(t.text) {
        return None;
    }
    // Type-like leading-uppercase identifiers are not values.
    if t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase())
    {
        return None;
    }
    Some((
        Taint::Unknown,
        format!("`{}` has no provable provenance", t.text),
    ))
}

/// Combines the ingredients of the expression spanning code tokens
/// `range`. This is deliberately *not* the lattice join: an entropy
/// ingredient taints the whole expression, but otherwise one seed
/// ingredient proves it — mixing a lane index into a master seed is
/// exactly the sanctioned derivation idiom. Only an expression with
/// unknown ingredients and no seed at all stays unproven; a
/// literal-only expression is deterministic and counts as seeded.
/// The notes explain the verdict: entropy culprits when tainted,
/// unknown ones when unproven.
fn combine(
    code: &[&Tok<'_>],
    fi: usize,
    range: Range<usize>,
    env: &Env,
    oracle: &CallOracle,
) -> (Taint, Vec<String>) {
    let mut entropy_notes = Vec::new();
    let mut unknown_notes = Vec::new();
    let mut saw_seed = false;
    let mut index_depth = 0usize;
    for j in range {
        let Some(t) = code.get(j) else { break };
        // `seeds[i]` selects *which* seed; the selector does not feed
        // the value's provenance.
        match (t.kind, t.text) {
            (TokKind::Open, "[") => {
                index_depth += 1;
                continue;
            }
            (TokKind::Close, "]") if index_depth > 0 => {
                index_depth -= 1;
                continue;
            }
            _ => {}
        }
        if index_depth > 0 || t.kind != TokKind::Ident {
            continue;
        }
        if let Some((taint, note)) = ingredient(code, fi, j, env, oracle) {
            match taint {
                Taint::Entropy => entropy_notes.push(note),
                Taint::Unknown => unknown_notes.push(note),
                Taint::Seed => saw_seed = true,
            }
        }
    }
    if !entropy_notes.is_empty() {
        (Taint::Entropy, entropy_notes)
    } else if saw_seed || unknown_notes.is_empty() {
        (Taint::Seed, Vec::new())
    } else {
        (Taint::Unknown, unknown_notes)
    }
}

/// `Unknown` is absence: an environment never stores it, so equal
/// facts compare equal.
fn known(t: Taint) -> Option<Taint> {
    (t != Taint::Unknown).then_some(t)
}

/// The provenance lattice for one file's functions: seed-tagged
/// parameters enter as [`Taint::Seed`], a binding takes the [`combine`]
/// verdict of its initializer, and paths join by `max`.
struct Provenance<'a> {
    fi: usize,
    oracle: &'a CallOracle,
}

impl Bindings for Provenance<'_> {
    type V = Taint;

    fn params(&self, f: &FnItem) -> Env {
        f.params
            .iter()
            .filter_map(|p| p.name.clone())
            .filter(|name| seedish(name))
            .map(|name| (name, Taint::Seed))
            .collect()
    }

    fn bind(
        &self,
        code: &[&Tok<'_>],
        _name: &str,
        _tys: &[String],
        init: Option<Range<usize>>,
        env: &Env,
    ) -> Option<Taint> {
        known(combine(code, self.fi, init?, env, self.oracle).0)
    }

    fn join(&self, a: Option<Taint>, b: Option<Taint>) -> Option<Taint> {
        known(a.unwrap_or(Taint::Unknown).max(b.unwrap_or(Taint::Unknown)))
    }
}

/// Whether code token `j` is a `seed_from_u64(` construction site
/// (qualified or method position).
fn site_at(code: &[&Tok<'_>], j: usize) -> bool {
    code[j].is_ident("seed_from_u64")
        && j > 0
        && matches!(code[j - 1].kind, TokKind::PathSep | TokKind::Dot)
        && code
            .get(j + 1)
            .is_some_and(|n| n.kind == TokKind::Open && n.text == "(")
}

/// Scans every function with a graph in its file's `cfgs` for
/// `seed_from_u64` sites and judges each argument expression. Returns
/// the findings (tagged by file) plus `(sites seen, sites proven)` for
/// the graph statistics.
pub(crate) fn scan(
    files: &[FileInput<'_>],
    oracle: &CallOracle,
) -> (Vec<(usize, Finding)>, usize, usize) {
    let mut out = Vec::new();
    let mut sites = 0usize;
    let mut proven = 0usize;
    for (fi, file) in files.iter().enumerate() {
        let code = file.code;
        let lattice = Provenance { fi, oracle };
        let has_site = |f: &FnItem| (f.body.0..f.body.1).any(|j| site_at(code, j));
        let judge = |j: usize, env: &Env| {
            if !site_at(code, j) {
                return;
            }
            let close = match_bracket(code, j + 1);
            let (taint, notes) = combine(code, fi, j + 2..close, env, oracle);
            sites += 1;
            if taint == Taint::Seed {
                proven += 1;
                return;
            }
            let joined = notes.join("; ");
            let why: &str = if joined.is_empty() {
                "the expression has no seed-tagged ingredient"
            } else {
                &joined
            };
            let end = code.get(close).copied().unwrap_or(code[j]);
            out.push((
                fi,
                Finding {
                    code: DiagCode::LintSeedTaint,
                    span: span_between(code[j], end),
                    entity: "seed_from_u64".into(),
                    message: format!(
                        "RNG seed not provably derived from a master seed: \
                         {why}; thread the master seed (or a salted \
                         derivation of it) to this site so every stream \
                         replays bit-identically"
                    ),
                },
            ));
        };
        visit_bindings(code, &file.parsed.fns, file.cfgs, &lattice, has_site, judge);
    }
    (out, sites, proven)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::cfg::Cfg;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(src: &str) -> (Vec<Finding>, usize, usize) {
        run_with(src, &CallOracle::new())
    }

    fn run_with(src: &str, oracle: &CallOracle) -> (Vec<Finding>, usize, usize) {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let parsed = parse_file(&code);
        let cfgs = Cfg::for_fns(&code, &parsed.fns);
        let files = [FileInput {
            code: &code,
            parsed: &parsed,
            cfgs: &cfgs,
            hot_marked: Vec::new(),
            cold_marked: Vec::new(),
        }];
        let (tagged, sites, proven) = scan(&files, oracle);
        (tagged.into_iter().map(|(_, f)| f).collect(), sites, proven)
    }

    #[test]
    fn salted_master_seed_is_proven() {
        let (hits, sites, proven) =
            run("fn mk(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed ^ SALT) }");
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!((sites, proven), (1, 1));
    }

    #[test]
    fn literal_seeds_and_constant_mixes_are_proven() {
        let (hits, sites, proven) = run("fn mk() -> SmallRng { SmallRng::seed_from_u64(12345) }\n\
             fn mk2() -> SmallRng { SmallRng::seed_from_u64(GOLDEN ^ 7) }");
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!((sites, proven), (2, 2));
    }

    #[test]
    fn let_bound_derivations_flow_through_the_cfg() {
        let src = "fn mk(master_seed: u64, lane: u64) -> SmallRng {\n\
                   let stream = master_seed.wrapping_mul(0x9E37).wrapping_add(lane);\n\
                   SmallRng::seed_from_u64(stream)\n\
                   }";
        let (hits, sites, proven) = run(src);
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!((sites, proven), (1, 1));
    }

    #[test]
    fn unknown_ingredients_fail_the_proof_with_a_witness() {
        let (hits, sites, proven) =
            run("fn mk(jitter: u64) -> SmallRng { SmallRng::seed_from_u64(jitter) }");
        assert_eq!((sites, proven), (1, 0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintSeedTaint);
        assert!(
            hits[0]
                .message
                .contains("`jitter` has no provable provenance"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn entropy_ingredients_dominate_seed_ones() {
        let src = "fn mk(seed: u64) -> SmallRng {\n\
                   let s = seed ^ rand::random();\n\
                   SmallRng::seed_from_u64(s)\n\
                   }";
        let (hits, _, proven) = run(src);
        assert_eq!(proven, 0);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("entropy"), "{}", hits[0].message);
    }

    #[test]
    fn field_reads_and_index_selectors_judge_the_right_ident() {
        // `cfg.seed` proves via the field; `seeds[i]` ignores the
        // selector and proves via the collection.
        let (hits, sites, proven) = run(
            "fn a(cfg: &Config) -> SmallRng { SmallRng::seed_from_u64(cfg.seed) }\n\
             fn b(seeds: &[u64], i: usize) -> SmallRng { SmallRng::seed_from_u64(seeds[i]) }",
        );
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!((sites, proven), (2, 2));
    }

    #[test]
    fn branch_joins_keep_the_worse_taint() {
        // One branch rebinds `s` to an untracked variable; the join of
        // Seed and Unknown must fail the proof.
        let src = "fn mk(seed: u64, c: bool, w: u64) -> SmallRng {\n\
                   let mut s = seed;\n\
                   if c { s = w; }\n\
                   SmallRng::seed_from_u64(s)\n\
                   }";
        let (hits, sites, proven) = run(src);
        assert_eq!((sites, proven), (1, 0), "{hits:?}");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn let_without_initializer_ends_at_its_own_semicolon() {
        // `let x;` binds nothing: the `=` of the later `=>` is not its
        // initializer, so the `seed` read after the `match` cannot prove
        // `x`. Where the unrelated `let _s = seed;` sits must not matter.
        for src in [
            "fn mk(seed: u64, opt: Option<u64>) -> SmallRng {\n\
             let x; match opt { Some(v) => x = v, None => x = 7 }\n\
             let _s = seed;\n\
             SmallRng::seed_from_u64(x)\n\
             }",
            "fn mk(seed: u64, opt: Option<u64>) -> SmallRng {\n\
             let _s = seed;\n\
             let x; match opt { Some(v) => x = v, None => x = 7 }\n\
             SmallRng::seed_from_u64(x)\n\
             }",
        ] {
            let (hits, sites, proven) = run(src);
            assert_eq!((sites, proven), (1, 0), "{src}");
            assert_eq!(hits.len(), 1, "{hits:?}");
            assert_eq!(hits[0].code, DiagCode::LintSeedTaint);
        }
    }

    #[test]
    fn resolved_entropy_callees_carry_their_witness_chain() {
        let mut oracle = CallOracle::new();
        // Pretend the call graph resolved `fresh_word` at this site to
        // a function whose purity mask reaches entropy.
        let src = "fn mk(seed: u64) -> SmallRng { SmallRng::seed_from_u64(fresh_word(seed)) }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let at = code.iter().position(|t| t.is_ident("fresh_word")).unwrap();
        oracle.insert(
            (0, at),
            Callee {
                name: "fresh_word".into(),
                entropy: Some("fresh_word → thread_rng".into()),
            },
        );
        let (hits, _, proven) = run_with(src, &oracle);
        assert_eq!(proven, 0);
        assert_eq!(hits.len(), 1);
        assert!(
            hits[0].message.contains("fresh_word → thread_rng"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn test_mod_sites_are_not_scanned() {
        let (hits, sites, _) = run(
            "#[cfg(test)] mod tests { fn mk(x: u64) -> SmallRng { SmallRng::seed_from_u64(x) } }",
        );
        assert!(hits.is_empty(), "{hits:?}");
        assert_eq!(sites, 0);
    }
}
