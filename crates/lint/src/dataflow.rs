//! A generic worklist fixpoint over [`crate::cfg`] graphs, and the one
//! binding-environment flow both intraprocedural rules run on.
//!
//! An [`Analysis`] supplies the lattice: a fact type, the boundary fact
//! (what holds at the entry for a forward analysis, at the exit for a
//! backward one), the initial fact for every other block, a `join` for
//! control-flow merges, and a `transfer` that pushes a fact through one
//! basic block. [`solve`] iterates blocks off a worklist until nothing
//! changes and returns the *input* fact of every block in the chosen
//! direction — callers re-run `transfer` on a block when they need the
//! fact at a particular token.
//!
//! `visit_bindings` is that re-run for the rules that track what each
//! local binding holds (time-arithmetic kinds, seed provenance): one
//! statement walker for `let` bindings and reassignments, one forward
//! analysis over per-name environments, and one entry point that
//! solves each function once. A rule supplies only its `Bindings`
//! lattice.
//!
//! Termination is the caller's contract: `join` must be monotone over a
//! lattice of finite height (every lattice in this crate is a small
//! enum or a map keyed by the finitely many identifiers in one
//! function). The solver itself adds a generous iteration ceiling so a
//! buggy lattice degrades to a loud panic in tests rather than a hung
//! lint run.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::cfg::{Cfg, ENTRY, EXIT};
use crate::lexer::{Tok, TokKind};
use crate::parser::FnItem;

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along edges: a block's input is the join over its
    /// predecessors' outputs.
    Forward,
    /// Facts flow against edges: a block's input is the join over its
    /// successors' outputs.
    Backward,
}

/// One dataflow analysis: lattice plus transfer function.
pub trait Analysis {
    /// The lattice element attached to each block boundary.
    type Fact: Clone + PartialEq;

    /// Which way this analysis runs.
    fn direction(&self) -> Direction;

    /// The fact at the graph boundary (entry block for forward,
    /// exit block for backward).
    fn boundary(&self) -> Self::Fact;

    /// The initial fact for every non-boundary block (the lattice
    /// bottom: joining it must be the identity).
    fn bottom(&self) -> Self::Fact;

    /// The least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Pushes `fact` through `block`, returning the fact at its other
    /// end. `transfer` sees the block's owned token indices via `cfg`.
    fn transfer(&self, cfg: &Cfg, block: usize, fact: &Self::Fact) -> Self::Fact;
}

/// Iteration ceiling: blocks × height would be the honest bound, but a
/// fixed multiple of the block count catches runaway lattices without
/// ever triggering on the real ones (whose heights are ≤ 3).
const MAX_PASSES: usize = 64;

/// Runs `analysis` to fixpoint over `cfg` and returns each block's
/// input fact (in the analysis direction).
///
/// # Panics
/// Panics if the fixpoint has not settled after `MAX_PASSES` sweeps,
/// which a monotone finite-height lattice cannot trigger.
pub fn solve<A: Analysis>(cfg: &Cfg, analysis: &A) -> Vec<A::Fact> {
    let n = cfg.blocks.len();
    let boundary_block = match analysis.direction() {
        Direction::Forward => ENTRY,
        Direction::Backward => EXIT,
    };
    let mut input: Vec<A::Fact> = (0..n)
        .map(|b| {
            if b == boundary_block {
                analysis.boundary()
            } else {
                analysis.bottom()
            }
        })
        .collect();
    let mut output: Vec<A::Fact> = input
        .iter()
        .enumerate()
        .map(|(b, f)| analysis.transfer(cfg, b, f))
        .collect();

    // Chaotic iteration with a FIFO worklist seeded with every block:
    // simple, deterministic, and fast enough for single-function CFGs.
    let mut work: std::collections::VecDeque<usize> = (0..n).collect();
    let mut queued = vec![true; n];
    let mut passes = 0usize;
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        passes += 1;
        assert!(
            passes <= MAX_PASSES * n.max(1),
            "dataflow fixpoint did not settle: non-monotone lattice?"
        );
        let neighbors: Vec<usize> = match analysis.direction() {
            Direction::Forward => cfg.preds(b).collect(),
            Direction::Backward => cfg.succs(b).collect(),
        };
        let mut inb = if b == boundary_block {
            analysis.boundary()
        } else {
            analysis.bottom()
        };
        for p in neighbors {
            inb = analysis.join(&inb, &output[p]);
        }
        // `output[b]` is always `transfer(input[b])` (computed eagerly
        // above), so an unchanged input means nothing to do.
        if inb != input[b] {
            let outb = analysis.transfer(cfg, b, &inb);
            input[b] = inb;
            if outb != output[b] {
                output[b] = outb;
                let dependents: Vec<usize> = match analysis.direction() {
                    Direction::Forward => cfg.succs(b).collect(),
                    Direction::Backward => cfg.preds(b).collect(),
                };
                for d in dependents {
                    if !queued[d] {
                        queued[d] = true;
                        work.push_back(d);
                    }
                }
            }
        }
    }
    input
}

/// What a [`Bindings`] lattice knows about each local, by name. An
/// absent name is the lattice's "unknown".
pub(crate) type Env<V> = BTreeMap<String, V>;

/// A per-binding lattice for [`visit_bindings`]: what parameters, `let`
/// bindings and reassignments bind, and how one name's values from two
/// paths merge.
pub(crate) trait Bindings {
    /// The value tracked per name. "Unknown" is absence, never a value.
    type V: Copy + PartialEq;

    /// The environment at function entry (from the parameters).
    fn params(&self, f: &FnItem) -> Env<Self::V>;

    /// What `let name [: tys] [= init];` or `name = init;` binds
    /// `name` to; `None` unbinds it. `tys` holds the annotation's
    /// identifiers (empty for a reassignment); `init` is the
    /// initializer's code-token range, `None` when there is none or a
    /// `{` opens before its `;` (the initializer spans control flow).
    fn bind(
        &self,
        code: &[&Tok<'_>],
        name: &str,
        tys: &[String],
        init: Option<Range<usize>>,
        env: &Env<Self::V>,
    ) -> Option<Self::V>;

    /// Merges one name's values from two paths (`None` = unbound).
    fn join(&self, a: Option<Self::V>, b: Option<Self::V>) -> Option<Self::V>;
}

/// Applies the binding effect of the statement starting at code token
/// `j` — `let [mut] name [: Ty] [= init];` bounded by its own `;`, or a
/// statement-initial `name = init;` — to `env`. Destructuring patterns
/// bind nothing.
fn stmt_effect<L: Bindings>(code: &[&Tok<'_>], j: usize, lattice: &L, env: &mut Env<L::V>) {
    let limit = (j + 96).min(code.len());
    let is_punct = |t: &Tok<'_>, p: &str| t.kind == TokKind::Punct && t.text == p;
    let init_from = |from: usize| -> Option<Range<usize>> {
        for (k, t) in code.iter().enumerate().take(limit).skip(from) {
            if is_punct(t, ";") {
                return Some(from..k);
            }
            if t.kind == TokKind::Open && t.text == "{" {
                return None;
            }
        }
        None
    };
    let (name, tys, init) = if code[j].is_ident("let") {
        let mut at = j + 1;
        if code.get(at).is_some_and(|t| t.is_ident("mut")) {
            at += 1;
        }
        let Some(name_tok) = code.get(at).filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let mut tys = Vec::new();
        let mut init = None;
        for (k, t) in code.iter().enumerate().take(limit).skip(at + 1) {
            if is_punct(t, "=") {
                init = init_from(k + 1);
                break;
            }
            if is_punct(t, ";") {
                break; // `let x;` — no initializer
            }
            if t.kind == TokKind::Ident {
                tys.push(t.text.to_string());
            }
        }
        (name_tok.text, tys, init)
    } else if code[j].kind == TokKind::Ident
        && j > 0
        && matches!(
            (code[j - 1].kind, code[j - 1].text),
            (TokKind::Punct, ";") | (TokKind::Open, "{") | (TokKind::Close, "}")
        )
        && code.get(j + 1).is_some_and(|t| is_punct(t, "="))
        && !code.get(j + 2).is_some_and(|t| is_punct(t, "="))
    {
        (code[j].text, Vec::new(), init_from(j + 2))
    } else {
        return;
    };
    match lattice.bind(code, name, &tys, init, env) {
        Some(v) => {
            env.insert(name.to_string(), v);
        }
        None => {
            env.remove(name);
        }
    }
}

/// The forward analysis over one function body: `None` is the
/// unreachable bottom; reachable environments join name by name
/// through the lattice.
struct BindingFlow<'a, 'b, L: Bindings> {
    code: &'a [&'a Tok<'b>],
    lattice: &'a L,
    entry: Env<L::V>,
}

impl<L: Bindings> Analysis for BindingFlow<'_, '_, L> {
    type Fact = Option<Env<L::V>>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> Self::Fact {
        Some(self.entry.clone())
    }

    fn bottom(&self) -> Self::Fact {
        None
    }

    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(a), Some(b)) => Some(
                a.keys()
                    .chain(b.keys())
                    .filter_map(|k| {
                        let v = self.lattice.join(a.get(k).copied(), b.get(k).copied())?;
                        Some((k.clone(), v))
                    })
                    .collect(),
            ),
        }
    }

    fn transfer(&self, cfg: &Cfg, block: usize, fact: &Self::Fact) -> Self::Fact {
        let mut env = fact.clone()?;
        for &j in &cfg.blocks[block].tokens {
            stmt_effect(self.code, j, self.lattice, &mut env);
        }
        Some(env)
    }
}

/// Runs `lattice` over the functions of one file and calls
/// `visit(j, env)` for every reachable code token `j` whose innermost
/// enclosing function is the one solved, with `env` the environment
/// holding just before `j`. `cfgs[k]` is the graph of `fns[k]` (`None`
/// for functions the scan skips); each function with a graph is solved
/// once when `wanted` accepts it. A nested function's tokens are walked
/// transparently by its parent but visited only under its own solve.
pub(crate) fn visit_bindings<L: Bindings>(
    code: &[&Tok<'_>],
    fns: &[FnItem],
    cfgs: &[Option<Cfg>],
    lattice: &L,
    wanted: impl Fn(&FnItem) -> bool,
    mut visit: impl FnMut(usize, &Env<L::V>),
) {
    // Functions come in source order, so a nested function overwrites
    // its parent's claim on its own tokens.
    let mut owner = vec![usize::MAX; code.len()];
    for (k, (f, cfg)) in fns.iter().zip(cfgs).enumerate() {
        if let (Some(_), Some(slots)) = (cfg, owner.get_mut(f.body.0..f.body.1)) {
            slots.fill(k);
        }
    }
    // One scratch environment reused across every block of every
    // function — `clone_from` keeps the map's storage instead of
    // allocating a fresh copy per block.
    let mut env = Env::new();
    for (k, (f, cfg)) in fns.iter().zip(cfgs).enumerate() {
        let Some(cfg) = cfg.as_ref().filter(|_| wanted(f)) else {
            continue;
        };
        let flow = BindingFlow {
            code,
            lattice,
            entry: lattice.params(f),
        };
        for (b, fact) in solve(cfg, &flow).iter().enumerate() {
            let Some(env0) = fact else { continue }; // unreachable
            env.clone_from(env0);
            for &j in &cfg.blocks[b].tokens {
                if owner.get(j) == Some(&k) {
                    visit(j, &env);
                }
                stmt_effect(code, j, lattice, &mut env);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;
    use crate::parser::match_bracket;

    fn build(src: &str) -> (Vec<Tok<'_>>, Cfg) {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let open = code
            .iter()
            .position(|t| t.kind == TokKind::Open && t.text == "{")
            .unwrap();
        let cfg = Cfg::build(&code, (open + 1, match_bracket(&code, open)));
        (toks, cfg)
    }

    /// Forward reachability: `false ⊑ true`, transfer is identity.
    /// Every block joined from a reachable one becomes reachable.
    struct Reach;
    impl Analysis for Reach {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> bool {
            true
        }
        fn bottom(&self) -> bool {
            false
        }
        fn join(&self, a: &bool, b: &bool) -> bool {
            *a || *b
        }
        fn transfer(&self, _cfg: &Cfg, _block: usize, fact: &bool) -> bool {
            *fact
        }
    }

    #[test]
    fn forward_reachability_covers_loop_blocks() {
        let (_toks, cfg) = build("fn f() { while c() { step(); } tail(); }");
        let reach = solve(&cfg, &Reach);
        // Everything in this body is reachable from entry.
        for (b, r) in reach.iter().enumerate() {
            assert!(
                *r || cfg.blocks[b].tokens.is_empty(),
                "block {b} unreachable"
            );
        }
    }

    /// Backward "reaches exit": the dual of `Reach`, proving the
    /// backward plumbing joins over successors.
    struct ReachesExit;
    impl Analysis for ReachesExit {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn boundary(&self) -> bool {
            true
        }
        fn bottom(&self) -> bool {
            false
        }
        fn join(&self, a: &bool, b: &bool) -> bool {
            *a || *b
        }
        fn transfer(&self, _cfg: &Cfg, _block: usize, fact: &bool) -> bool {
            *fact
        }
    }

    #[test]
    fn backward_analysis_joins_over_successors() {
        let (_toks, cfg) = build("fn f(c: bool) { if c { a(); } else { b(); } t(); }");
        let facts = solve(&cfg, &ReachesExit);
        // Every block that has any path to exit carries `true`; the
        // entry certainly does.
        assert!(facts[crate::cfg::ENTRY]);
    }

    /// A counting pseudo-lattice that would grow forever; the solver's
    /// ceiling must turn that into a panic, not a hang.
    struct Diverge;
    impl Analysis for Diverge {
        type Fact = u64;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> u64 {
            0
        }
        fn bottom(&self) -> u64 {
            0
        }
        fn join(&self, a: &u64, b: &u64) -> u64 {
            *a.max(b)
        }
        fn transfer(&self, _cfg: &Cfg, _block: usize, fact: &u64) -> u64 {
            fact + 1
        }
    }

    #[test]
    #[should_panic(expected = "did not settle")]
    fn non_monotone_lattice_panics_instead_of_hanging() {
        let (_toks, cfg) = build("fn f() { loop { tick(); } }");
        let _ = solve(&cfg, &Diverge);
    }
}
