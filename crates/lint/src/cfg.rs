//! Intraprocedural control-flow graphs over parsed function bodies.
//!
//! The builder walks a body's code-token range (from [`crate::parser`])
//! and produces basic blocks connected by edges, with no rustc or syn:
//! `if`/`else` chains fork and join, `match` arms fan out from the
//! scrutinee and rejoin, `loop`/`while`/`for` get a head block, a body
//! with a back edge, and an after block, labeled `break`/`continue`
//! resolve against a loop stack (the lexer emits [`TokKind::Label`] in
//! exactly the two label positions), `return` jumps to the exit block,
//! and `?` adds an exit edge without terminating the current block.
//!
//! Blocks own *lists of token indices*, not contiguous ranges: a loop
//! header's tokens belong to the head block even though the `while`
//! keyword sits between body tokens in the stream. Every block carries
//! its loop nesting depth, which is what `lint-loop-alloc` consumes,
//! and the graph records back edges separately so tests can pin loop
//! detection directly.
//!
//! Shapes the walker does not model structurally — plain `{}` blocks,
//! closure bodies, struct literals — stay transparent: their tokens
//! land in the current block and any control flow inside them is still
//! walked. That over-approximates closures (a closure body is *defined*
//! where it appears, not necessarily run there), which is the
//! conservative direction for both taint and loop-depth queries.

use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem};

/// One basic block: the code-token indices it owns plus its loop depth.
#[derive(Debug, Default)]
pub struct Block {
    /// Indices into the file's code-token slice, in source order. Not
    /// necessarily contiguous (loop headers interleave with bodies).
    pub tokens: Vec<usize>,
    /// Loop nesting depth: 0 outside any loop, 1 in a loop body, 2 in
    /// a doubly nested body. `while`/`loop` headers count as inside
    /// (the condition re-evaluates every iteration); `for` headers
    /// count as outside (the iterator expression evaluates once).
    pub depth: u32,
}

/// A control-flow graph for one function body.
#[derive(Debug)]
pub struct Cfg {
    /// Basic blocks; index 0 is the entry, index 1 the exit.
    pub blocks: Vec<Block>,
    /// Directed edges `(from, to)`, deduplicated, sorted.
    pub edges: Vec<(usize, usize)>,
    /// The subset of `edges` that close a loop (body end → loop head).
    pub back_edges: Vec<(usize, usize)>,
}

/// Entry block id (always 0).
pub const ENTRY: usize = 0;
/// Exit block id (always 1). `return` and `?` edges target it.
pub const EXIT: usize = 1;

impl Cfg {
    /// Builds the CFG for the body token range `[start, end)` (half
    /// open, braces excluded — the shape `parser.rs` hands out).
    #[must_use]
    pub fn build(code: &[&Tok<'_>], range: (usize, usize)) -> Self {
        let mut b = Builder {
            code,
            blocks: vec![Block::default(), Block::default()],
            edges: std::collections::BTreeSet::new(),
            back_edges: std::collections::BTreeSet::new(),
            loops: Vec::new(),
        };
        let end = b.walk(range.0, range.1, Some(ENTRY));
        if let Some(live) = end {
            b.edge(live, EXIT);
        }
        Cfg {
            blocks: b.blocks,
            edges: b.edges.into_iter().collect(),
            back_edges: b.back_edges.into_iter().collect(),
        }
    }

    /// One graph per function of a parsed file, index-aligned with
    /// `fns`: `None` for `#[cfg(test)]` functions (test code is not held
    /// to the dataflow rules, matching the call-graph table's exclusion)
    /// and for empty or truncated bodies.
    #[must_use]
    pub fn for_fns(code: &[&Tok<'_>], fns: &[FnItem]) -> Vec<Option<Self>> {
        fns.iter()
            .map(|f| {
                let body_ok = f.body.0 < f.body.1 && f.body.1 <= code.len();
                (!f.in_test_mod && body_ok).then(|| Cfg::build(code, f.body))
            })
            .collect()
    }

    /// Successors of `block`, in ascending id order.
    pub fn succs(&self, block: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .filter(move |(f, _)| *f == block)
            .map(|(_, t)| *t)
    }

    /// Predecessors of `block`, in ascending id order.
    pub fn preds(&self, block: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .iter()
            .filter(move |(_, t)| *t == block)
            .map(|(f, _)| *f)
    }

    /// Loop depth per code-token index, for the whole token slice the
    /// graph was built over (tokens outside the body get depth 0).
    #[must_use]
    pub fn depth_by_token(&self, code_len: usize) -> Vec<u32> {
        let mut out = vec![0u32; code_len];
        for block in &self.blocks {
            for &t in &block.tokens {
                out[t] = block.depth;
            }
        }
        out
    }
}

/// An open loop during the walk: where `continue` and `break` go, and
/// the label (if any) they can name.
struct LoopCtx {
    label: Option<String>,
    head: usize,
    after: usize,
}

struct Builder<'a, 'b> {
    code: &'a [&'a Tok<'b>],
    blocks: Vec<Block>,
    edges: std::collections::BTreeSet<(usize, usize)>,
    back_edges: std::collections::BTreeSet<(usize, usize)>,
    loops: Vec<LoopCtx>,
}

impl Builder<'_, '_> {
    fn new_block(&mut self, depth: u32) -> usize {
        self.blocks.push(Block {
            tokens: Vec::new(),
            depth,
        });
        self.blocks.len() - 1
    }

    fn depth(&self) -> u32 {
        u32::try_from(self.loops.len()).unwrap_or(u32::MAX)
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.edges.insert((from, to));
    }

    /// Appends token `i` to the current block, materializing a block if
    /// the walker is in dead code (after `return`/`break`).
    fn push_tok(&mut self, cur: &mut Option<usize>, i: usize) {
        let b = match *cur {
            Some(b) => b,
            None => {
                let b = self.new_block(self.depth());
                *cur = Some(b);
                b
            }
        };
        self.blocks[b].tokens.push(i);
    }

    /// First `{` at bracket depth 0 in `[from, limit)` — the body open
    /// of an `if`/`while`/`for`/`match` header. Parens and square
    /// brackets nest; a struct-literal brace cannot appear at depth 0
    /// in these header positions in valid Rust.
    fn body_open(&self, from: usize, limit: usize) -> Option<usize> {
        let mut depth = 0usize;
        for j in from..limit {
            match self.code[j].kind {
                TokKind::Open if self.code[j].text == "{" && depth == 0 => return Some(j),
                TokKind::Open => depth += 1,
                TokKind::Close => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        None
    }

    /// Walks `[i, limit)` starting in `cur` (`None` = dead code) and
    /// returns the live block at the end, or `None` if control cannot
    /// fall through (the range ended in `return`/`break`/`continue`).
    fn walk(&mut self, mut i: usize, limit: usize, mut cur: Option<usize>) -> Option<usize> {
        while i < limit {
            let t = self.code[i];
            match t.kind {
                // Match-arm guards never reach here: `parse_match`
                // consumes pattern-and-guard tokens explicitly, so an
                // `if` seen by `walk` is always a real conditional.
                TokKind::Ident if t.text == "if" => {
                    let (ni, join) = self.parse_if(i, limit, &mut cur);
                    cur = Some(join);
                    i = ni;
                }
                TokKind::Ident if t.text == "match" => {
                    let (ni, join) = self.parse_match(i, limit, &mut cur);
                    cur = Some(join);
                    i = ni;
                }
                TokKind::Ident if matches!(t.text, "loop" | "while" | "for") => {
                    let (ni, after) = self.parse_loop(i, limit, &mut cur);
                    cur = Some(after);
                    i = ni;
                }
                TokKind::Ident if t.text == "break" || t.text == "continue" => {
                    let is_break = t.text == "break";
                    self.push_tok(&mut cur, i);
                    i += 1;
                    // An optional label names the loop; otherwise the
                    // innermost open loop is the target.
                    let label = (i < limit && self.code[i].kind == TokKind::Label).then(|| {
                        let l = self.code[i].text;
                        i += 1;
                        l
                    });
                    // `break expr;` — the value tokens still execute.
                    while i < limit
                        && !matches!(self.code[i].text, ";" | ",")
                        && self.code[i].kind != TokKind::Close
                    {
                        if self.code[i].kind == TokKind::Open {
                            let close = match_bracket(self.code, i).min(limit);
                            for k in i..=close.min(limit - 1) {
                                self.push_tok(&mut cur, k);
                            }
                            i = close + 1;
                        } else {
                            self.push_tok(&mut cur, i);
                            i += 1;
                        }
                    }
                    // The statement's own `;` belongs to this block,
                    // not to the dead code that follows.
                    if i < limit && self.code[i].text == ";" {
                        self.push_tok(&mut cur, i);
                        i += 1;
                    }
                    let target = self
                        .loops
                        .iter()
                        .rev()
                        .find(|l| match label {
                            Some(name) => l.label.as_deref() == Some(name),
                            None => true,
                        })
                        .map_or(EXIT, |l| if is_break { l.after } else { l.head });
                    if let Some(b) = cur {
                        self.edge(b, target);
                    }
                    cur = None;
                }
                TokKind::Ident if t.text == "return" => {
                    // Consume through the end of the return expression
                    // (`;` at bracket depth 0, or the range end) into
                    // the current block, then jump to exit.
                    self.push_tok(&mut cur, i);
                    i += 1;
                    let mut depth = 0usize;
                    while i < limit {
                        match self.code[i].kind {
                            TokKind::Open => depth += 1,
                            TokKind::Close if depth == 0 => break,
                            TokKind::Close => depth -= 1,
                            TokKind::Punct if self.code[i].text == ";" && depth == 0 => {
                                self.push_tok(&mut cur, i);
                                i += 1;
                                break;
                            }
                            _ => {}
                        }
                        self.push_tok(&mut cur, i);
                        i += 1;
                    }
                    if let Some(b) = cur {
                        self.edge(b, EXIT);
                    }
                    cur = None;
                }
                TokKind::Punct if t.text == "?" => {
                    // `expr?` can leave the function here but also fall
                    // through: an exit edge, same block continues.
                    self.push_tok(&mut cur, i);
                    if let Some(b) = cur {
                        self.edge(b, EXIT);
                    }
                    i += 1;
                }
                _ => {
                    self.push_tok(&mut cur, i);
                    i += 1;
                }
            }
        }
        cur
    }

    /// `if cond { then } [else if …] [else { … }]`; returns (index past
    /// the construct, join block).
    fn parse_if(&mut self, i: usize, limit: usize, cur: &mut Option<usize>) -> (usize, usize) {
        // Header: the `if` and its condition belong to the current
        // block (they execute unconditionally on entry).
        self.push_tok(cur, i);
        let Some(open) = self.body_open(i + 1, limit) else {
            // Malformed (no body in range): swallow the keyword.
            return (i + 1, cur.unwrap_or(EXIT));
        };
        for k in i + 1..open {
            self.push_tok(cur, k);
        }
        let close = match_bracket(self.code, open).min(limit);
        let cond_block = cur.unwrap_or(ENTRY);
        let then_block = self.new_block(self.depth());
        self.edge(cond_block, then_block);
        let then_end = self.walk(open + 1, close, Some(then_block));
        let i = close + 1;

        // `else if` chains reuse the inner if's join as ours.
        if i + 1 < limit && self.code[i].is_ident("else") && self.code[i + 1].is_ident("if") {
            let mut else_cur = Some(cond_block);
            let (ni, join) = self.parse_if(i + 1, limit, &mut else_cur);
            if let Some(t) = then_end {
                self.edge(t, join);
            }
            return (ni, join);
        }
        if i < limit && self.code[i].is_ident("else") {
            let Some(eopen) = self.body_open(i + 1, limit) else {
                let join = self.new_block(self.depth());
                if let Some(t) = then_end {
                    self.edge(t, join);
                }
                return (i + 1, join);
            };
            let eclose = match_bracket(self.code, eopen).min(limit);
            let else_block = self.new_block(self.depth());
            self.edge(cond_block, else_block);
            let else_end = self.walk(eopen + 1, eclose, Some(else_block));
            let join = self.new_block(self.depth());
            if let Some(t) = then_end {
                self.edge(t, join);
            }
            if let Some(e) = else_end {
                self.edge(e, join);
            }
            return (eclose + 1, join);
        }
        // No else: the false branch falls straight through.
        let join = self.new_block(self.depth());
        self.edge(cond_block, join);
        if let Some(t) = then_end {
            self.edge(t, join);
        }
        (i, join)
    }

    /// `match scrutinee { pat [if guard] => body, … }`; returns (index
    /// past the construct, join block).
    fn parse_match(&mut self, i: usize, limit: usize, cur: &mut Option<usize>) -> (usize, usize) {
        self.push_tok(cur, i);
        let Some(open) = self.body_open(i + 1, limit) else {
            return (i + 1, cur.unwrap_or(EXIT));
        };
        for k in i + 1..open {
            self.push_tok(cur, k);
        }
        let close = match_bracket(self.code, open).min(limit);
        let head = cur.unwrap_or(ENTRY);
        let join = self.new_block(self.depth());
        let mut j = open + 1;
        let mut any_arm = false;
        while j < close {
            any_arm = true;
            // Pattern and guard tokens execute on the way into the arm
            // (the guard genuinely runs; patterns at worst bind). They
            // go into the arm block, consumed explicitly so a guard's
            // `if` is never mistaken for a conditional.
            let arm = self.new_block(self.depth());
            self.edge(head, arm);
            let mut depth = 0usize;
            while j < close {
                let t = self.code[j];
                match t.kind {
                    TokKind::Open => depth += 1,
                    TokKind::Close => depth = depth.saturating_sub(1),
                    TokKind::Punct
                        if depth == 0
                            && t.text == "="
                            && self.code.get(j + 1).is_some_and(|n| n.text == ">") =>
                    {
                        break;
                    }
                    _ => {}
                }
                self.blocks[arm].tokens.push(j);
                j += 1;
            }
            // Skip the `=>` itself.
            j = (j + 2).min(close);
            // Arm body: a braced block, or an expression running to the
            // next top-level `,` (or the match close).
            let arm_end =
                if j < close && self.code[j].kind == TokKind::Open && self.code[j].text == "{" {
                    let bclose = match_bracket(self.code, j).min(close);
                    let end = self.walk(j + 1, bclose, Some(arm));
                    j = bclose + 1;
                    if j < close && self.code[j].text == "," {
                        j += 1;
                    }
                    end
                } else {
                    let mut k = j;
                    let mut depth = 0usize;
                    while k < close {
                        match self.code[k].kind {
                            TokKind::Open => depth += 1,
                            TokKind::Close => depth = depth.saturating_sub(1),
                            TokKind::Punct if depth == 0 && self.code[k].text == "," => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    let end = self.walk(j, k, Some(arm));
                    j = (k + 1).min(close);
                    end
                };
            if let Some(e) = arm_end {
                self.edge(e, join);
            }
        }
        if !any_arm {
            // `match x {}` on an uninhabited type: nothing follows, but
            // keep the join reachable so downstream code stays modeled.
            self.edge(head, join);
        }
        (close + 1, join)
    }

    /// `['label:] loop/while/for … { body }`; returns (index past the
    /// construct, after block).
    fn parse_loop(&mut self, i: usize, limit: usize, cur: &mut Option<usize>) -> (usize, usize) {
        // A declared label sits two tokens back: `'outer : loop`.
        let label =
            (i >= 2 && self.code[i - 1].text == ":" && self.code[i - 2].kind == TokKind::Label)
                .then(|| self.code[i - 2].text.to_string());
        let kw = self.code[i].text;
        let outer = self.depth();
        // `while` conditions re-run every iteration (inner depth);
        // `for` iterator expressions run once (outer depth).
        let head = self.new_block(if kw == "for" { outer } else { outer + 1 });
        if let Some(b) = *cur {
            self.edge(b, head);
        }
        self.blocks[head].tokens.push(i);
        let Some(open) = self.body_open(i + 1, limit) else {
            *cur = Some(head);
            return (i + 1, head);
        };
        for k in i + 1..open {
            self.blocks[head].tokens.push(k);
        }
        let close = match_bracket(self.code, open).min(limit);
        let after = self.new_block(outer);
        self.loops.push(LoopCtx { label, head, after });
        let body = self.new_block(self.depth());
        self.edge(head, body);
        let body_end = self.walk(open + 1, close, Some(body));
        self.loops.pop();
        if let Some(e) = body_end {
            self.edge(e, head);
            self.back_edges.insert((e, head));
        }
        // `while`/`for` exit when the condition fails or the iterator
        // runs dry; a bare `loop` only leaves through `break`.
        if kw != "loop" {
            self.edge(head, after);
        }
        (close + 1, after)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;

    /// Lexes a full fn and returns (owned tokens, body range).
    fn body(src: &str) -> (Vec<Tok<'_>>, (usize, usize)) {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let open = code
            .iter()
            .position(|t| t.kind == TokKind::Open && t.text == "{")
            .unwrap();
        let close = match_bracket(&code, open);
        (toks, (open + 1, close))
    }

    fn build(src: &str) -> Cfg {
        let (toks, range) = body(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        Cfg::build(&code, range)
    }

    #[test]
    fn straight_line_body_is_entry_to_exit() {
        let cfg = build("fn f() { let a = g(); h(a); }");
        assert_eq!(cfg.blocks.len(), 2);
        assert_eq!(cfg.edges, [(ENTRY, EXIT)]);
        assert!(cfg.back_edges.is_empty());
    }

    #[test]
    fn if_else_forks_and_joins() {
        let cfg = build("fn f(c: bool) { if c { a(); } else { b(); } tail(); }");
        // entry, exit, then, else, join.
        assert_eq!(cfg.blocks.len(), 5);
        let join = 4;
        assert!(cfg.edges.contains(&(ENTRY, 2)));
        assert!(cfg.edges.contains(&(ENTRY, 3)));
        assert!(cfg.edges.contains(&(2, join)));
        assert!(cfg.edges.contains(&(3, join)));
        assert!(cfg.edges.contains(&(join, EXIT)));
        assert!(cfg.back_edges.is_empty());
    }

    #[test]
    fn while_loop_has_back_edge_and_depths() {
        let cfg = build("fn f() { while cond() { step(); } done(); }");
        assert_eq!(cfg.back_edges.len(), 1);
        let (from, head) = cfg.back_edges[0];
        assert_eq!(cfg.blocks[head].depth, 1, "while header re-runs");
        assert_eq!(cfg.blocks[from].depth, 1);
        // The after block is back at depth 0.
        assert!(cfg
            .blocks
            .iter()
            .any(|b| b.depth == 0 && !b.tokens.is_empty()));
    }

    #[test]
    fn for_header_stays_outside_the_loop() {
        let src = "fn f() { for x in make_list() { eat(x); } }";
        let (toks, range) = body(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let cfg = Cfg::build(&code, range);
        let depths = cfg.depth_by_token(code.len());
        let make = code.iter().position(|t| t.is_ident("make_list")).unwrap();
        let eat = code.iter().position(|t| t.is_ident("eat")).unwrap();
        assert_eq!(depths[make], 0, "iterator expr evaluates once");
        assert_eq!(depths[eat], 1, "body runs per iteration");
    }

    #[test]
    fn labeled_break_skips_the_inner_loop() {
        let src =
            "fn f() { 'outer: loop { loop { if done() { break 'outer; } step(); } } tail(); }";
        let (toks, range) = body(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let cfg = Cfg::build(&code, range);
        // Both loops can iterate, so both have back edges.
        assert_eq!(cfg.back_edges.len(), 2);
        // The labeled break jumps from depth 2 straight to the outer
        // loop's after block — the one that holds `tail()`, at depth 0.
        let tail = code.iter().position(|t| t.is_ident("tail")).unwrap();
        let after = cfg
            .blocks
            .iter()
            .position(|b| b.tokens.contains(&tail))
            .unwrap();
        assert_eq!(cfg.blocks[after].depth, 0);
        assert!(
            cfg.edges
                .iter()
                .any(|&(f, t)| t == after && cfg.blocks[f].depth == 2),
            "break 'outer edges from the inner body to the outer after block"
        );
    }

    #[test]
    fn bare_loop_with_break_has_no_back_edge_after_break_only_path() {
        // `loop { break; }`: the body always leaves, so no back edge.
        let cfg = build("fn f() { loop { break; } }");
        assert!(cfg.back_edges.is_empty());
    }

    #[test]
    fn question_mark_adds_exit_edge_without_splitting() {
        let cfg = build("fn f() -> R { let x = fallible()?; use_it(x); ok() }");
        // Straight-line otherwise: entry block flows to exit both via
        // the `?` early return and the normal fallthrough.
        assert_eq!(cfg.blocks.len(), 2);
        assert_eq!(cfg.edges, [(ENTRY, EXIT)]);
    }

    #[test]
    fn match_arms_fan_out_and_rejoin() {
        let cfg = build(
            "fn f(x: E) { match x { E::A => a(), E::B if g(x) => { b(); } _ => c(), } tail(); }",
        );
        // entry, exit, join, three arms.
        assert_eq!(cfg.blocks.len(), 6);
        let arm_edges = cfg.edges.iter().filter(|&&(f, _)| f == ENTRY).count();
        assert_eq!(arm_edges, 3, "one edge per arm");
    }

    #[test]
    fn return_terminates_the_block() {
        let cfg = build("fn f(c: bool) { if c { return early(); } late(); }");
        // The then-branch must edge to EXIT and not to the join.
        let then = 2;
        assert!(cfg.edges.contains(&(then, EXIT)));
        let join = 3;
        assert!(!cfg.edges.contains(&(then, join)));
    }

    #[test]
    fn nested_loop_depths_stack() {
        let src = "fn f() { for a in outer() { for b in inner(a) { work(b); } } }";
        let (toks, range) = body(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let cfg = Cfg::build(&code, range);
        let depths = cfg.depth_by_token(code.len());
        let work = code.iter().position(|t| t.is_ident("work")).unwrap();
        assert_eq!(depths[work], 2);
        let inner = code.iter().position(|t| t.is_ident("inner")).unwrap();
        assert_eq!(depths[inner], 1, "inner iterator expr is once-per-outer");
    }
}
