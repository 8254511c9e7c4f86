//! The conservative workspace call graph and everything built on it:
//! transitive hot-path propagation, the purity fixpoint behind the
//! pool-closure rule, and the unit-flow check over resolved call edges.
//!
//! Resolution is deliberately modest — this is a linter, not a compiler:
//!
//! * `self.name(...)` binds to the enclosing impl's method when exactly
//!   one exists;
//! * `Type::name(...)` binds to that type's associated function, falling
//!   back to a unique free function for module-qualified paths;
//! * `recv.name(...)` and bare `name(...)` bind by *unique name* across
//!   the workspace (same-file first for free functions);
//! * anything matching zero first-party functions is external and
//!   ignored; anything matching two or more is an **ambiguous site**.
//!
//! Ambiguity is only reported when it can hide a property this pass is
//! supposed to prove — the caller is hot and some candidate is neither
//! hot, cold, nor a benign leaf (a clean body with no outgoing calls),
//! or the site sits inside a worker-pool closure and not every
//! candidate is pure. Those *consequential* sites surface as
//! `lint-unresolved-call` findings beyond the file's declared budget, so
//! over-approximation stays visible instead of silently eroding the
//! guarantee. Method names shared with the standard library's
//! collections ([`STD_METHODS`]) are treated as external unless the
//! receiver is `self`: a workspace type defining `push` must not capture
//! every `Vec::push` in the repository.

use std::collections::{BTreeMap, BTreeSet};

use eua_analyze::DiagCode;

use crate::cfg::Cfg;
use crate::flow::{classify, Unit};
use crate::lexer::{Tok, TokKind};
use crate::parser::{match_bracket, FnItem, ParsedFile};
use crate::rules::{run_hazards, span_of, Finding, HotBody, ENTROPY_SOURCES};
use crate::taint;

/// One file's inputs to the workspace analysis.
#[derive(Debug)]
pub struct FileInput<'a> {
    /// Code tokens (comments excluded), as produced by the scan layer.
    pub code: &'a [&'a Tok<'a>],
    /// Parsed items for the same tokens.
    pub parsed: &'a ParsedFile,
    /// Control-flow graphs index-aligned with `parsed.fns` (see
    /// [`Cfg::for_fns`]); empty when no dataflow code is selected.
    pub cfgs: &'a [Option<Cfg>],
    /// Indices into `parsed.fns` marked `// eua-lint: hot`.
    pub hot_marked: Vec<usize>,
    /// Indices into `parsed.fns` marked `// eua-lint: cold`
    /// (propagation barriers).
    pub cold_marked: Vec<usize>,
}

/// One function in the hot set.
#[derive(Debug, Clone)]
pub struct HotFn {
    /// File index (into the `analyze` input slice).
    pub file: usize,
    /// Item index into that file's `parsed.fns`.
    pub item: usize,
    /// `None` for marked roots; the rendered propagation chain
    /// (`"plan → rebuild → insert"`, root first, this function last)
    /// for functions the marker *reached*.
    pub chain: Option<String>,
}

/// Aggregate call-graph statistics, surfaced for dogfood assertions and
/// the CLI's scan accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Parsed function items across the workspace.
    pub fns: usize,
    /// Resolved (unique) call edges.
    pub edges: usize,
    /// Ambiguous sites (all of them, consequential or not).
    pub ambiguous_sites: usize,
    /// Functions carrying a `hot` marker.
    pub hot_roots: usize,
    /// Hot functions total (roots plus propagated).
    pub hot_reachable: usize,
    /// Closures handed to the worker-pool APIs.
    pub pool_closures: usize,
    /// `seed_from_u64` construction sites the taint scan judged (zero
    /// unless a dataflow code is selected, since the scan needs graphs).
    pub rng_sites: usize,
    /// Of those, sites whose seed expression provably derives from a
    /// master seed.
    pub seed_proven: usize,
}

/// Everything the workspace pass produces, tagged by file index.
#[derive(Debug, Default)]
pub struct Analysis {
    /// The hot set (marked roots and everything they reach).
    pub hot: Vec<HotFn>,
    /// Consequential ambiguous sites, before budget accounting.
    pub unresolved: Vec<(usize, Finding)>,
    /// Cross-unit argument flows at resolved call sites.
    pub unit_flow: Vec<(usize, Finding)>,
    /// Impure captures/calls inside worker-pool closures.
    pub pool_impure: Vec<(usize, Finding)>,
    /// RNG construction sites whose seed provenance could not be
    /// proven (the seed taint scan).
    pub seed_taint: Vec<(usize, Finding)>,
    /// Cold-marked functions propagation never touched: stale barriers.
    pub unused_cold: Vec<(usize, usize)>,
    /// Aggregate statistics.
    pub stats: GraphStats,
}

/// The worker-pool entry points whose closures must stay pure (see
/// `crates/sim/src/pool.rs` and `crates/sim/src/runner.rs`).
pub const POOL_APIS: [&str; 3] = ["map_parallel", "map_parallel_settle", "replicate_parallel"];

/// Method names shared with std's containers/iterators/Option/Result.
/// A non-`self` method call with one of these names is *external* even
/// when a workspace type defines it: resolving every `vec.push(..)` to
/// some first-party `push` would flood the graph with false edges. The
/// cost is a soundness hole for first-party methods named like std's —
/// documented in DESIGN.md §16.
///
/// Kept sorted (asserted by a unit test) so lookup is a binary search;
/// this table is consulted once per method-call site in the workspace.
const STD_METHODS: [&str; 79] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "binary_search",
    "binary_search_by",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "clear",
    "clone",
    "cmp",
    "contains",
    "contains_key",
    "count",
    "default",
    "drain",
    "extend",
    "filter",
    "find",
    "finish",
    "first",
    "flush",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "partition_point",
    "peek",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "read_to_string",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "split",
    "starts_with",
    "swap",
    "take",
    "trim",
    "truncate",
    "write",
    "write_all",
];

/// One nondeterminism class the purity fixpoint tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    WallClock,
    Entropy,
    HashIter,
    InteriorMut,
}

const CLASSES: [Class; 4] = [
    Class::WallClock,
    Class::Entropy,
    Class::HashIter,
    Class::InteriorMut,
];

impl Class {
    fn bit(self) -> u8 {
        match self {
            Class::WallClock => 1,
            Class::Entropy => 2,
            Class::HashIter => 4,
            Class::InteriorMut => 8,
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Class::WallClock => "the wall clock",
            Class::Entropy => "entropy-seeded randomness",
            Class::HashIter => "hash-ordered iteration",
            Class::InteriorMut => "interior-mutable shared state",
        }
    }
}

/// A nondeterminism source the purity scan recognizes directly, at one
/// token position.
fn marker_at(code: &[&Tok<'_>], j: usize) -> Option<(Class, String)> {
    let t = code[j];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev_dot = j > 0 && code[j - 1].kind == TokKind::Dot;
    let called = code.get(j + 1).map(|n| n.text) == Some("(");
    match t.text {
        "Instant" | "SystemTime" => Some((Class::WallClock, t.text.into())),
        s if ENTROPY_SOURCES.contains(&s) => Some((Class::Entropy, t.text.into())),
        "rand"
            if code.get(j + 1).map(|n| n.kind) == Some(TokKind::PathSep)
                && code.get(j + 2).is_some_and(|n| n.is_ident("random")) =>
        {
            Some((Class::Entropy, "rand::random".into()))
        }
        "HashMap" | "HashSet" => Some((Class::HashIter, t.text.into())),
        "RefCell" | "Cell" | "Mutex" | "RwLock" => Some((Class::InteriorMut, t.text.into())),
        _ if t.text.starts_with("Atomic") => Some((Class::InteriorMut, t.text.into())),
        "lock" | "borrow" | "borrow_mut" if prev_dot && called => {
            Some((Class::InteriorMut, format!(".{}()", t.text)))
        }
        _ => None,
    }
}

/// How one call site resolved.
enum Res {
    Edge(usize),
    Ambiguous(Vec<usize>),
    External,
}

/// How the site was written, which decides argument/parameter alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    /// `recv.name(args)` — params already exclude the receiver.
    Method,
    /// `Qual::name(args)` — a leading `self` argument (UFCS) never
    /// appears in this workspace, but a `has_self` callee still means
    /// the first argument is the receiver.
    Qualified,
    /// `name(args)`.
    Free,
}

/// A resolved call site.
struct EdgeSite {
    caller: usize,
    callee: usize,
    /// Code-token index of the callee name at the site.
    name_tok: usize,
    kind: SiteKind,
}

/// An ambiguous call site.
struct AmbSite {
    caller: usize,
    name_tok: usize,
    name: String,
    candidates: Vec<usize>,
}

/// A closure argument handed to a pool API.
struct PoolClosure {
    caller: usize,
    api: String,
    /// Half-open code-token range of the closure body.
    body: (usize, usize),
}

/// The flattened workspace function table with resolution indexes.
struct Table<'a> {
    /// `(file, item, fn)` per global id.
    items: Vec<(usize, usize, &'a FnItem)>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    assoc: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    free: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Table<'a> {
    fn build(files: &'a [FileInput<'a>]) -> Self {
        let mut t = Table {
            items: Vec::new(),
            methods: BTreeMap::new(),
            assoc: BTreeMap::new(),
            free: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.parsed.fns.iter().enumerate() {
                // Test-module items share names with production code
                // (mock policies, fixture builders); keeping them out
                // keeps candidate sets honest.
                if f.in_test_mod {
                    continue;
                }
                let g = t.items.len();
                t.items.push((fi, ii, f));
                if f.has_self {
                    t.methods.entry(f.name.as_str()).or_default().push(g);
                }
                match &f.self_type {
                    Some(ty) => t
                        .assoc
                        .entry((ty.as_str(), f.name.as_str()))
                        .or_default()
                        .push(g),
                    None => t.free.entry(f.name.as_str()).or_default().push(g),
                }
            }
        }
        t
    }

    fn file_of(&self, g: usize) -> usize {
        self.items[g].0
    }

    fn fn_of(&self, g: usize) -> &'a FnItem {
        self.items[g].2
    }

    fn resolve_method(&self, name: &str, recv_is_self: bool, self_type: Option<&str>) -> Res {
        if recv_is_self {
            if let Some(ty) = self_type {
                if let Some(c) = self.assoc.get(&(ty, name)) {
                    if c.len() == 1 {
                        return Res::Edge(c[0]);
                    }
                }
            }
        }
        if !recv_is_self && STD_METHODS.binary_search(&name).is_ok() {
            return Res::External;
        }
        match self.methods.get(name).map(Vec::as_slice) {
            Some([one]) => Res::Edge(*one),
            Some(many) if many.len() > 1 => Res::Ambiguous(many.to_vec()),
            _ => Res::External,
        }
    }

    fn resolve_qualified(&self, qual: &str, name: &str, self_type: Option<&str>) -> Res {
        let qual = match qual {
            "Self" | "self" => match self_type {
                Some(ty) => ty,
                None => return Res::External,
            },
            q => q,
        };
        match self.assoc.get(&(qual, name)).map(Vec::as_slice) {
            Some([one]) => return Res::Edge(*one),
            Some(many) if many.len() > 1 => return Res::Ambiguous(many.to_vec()),
            _ => {}
        }
        // A lowercase qualifier is a module path (`rules::run_hazards`):
        // fall back to a unique free function. Uppercase qualifiers are
        // types whose impl we do not see (std, vendor) — external.
        if qual.starts_with(|c: char| c.is_ascii_lowercase()) {
            match self.free.get(name).map(Vec::as_slice) {
                Some([one]) => return Res::Edge(*one),
                Some(many) if many.len() > 1 => return Res::Ambiguous(many.to_vec()),
                _ => {}
            }
        }
        Res::External
    }

    fn resolve_free(&self, name: &str, file: usize) -> Res {
        match self.free.get(name).map(Vec::as_slice) {
            Some([one]) => Res::Edge(*one),
            Some(many) if many.len() > 1 => {
                let local: Vec<usize> = many
                    .iter()
                    .copied()
                    .filter(|&g| self.file_of(g) == file)
                    .collect();
                match local.as_slice() {
                    [one] => Res::Edge(*one),
                    _ => Res::Ambiguous(many.to_vec()),
                }
            }
            _ => Res::External,
        }
    }
}

/// Finds every closure argument of every pool-API call in `range`.
fn pool_closures_in(
    code: &[&Tok<'_>],
    range: (usize, usize),
    caller: usize,
    out: &mut Vec<PoolClosure>,
) {
    let (s, e) = range;
    for j in s..e.min(code.len()) {
        if !(code[j].kind == TokKind::Ident && POOL_APIS.contains(&code[j].text)) {
            continue;
        }
        if code.get(j + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        for (mut a, b) in call_args(code, j) {
            if code.get(a).is_some_and(|t| t.is_ident("move")) {
                a += 1;
            }
            if code.get(a).map(|t| t.text) != Some("|") {
                continue;
            }
            let Some(pipe_close) = (a + 1..b).find(|&k| code[k].text == "|") else {
                continue;
            };
            out.push(PoolClosure {
                caller,
                api: code[j].text.to_string(),
                body: (pipe_close + 1, b),
            });
        }
    }
}

/// Extracts call sites from one function body.
#[allow(clippy::too_many_arguments)]
fn extract_sites(
    table: &Table<'_>,
    code: &[&Tok<'_>],
    caller: usize,
    file: usize,
    self_type: Option<&str>,
    range: (usize, usize),
    edges: &mut Vec<EdgeSite>,
    ambiguous: &mut Vec<AmbSite>,
) {
    let (s, e) = range;
    for j in s..e.min(code.len()) {
        let t = code[j];
        if t.kind != TokKind::Ident || code.get(j + 1).map(|n| n.text) != Some("(") {
            continue;
        }
        let Some(prev) = j.checked_sub(1).map(|p| code[p]) else {
            continue;
        };
        let (res, kind) = match prev.kind {
            TokKind::Dot => {
                let recv_is_self = j >= 2 && code[j - 2].is_ident("self");
                (
                    table.resolve_method(t.text, recv_is_self, self_type),
                    SiteKind::Method,
                )
            }
            TokKind::PathSep => {
                let Some(qual) = j.checked_sub(2).map(|q| code[q]) else {
                    continue;
                };
                if qual.kind != TokKind::Ident {
                    continue;
                }
                (
                    table.resolve_qualified(qual.text, t.text, self_type),
                    SiteKind::Qualified,
                )
            }
            _ if prev.is_ident("fn") => continue, // the declaration itself
            _ => (table.resolve_free(t.text, file), SiteKind::Free),
        };
        match res {
            Res::Edge(callee) => edges.push(EdgeSite {
                caller,
                callee,
                name_tok: j,
                kind,
            }),
            Res::Ambiguous(candidates) => ambiguous.push(AmbSite {
                caller,
                name_tok: j,
                name: t.text.to_string(),
                candidates,
            }),
            Res::External => {}
        }
    }
}

/// Splits the argument list of the call whose name token is `name_tok`
/// into top-level token ranges.
fn call_args(code: &[&Tok<'_>], name_tok: usize) -> Vec<(usize, usize)> {
    let open = name_tok + 1;
    let close = match_bracket(code, open);
    let mut out = Vec::new();
    let mut depth = 1usize;
    let mut start = open + 1;
    for (k, tok) in code.iter().enumerate().take(close).skip(open + 1) {
        match tok.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Punct if tok.text == "," && depth == 1 => {
                out.push((start, k));
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// Infers the unit of one argument: a bare identifier (caller parameter
/// or suffix-classified name) or a single whole-argument call with a
/// classifiable return. Anything else stays unknown.
fn arg_unit(
    table: &Table<'_>,
    code: &[&Tok<'_>],
    piece: (usize, usize),
    caller: &FnItem,
) -> Option<(Unit, usize)> {
    let (mut s, e) = piece;
    while s < e && (code[s].text == "&" || code[s].is_ident("mut") || code[s].text == "*") {
        s += 1;
    }
    if s >= e {
        return None;
    }
    if e - s == 1 && code[s].kind == TokKind::Ident {
        let name = code[s].text;
        let unit = match caller
            .params
            .iter()
            .find(|p| p.name.as_deref() == Some(name))
        {
            Some(p) => classify(p.name.as_deref(), &p.ty),
            None => classify(Some(name), &[]),
        };
        return unit.map(|u| (u, s));
    }
    // A whole-argument call `f(...)` / `m::f(...)`: the return unit of a
    // uniquely named workspace function.
    if code[e - 1].text == ")" && code.get(s).map(|t| t.kind) == Some(TokKind::Ident) {
        let mut name_at = s;
        while code.get(name_at + 1).map(|t| t.kind) == Some(TokKind::PathSep) {
            name_at += 2;
        }
        if code.get(name_at).map(|t| t.kind) == Some(TokKind::Ident)
            && code.get(name_at + 1).map(|t| t.text) == Some("(")
            && match_bracket(code, name_at + 1) == e - 1
        {
            let name = code[name_at].text;
            let all: Vec<&FnItem> = table
                .items
                .iter()
                .filter(|(_, _, f)| f.name == name)
                .map(|(_, _, f)| *f)
                .collect();
            if let [f] = all.as_slice() {
                return classify(Some(&f.name), &f.ret).map(|u| (u, s));
            }
        }
    }
    None
}

/// Runs the whole workspace analysis.
#[must_use]
pub fn analyze(files: &[FileInput<'_>]) -> Analysis {
    let table = Table::build(files);
    let n = table.items.len();

    // Pool closures first: ambiguity consequence checks need them.
    let mut closures: Vec<PoolClosure> = Vec::new();
    let mut edges: Vec<EdgeSite> = Vec::new();
    let mut ambiguous: Vec<AmbSite> = Vec::new();
    for (g, &(fi, _, f)) in table.items.iter().enumerate() {
        let code = files[fi].code;
        pool_closures_in(code, f.body, g, &mut closures);
        extract_sites(
            &table,
            code,
            g,
            fi,
            f.self_type.as_deref(),
            f.body,
            &mut edges,
            &mut ambiguous,
        );
    }

    // Adjacency (deduplicated) for propagation and the purity fixpoint.
    let edge_set: BTreeSet<(usize, usize)> = edges.iter().map(|e| (e.caller, e.callee)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &edge_set {
        adj[a].push(b);
    }

    // Direct purity classes per function (signature included: a
    // `&RefCell<_>` parameter is shared state even before first use).
    let mut mask = vec![0u8; n];
    let mut witness: Vec<[Option<usize>; 4]> = vec![[None; 4]; n];
    for (g, &(fi, _, f)) in table.items.iter().enumerate() {
        let code = files[fi].code;
        for j in f.fn_tok..f.body.1.min(code.len()) {
            if let Some((class, _)) = marker_at(code, j) {
                mask[g] |= class.bit();
            }
        }
    }
    // Fixpoint: callers inherit callee classes, recording which callee
    // introduced each class for witness chains.
    loop {
        let mut changed = false;
        for &(a, b) in &edge_set {
            let new = mask[b] & !mask[a];
            if new != 0 {
                mask[a] |= new;
                for (c, class) in CLASSES.iter().enumerate() {
                    if new & class.bit() != 0 {
                        witness[a][c] = Some(b);
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Hot propagation: BFS from the marked roots, cold fns as barriers.
    let gid = |fi: usize, ii: usize| {
        table
            .items
            .iter()
            .position(|&(f, i, _)| f == fi && i == ii)
            .unwrap_or(usize::MAX)
    };
    let mut cold = vec![false; n];
    for (fi, file) in files.iter().enumerate() {
        for &ii in &file.cold_marked {
            let g = gid(fi, ii);
            if g != usize::MAX {
                cold[g] = true;
            }
        }
    }
    let mut hot_parent: Vec<Option<usize>> = vec![None; n];
    let mut hot = vec![false; n];
    let mut root = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for (fi, file) in files.iter().enumerate() {
        for &ii in &file.hot_marked {
            let g = gid(fi, ii);
            if g != usize::MAX && !cold[g] && !hot[g] {
                hot[g] = true;
                root[g] = true;
                queue.push_back(g);
            }
        }
    }
    let mut touched_cold = vec![false; n];
    while let Some(g) = queue.pop_front() {
        for &next in &adj[g] {
            if cold[next] {
                touched_cold[next] = true;
                continue;
            }
            if !hot[next] {
                hot[next] = true;
                hot_parent[next] = Some(g);
                queue.push_back(next);
            }
        }
    }
    let chain_to = |g: usize| -> String {
        let mut names = vec![table.fn_of(g).display_name()];
        let mut at = g;
        while let Some(p) = hot_parent[at] {
            names.push(table.fn_of(p).display_name());
            at = p;
        }
        names.reverse();
        names.join(" → ")
    };

    let mut out = Analysis::default();
    for (g, &(fi, ii, _)) in table.items.iter().enumerate() {
        if hot[g] {
            out.hot.push(HotFn {
                file: fi,
                item: ii,
                chain: if root[g] { None } else { Some(chain_to(g)) },
            });
        }
    }

    // Pool-closure purity: direct markers in the closure body, plus
    // resolved calls to impure functions (witness chain rendered).
    let impure_chain = |start: usize| -> (Class, String) {
        let class = *CLASSES
            .iter()
            .find(|c| mask[start] & c.bit() != 0)
            .unwrap_or(&Class::WallClock);
        let ci = CLASSES
            .iter()
            .position(|c| c.bit() == class.bit())
            .unwrap_or(0);
        let mut names = vec![table.fn_of(start).display_name()];
        let mut at = start;
        while let Some(next) = witness[at][ci] {
            names.push(table.fn_of(next).display_name());
            at = next;
        }
        (class, names.join(" → "))
    };
    for cl in &closures {
        let fi = table.file_of(cl.caller);
        let code = files[fi].code;
        for j in cl.body.0..cl.body.1.min(code.len()) {
            if let Some((class, entity)) = marker_at(code, j) {
                out.pool_impure.push((
                    fi,
                    Finding {
                        code: DiagCode::LintPoolClosureImpure,
                        span: span_of(code[j]),
                        entity: entity.clone(),
                        message: format!(
                            "closure passed to {} uses {} (`{entity}`); sweep cells must \
                             be pure functions of their inputs to keep parallel runs \
                             byte-identical",
                            cl.api,
                            class.describe(),
                        ),
                    },
                ));
            }
        }
        for e in edges
            .iter()
            .filter(|e| e.caller == cl.caller && e.name_tok >= cl.body.0 && e.name_tok < cl.body.1)
        {
            if mask[e.callee] != 0 {
                let (class, chain) = impure_chain(e.callee);
                out.pool_impure.push((
                    fi,
                    Finding {
                        code: DiagCode::LintPoolClosureImpure,
                        span: span_of(code[e.name_tok]),
                        entity: table.fn_of(e.callee).display_name(),
                        message: format!(
                            "closure passed to {} reaches {} via {chain}; sweep cells \
                             must be pure functions of their inputs to keep parallel \
                             runs byte-identical",
                            cl.api,
                            class.describe(),
                        ),
                    },
                ));
            }
        }
    }

    // A candidate is *suspect* when resolving to it could matter to the
    // hot-path guarantee: an alloc/blocking token is reachable from it
    // under some resolution of the graph. The base set is a direct token
    // scan of every body; suspicion then flows backward over resolved
    // edges and through ambiguous sites (any non-cold candidate suspect
    // makes the caller suspect), with cold barriers absorbing it exactly
    // as they absorb heat. Leaf accessors with clean call trees
    // (`as_micros`, `JobArena::termination`, …) stay benign under every
    // candidate, so ambiguity over them proves nothing is lost.
    let mut suspect = vec![false; n];
    for (g, &(fi, _, f)) in table.items.iter().enumerate() {
        let code = files[fi].code;
        let body = [HotBody::root((f.fn_tok, f.body.1.min(code.len())))];
        suspect[g] = !run_hazards(&[], code, &body, &[], &|c| {
            matches!(
                c,
                DiagCode::LintHotPathAlloc | DiagCode::LintHotPathBlocking
            )
        })
        .is_empty();
    }
    loop {
        let mut changed = false;
        for &(a, b) in &edge_set {
            if suspect[b] && !cold[b] && !suspect[a] {
                suspect[a] = true;
                changed = true;
            }
        }
        for site in &ambiguous {
            if !suspect[site.caller] && site.candidates.iter().any(|&c| !cold[c] && suspect[c]) {
                suspect[site.caller] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Consequential ambiguity.
    let in_closure = |caller: usize, tok: usize| {
        closures
            .iter()
            .any(|c| c.caller == caller && tok >= c.body.0 && tok < c.body.1)
    };
    for site in &ambiguous {
        let fi = table.file_of(site.caller);
        let code = files[fi].code;
        // A cold candidate at a hot ambiguous site is a load-bearing
        // barrier (it is exactly what keeps the site inconsequential),
        // so it counts as touched for the stale-barrier accounting.
        if hot[site.caller] {
            for &c in &site.candidates {
                if cold[c] {
                    touched_cold[c] = true;
                }
            }
        }
        let hot_gap = hot[site.caller]
            && site
                .candidates
                .iter()
                .any(|&c| !hot[c] && !cold[c] && suspect[c]);
        let pure_gap =
            in_closure(site.caller, site.name_tok) && site.candidates.iter().any(|&c| mask[c] != 0);
        if !(hot_gap || pure_gap) {
            continue;
        }
        let mut cands: Vec<String> = site
            .candidates
            .iter()
            .take(3)
            .map(|&c| table.fn_of(c).display_name())
            .collect();
        if site.candidates.len() > 3 {
            cands.push("…".into());
        }
        let context = if hot_gap {
            format!(
                "on a hot path (caller `{}` is hot and a non-leaf candidate is neither \
                 hot nor cold)",
                table.fn_of(site.caller).display_name()
            )
        } else {
            "inside a worker-pool closure with an impure candidate".into()
        };
        out.unresolved.push((
            fi,
            Finding {
                code: DiagCode::LintUnresolvedCall,
                span: span_of(code[site.name_tok]),
                entity: site.name.clone(),
                message: format!(
                    "ambiguous call `{}` ({} candidates: {}) {context}; mark the intended \
                     callee or declare `// eua-lint: unresolved-budget(n)`",
                    site.name,
                    site.candidates.len(),
                    cands.join(", "),
                ),
            },
        ));
    }

    // Unit flow over resolved edges.
    for e in &edges {
        let fi = table.file_of(e.caller);
        let code = files[fi].code;
        let caller = table.fn_of(e.caller);
        let callee = table.fn_of(e.callee);
        let mut args = call_args(code, e.name_tok);
        if e.kind == SiteKind::Qualified && callee.has_self && !args.is_empty() {
            args.remove(0);
        }
        for (piece, param) in args.iter().zip(callee.params.iter()) {
            let Some(param_unit) = classify(param.name.as_deref(), &param.ty) else {
                continue;
            };
            let Some((unit, at)) = arg_unit(&table, code, *piece, caller) else {
                continue;
            };
            if unit != param_unit {
                let pname = param.name.as_deref().unwrap_or("_");
                out.unit_flow.push((
                    fi,
                    Finding {
                        code: DiagCode::LintUnitFlowMismatch,
                        span: span_of(code[at]),
                        entity: callee.display_name(),
                        message: format!(
                            "argument `{}` carries {} but parameter `{pname}` of `{}` \
                             expects {}; convert explicitly at the boundary",
                            code[at].text,
                            unit.describe(),
                            callee.display_name(),
                            param_unit.describe(),
                        ),
                    },
                ));
            }
        }
    }

    // Seed-provenance taint: resolution facts per call site (callee
    // name plus, when its purity mask reaches entropy, the rendered
    // witness chain), then the per-function dataflow in `taint`.
    let entropy_ci = CLASSES
        .iter()
        .position(|c| matches!(c, Class::Entropy))
        .unwrap_or(0);
    let entropy_chain = |start: usize| -> String {
        let mut names = vec![table.fn_of(start).display_name()];
        let mut at = start;
        while let Some(next) = witness[at][entropy_ci] {
            names.push(table.fn_of(next).display_name());
            at = next;
        }
        names.join(" → ")
    };
    let oracle: taint::CallOracle = edges
        .iter()
        .map(|e| {
            (
                (table.file_of(e.caller), e.name_tok),
                taint::Callee {
                    name: table.fn_of(e.callee).display_name(),
                    entropy: (mask[e.callee] & Class::Entropy.bit() != 0)
                        .then(|| entropy_chain(e.callee)),
                },
            )
        })
        .collect();
    let (seed_taint, rng_sites, seed_proven) = taint::scan(files, &oracle);
    out.seed_taint = seed_taint;

    // Stale cold barriers: never touched by propagation.
    for (fi, file) in files.iter().enumerate() {
        for &ii in &file.cold_marked {
            let g = gid(fi, ii);
            if g != usize::MAX && !touched_cold[g] {
                out.unused_cold.push((fi, ii));
            }
        }
    }

    out.stats = GraphStats {
        fns: n,
        edges: edge_set.len(),
        ambiguous_sites: ambiguous.len(),
        hot_roots: root.iter().filter(|&&r| r).count(),
        hot_reachable: hot.iter().filter(|&&h| h).count(),
        pool_closures: closures.len(),
        rng_sites,
        seed_proven,
    };
    out
}

#[cfg(test)]
mod tests {
    use super::STD_METHODS;

    /// The std-method denylist must stay sorted and duplicate-free:
    /// resolution binary-searches it, and a misplaced entry would
    /// silently turn a std name back into a first-party edge.
    #[test]
    fn std_methods_table_is_sorted_and_unique() {
        for pair in STD_METHODS.windows(2) {
            assert!(
                pair[0] < pair[1],
                "STD_METHODS out of order or duplicated at `{}` / `{}`",
                pair[0],
                pair[1]
            );
        }
    }
}
