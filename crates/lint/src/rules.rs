//! The hazard rules: token-sequence matchers over the lexed stream.
//!
//! Each rule looks for one class of determinism or hot-path hazard and
//! reports token-exact [`Span`]s. Rules only examine *code* tokens —
//! string literals never trip a rule (a hazard name inside a string is
//! data), and comments are only scanned by the banned-keyword rule,
//! whose job is precisely to keep one token out of comments too.

use eua_analyze::{DiagCode, Span};

use crate::lexer::{Tok, TokKind};

/// One raw rule hit, before suppression accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint code.
    pub code: DiagCode,
    /// The offending token extent.
    pub span: Span,
    /// The offending token text (the diagnostic's entity).
    pub entity: String,
    /// Why this is a hazard, with the remedy inline where obvious.
    pub message: String,
}

/// The fifteen hazard codes (everything except the two suppression
/// meta-codes), in registry order. Only these may appear in an
/// `allow(...)` directive.
pub const HAZARD_CODES: [DiagCode; 15] = [
    DiagCode::LintTimeUnit,
    DiagCode::LintWallClock,
    DiagCode::LintThreadSpawn,
    DiagCode::LintUnsafeToken,
    DiagCode::LintHashCollection,
    DiagCode::LintFloatSortPartialCmp,
    DiagCode::LintEntropyRng,
    DiagCode::LintHotPathAlloc,
    DiagCode::LintHotPathBlocking,
    DiagCode::LintUnitFlowMismatch,
    DiagCode::LintPoolClosureImpure,
    DiagCode::LintUnresolvedCall,
    DiagCode::LintLoopAlloc,
    DiagCode::LintSeedTaint,
    DiagCode::LintUncheckedTimeArith,
];

/// All seventeen lint codes, in registry order (`eua-lint codes` order).
pub const LINT_CODES: [DiagCode; 17] = [
    DiagCode::LintTimeUnit,
    DiagCode::LintWallClock,
    DiagCode::LintThreadSpawn,
    DiagCode::LintUnsafeToken,
    DiagCode::LintHashCollection,
    DiagCode::LintFloatSortPartialCmp,
    DiagCode::LintEntropyRng,
    DiagCode::LintHotPathAlloc,
    DiagCode::LintHotPathBlocking,
    DiagCode::LintUnitFlowMismatch,
    DiagCode::LintPoolClosureImpure,
    DiagCode::LintUnresolvedCall,
    DiagCode::LintLoopAlloc,
    DiagCode::LintSeedTaint,
    DiagCode::LintUncheckedTimeArith,
    DiagCode::LintUnusedSuppression,
    DiagCode::LintUnknownSuppression,
];

/// The codes only the interprocedural workspace pass can produce or
/// propagate; a single-file scan never computes a call graph, so these
/// stay silent there (and their suppressions are not "unused").
/// `lint-loop-alloc` belongs here because its hot-function variant
/// depends on propagated heat; `lint-seed-taint` because provenance
/// flows over resolved call edges.
pub const INTERPROCEDURAL_CODES: [DiagCode; 7] = [
    DiagCode::LintHotPathAlloc,
    DiagCode::LintHotPathBlocking,
    DiagCode::LintUnitFlowMismatch,
    DiagCode::LintPoolClosureImpure,
    DiagCode::LintUnresolvedCall,
    DiagCode::LintLoopAlloc,
    DiagCode::LintSeedTaint,
];

/// One function body the hot-path rules must scan: the half-open
/// code-token index range, plus the propagation chain when the heat
/// arrived through the call graph rather than a marker on the function
/// itself (`None` for marked roots keeps their diagnostic text stable).
#[derive(Debug, Clone)]
pub struct HotBody {
    /// Half-open code-token index range of the body.
    pub range: (usize, usize),
    /// Rendered chain (`"plan → rebuild"`, root first) for propagated
    /// heat; `None` when the function carries its own marker.
    pub chain: Option<String>,
}

impl HotBody {
    /// A root body (no propagation chain).
    #[must_use]
    pub fn root(range: (usize, usize)) -> Self {
        HotBody { range, chain: None }
    }
}

/// The span of one token.
pub(crate) fn span_of(t: &Tok<'_>) -> Span {
    Span {
        start_line: t.line,
        start_col: t.col,
        end_line: t.end_line,
        end_col: t.end_col,
    }
}

/// The span from the first byte of `a` to the last byte of `b`.
pub(crate) fn span_between(a: &Tok<'_>, b: &Tok<'_>) -> Span {
    Span {
        start_line: a.line,
        start_col: a.col,
        end_line: b.end_line,
        end_col: b.end_col,
    }
}

/// Whether code token `i` starts the path-like sequence `names[0] ::
/// names[1] :: …` (every hop through a `PathSep`). Returns the index
/// one past the final segment on a match.
fn match_path(code: &[&Tok<'_>], i: usize, names: &[&str]) -> Option<usize> {
    let mut at = i;
    for (k, name) in names.iter().enumerate() {
        if k > 0 {
            if code.get(at).map(|t| t.kind) != Some(TokKind::PathSep) {
                return None;
            }
            at += 1;
        }
        if !code.get(at).is_some_and(|t| t.is_ident(name)) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

/// `lint-time-unit`: `std::time` paths and `Duration::from_secs*`
/// constructors outside the sanctioned newtypes.
fn time_unit(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if let Some(end) = match_path(code, i, &["std", "time"]) {
            out.push(Finding {
                code: DiagCode::LintTimeUnit,
                span: span_between(code[i], code[end - 1]),
                entity: "std::time".into(),
                message: "raw std::time type: all time quantities are integer microseconds \
                          (SimTime/TimeDelta in crates/platform/src/units.rs)"
                    .into(),
            });
        }
        if code.get(i).is_some_and(|t| t.is_ident("Duration"))
            && code.get(i + 1).map(|t| t.kind) == Some(TokKind::PathSep)
            && code
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("from_secs"))
        {
            out.push(Finding {
                code: DiagCode::LintTimeUnit,
                span: span_between(code[i], code[i + 2]),
                entity: format!("Duration::{}", code[i + 2].text),
                message: "float/second Duration constructor: construct TimeDelta micros \
                          instead (crates/platform/src/units.rs)"
                    .into(),
            });
        }
    }
}

/// `lint-wall-clock`: `Instant::now` and any `SystemTime` use. The
/// engine's clock is the simulated `SimTime`; a wall-clock read is
/// nondeterministic input that byte-identity pins cannot see.
fn wall_clock(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if match_path(code, i, &["Instant", "now"]).is_some() {
            out.push(Finding {
                code: DiagCode::LintWallClock,
                span: span_between(code[i], code[i + 2]),
                entity: "Instant::now".into(),
                message: "wall-clock read: certificates and parallel sweeps must be \
                          byte-identical across runs; derive timing from SimTime"
                    .into(),
            });
        }
        if code[i].is_ident("SystemTime") {
            out.push(Finding {
                code: DiagCode::LintWallClock,
                span: span_of(code[i]),
                entity: "SystemTime".into(),
                message: "wall-clock type: nondeterministic input to a deterministic \
                          engine; derive timing from SimTime"
                    .into(),
            });
        }
    }
}

/// `lint-thread-spawn`: `thread::spawn`/`scope`/`Builder` outside the
/// worker pool (which carries an inline allow).
fn thread_spawn(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        for tail in ["spawn", "scope", "Builder"] {
            if match_path(code, i, &["thread", tail]).is_some() {
                out.push(Finding {
                    code: DiagCode::LintThreadSpawn,
                    span: span_between(code[i], code[i + 2]),
                    entity: format!("thread::{tail}"),
                    message: "raw std::thread use: all first-party parallelism goes \
                              through crates/sim/src/pool.rs (deterministic ordering, \
                              panic containment, --jobs resolution)"
                        .into(),
                });
            }
        }
    }
}

/// The keyword the workspace-wide forbid bans, assembled so this file's
/// own code tokens never contain it.
const BANNED_KEYWORD: &str = "unsafe";

/// `lint-unsafe-token`: the banned keyword as a code token, and as a
/// word inside any non-directive comment (so the forbid can never be
/// weakened quietly, not even in prose). Word boundaries exclude `-`
/// and `_`, so `lint-unsafe-token` and the `unsafe_code` lint name are
/// both mentionable.
fn unsafe_token(toks: &[Tok<'_>], out: &mut Vec<Finding>) {
    for t in toks {
        match t.kind {
            TokKind::Ident if t.text == BANNED_KEYWORD => out.push(Finding {
                code: DiagCode::LintUnsafeToken,
                span: span_of(t),
                entity: BANNED_KEYWORD.into(),
                message: "banned keyword in first-party source: every crate carries the \
                          workspace forbid, and the token stays out of comments too"
                    .into(),
            }),
            TokKind::Comment { .. } if !crate::is_directive_comment(t.text) => {
                comment_word_hits(t, BANNED_KEYWORD, out);
            }
            _ => {}
        }
    }
}

/// Reports each boundary-delimited occurrence of `word` inside a
/// comment token, with the occurrence's own line/column.
fn comment_word_hits(t: &Tok<'_>, word: &str, out: &mut Vec<Finding>) {
    let is_word_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    let bytes = t.text.as_bytes();
    let (mut line, mut col) = (t.line, t.col);
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            line += 1;
            col = 1;
            i += 1;
            continue;
        }
        let bounded_start = i == 0 || !is_word_byte(bytes[i - 1]);
        // Byte-wise compare: comments hold arbitrary UTF-8 and `i` may
        // sit mid-codepoint, where a str slice would panic.
        if bounded_start && bytes[i..].starts_with(word.as_bytes()) {
            let after = i + word.len();
            if after >= bytes.len() || !is_word_byte(bytes[after]) {
                #[allow(clippy::cast_possible_truncation)]
                let width = word.len() as u32;
                out.push(Finding {
                    code: DiagCode::LintUnsafeToken,
                    span: Span {
                        start_line: line,
                        start_col: col,
                        end_line: line,
                        end_col: col + width,
                    },
                    entity: word.into(),
                    message: "banned keyword in a comment: the unsafe-code forbid also \
                              keeps the bare token out of prose"
                        .into(),
                });
                col += width;
                i = after;
                continue;
            }
        }
        col += 1;
        i += 1;
    }
}

/// Methods whose result depends on the receiver's iteration order: safe
/// on ordered collections, a determinism hazard on hash-based ones.
const ORDER_SENSITIVE_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// What a receiver identifier's declared collection family is, judged
/// from every binding of that name in the file.
fn receiver_family(code: &[&Tok<'_>], recv: &str) -> Option<bool /* is hash-based */> {
    let mut hash = false;
    let mut btree = false;
    for i in 0..code.len() {
        if !code[i].is_ident(recv) {
            continue;
        }
        let next = code.get(i + 1).map(|t| t.text);
        if next != Some(":") && next != Some("=") {
            continue;
        }
        // Skip reference/path noise between the binder and the type or
        // constructor: `m: &mut std::collections::HashMap<..>`.
        let mut k = i + 2;
        let mut hops = 0usize;
        while hops < 6 {
            let Some(t) = code.get(k) else { break };
            let skip = t.text == "&"
                || t.is_ident("mut")
                || t.is_ident("std")
                || t.is_ident("collections")
                || t.kind == TokKind::PathSep;
            if !skip {
                break;
            }
            k += 1;
            hops += 1;
        }
        match code.get(k).map(|t| t.text) {
            Some("HashMap" | "HashSet") => hash = true,
            Some("BTreeMap" | "BTreeSet") => btree = true,
            _ => {}
        }
    }
    // Conflicting (shadowed) bindings: no safe verdict either way.
    match (hash, btree) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        _ => None,
    }
}

/// `lint-hash-collection`: `HashMap`/`HashSet` anywhere in first-party
/// source — their iteration order varies per process (randomized hasher
/// seed), which leaks into any ordered output they feed — plus
/// order-sensitive method calls (`.keys()`, `.drain()`, …) on receivers
/// the file declares hash-based. Receivers declared `BTreeMap`/
/// `BTreeSet` never trip the method check: ordered collections iterate
/// deterministically, and only the declared type distinguishes them.
fn hash_collection(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for t in code {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Finding {
                code: DiagCode::LintHashCollection,
                span: span_of(t),
                entity: t.text.into(),
                message: "nondeterministic iteration order: use BTreeMap/BTreeSet or an \
                          index-keyed Vec so ordered output is reproducible"
                    .into(),
            });
        }
    }
    for i in 2..code.len() {
        let t = code[i];
        if !(t.kind == TokKind::Ident && ORDER_SENSITIVE_METHODS.contains(&t.text)) {
            continue;
        }
        if code[i - 1].kind != TokKind::Dot || code.get(i + 1).map(|n| n.text) != Some("(") {
            continue;
        }
        let recv = code[i - 2];
        if recv.kind != TokKind::Ident || recv.is_ident("self") {
            continue;
        }
        if receiver_family(code, recv.text) == Some(true) {
            out.push(Finding {
                code: DiagCode::LintHashCollection,
                span: span_of(t),
                entity: format!("{}.{}()", recv.text, t.text),
                message: format!(
                    "order-sensitive `.{}()` on hash-based `{}`: iteration order varies \
                     per process; rebind the collection as BTreeMap/BTreeSet",
                    t.text, recv.text
                ),
            });
        }
    }
}

/// Comparator-taking methods whose argument must not rank floats with
/// `partial_cmp`.
const SORT_FAMILY: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// `lint-float-sort-partial-cmp`: `partial_cmp` inside the argument of
/// a `sort_by`-family call. NaN makes the comparator non-total, and the
/// fallback branch (`unwrap_or(Equal)` and friends) makes the resulting
/// order input-dependent; `total_cmp` is deterministic for every bit
/// pattern.
fn float_sort(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if !(code[i].kind == TokKind::Ident && SORT_FAMILY.contains(&code[i].text)) {
            continue;
        }
        if code.get(i + 1).map(|t| t.text) != Some("(") {
            continue;
        }
        let mut depth = 0usize;
        for t in &code[i + 1..] {
            match t.kind {
                TokKind::Open if t.text == "(" => depth += 1,
                TokKind::Close if t.text == ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if t.text == "partial_cmp" => out.push(Finding {
                    code: DiagCode::LintFloatSortPartialCmp,
                    span: span_of(t),
                    entity: "partial_cmp".into(),
                    message: format!(
                        "partial_cmp inside `{}`: NaN ordering is unspecified and \
                         input-dependent; use f64::total_cmp (see the NaN regression \
                         suite in crates/core)",
                        code[i].text
                    ),
                }),
                _ => {}
            }
        }
    }
}

/// The identifiers that name an ambient-entropy RNG source. `rand::random`
/// is one too, matched as a path by each rule that uses this list.
pub(crate) const ENTROPY_SOURCES: [&str; 3] = ["from_entropy", "thread_rng", "OsRng"];

/// `lint-entropy-rng`: RNG construction seeded from ambient entropy.
/// Every first-party stream is `seed_from_u64` with a salted per-seed
/// scheme (see `FaultPlan::rng`), so sweeps replay bit-identically.
fn entropy_rng(code: &[&Tok<'_>], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let hit = if ENTROPY_SOURCES.iter().any(|s| code[i].is_ident(s)) {
            Some((span_of(code[i]), code[i].text.to_string()))
        } else {
            match_path(code, i, &["rand", "random"])
                .map(|end| (span_between(code[i], code[end - 1]), "rand::random".into()))
        };
        if let Some((span, entity)) = hit {
            out.push(Finding {
                code: DiagCode::LintEntropyRng,
                span,
                entity,
                message: "entropy-seeded RNG: streams must come from \
                          SmallRng::seed_from_u64 under the salted per-seed scheme so \
                          every cell replays bit-identically"
                    .into(),
            });
        }
    }
}

/// Identifier methods that always allocate when called (matched only
/// after a `.` or `::`, so a local function named `collect` in another
/// position does not trip).
const ALLOC_METHODS: [&str; 6] = [
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "with_capacity",
    "clone",
];

/// The chain suffix for a propagated hot body, or `""` for a root (so
/// marked functions keep their original diagnostic text).
fn chain_suffix(body: &HotBody) -> String {
    match &body.chain {
        Some(chain) => format!(" (hot via {chain})"),
        None => String::new(),
    }
}

/// Whether code token `i` starts an always-allocating call, and if so
/// its span and display entity. The banned set is lexical and
/// deliberate: constructors that defer their first allocation
/// (`Vec::new`, `String::new`) are allowed — the reused-buffer idiom
/// depends on them — while tokens that always allocate on execution
/// (`vec!`, `format!`, `Box::new`, `String::from`, `.collect()`,
/// `.to_vec()`, `.clone()`, …) are not.
fn alloc_site(code: &[&Tok<'_>], i: usize) -> Option<(Span, String)> {
    let t = code.get(i)?;
    let prev_kind = i.checked_sub(1).map(|p| code[p].kind);
    if t.kind == TokKind::Ident
        && ALLOC_METHODS.contains(&t.text)
        && matches!(prev_kind, Some(TokKind::Dot | TokKind::PathSep))
    {
        Some((span_of(t), t.text.to_string()))
    } else if (t.is_ident("vec") || t.is_ident("format"))
        && code.get(i + 1).map(|n| n.kind) == Some(TokKind::Bang)
    {
        Some((span_between(t, code[i + 1]), format!("{}!", t.text)))
    } else if match_path(code, i, &["Box", "new"]).is_some() {
        Some((span_between(t, code[i + 2]), "Box::new".into()))
    } else if match_path(code, i, &["String", "from"]).is_some() {
        Some((span_between(t, code[i + 2]), "String::from".into()))
    } else {
        None
    }
}

/// The loop depth of code token `i` under the per-file depth oracle
/// (`0` outside any loop, including when no oracle was computed).
fn depth_at(loop_depth: &[u32], i: usize) -> u32 {
    loop_depth.get(i).copied().unwrap_or(0)
}

/// `lint-hot-path-alloc`: allocating calls inside a function marked
/// `// eua-lint: hot` — or, through the workspace call graph, inside
/// any function a marked root reaches. See [`alloc_site`] for the
/// banned set. When `lint-loop-alloc` is also selected, sites inside a
/// loop are left to it (it reports the strictly worse per-iteration
/// variant); with it deselected this rule keeps its historical
/// loop-blind behavior.
fn hot_path_alloc(
    code: &[&Tok<'_>],
    bodies: &[HotBody],
    loop_depth: &[u32],
    skip_loop_sites: bool,
    out: &mut Vec<Finding>,
) {
    for body in bodies {
        let (start, end) = body.range;
        for i in start..end.min(code.len()) {
            if skip_loop_sites && depth_at(loop_depth, i) > 0 {
                continue;
            }
            if let Some((span, entity)) = alloc_site(code, i) {
                out.push(Finding {
                    code: DiagCode::LintHotPathAlloc,
                    span,
                    entity,
                    message: format!(
                        "allocating call inside a `// eua-lint: hot` function: hoist \
                         the buffer into the owning struct and reuse it across \
                         events (see ScheduleBuilder){}",
                        chain_suffix(body)
                    ),
                });
            }
        }
    }
}

/// Idents that hand a value to an accumulator living beyond the loop
/// iteration (`out.push(format!(…))`, `map.insert(k, v.clone())`).
/// Sorted for binary-search lookup, like [`callgraph`]'s std-method
/// table.
const ESCAPE_VERBS: [&str; 12] = [
    "append",
    "entry",
    "extend",
    "insert",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "resize",
    "send",
    "write",
    "writeln",
];

/// Failure sinks: an allocation feeding one of these runs at most once
/// per loop execution — the `?`/`return`/panic it feeds aborts the
/// loop — so it is not per-iteration waste either. Sorted for
/// binary-search lookup.
const FAILURE_SINKS: [&str; 10] = [
    "Err",
    "assert",
    "assert_eq",
    "assert_ne",
    "expect",
    "map_err",
    "ok_or",
    "ok_or_else",
    "panic",
    "unreachable",
];

/// Whether code token `k` calls a name from the sorted `table` (method
/// or `write!`-family macro form).
fn table_called(code: &[&Tok<'_>], k: usize, table: &[&str]) -> bool {
    let t = code[k];
    t.kind == TokKind::Ident
        && table.binary_search(&t.text).is_ok()
        && match code.get(k + 1) {
            Some(n) if n.kind == TokKind::Open && n.text == "(" => true,
            Some(n) if n.kind == TokKind::Bang => code.get(k + 2).is_some_and(|m| m.text == "("),
            _ => false,
        }
}

/// Whether code token `k` calls one of [`ESCAPE_VERBS`] or
/// [`FAILURE_SINKS`].
fn verb_called(code: &[&Tok<'_>], k: usize) -> bool {
    table_called(code, k, &ESCAPE_VERBS) || table_called(code, k, &FAILURE_SINKS)
}

/// Whether the allocation at code token `site` escapes its loop
/// iteration. Two shapes count: the value is directly an argument of an
/// accumulator call in its own statement (`out.push(format!(…))`), or
/// it is `let`-bound and a later statement, still inside the
/// allocation's loop, hands the binding to an accumulator
/// (`let row = vec![…]; … grid.push(row);`). Such an allocation is new
/// data the loop exists to produce — the idiomatic report/collection
/// builders — not per-iteration waste, so cold code is not flagged for
/// it. Allocations feeding a [`FAILURE_SINKS`] call
/// (`return Err(format!(…))`) count as escaping too: the failure they
/// describe aborts the loop, so they run at most once. Hot code still
/// is flagged: a hot path should not pay the allocator at all.
fn escapes_iteration(code: &[&Tok<'_>], site: usize, loop_depth: &[u32]) -> bool {
    // Backward through the enclosing statement. Balanced `{…}` groups
    // earlier in the statement (match arms, literal bodies) are skipped
    // whole; an unmatched `{` preceded by a non-keyword ident or a `)`
    // means the walk is *inside* braces opened mid-statement (a struct
    // literal, a match scrutinee, or an `if cond(…) {` arm whose value
    // the statement binds) and continues through them, while any other
    // unmatched `{` is the enclosing block and ends the statement.
    // `if let`/`while let` headers are not bindings.
    let mut closes = 0usize;
    for k in (0..site).rev() {
        let t = code[k];
        if t.kind == TokKind::Close && t.text == "}" {
            closes += 1;
            continue;
        }
        if t.kind == TokKind::Open && t.text == "{" {
            if closes > 0 {
                closes -= 1;
                continue;
            }
            let expr_brace = k.checked_sub(1).is_some_and(|p| {
                (code[p].kind == TokKind::Ident && !crate::flow::is_keyword(code[p].text))
                    || (code[p].kind == TokKind::Close && code[p].text == ")")
            });
            if expr_brace {
                continue;
            }
            break;
        }
        if closes > 0 {
            continue;
        }
        if t.kind == TokKind::Punct && t.text == ";" {
            break;
        }
        if verb_called(code, k) {
            return true;
        }
        if t.is_ident("let")
            && !k
                .checked_sub(1)
                .is_some_and(|p| code[p].is_ident("if") || code[p].is_ident("while"))
        {
            return binding_escapes(code, k + 1, site, loop_depth);
        }
    }
    false
}

/// The `let`-binding half of [`escapes_iteration`]: does any later
/// statement, still inside the allocation's loop (idents at a
/// shallower depth end the scan — a value only consumed outside the
/// loop is overwritten per-iteration waste), mention the binding
/// alongside an accumulator call?
fn binding_escapes(code: &[&Tok<'_>], after_let: usize, site: usize, loop_depth: &[u32]) -> bool {
    let mut s = after_let;
    if code.get(s).is_some_and(|t| t.is_ident("mut")) {
        s += 1;
    }
    let name = match code.get(s) {
        Some(t) if t.kind == TokKind::Ident => t.text,
        _ => return false,
    };
    let depth = depth_at(loop_depth, site);
    let mut k = site;
    while k < code.len() && !(code[k].kind == TokKind::Punct && code[k].text == ";") {
        k += 1;
    }
    let (mut saw_name, mut saw_verb) = (false, false);
    for k in k + 1..code.len() {
        let t = code[k];
        if t.kind == TokKind::Ident && depth_at(loop_depth, k) < depth {
            break;
        }
        if t.kind == TokKind::Punct && t.text == ";" {
            if saw_name && saw_verb {
                return true;
            }
            (saw_name, saw_verb) = (false, false);
            continue;
        }
        saw_name |= t.kind == TokKind::Ident && t.text == name;
        saw_verb |= verb_called(code, k);
    }
    saw_name && saw_verb
}

/// `lint-loop-alloc`: an allocating call that re-executes every loop
/// iteration. Inside a hot body any loop depth ≥ 1 fires (the
/// allocation multiplies with the event rate); in cold code only
/// depth ≥ 2 fires — a single cold loop allocating is routine, a
/// nested one is quadratic and usually hoistable — and values that
/// [escape](escapes_iteration) into an accumulator are exempt.
fn loop_alloc(code: &[&Tok<'_>], bodies: &[HotBody], loop_depth: &[u32], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        let depth = depth_at(loop_depth, i);
        if depth == 0 {
            continue;
        }
        let Some((span, entity)) = alloc_site(code, i) else {
            continue;
        };
        let hot = bodies.iter().find(|b| i >= b.range.0 && i < b.range.1);
        let message = match hot {
            Some(body) => format!(
                "allocating call at loop depth {depth} inside a hot function: \
                 every iteration of every event pays the allocator; hoist the \
                 buffer out of the loop and reuse it{}",
                chain_suffix(body)
            ),
            None if depth >= 2 && !escapes_iteration(code, i, loop_depth) => format!(
                "allocating call at loop depth {depth}: the allocation count \
                 multiplies across the enclosing loops; hoist it above the \
                 innermost loop or reuse one buffer"
            ),
            None => continue,
        };
        out.push(Finding {
            code: DiagCode::LintLoopAlloc,
            span,
            entity,
            message,
        });
    }
}

/// Macros whose expansion writes to the console (locking stdout/stderr
/// on the way). `write!`/`writeln!` stay legal: they format into a
/// caller-supplied buffer.
const CONSOLE_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

/// `lint-hot-path-blocking`: operations that can block — console
/// writes, sleeping, filesystem access, stream handles, lock
/// acquisition — inside a hot body. The hot path is the per-event
/// decision kernel; one blocked event stalls the whole calendar.
fn hot_path_blocking(code: &[&Tok<'_>], bodies: &[HotBody], out: &mut Vec<Finding>) {
    for body in bodies {
        let (start, end) = body.range;
        for i in start..end.min(code.len()) {
            let t = code[i];
            let prev_dot = i > 0 && code[i - 1].kind == TokKind::Dot;
            let hit = if t.kind == TokKind::Ident
                && CONSOLE_MACROS.contains(&t.text)
                && code.get(i + 1).map(|n| n.kind) == Some(TokKind::Bang)
            {
                Some((span_between(t, code[i + 1]), format!("{}!", t.text)))
            } else if match_path(code, i, &["thread", "sleep"]).is_some() {
                Some((span_between(t, code[i + 2]), "thread::sleep".into()))
            } else if match_path(code, i, &["std", "fs"]).is_some() {
                Some((span_between(t, code[i + 2]), "std::fs".into()))
            } else if t.is_ident("stdin")
                || t.is_ident("stdout")
                || t.is_ident("stderr")
                || t.is_ident("Mutex")
                || t.is_ident("RwLock")
            {
                Some((span_of(t), t.text.to_string()))
            } else if t.is_ident("lock") && prev_dot && code.get(i + 1).map(|n| n.text) == Some("(")
            {
                Some((span_of(t), ".lock()".into()))
            } else {
                None
            };
            if let Some((span, entity)) = hit {
                out.push(Finding {
                    code: DiagCode::LintHotPathBlocking,
                    span,
                    entity,
                    message: format!(
                        "blocking operation inside a hot function: the per-event kernel \
                         must stay compute-only (no console I/O, filesystem access, \
                         sleeping, or lock acquisition){}",
                        chain_suffix(body)
                    ),
                });
            }
        }
    }
}

/// Runs every hazard rule whose code is in `selected` over the token
/// stream. `code_toks` must be `toks` minus comments; `hot_bodies` are
/// the hot function bodies (marked or propagated) in `code_toks`
/// indices; `loop_depth` maps each code-token index to its loop
/// nesting depth (pass `&[]` when no CFGs were built — every site then
/// reads as depth 0 and the loop-aware rules degrade gracefully).
pub fn run_hazards(
    toks: &[Tok<'_>],
    code_toks: &[&Tok<'_>],
    hot_bodies: &[HotBody],
    loop_depth: &[u32],
    selected: &dyn Fn(DiagCode) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if selected(DiagCode::LintTimeUnit) {
        time_unit(code_toks, &mut out);
    }
    if selected(DiagCode::LintWallClock) {
        wall_clock(code_toks, &mut out);
    }
    if selected(DiagCode::LintThreadSpawn) {
        thread_spawn(code_toks, &mut out);
    }
    if selected(DiagCode::LintUnsafeToken) {
        unsafe_token(toks, &mut out);
    }
    if selected(DiagCode::LintHashCollection) {
        hash_collection(code_toks, &mut out);
    }
    if selected(DiagCode::LintFloatSortPartialCmp) {
        float_sort(code_toks, &mut out);
    }
    if selected(DiagCode::LintEntropyRng) {
        entropy_rng(code_toks, &mut out);
    }
    if selected(DiagCode::LintHotPathAlloc) {
        let skip = selected(DiagCode::LintLoopAlloc);
        hot_path_alloc(code_toks, hot_bodies, loop_depth, skip, &mut out);
    }
    if selected(DiagCode::LintHotPathBlocking) {
        hot_path_blocking(code_toks, hot_bodies, &mut out);
    }
    if selected(DiagCode::LintLoopAlloc) {
        loop_alloc(code_toks, hot_bodies, loop_depth, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;

    fn run_all(src: &str) -> Vec<Finding> {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        run_hazards(&toks, &code, &[], &[], &|_| true)
    }

    #[test]
    fn time_unit_matches_paths_and_constructors() {
        let hits = run_all("use std::time::Duration;\nlet d = Duration::from_secs_f64(0.5);");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.code == DiagCode::LintTimeUnit));
        assert_eq!(hits[1].entity, "Duration::from_secs_f64");
        assert_eq!((hits[1].span.start_line, hits[1].span.start_col), (2, 9));
    }

    #[test]
    fn wall_clock_matches_instant_and_system_time() {
        let hits = run_all("let t = Instant::now(); let s = SystemTime::now();");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.code == DiagCode::LintWallClock));
    }

    #[test]
    fn thread_spawn_matches_all_three_tails() {
        let hits = run_all("thread::spawn(f); std::thread::scope(g); thread::Builder::new()");
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|f| f.code == DiagCode::LintThreadSpawn));
    }

    #[test]
    fn float_sort_only_fires_inside_sort_family_args() {
        // A comparison against a constant outside a sort is legitimate
        // (the candidates.rs positivity guard).
        let clean = run_all("if cand.key.partial_cmp(&0.0) != Some(Ordering::Greater) {}");
        assert!(clean.is_empty(), "{clean:?}");
        let hits = run_all("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintFloatSortPartialCmp);
        let hits = run_all("let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn total_cmp_sorts_are_clean() {
        assert!(run_all("v.sort_by(|a, b| a.total_cmp(b));").is_empty());
        assert!(run_all("v.sort_by_key(|d| Reverse(d.severity));").is_empty());
    }

    #[test]
    fn entropy_rng_matches_construction_not_seeding() {
        assert!(run_all("let mut rng = SmallRng::seed_from_u64(seed ^ SALT);").is_empty());
        let hits =
            run_all("let a = rand::thread_rng(); let b = SmallRng::from_entropy(); rand::random()");
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|f| f.code == DiagCode::LintEntropyRng));
    }

    #[test]
    fn hash_collections_trip_everywhere() {
        let hits = run_all("fn f(m: &HashMap<u32, u32>) -> HashSet<u32> { todo() }");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|f| f.code == DiagCode::LintHashCollection));
    }

    #[test]
    fn hazard_names_in_strings_are_data() {
        assert!(run_all(r#"let msg = "thread::spawn HashMap Instant::now";"#).is_empty());
    }

    #[test]
    fn hot_path_alloc_respects_body_ranges() {
        let src = "fn cold() { let v = xs.to_vec(); } fn hot() { let v = xs.to_vec(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        // Mark only the second fn's body: tokens after its `{`.
        let second_open = code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.text == "{")
            .nth(1)
            .unwrap()
            .0;
        let bodies = [HotBody::root((second_open, code.len()))];
        let hits = run_hazards(&toks, &code, &bodies, &[], &|_| true);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintHotPathAlloc);
        assert!(hits[0].span.start_col > 40, "the hit is in the marked fn");
    }

    #[test]
    fn hot_path_alloc_allows_lazy_constructors() {
        let src = "fn h() { let v: Vec<u32> = Vec::new(); let s = String::new(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let hits = run_hazards(
            &toks,
            &code,
            &[HotBody::root((0, code.len()))],
            &[],
            &|_| true,
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn hot_path_alloc_flags_macros_and_methods() {
        let src = "fn h() { let a = vec![0; n]; let b = format!(\"x\"); let c = q.clone(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let hits = run_hazards(
            &toks,
            &code,
            &[HotBody::root((0, code.len()))],
            &[],
            &|_| true,
        );
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(entities, ["vec!", "format!", "clone"]);
    }

    #[test]
    fn blocking_rule_matches_console_locks_and_fs() {
        let src = "fn h(m: &Mutex<u32>) { println!(\"x\"); m.lock(); thread::sleep(d); \
                   std::fs::read(p); let o = stdout(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let hits = run_hazards(&toks, &code, &[HotBody::root((0, code.len()))], &[], &|c| {
            c == DiagCode::LintHotPathBlocking
        });
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(
            entities,
            [
                "Mutex",
                "println!",
                ".lock()",
                "thread::sleep",
                "std::fs",
                "stdout"
            ]
        );
    }

    #[test]
    fn blocking_rule_allows_buffer_writes() {
        let src = "fn h(buf: &mut String) { writeln!(buf, \"x\").ok(); write!(buf, \"y\").ok(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let hits = run_hazards(&toks, &code, &[HotBody::root((0, code.len()))], &[], &|c| {
            c == DiagCode::LintHotPathBlocking
        });
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn propagated_bodies_render_their_chain() {
        let src = "fn helper() { let v = xs.to_vec(); println!(\"t\"); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let bodies = [HotBody {
            range: (0, code.len()),
            chain: Some("plan → rebuild → helper".into()),
        }];
        let hits = run_hazards(&toks, &code, &bodies, &[], &|c| {
            c == DiagCode::LintHotPathAlloc || c == DiagCode::LintHotPathBlocking
        });
        assert_eq!(hits.len(), 2);
        for f in &hits {
            assert!(
                f.message.ends_with("(hot via plan → rebuild → helper)"),
                "{}",
                f.message
            );
        }
    }

    #[test]
    fn order_sensitive_methods_flag_hash_receivers_only() {
        // Hash-declared receiver: both the type name and the iteration
        // site trip.
        let hits = run_all("fn f(m: &HashMap<u32, u32>) { for k in m.keys() { use_it(k); } }");
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(entities, ["HashMap", "m.keys()"]);
        // BTree-declared receiver: ordered iteration is deterministic.
        let clean = run_all("fn f(m: &BTreeMap<u32, u32>) { for k in m.keys() { use_it(k); } }");
        assert!(clean.is_empty(), "{clean:?}");
        // Constructor bindings count as declarations too.
        let hits = run_all("fn f() { let mut s = HashSet::new(); s.drain(); }");
        assert_eq!(hits.len(), 2, "{hits:?}");
        // Unknown receivers stay silent: no evidence, no finding.
        assert!(run_all("fn f(v: &Vec<u32>) { v.iter(); }").is_empty());
    }

    #[test]
    fn conflicting_receiver_bindings_stay_silent() {
        // The same name bound to both families (shadowing): only the
        // type-name findings remain, never the method-site one.
        let src = "fn f() { let m: HashMap<u8, u8> = mk(); let m: BTreeMap<u8, u8> = ok(); \
                   m.keys(); }";
        let hits = run_all(src);
        let entities: Vec<&str> = hits.iter().map(|f| f.entity.as_str()).collect();
        assert_eq!(entities, ["HashMap"]);
    }

    #[test]
    fn selection_filters_rules() {
        let toks = lex("let t = Instant::now(); let m: HashMap<u8, u8>;");
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        let hits = run_hazards(&toks, &code, &[], &[], &|c| c == DiagCode::LintWallClock);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].code, DiagCode::LintWallClock);
    }
}
