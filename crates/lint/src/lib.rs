//! `eua-lint` — first-party determinism and hot-path static analyzer
//! over the workspace's Rust sources.
//!
//! The engine-throughput overhaul and the sharded sweep fabric both
//! stand on one property: *nothing nondeterministic ever leaks into the
//! engine*. Certificate byte-identity pins, bit-identical parallel
//! sweeps, and remote-worker audits all assume it. This crate guards
//! that property at the source level, before a refactor can break it:
//! a token-aware scan (no rustc/syn — the same first-party philosophy
//! as the `.scn` source maps and JSON parsers) over every first-party
//! `.rs` file, reporting hazards as [`Diagnostic`]s with stable
//! `lint-*` codes from the shared `eua-analyze` registry.
//!
//! | Module | What it holds |
//! |--------|---------------|
//! | [`lexer`] | the lightweight Rust lexer (tokens with exact spans) |
//! | [`parser`] | the item parser (fn/impl/mod/use with token ranges) |
//! | [`cfg`](mod@cfg) | per-function control-flow graphs over parsed bodies |
//! | [`dataflow`] | the worklist fixpoint and the shared binding flow |
//! | [`flow`] | the time-unit lattice and the time-arithmetic rule |
//! | [`taint`] | the seed-provenance rule |
//! | [`callgraph`] | the workspace call graph and what rides on it |
//! | [`rules`] | the lexical hazard rules ([`rules::HAZARD_CODES`]) |
//! | [`fix`] | the mechanical `--fix` rewrites |
//! | this | directives, suppression accounting, the file walker |
//!
//! # Three layers
//!
//! [`lint_sources`] scans a whole workspace in three layers. A lexical
//! pass runs the token-sequence rules per file. A dataflow layer builds
//! one [`cfg`](mod@cfg) graph per non-test function, once, and runs the
//! [`dataflow`] fixpoint over it: loop depths for `lint-loop-alloc`,
//! binding kinds for `lint-unchecked-time-arith`, seed provenance for
//! `lint-seed-taint`. An interprocedural pass over the [`callgraph`]
//! propagates `hot` markers to reachable callees, checks time-unit flow
//! at resolved call edges, proves closures handed to the worker pool
//! pure, and tells the taint scan what each call resolves to.
//! [`lint_source`] is the same pipeline over a one-file workspace.
//!
//! # Directives
//!
//! Four line-comment directives steer the scan (plain `//` comments
//! only, exact `eua-lint:` prefix):
//!
//! * an allow directive — `eua-lint:` followed by `allow(code, …)` —
//!   suppresses the named hazards on its own line (when trailing) or
//!   on the next line holding any token (when alone on a line). An
//!   allow that suppresses nothing is itself a finding
//!   (`lint-unused-suppression`), so stale exemptions cannot linger.
//! * a hot marker — `eua-lint:` followed by `hot` — marks the next
//!   function; allocating and blocking calls in its body *and in every
//!   function it transitively reaches* become findings.
//! * a cold marker — `eua-lint:` followed by `cold` — a propagation
//!   barrier: the next function absorbs heat instead of forwarding it
//!   (for slow paths a hot root legitimately calls, like certificate
//!   recording). A barrier propagation never touches is reported
//!   unused.
//! * a budget — `eua-lint:` followed by `unresolved-budget(n)` —
//!   accepts up to `n` *consequential* ambiguous call sites in the
//!   file before `lint-unresolved-call` fires; a budget larger than
//!   the file needs is reported unused.
//!
//! Malformed directives, unknown codes, and markers that precede no
//! function body are `lint-unknown-suppression` findings: a typo in an
//! exemption must fail loudly, not silently stop suppressing.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod fix;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use eua_analyze::{DiagCode, Diagnostic, Report, Span};

use lexer::{lex, Tok, TokKind};
pub use rules::{Finding, HotBody, HAZARD_CODES, INTERPROCEDURAL_CODES, LINT_CODES};

/// The codes whose rules run on per-function control-flow graphs.
const DATAFLOW_CODES: [DiagCode; 3] = [
    DiagCode::LintLoopAlloc,
    DiagCode::LintSeedTaint,
    DiagCode::LintUncheckedTimeArith,
];

/// Whether a comment token is an `eua-lint:` directive (and therefore
/// exempt from the banned-keyword comment scan).
#[must_use]
pub fn is_directive_comment(text: &str) -> bool {
    text.strip_prefix("//")
        .is_some_and(|rest| rest.trim_start().starts_with("eua-lint:"))
}

/// Resolves a kebab-case name to a lint code.
#[must_use]
pub fn code_from_str(name: &str) -> Option<DiagCode> {
    LINT_CODES.iter().copied().find(|c| c.as_str() == name)
}

/// One lint result for one file: the report plus the token extent of
/// each diagnostic, index-aligned, for SARIF regions.
#[derive(Debug, Clone)]
pub struct FileLint {
    /// The scanned file's path as given.
    pub path: String,
    /// Findings for this file (empty when clean).
    pub report: Report,
    /// `spans[i]` is the extent of `report.diagnostics[i]`.
    pub spans: Vec<Option<Span>>,
}

/// A parsed `eua-lint:` directive.
#[derive(Debug)]
enum DirectiveKind {
    /// `hot`: the next function is a marked hot path.
    Hot,
    /// `cold`: the next function is a propagation barrier.
    Cold,
    /// `unresolved-budget(n)`: accept `n` consequential ambiguous call
    /// sites in this file (summed when repeated).
    Budget(u32),
    /// `allow(...)`: suppress the named codes (unknown names kept as
    /// strings for the error message).
    Allow(Vec<Result<DiagCode, String>>),
    /// Anything else after the `eua-lint:` prefix.
    Malformed,
}

#[derive(Debug)]
struct Directive {
    kind: DirectiveKind,
    span: Span,
    /// Whether the directive is alone on its line (it then covers the
    /// next token-holding line instead of its own).
    standalone: bool,
}

/// Parses the directive grammar after the `eua-lint:` prefix.
fn parse_directive(rest: &str, span: Span, standalone: bool) -> Directive {
    let rest = rest.trim();
    let kind = if rest == "hot" {
        DirectiveKind::Hot
    } else if rest == "cold" {
        DirectiveKind::Cold
    } else if let Some(inner) = rest
        .strip_prefix("unresolved-budget(")
        .and_then(|r| r.strip_suffix(')'))
    {
        match inner.trim().parse::<u32>() {
            Ok(n) if n > 0 => DirectiveKind::Budget(n),
            _ => DirectiveKind::Malformed,
        }
    } else if let Some(inner) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.strip_suffix(')'))
    {
        let codes: Vec<Result<DiagCode, String>> = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                HAZARD_CODES
                    .iter()
                    .copied()
                    .find(|c| c.as_str() == name)
                    .ok_or_else(|| name.to_string())
            })
            .collect();
        if codes.is_empty() {
            DirectiveKind::Malformed
        } else {
            DirectiveKind::Allow(codes)
        }
    } else {
        DirectiveKind::Malformed
    };
    Directive {
        kind,
        span,
        standalone,
    }
}

/// Extracts directives from the token stream. `standalone` is computed
/// against code tokens: a directive with code before it on its line is
/// trailing.
fn directives(toks: &[Tok<'_>]) -> Vec<Directive> {
    let mut out = Vec::new();
    for t in toks {
        if !matches!(t.kind, TokKind::Comment { line: true }) || !is_directive_comment(t.text) {
            continue;
        }
        let rest = t
            .text
            .strip_prefix("//")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix("eua-lint:"))
            .unwrap_or("");
        let standalone = !toks.iter().any(|o| {
            !matches!(o.kind, TokKind::Comment { .. }) && o.line == t.line && o.col < t.col
        });
        let span = Span {
            start_line: t.line,
            start_col: t.col,
            end_line: t.end_line,
            end_col: t.end_col,
        };
        out.push(parse_directive(rest, span, standalone));
    }
    out
}

/// The line a standalone directive covers: the first later line that
/// holds any non-directive token (code or prose comment). Directives
/// stack — another directive line is skipped, so several allows can sit
/// above one offending line.
fn covered_line(toks: &[Tok<'_>], directive_line: u32) -> Option<u32> {
    toks.iter()
        .filter(|t| {
            t.line > directive_line
                && !(matches!(t.kind, TokKind::Comment { line: true })
                    && is_directive_comment(t.text))
        })
        .map(|t| t.line)
        .min()
}

/// Resolves a hot marker to the body token range of the next `fn`.
///
/// Returns `Err` with a description when no function body follows (the
/// marker would otherwise silently guard nothing).
fn hot_body_range(code: &[&Tok<'_>], after: Span) -> Result<(usize, usize), &'static str> {
    let fn_idx = code
        .iter()
        .position(|t| t.is_ident("fn") && (t.line, t.col) > (after.start_line, after.start_col))
        .ok_or("no `fn` follows the marker")?;
    // The body is the first brace group after the `fn` keyword; a `;`
    // first means a bodyless declaration.
    let mut open_idx = None;
    for (k, t) in code.iter().enumerate().skip(fn_idx) {
        if t.text == "{" {
            open_idx = Some(k);
            break;
        }
        if t.text == ";" {
            return Err("the marked function has no body");
        }
    }
    let open_idx = open_idx.ok_or("the marked function has no body")?;
    Ok((open_idx + 1, parser::match_bracket(code, open_idx)))
}

/// One file's resolved directives, ready for both passes.
#[derive(Default)]
struct FilePrep {
    /// Directive-layer findings (dangling markers, unknown codes, …).
    meta: Vec<Finding>,
    /// Body ranges of functions marked `hot` in this file.
    root_bodies: Vec<(usize, usize)>,
    /// Item indices (into `ParsedFile::fns`) of the hot-marked fns.
    hot_items: Vec<usize>,
    /// Item indices of the cold-marked fns.
    cold_items: Vec<usize>,
    /// Directive spans per cold item, for unused-barrier reporting.
    cold_spans: Vec<(usize, Span)>,
    /// Summed `unresolved-budget(n)` for the file.
    budget: usize,
    /// Span of the first budget directive (the unused-budget anchor).
    budget_span: Option<Span>,
}

/// Resolves one file's directives against its parsed items.
fn prep_file(toks: &[Tok<'_>], code: &[&Tok<'_>], parsed: &parser::ParsedFile) -> FilePrep {
    let item_of = |range: (usize, usize)| parsed.fns.iter().position(|f| f.body == range);
    let mut prep = FilePrep::default();
    for d in &directives(toks) {
        match &d.kind {
            DirectiveKind::Hot => match hot_body_range(code, d.span) {
                Ok(range) => {
                    prep.root_bodies.push(range);
                    if let Some(item) = item_of(range) {
                        prep.hot_items.push(item);
                    }
                }
                Err(why) => prep.meta.push(Finding {
                    code: DiagCode::LintUnknownSuppression,
                    span: d.span,
                    entity: "hot".into(),
                    message: format!("dangling hot marker: {why}"),
                }),
            },
            DirectiveKind::Cold => match hot_body_range(code, d.span).map(item_of) {
                Ok(Some(item)) => {
                    prep.cold_items.push(item);
                    prep.cold_spans.push((item, d.span));
                }
                Ok(None) => prep.meta.push(Finding {
                    code: DiagCode::LintUnknownSuppression,
                    span: d.span,
                    entity: "cold".into(),
                    message: "dangling cold marker: no parsed function follows it".into(),
                }),
                Err(why) => prep.meta.push(Finding {
                    code: DiagCode::LintUnknownSuppression,
                    span: d.span,
                    entity: "cold".into(),
                    message: format!("dangling cold marker: {why}"),
                }),
            },
            DirectiveKind::Budget(n) => {
                prep.budget += *n as usize;
                prep.budget_span.get_or_insert(d.span);
            }
            DirectiveKind::Allow(codes) => {
                for unknown in codes.iter().filter_map(|c| c.as_ref().err()) {
                    prep.meta.push(Finding {
                        code: DiagCode::LintUnknownSuppression,
                        span: d.span,
                        entity: unknown.clone(),
                        message: format!(
                            "allow() names `{unknown}`, which is not a suppressible \
                             lint code (see `eua-lint codes`)"
                        ),
                    });
                }
            }
            DirectiveKind::Malformed => prep.meta.push(Finding {
                code: DiagCode::LintUnknownSuppression,
                span: d.span,
                entity: "eua-lint:".into(),
                message: "malformed directive: expected `eua-lint: hot`, `eua-lint: cold`, \
                          `eua-lint: allow(code, ...)`, or \
                          `eua-lint: unresolved-budget(n)`"
                    .into(),
            }),
        }
    }
    prep
}

/// Applies allow-directive suppression to one file's findings, appends
/// unused-suppression accounting and the directive-layer meta findings,
/// and builds the final sorted [`FileLint`].
fn assemble_file(
    path: &str,
    toks: &[Tok<'_>],
    findings: Vec<Finding>,
    meta: Vec<Finding>,
    on: &dyn Fn(DiagCode) -> bool,
) -> FileLint {
    // Suppression: each allow directive covers one line; a finding on
    // that line with a named code is dropped and the (directive, code)
    // pair marked used.
    struct Cover {
        code: DiagCode,
        line: u32,
        span: Span,
        used: bool,
    }
    let mut covers: Vec<Cover> = Vec::new();
    for d in &directives(toks) {
        if let DirectiveKind::Allow(codes) = &d.kind {
            let line = if d.standalone {
                covered_line(toks, d.span.start_line)
            } else {
                Some(d.span.start_line)
            };
            let Some(line) = line else { continue };
            for code in codes.iter().filter_map(|c| c.as_ref().ok()) {
                covers.push(Cover {
                    code: *code,
                    line,
                    span: d.span,
                    used: false,
                });
            }
        }
    }
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let suppressed = covers
            .iter_mut()
            .find(|c| c.code == f.code && c.line == f.span.start_line);
        match suppressed {
            Some(c) => c.used = true,
            None => kept.push(f),
        }
    }
    if on(DiagCode::LintUnusedSuppression) {
        for c in covers.iter().filter(|c| !c.used && on(c.code)) {
            kept.push(Finding {
                code: DiagCode::LintUnusedSuppression,
                span: c.span,
                entity: c.code.as_str().into(),
                message: format!(
                    "allow({}) suppressed nothing on line {}; delete the stale directive",
                    c.code.as_str(),
                    c.line
                ),
            });
        }
    }
    if on(DiagCode::LintUnknownSuppression) {
        kept.extend(meta);
    }

    kept.sort_by(|a, b| {
        (a.span.start_line, a.span.start_col, a.code.as_str()).cmp(&(
            b.span.start_line,
            b.span.start_col,
            b.code.as_str(),
        ))
    });

    let mut report = Report::new(path);
    let mut spans = Vec::with_capacity(kept.len());
    for f in kept {
        report.push(Diagnostic::for_entity(
            f.code,
            f.entity,
            format!("{}:{}: {}", f.span.start_line, f.span.start_col, f.message),
        ));
        spans.push(Some(f.span));
    }
    FileLint {
        path: path.to_string(),
        report,
        spans,
    }
}

/// A whole-workspace lint result: per-file reports plus call-graph
/// statistics from the interprocedural pass.
#[derive(Debug)]
pub struct WorkspaceLint {
    /// One entry per scanned file, in input order.
    pub files: Vec<FileLint>,
    /// Call-graph statistics (zeroed when no interprocedural code was
    /// selected).
    pub stats: callgraph::GraphStats,
}

/// Lints a set of `(path, text)` sources as one workspace: the lexical
/// pass per file, then the interprocedural pass (hot propagation,
/// unit flow, pool purity, ambiguity budget) across all of them.
/// `selected` restricts which codes run (pass [`all_codes`] for the
/// full set); suppression accounting only considers directives whose
/// codes are selected, so a partial run never misreports an exemption
/// as unused.
#[must_use]
pub fn lint_sources(sources: &[(String, String)], selected: &BTreeSet<DiagCode>) -> WorkspaceLint {
    let on = |c: DiagCode| selected.contains(&c);
    let lexed: Vec<Vec<Tok<'_>>> = sources.iter().map(|(_, text)| lex(text)).collect();
    let code: Vec<Vec<&Tok<'_>>> = lexed
        .iter()
        .map(|toks| {
            toks.iter()
                .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
                .collect()
        })
        .collect();
    let parsed: Vec<parser::ParsedFile> = code.iter().map(|c| parser::parse_file(c)).collect();
    let preps: Vec<FilePrep> = (0..sources.len())
        .map(|fi| prep_file(&lexed[fi], &code[fi], &parsed[fi]))
        .collect();

    // One graph per non-test function, shared by the loop-depth oracle,
    // the time-arithmetic scan and the seed-taint scan.
    let run_dataflow = DATAFLOW_CODES.iter().any(|c| on(*c));
    let cfgs: Vec<Vec<Option<cfg::Cfg>>> = (0..sources.len())
        .map(|fi| {
            if run_dataflow {
                cfg::Cfg::for_fns(&code[fi], &parsed[fi].fns)
            } else {
                Vec::new()
            }
        })
        .collect();

    let run_interp = INTERPROCEDURAL_CODES.iter().any(|c| on(*c));
    let analysis = if run_interp {
        let inputs: Vec<callgraph::FileInput<'_>> = (0..sources.len())
            .map(|fi| callgraph::FileInput {
                code: &code[fi],
                parsed: &parsed[fi],
                cfgs: &cfgs[fi],
                hot_marked: preps[fi].hot_items.clone(),
                cold_marked: preps[fi].cold_items.clone(),
            })
            .collect();
        callgraph::analyze(&inputs)
    } else {
        callgraph::Analysis::default()
    };

    // Hot bodies per file: the marked roots (raw ranges, so a marker on
    // a shape the parser misses still guards lexically) plus everything
    // propagation reached.
    let mut hot_bodies: Vec<Vec<HotBody>> = preps
        .iter()
        .map(|p| p.root_bodies.iter().map(|&r| HotBody::root(r)).collect())
        .collect();
    for h in &analysis.hot {
        if h.chain.is_some() {
            hot_bodies[h.file].push(HotBody {
                range: parsed[h.file].fns[h.item].body,
                chain: h.chain.clone(),
            });
        }
    }

    // Loop-depth oracle per file: each function's CFG stamps its body
    // tokens (functions come in source order, so a nested function
    // overwrites its parent's depths with its own). `#[cfg(test)]`
    // functions have no graph and stay depth 0.
    let depths: Vec<Vec<u32>> = if on(DiagCode::LintLoopAlloc) {
        (0..sources.len())
            .map(|fi| {
                let mut d = vec![0u32; code[fi].len()];
                for (f, g) in parsed[fi].fns.iter().zip(&cfgs[fi]) {
                    let Some(g) = g else { continue };
                    let (lo, hi) = f.body;
                    d[lo..hi].copy_from_slice(&g.depth_by_token(code[fi].len())[lo..hi]);
                }
                d
            })
            .collect()
    } else {
        vec![Vec::new(); sources.len()]
    };

    let mut files = Vec::with_capacity(sources.len());
    for (fi, (path, _)) in sources.iter().enumerate() {
        let mut findings =
            rules::run_hazards(&lexed[fi], &code[fi], &hot_bodies[fi], &depths[fi], &on);
        if on(DiagCode::LintUncheckedTimeArith) {
            flow::unchecked_time_arith(&code[fi], &parsed[fi].fns, &cfgs[fi], &mut findings);
        }
        let mut meta = preps[fi].meta.clone();
        for (f, finding) in analysis
            .unit_flow
            .iter()
            .chain(&analysis.pool_impure)
            .chain(&analysis.seed_taint)
        {
            if *f == fi && on(finding.code) {
                findings.push(finding.clone());
            }
        }
        if on(DiagCode::LintUnresolvedCall) {
            let mut unresolved: Vec<&Finding> = analysis
                .unresolved
                .iter()
                .filter(|(f, _)| *f == fi)
                .map(|(_, x)| x)
                .collect();
            unresolved.sort_by_key(|f| (f.span.start_line, f.span.start_col));
            let budget = preps[fi].budget;
            for f in unresolved.iter().skip(budget) {
                findings.push((*f).clone());
            }
            if budget > unresolved.len() && on(DiagCode::LintUnusedSuppression) {
                if let Some(span) = preps[fi].budget_span {
                    meta.push(Finding {
                        code: DiagCode::LintUnusedSuppression,
                        span,
                        entity: "unresolved-budget".into(),
                        message: format!(
                            "unresolved-budget({budget}) exceeds the file's {} \
                             consequential ambiguous call(s); tighten or delete it",
                            unresolved.len()
                        ),
                    });
                }
            }
        }
        if run_interp && on(DiagCode::LintUnusedSuppression) {
            for &(f, item) in &analysis.unused_cold {
                if f != fi {
                    continue;
                }
                if let Some(&(_, span)) = preps[fi].cold_spans.iter().find(|(it, _)| *it == item) {
                    meta.push(Finding {
                        code: DiagCode::LintUnusedSuppression,
                        span,
                        entity: "cold".into(),
                        message: "cold barrier never reached by hot propagation; delete \
                                  the stale directive"
                            .into(),
                    });
                }
            }
        }
        files.push(assemble_file(path, &lexed[fi], findings, meta, &on));
    }
    WorkspaceLint {
        files,
        stats: analysis.stats,
    }
}

/// Lints one file's text: the same pipeline as [`lint_sources`] over a
/// one-file workspace (the call graph sees only this file, so cross-
/// file resolution degrades to external).
#[must_use]
pub fn lint_source(path: &str, text: &str, selected: &BTreeSet<DiagCode>) -> FileLint {
    let sources = [(path.to_string(), text.to_string())];
    let mut ws = lint_sources(&sources, selected);
    ws.files.remove(0)
}

/// Directory names the walker never descends into: vendored shims stand
/// in for external crates, build output is generated, fixture corpora
/// are deliberately hazardous, and hidden directories are not source.
const SKIPPED_DIRS: [&str; 3] = ["vendor", "target", "fixtures"];

/// Recursively collects `.rs` files under `root` in a deterministic
/// (sorted) order.
///
/// # Errors
///
/// Any I/O failure reading a directory, with the failing path embedded
/// in the error message via [`io::Error::other`].
pub fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let label = |e: io::Error, p: &Path| io::Error::other(format!("{}: {e}", p.display()));
    let meta = std::fs::metadata(root).map_err(|e| label(e, root))?;
    if meta.is_file() {
        if root.extension().is_some_and(|x| x == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)
        .map_err(|e| label(e, root))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| label(e, root))?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIPPED_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The default scan roots, relative to a workspace checkout: the same
/// set the repository's CI gate greps covered.
pub const DEFAULT_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Lints every `.rs` file under the given roots (files or directories)
/// as one workspace, interprocedural pass included.
///
/// # Errors
///
/// The first I/O failure (unreadable root, file, or directory).
pub fn lint_roots_workspace(
    roots: &[PathBuf],
    selected: &BTreeSet<DiagCode>,
) -> io::Result<WorkspaceLint> {
    let mut files = Vec::new();
    for root in roots {
        collect_sources(root, &mut files)?;
    }
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let text = std::fs::read_to_string(&file)
            .map_err(|e| io::Error::other(format!("{}: {e}", file.display())))?;
        sources.push((file.display().to_string(), text));
    }
    Ok(lint_sources(&sources, selected))
}

/// Lints every `.rs` file under the given roots, returning the per-file
/// reports (workspace semantics; see [`lint_roots_workspace`]).
///
/// # Errors
///
/// The first I/O failure (unreadable root, file, or directory).
pub fn lint_roots(roots: &[PathBuf], selected: &BTreeSet<DiagCode>) -> io::Result<Vec<FileLint>> {
    Ok(lint_roots_workspace(roots, selected)?.files)
}

/// The full code set, as a selection.
#[must_use]
pub fn all_codes() -> BTreeSet<DiagCode> {
    LINT_CODES.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn codes_of(lint: &FileLint) -> Vec<&'static str> {
        lint.report
            .diagnostics
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn clean_source_yields_empty_report() {
        let lint = lint_source("x.rs", "fn main() { let a = 1 + 2; }", &all_codes());
        assert!(lint.report.diagnostics.is_empty());
        assert!(!lint.report.has_errors());
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src = "let t = Instant::now(); // eua-lint: allow(lint-wall-clock)\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert!(codes_of(&lint).is_empty(), "{:?}", lint.report);
    }

    #[test]
    fn standalone_allow_suppresses_next_line() {
        let src = "// eua-lint: allow(lint-wall-clock)\nlet t = Instant::now();\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert!(codes_of(&lint).is_empty(), "{:?}", lint.report);
    }

    #[test]
    fn stacked_standalone_allows_cover_one_line() {
        let src = "// eua-lint: allow(lint-wall-clock)\n\
                   // eua-lint: allow(lint-hash-collection)\n\
                   let t: HashMap<u8, u8> = index(Instant::now());\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert!(codes_of(&lint).is_empty(), "{:?}", lint.report);
    }

    #[test]
    fn unused_allow_is_reported_at_the_directive() {
        let src = "// eua-lint: allow(lint-thread-spawn)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-unused-suppression"]);
        assert_eq!(lint.spans[0].unwrap().start_line, 1);
    }

    #[test]
    fn unknown_code_in_allow_is_reported() {
        let src = "// eua-lint: allow(lint-imaginary)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn meta_codes_cannot_be_suppressed() {
        let src = "// eua-lint: allow(lint-unused-suppression)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn malformed_directive_is_reported() {
        let src = "// eua-lint: alow(lint-wall-clock)\nlet a = 1;\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn dangling_hot_marker_is_reported() {
        let src = "// eua-lint: hot\nconst X: u32 = 1;\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-unknown-suppression"]);
    }

    #[test]
    fn hot_marker_binds_to_next_fn_past_docs_and_attrs() {
        let src = "// eua-lint: hot\n\
                   /// Docs between marker and fn.\n\
                   #[must_use]\n\
                   pub fn decide(xs: &[u64]) -> Vec<u64> {\n\
                   \x20   xs.to_vec()\n\
                   }\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-hot-path-alloc"]);
        assert_eq!(lint.spans[0].unwrap().start_line, 5);
    }

    #[test]
    fn hot_fn_alloc_can_be_allowed_inline() {
        let src = "// eua-lint: hot\n\
                   fn decide(xs: &[u64]) -> Vec<u64> {\n\
                   \x20   xs.to_vec() // eua-lint: allow(lint-hot-path-alloc)\n\
                   }\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert!(codes_of(&lint).is_empty(), "{:?}", lint.report);
    }

    #[test]
    fn selection_skips_unused_accounting_for_unselected_codes() {
        let src = "// eua-lint: allow(lint-thread-spawn)\nlet a = 1;\n";
        let only: BTreeSet<DiagCode> = [DiagCode::LintWallClock, DiagCode::LintUnusedSuppression]
            .into_iter()
            .collect();
        let lint = lint_source("x.rs", src, &only);
        assert!(
            codes_of(&lint).is_empty(),
            "an allow for an unselected rule is not 'unused': {:?}",
            lint.report
        );
    }

    #[test]
    fn findings_sort_by_position() {
        let src = "let s = SystemTime::now();\nlet m: HashSet<u8> = make();\n";
        let lint = lint_source("x.rs", src, &all_codes());
        assert_eq!(codes_of(&lint), ["lint-wall-clock", "lint-hash-collection"]);
        let lines: Vec<u32> = lint.spans.iter().map(|s| s.unwrap().start_line).collect();
        assert_eq!(lines, [1, 2]);
    }

    #[test]
    fn messages_carry_line_and_column() {
        let lint = lint_source("x.rs", "let t = Instant::now();\n", &all_codes());
        assert!(lint.report.diagnostics[0].message.starts_with("1:9: "));
        assert_eq!(
            lint.report.diagnostics[0].entity.as_deref(),
            Some("Instant::now")
        );
    }
}
