//! A lightweight item parser over the lexed token stream: functions,
//! impl blocks, `mod`/`use` declarations — just enough structure for the
//! interprocedural rules (call graph, hot-path propagation, unit-flow
//! analysis) without rustc or syn, in the same first-party spirit as the
//! lexer itself.
//!
//! The parser is *recognition*, not validation: anything it cannot
//! shape-match is skipped, never an error. It tracks balanced brackets
//! (the lexer guarantees strings and comments cannot desynchronize
//! them), skips generic-argument lists with an arrow guard so `->`
//! inside `Fn(&T) -> U` bounds never closes an angle group early, and
//! records code-token index ranges so the rule layer can scan bodies
//! directly.

use eua_analyze::Span;

use crate::lexer::{Tok, TokKind};
use crate::rules::span_of;

/// One parsed parameter. The `self` receiver is recorded on the item
/// ([`FnItem::has_self`]), not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name: the first identifier of the pattern (`_` and
    /// tuple patterns degrade to their first identifier), when any.
    pub name: Option<String>,
    /// The identifier tokens of the declared type, in order (`&mut
    /// BTreeMap<u32, SimTime>` yields `["mut", "BTreeMap", "u32",
    /// "SimTime"]`).
    pub ty: Vec<String>,
}

/// One function item with byte-exact anchors and code-token ranges.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// The innermost enclosing impl block's type name, when inside one.
    pub self_type: Option<String>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Parameters in declaration order, the receiver excluded.
    pub params: Vec<Param>,
    /// Identifier tokens of the return type (empty for `()` returns).
    pub ret: Vec<String>,
    /// Code-token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Half-open code-token index range of the body, braces excluded.
    pub body: (usize, usize),
    /// Span of the name identifier (the diagnostic anchor).
    pub name_span: Span,
    /// Whether the function sits inside a `#[cfg(test)] mod` body. Test
    /// policies and helpers share names with production items; the call
    /// graph must not let them pollute candidate sets.
    pub in_test_mod: bool,
}

impl FnItem {
    /// `Type::name` for methods and associated functions, `name` for
    /// free functions — the form diagnostics print.
    #[must_use]
    pub fn display_name(&self) -> String {
        match &self.self_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `impl` block: the subject type and the body token range.
#[derive(Debug, Clone)]
pub struct ImplBlock {
    /// The implemented type's final path segment (`Foo` for both `impl
    /// Foo` and `impl Trait for crate::x::Foo`).
    pub ty: String,
    /// Half-open code-token index range of the block body.
    pub body: (usize, usize),
}

/// A `mod name` declaration (inline or file-backed).
#[derive(Debug, Clone)]
pub struct ModDecl {
    /// The module name.
    pub name: String,
    /// Span of the name identifier.
    pub span: Span,
}

/// A `use` declaration, flattened to its identifier tokens.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Every identifier in the tree, in source order (`use a::{b, c}`
    /// yields `["a", "b", "c"]`).
    pub path: Vec<String>,
    /// Span from `use` to the final identifier.
    pub span: Span,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Function items, in source order (nested functions included).
    pub fns: Vec<FnItem>,
    /// Impl blocks, in source order.
    pub impls: Vec<ImplBlock>,
    /// Module declarations.
    pub mods: Vec<ModDecl>,
    /// Use declarations.
    pub uses: Vec<UseDecl>,
}

/// Whether the token at `j` is the tail of a two-byte arrow (`->` or
/// `=>`) — adjacency checked by byte position, since the lexer emits
/// the two puncts separately.
fn is_arrow_tail(code: &[&Tok<'_>], j: usize) -> bool {
    j > 0 && {
        let (p, t) = (code[j - 1], code[j]);
        matches!(p.text, "-" | "=") && p.end_line == t.line && p.end_col == t.col
    }
}

/// Skips a balanced `<...>` group whose `<` sits at `i`, returning the
/// index one past the closing `>`. Arrows never close a group. Bails
/// after a bounded lookahead (the `<` was a comparison, not generics).
fn skip_angles(code: &[&Tok<'_>], i: usize) -> usize {
    let mut depth = 0i32;
    for j in i..code.len().min(i + 256) {
        match code[j].text {
            "<" => depth += 1,
            ">" if !is_arrow_tail(code, j) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => break,
            _ => {}
        }
    }
    i + 1
}

/// Index of the bracket that closes the opener at `open` (any of the
/// three bracket kinds, tracked together), or `code.len()`.
pub(crate) fn match_bracket(code: &[&Tok<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Reads `Ident (:: Ident)*` starting at `j`, returning the final
/// segment and the index one past the path.
fn read_type_path(code: &[&Tok<'_>], j: usize) -> Option<(String, usize)> {
    if code.get(j).map(|t| t.kind) != Some(TokKind::Ident) {
        return None;
    }
    let mut last = code[j].text;
    let mut at = j + 1;
    while code.get(at).map(|t| t.kind) == Some(TokKind::PathSep)
        && code.get(at + 1).map(|t| t.kind) == Some(TokKind::Ident)
    {
        last = code[at + 1].text;
        at += 2;
    }
    Some((last.to_string(), at))
}

/// Collects impl blocks. Only item-position `impl` counts: `impl Trait`
/// in return or argument position follows `>`/`:`/`(`/`,`/`&`/`+` and
/// is skipped.
fn collect_impls(code: &[&Tok<'_>]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("impl") {
            continue;
        }
        if let Some(prev) = i.checked_sub(1).map(|p| code[p]) {
            if !matches!(prev.text, "}" | ";" | "]" | "{") {
                continue;
            }
        }
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(code, j);
        }
        let Some((mut ty, next)) = read_type_path(code, j) else {
            continue;
        };
        j = next;
        if code.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(code, j);
        }
        if code.get(j).is_some_and(|t| t.is_ident("for")) {
            j += 1;
            while code
                .get(j)
                .is_some_and(|t| t.text == "&" || t.is_ident("mut"))
            {
                j += 1;
            }
            match read_type_path(code, j) {
                Some((subject, next)) => {
                    ty = subject;
                    j = next;
                }
                None => continue,
            }
        }
        // The body is the first brace within a bounded window (past any
        // where clause); `;` first means e.g. a macro, skip.
        let mut open = None;
        for (k, t) in code.iter().enumerate().skip(j).take(96) {
            match t.text {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
        }
        if let Some(open) = open {
            out.push(ImplBlock {
                ty,
                body: (open + 1, match_bracket(code, open)),
            });
        }
    }
    out
}

/// Half-open code-token ranges of `#[cfg(test)] mod` bodies. The shape
/// is matched exactly (`# [ cfg ( test ) ]` with a `mod` and its brace
/// within a short window); `#[cfg(feature = …)]` modules are production
/// code and stay in.
fn test_mod_ranges(code: &[&Tok<'_>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 2..code.len() {
        let attr = code[i].is_ident("cfg")
            && code[i - 2].text == "#"
            && code[i - 1].text == "["
            && code.get(i + 1).map(|t| t.text) == Some("(")
            && code.get(i + 2).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 3).map(|t| t.text) == Some(")")
            && code.get(i + 4).map(|t| t.text) == Some("]");
        if !attr {
            continue;
        }
        // The `mod` within a short window (further attributes and a
        // visibility may intervene; any other item form ends the hunt).
        for k in i + 5..code.len().min(i + 16) {
            if code[k].is_ident("mod") {
                if let Some(open) = (k + 1..code.len().min(k + 4)).find(|&m| code[m].text == "{") {
                    out.push((open + 1, match_bracket(code, open)));
                }
                break;
            }
            if matches!(code[k].text, "{" | "}" | ";" | "(") {
                break;
            }
        }
    }
    out
}

/// Parses a parameter list whose `(` sits at `open`. Returns the
/// parameters, whether a `self` receiver leads, and the index one past
/// the closing `)`.
fn parse_params(code: &[&Tok<'_>]) -> (Vec<Param>, bool, usize) {
    let close = match_bracket(code, 0);
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut start = 1usize;
    for (j, t) in code.iter().enumerate().take(close + 1) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth = depth.saturating_sub(1),
            TokKind::Punct if t.text == "," && depth == 1 => {
                pieces.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        pieces.push((start, close));
    }
    let mut params = Vec::new();
    let mut has_self = false;
    for (s, e) in pieces {
        let piece = &code[s..e];
        let mut idents = piece
            .iter()
            .filter(|t| t.kind == TokKind::Ident && !t.is_ident("mut"));
        if idents.next().is_some_and(|t| t.is_ident("self")) {
            has_self = true;
            continue;
        }
        // The name is everything before the first top-level `:`; the
        // type is every identifier after it. Commas inside generics sit
        // at bracket depth 0 here only for bare turbofish, which no
        // parameter list contains.
        let colon = piece
            .iter()
            .position(|t| t.kind == TokKind::Punct && t.text == ":");
        let (pat, ty_toks) = match colon {
            Some(c) => (&piece[..c], &piece[c + 1..]),
            None => (piece, &piece[piece.len()..]),
        };
        let name = pat
            .iter()
            .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
            .map(|t| t.text.to_string());
        let ty = ty_toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.to_string())
            .collect();
        params.push(Param { name, ty });
    }
    (params, has_self, close + 1)
}

/// Parses one file's code tokens into items. Never fails: unparseable
/// shapes are skipped.
#[must_use]
pub fn parse_file(code: &[&Tok<'_>]) -> ParsedFile {
    let impls = collect_impls(code);
    let test_mods = test_mod_ranges(code);
    let mut fns = Vec::new();
    let mut mods = Vec::new();
    let mut uses = Vec::new();
    for i in 0..code.len() {
        if code[i].is_ident("mod") {
            if let Some(name) = code.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                mods.push(ModDecl {
                    name: name.text.to_string(),
                    span: span_of(name),
                });
            }
            continue;
        }
        if code[i].is_ident("use") {
            let mut path = Vec::new();
            let mut last = code[i];
            for &t in code.iter().skip(i + 1) {
                if t.text == ";" {
                    break;
                }
                if t.kind == TokKind::Ident {
                    path.push(t.text.to_string());
                    last = t;
                }
            }
            if !path.is_empty() {
                uses.push(UseDecl {
                    path,
                    span: Span {
                        start_line: code[i].line,
                        start_col: code[i].col,
                        end_line: last.end_line,
                        end_col: last.end_col,
                    },
                });
            }
            continue;
        }
        if !code[i].is_ident("fn") {
            continue;
        }
        let Some(name_t) = code.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue; // `fn(u64) -> u64` type position
        };
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.text == "<") {
            j = skip_angles(code, j);
        }
        if code.get(j).map(|t| t.text) != Some("(") {
            continue;
        }
        let (params, has_self, after) = parse_params(&code[j..]);
        j += after;
        let mut ret = Vec::new();
        if code.get(j).is_some_and(|t| t.text == "-")
            && code.get(j + 1).is_some_and(|t| t.text == ">")
        {
            j += 2;
            while let Some(t) = code.get(j) {
                if matches!(t.text, "{" | ";") || t.is_ident("where") {
                    break;
                }
                if t.kind == TokKind::Ident {
                    ret.push(t.text.to_string());
                }
                j += 1;
            }
        }
        // Past any where clause to the body; `;` first is a bodyless
        // declaration (trait methods), which carries no analyzable code.
        let mut open = None;
        while let Some(t) = code.get(j) {
            match t.text {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let self_type = impls
            .iter()
            .filter(|b| b.body.0 <= i && i < b.body.1)
            .min_by_key(|b| b.body.1 - b.body.0)
            .map(|b| b.ty.clone());
        fns.push(FnItem {
            name: name_t.text.to_string(),
            self_type,
            has_self,
            params,
            ret,
            fn_tok: i,
            body: (open + 1, match_bracket(code, open)),
            name_span: span_of(name_t),
            in_test_mod: test_mods.iter().any(|&(s, e)| s <= i && i < e),
        });
    }
    ParsedFile {
        fns,
        impls,
        mods,
        uses,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment { .. }))
            .collect();
        parse_file(&code)
    }

    #[test]
    fn free_fn_with_params_and_return() {
        let p = parse("pub fn plan(now_us: u64, budget: SimTime) -> Frequency { body() }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "plan");
        assert!(!f.has_self);
        assert_eq!(f.self_type, None);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name.as_deref(), Some("now_us"));
        assert_eq!(f.params[0].ty, ["u64"]);
        assert_eq!(f.params[1].ty, ["SimTime"]);
        assert_eq!(f.ret, ["Frequency"]);
    }

    #[test]
    fn impl_methods_get_self_type() {
        let p = parse(
            "impl ScheduleBuilder {\n\
             \x20   fn rebuild(&mut self, now: SimTime) -> bool { true }\n\
             \x20   fn new() -> Self { Self }\n\
             }\n\
             impl fmt::Display for Verdict {\n\
             \x20   fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { ok() }\n\
             }",
        );
        assert_eq!(p.fns.len(), 3);
        assert_eq!(p.fns[0].self_type.as_deref(), Some("ScheduleBuilder"));
        assert!(p.fns[0].has_self);
        assert_eq!(p.fns[0].params.len(), 1);
        assert_eq!(p.fns[1].name, "new");
        assert!(!p.fns[1].has_self);
        assert_eq!(p.fns[2].self_type.as_deref(), Some("Verdict"));
        assert_eq!(p.fns[2].display_name(), "Verdict::fmt");
    }

    #[test]
    fn generic_fns_and_fn_type_params_parse() {
        let p = parse("fn apply<F: Fn(u64) -> u64>(xs: &[u64], f: F) -> Vec<u64> { go() }");
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "apply");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].name.as_deref(), Some("f"));
        assert_eq!(f.ret, ["Vec", "u64"]);
    }

    #[test]
    fn return_position_impl_trait_is_not_an_impl_block() {
        let p = parse("fn iter_all() -> impl Iterator<Item = u32> { make() }\nfn tail() {}");
        assert!(p.impls.is_empty());
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[1].self_type, None);
    }

    #[test]
    fn bodyless_trait_methods_are_skipped() {
        let p = parse("trait Policy { fn decide(&mut self, now: SimTime) -> Option<u32>; }");
        assert!(p.fns.is_empty());
    }

    #[test]
    fn where_clause_idents_stay_out_of_ret() {
        let p = parse("fn sum<T>(xs: &[T]) -> u64 where T: Into<u64> { 0 }");
        assert_eq!(p.fns[0].ret, ["u64"]);
    }

    #[test]
    fn nested_fns_are_found() {
        let p = parse("fn outer() { fn inner(k_us: u64) -> u64 { k_us } inner(1) }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn raw_identifier_fn_names_keep_prefix() {
        let p = parse("fn r#type() { }");
        assert_eq!(p.fns[0].name, "r#type");
    }

    #[test]
    fn cfg_test_modules_mark_their_fns() {
        let p = parse(
            "fn real() { go() }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   use super::*;\n\
             \x20   fn helper() { real() }\n\
             }\n\
             #[cfg(feature = \"invariant-checks\")]\n\
             mod enabled {\n\
             \x20   pub fn check() { }\n\
             }",
        );
        let flags: Vec<(&str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.in_test_mod))
            .collect();
        assert_eq!(
            flags,
            [("real", false), ("helper", true), ("check", false)],
            "only the #[cfg(test)] module is excluded"
        );
    }

    #[test]
    fn mods_and_uses_are_recorded() {
        let p = parse("use std::collections::BTreeMap;\nmod calendar;\nuse crate::{lexer, rules};");
        assert_eq!(p.mods.len(), 1);
        assert_eq!(p.mods[0].name, "calendar");
        assert_eq!(p.uses.len(), 2);
        assert_eq!(p.uses[0].path, ["std", "collections", "BTreeMap"]);
        assert_eq!(p.uses[1].path, ["crate", "lexer", "rules"]);
    }

    #[test]
    fn body_ranges_cover_exactly_the_braces() {
        let src = "fn a() { one(); } fn b() { two(); }";
        let toks = lex(src);
        let code: Vec<&Tok<'_>> = toks.iter().collect();
        let p = parse_file(&code);
        let (s, e) = p.fns[0].body;
        let body_text: Vec<&str> = code[s..e].iter().map(|t| t.text).collect();
        assert_eq!(body_text, ["one", "(", ")", ";"]);
        let (s, e) = p.fns[1].body;
        assert_eq!(code[s].text, "two");
        assert_eq!(e - s, 4);
    }
}
