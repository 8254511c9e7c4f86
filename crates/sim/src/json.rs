//! A minimal first-party JSON tree shared by every serializer in the
//! workspace (decision certificates here, SARIF in `eua-analyze`,
//! result files in `eua-bench`): deterministic rendering plus a strict
//! parser, so emitted documents can be asserted to **round-trip**
//! byte-for-byte (`render(parse(s)) == s`) without external crates —
//! the build environment is offline, so no `serde`.
//!
//! Both layouts are written in one place, `Writer`: a tree renders
//! through it, and a large document (a certificate) streams through it
//! with no tree. [`Json`] borrows its text: numbers keep their literal
//! token, so a parsed document re-renders to the same bytes, and [`parse`]
//! allocates only containers and strings with escapes.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The deepest nesting [`parse`] accepts — far above anything this
/// workspace writes, and low enough that a hostile document cannot
/// recurse the parser off the end of a worker thread's stack.
pub const MAX_DEPTH: usize = 512;

/// A JSON value. Object keys keep insertion order (no sorting), so a
/// writer fully controls the byte layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal token text.
    Num(Cow<'a, str>),
    /// A string (unescaped content).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in insertion order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// A number from an `f64`, via Rust's shortest-roundtrip `{:?}`
    /// formatting (deterministic across platforms). Non-finite values
    /// have no JSON representation and are rendered as `null`.
    #[must_use]
    pub fn num(v: f64) -> Json<'static> {
        if v.is_finite() {
            Json::Num(format!("{v:?}").into())
        } else {
            Json::Null
        }
    }

    /// A number from an unsigned integer.
    #[must_use]
    pub fn uint(v: u64) -> Json<'static> {
        Json::Num(v.to_string().into())
    }

    /// The same tree, owning its text, so it can outlive its input.
    #[must_use]
    pub fn into_owned(self) -> Json<'static> {
        let own = |text: Cow<'_, str>| Cow::Owned(text.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Num(n) => Json::Num(own(n)),
            Json::Str(s) => Json::Str(own(s)),
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::into_owned).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (own(k), v.into_owned()))
                    .collect(),
            ),
        }
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, `\n`
    /// newlines, trailing newline). The layout is fully deterministic:
    /// rendering a parsed render reproduces the bytes exactly.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::pretty(&mut out));
        out.push('\n');
        out
    }

    /// Renders the tree as compact single-line JSON (no whitespace, no
    /// trailing newline) — the layout journal records use, where one
    /// record must occupy exactly one line. As deterministic as
    /// [`Json::render`], and parseable by the same [`parse`].
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut Writer::compact(&mut out));
        out
    }

    fn write(&self, w: &mut Writer<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.token(n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin_arr();
                items.iter().for_each(|item| item.write(w));
                w.end_arr()
            }
            Json::Obj(fields) => {
                w.begin_obj();
                for (key, value) in fields {
                    value.write(w.key(key));
                }
                w.end_obj()
            }
        };
    }

    /// Looks up a key in an object (first match); `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is a [`Json::Arr`].
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes JSON text in the layout of [`Json::render`] or of
/// [`Json::render_compact`]. The caller writes the structure (values,
/// `begin_*`/`end_*`, a `key` before each member), the writer
/// every separator, newline and indent; a trailing newline is the caller's.
pub(crate) struct Writer<'o> {
    out: &'o mut String,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no item yet.
    empty: bool,
    /// A key was just written, so the next value follows it directly.
    after_key: bool,
}

impl<'o> Writer<'o> {
    /// A writer in the pretty layout.
    #[must_use]
    pub fn pretty(out: &'o mut String) -> Self {
        Writer {
            out,
            pretty: true,
            depth: 0,
            empty: true,
            after_key: false,
        }
    }

    /// A writer in the compact layout.
    #[must_use]
    pub fn compact(out: &'o mut String) -> Self {
        Writer {
            pretty: false,
            ..Writer::pretty(out)
        }
    }

    /// Starts an item: its separator, newline and indent.
    fn item(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) && self.depth > 0 {
            if !self.empty {
                self.out.push(',');
            }
            self.empty = false;
            self.newline();
        }
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            (0..self.depth).for_each(|_| self.out.push_str("  "));
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item().push(bracket);
        self.depth += 1;
        self.empty = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object member's key; its value comes next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        write_escaped(self.item(), key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Writes a number token (or a literal) verbatim.
    fn token(&mut self, token: &str) -> &mut Self {
        self.item().push_str(token);
        self
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// Writes an `f64` as [`Json::num`] stores it: `{:?}`, or `null` when
    /// it is not finite.
    pub fn num(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.item(), "{v:?}");
            self
        } else {
            self.null()
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_escaped(self.item(), s);
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.token("null")
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.token(if b { "true" } else { "false" })
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Unescaped runs are copied whole; every escaped character is
    // ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses a JSON document (the subset this module renders: no exotic
/// escapes beyond `\" \\ \/ \n \r \t \uXXXX`), borrowing from `input`.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first
/// malformed token or of nesting deeper than [`MAX_DEPTH`], or trailing
/// garbage after the document.
pub fn parse(input: &str) -> Result<Json<'_>, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.container(b'}'),
            Some(b'[') => self.container(b']'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// An array (`close == b']'`) or an object (`close == b'}'`).
    fn container(&mut self, close: u8) -> Result<Json<'a>, String> {
        if self.depth == MAX_DEPTH {
            let pos = self.pos;
            return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
        }
        self.depth += 1;
        self.pos += 1; // consume the opening bracket
        let (mut items, mut fields, want) = (Vec::new(), Vec::new(), close as char);
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                if close == b']' {
                    items.push(self.value()?);
                } else {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(format!("expected a key at byte {}", self.pos));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    self.pos += 1;
                    fields.push((key, self.value()?));
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(format!("expected ',' or '{want}' at byte {}", self.pos)),
                }
            }
        }
        self.pos += 1; // consume the closing bracket
        self.depth -= 1;
        Ok(match close {
            b']' => Json::Arr(items),
            _ => Json::Obj(fields),
        })
    }

    fn literal(&mut self, lit: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("expected a number at byte {start}"));
        }
        let text = &self.text[start..self.pos];
        // Validate through Rust's float parser without re-formatting; a
        // run of ASCII digits always passes it.
        if !text.bytes().all(|b| b.is_ascii_digit()) {
            text.parse::<f64>()
                .map_err(|_| format!("malformed number {text:?} at byte {start}"))?;
        }
        Ok(Json::Num(Cow::Borrowed(text)))
    }

    /// A string, borrowed from the input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.text.as_bytes();
        self.pos += 1; // consume '"'
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // Both stop bytes are ASCII, so every slice taken here ends
            // on a char boundary of the (valid UTF-8) input.
            let run = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            if let Some(s) = &mut owned {
                s.push_str(&self.text[run..self.pos]);
            }
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    let borrowed = Cow::Borrowed(&self.text[start..self.pos - 1]);
                    return Ok(owned.map_or(borrowed, Cow::Owned));
                }
                Some(_) => {}
            }
            let s = owned.get_or_insert_with(|| self.text[start..self.pos].to_string());
            self.pos += 1; // consume '\\'
            s.push(match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| "invalid utf-8 in \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                    self.pos += 4;
                    char::from_u32(code).ok_or_else(|| format!("invalid codepoint \\u{hex}"))?
                }
                _ => return Err(format!("unknown escape at byte {}", self.pos)),
            });
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips_bytes() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Str("2.1.0".into())),
            ("load".into(), Json::num(0.8)),
            ("count".into(), Json::uint(42)),
            ("flag".into(), Json::Bool(true)),
            ("missing".into(), Json::Null),
            (
                "points".into(),
                Json::Arr(vec![Json::num(0.1), Json::num(1.0 / 3.0), Json::uint(7)]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("render output must parse");
        assert_eq!(parsed.render(), text, "byte-exact round-trip");
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let doc = Json::Obj(vec![
            ("cell".into(), Json::uint(7)),
            ("grade".into(), Json::Str("collapsed".into())),
            ("load".into(), Json::num(0.95)),
            (
                "families".into(),
                Json::Arr(vec![Json::Str("uam".into()), Json::Null]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact output must be one line");
        assert_eq!(
            line,
            r#"{"cell":7,"grade":"collapsed","load":0.95,"families":["uam",null],"empty":{}}"#
        );
        let parsed = parse(&line).expect("compact output must parse");
        assert_eq!(parsed.render_compact(), line, "byte-exact round-trip");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn numbers_keep_their_literal_text() {
        let parsed = parse("[1e3, 0.5, -2, 10]").unwrap();
        let Json::Arr(items) = parsed else {
            panic!("expected an array")
        };
        let texts: Vec<&str> = items
            .iter()
            .map(|v| match v {
                Json::Num(n) => n.as_ref(),
                other => panic!("expected numbers, got {other:?}"),
            })
            .collect();
        assert_eq!(texts, vec!["1e3", "0.5", "-2", "10"]);
    }

    #[test]
    fn accessors_navigate_objects_and_arrays() {
        let parsed = parse("{\"runs\": [{\"tool\": \"x\"}]}").unwrap();
        let runs = parsed.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("tool").and_then(Json::as_str),
            Some("x"),
            "nested lookup"
        );
        assert!(parsed.get("absent").is_none());
    }

    #[test]
    fn escapes_survive_round_trip() {
        let doc = Json::Str("tab\there\nnewline \\ quote\" ctrl\u{1}".into());
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "12 34",
            "{\"a\": 1} trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(1.5), Json::Num("1.5".into()));
    }

    #[test]
    fn parse_borrows_everything_but_escaped_strings() {
        let text = r#"{"plain": "abc", "escaped": "a\nb", "n": 12}"#;
        let Json::Obj(fields) = parse(text).unwrap() else {
            panic!("expected an object")
        };
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        assert!(fields.iter().all(|(k, _)| borrowed(k)), "keys borrow");
        assert!(matches!(&fields[0].1, Json::Str(s) if borrowed(s)));
        assert!(matches!(&fields[1].1, Json::Str(s) if !borrowed(s) && s == "a\nb"));
        assert!(matches!(&fields[2].1, Json::Num(n) if borrowed(n)));
    }

    #[test]
    fn into_owned_outlives_its_input() {
        let owned = {
            let text = String::from(r#"{"k": ["v", 1, null]}"#);
            parse(&text).unwrap().into_owned()
        };
        assert_eq!(owned.render_compact(), r#"{"k":["v",1,null]}"#);
    }

    #[test]
    fn nesting_is_capped_without_recursing_off_the_stack() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            parse(&over).unwrap_err(),
            format!("nested deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse(&objects).unwrap_err().starts_with("nested deeper"));
    }

    #[test]
    fn writer_streams_the_layouts_render_uses() {
        let doc = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::uint(0), Json::uint(u64::MAX)]),
            ),
            ("b".into(), Json::Obj(vec![])),
            ("c".into(), Json::Arr(vec![Json::Arr(vec![]), Json::Null])),
            ("d".into(), Json::num(-0.25)),
            ("e".into(), Json::Str("q\"\u{1f}".into())),
            ("f".into(), Json::Bool(false)),
        ]);
        for pretty in [true, false] {
            let mut out = String::new();
            let mut w = if pretty {
                Writer::pretty(&mut out)
            } else {
                Writer::compact(&mut out)
            };
            w.begin_obj();
            w.key("a").begin_arr().uint(0).uint(u64::MAX).end_arr();
            w.key("b").begin_obj().end_obj();
            w.key("c")
                .begin_arr()
                .begin_arr()
                .end_arr()
                .num(f64::NAN)
                .end_arr();
            w.key("d").num(-0.25);
            w.key("e").str("q\"\u{1f}");
            w.key("f").bool(false);
            w.end_obj();
            if pretty {
                out.push('\n');
                assert_eq!(out, doc.render());
            } else {
                assert_eq!(out, doc.render_compact());
            }
        }
    }
}
