//! A minimal, dependency-free JSON value with a deterministic serializer
//! and a strict parser.
//!
//! The harness needs byte-identical artifacts for its determinism guarantee,
//! so the serializer is fully specified: objects keep insertion order (the
//! harness always inserts in sorted/stable order), arrays keep element
//! order, floats render via Rust's shortest-round-trip `Display` (never
//! scientific notation), and indentation is two spaces. The parser reads
//! back what we emit plus standard JSON (escapes, exponents) for
//! hand-edited baselines, in one pass whose cost is linear in the input:
//! a file handed to `--baseline`, `--validate-trace` or `--validate-obs`
//! is outside input, so anything malformed, nested past a fixed depth or
//! escaped into a surrogate that names no scalar is an `Err` with its line
//! and column — never a panic, a stack overflow or a substituted character
//! (DESIGN.md §9).

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and serialized).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a key in an object. Panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on non-object")
        };
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            pairs.push((key.to_owned(), value));
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline — the byte
    /// format of every artifact the harness writes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no whitespace — the JSONL form used by
    /// trace artifacts, one value per line. Same deterministic number and
    /// escape rules as [`Json::render`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    /// Errors carry the 1-based line and column of the offending byte;
    /// arrays and objects may nest at most 128 deep.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: input,
            pos: 0,
            depth: 0,
        };
        let value = p.value().map_err(|e| e.locate(input))?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(ParseError::at(p.pos, "trailing input").locate(input));
        }
        Ok(value)
    }

    /// As [`Json::parse`], but errors are prefixed with `source` (a file
    /// name or similar provenance label) so a failure names the artifact
    /// it came from, not just a position.
    pub fn parse_named(source: &str, input: &str) -> Result<Json, String> {
        Json::parse(input).map_err(|e| format!("{source}: {e}"))
    }

    /// Object field lookup that names the missing field (and the fields
    /// that *are* present) on failure, for digging into artifacts.
    pub fn require(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| match self {
            Json::Obj(pairs) => {
                let have: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                format!("missing field '{key}' (object has: {})", have.join(", "))
            }
            other => format!(
                "missing field '{key}': not an object ({})",
                type_name(other)
            ),
        })
    }
}

/// Read and parse a JSON file; every failure mode names the file.
pub fn read_json_file(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse_named(path, &text)
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// A parse failure at a byte offset, resolved to line/column on exit.
struct ParseError {
    offset: usize,
    what: String,
}

impl ParseError {
    fn at(offset: usize, what: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            what: what.into(),
        }
    }

    /// Render with the 1-based line and column of `offset` in `input`.
    fn locate(self, input: &str) -> String {
        let (mut line, mut col) = (1usize, 1usize);
        for &b in input.as_bytes().iter().take(self.offset) {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        format!("line {line}, column {col}: {}", self.what)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Deterministic number rendering: integers (within f64's exact range) have
/// no fraction; everything else uses Rust's shortest-round-trip `Display`,
/// which never emits scientific notation. Non-finite values become `null`.
fn write_num(out: &mut String, v: f64) {
    use fmt::Write;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render the byte at the error position for a message: `'x'`, or
/// "end of input" when the input ran out.
fn found(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("'{}'", b as char),
        None => "end of input".to_string(),
    }
}

/// Deepest array/object nesting the reader accepts. The artifacts nest at
/// most 6 deep; the bound is what keeps hostile input from overflowing the
/// stack here, and again in `Drop`, `render` and `==` on the parsed value.
const MAX_DEPTH: usize = 128;

/// One pass over the input, left to right, each byte looked at once.
struct Parser<'a> {
    /// The input as text: `Json::parse` takes a `&str`, so it is valid
    /// UTF-8, and every byte the reader stops on (`"`, `\`, brackets,
    /// digits) is ASCII, which never occurs inside a multi-byte sequence.
    /// `pos` therefore always sits on a char boundary and the stretch of a
    /// string between two stops is itself a `str`, copied as one run.
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::at(
                self.pos,
                format!("expected '{}', found {}", b as char, found(self.peek())),
            ))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Err(ParseError::at(self.pos, "unexpected end of input")),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(_) => self.number(),
        }
    }

    /// Parse the array or object opening at `pos`, one level further in.
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::at(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.depth += 1;
        self.pos += 1;
        let value = body(self)?;
        self.depth -= 1;
        Ok(value)
    }

    /// The rest of an array, after its `[`.
    fn array(&mut self) -> Result<Json, ParseError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(ParseError::at(
                        self.pos,
                        format!("expected ',' or ']', found {}", found(other)),
                    ))
                }
            }
        }
    }

    /// The rest of an object, after its `{`.
    fn object(&mut self) -> Result<Json, ParseError> {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(ParseError::at(
                        self.pos,
                        format!("expected ',' or '}}', found {}", found(other)),
                    ))
                }
            }
        }
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(ParseError::at(
                self.pos,
                format!("invalid literal (expected '{lit}')"),
            ))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(ParseError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => out.push(self.escape()?),
            }
        }
    }

    /// The escape sequence whose backslash is at `pos`. Errors point at that
    /// backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let start = self.pos;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(start);
            }
            other => {
                return Err(ParseError::at(
                    start,
                    format!("bad escape: '\\' then {}", found(other)),
                ))
            }
        };
        self.pos += 1;
        Ok(c)
    }

    /// The scalar a `\uXXXX` escape starting at `start` names, `pos` being
    /// just past its `u`. A code point beyond U+FFFF is written as a high
    /// surrogate escape directly followed by a low one; a surrogate in any
    /// other arrangement names no scalar and is an error.
    fn unicode_escape(&mut self, start: usize) -> Result<char, ParseError> {
        let code = match self.hex4(start)? {
            high @ 0xD800..=0xDBFF => {
                let low = if self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    self.hex4(start)?
                } else {
                    0
                };
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(ParseError::at(
                        start,
                        format!("high surrogate \\u{high:04x} without a low surrogate after it"),
                    ));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            code => code,
        };
        char::from_u32(code)
            .ok_or_else(|| ParseError::at(start, format!("lone low surrogate \\u{code:04x}")))
    }

    /// Exactly four hex digits at `pos`, for the escape starting at `start`.
    fn hex4(&mut self, start: usize) -> Result<u32, ParseError> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| ParseError::at(start, "truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| ParseError::at(start, "\\u escape needs four hex digits"))?;
            code = code * 16 + d;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(ParseError::at(start, "expected a value"));
        }
        let text = &self.src[start..self.pos];
        // `1e999` parses to infinity, which `render` can only write as
        // `null`: refuse it rather than hand back a value that does not
        // survive a round trip.
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| ParseError::at(start, format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let mut obj = Json::obj();
        obj.set("schema", Json::Num(1.0));
        obj.set("name", Json::Str("agora \"quoted\" \n".to_owned()));
        obj.set(
            "values",
            Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
        );
        let mut inner = Json::obj();
        inner.set("empty_arr", Json::Arr(vec![]));
        inner.set("empty_obj", Json::obj());
        obj.set("inner", inner);
        let text = obj.render();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(back, obj);
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut s = String::new();
        write_num(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        write_num(&mut s, -0.125);
        assert_eq!(s, "-0.125");
        s.clear();
        write_num(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn parses_standard_json_extras() {
        let v = Json::parse(r#"{"a": 1e3, "b": "xAy", "c": [ ]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("xAy"));
        assert_eq!(v.get("c"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\": !\n}").unwrap_err();
        assert_eq!(err, "line 3, column 8: expected a value");
        let err = Json::parse_named("BENCH_x.json", "{\"a\" 1}").unwrap_err();
        assert!(err.starts_with("BENCH_x.json: line 1, column 6"), "{err}");
    }

    #[test]
    fn require_names_the_field_and_the_neighbourhood() {
        let v = Json::parse(r#"{"have": 1, "also": 2}"#).unwrap();
        assert_eq!(v.require("have").map(|j| j.as_f64()), Ok(Some(1.0)));
        let err = v.require("missing").unwrap_err();
        assert!(
            err.contains("'missing'") && err.contains("have, also"),
            "{err}"
        );
        let err = Json::Num(3.0).require("x").unwrap_err();
        assert!(err.contains("not an object (number)"), "{err}");
    }

    #[test]
    fn read_json_file_names_the_file() {
        let err = read_json_file("/nonexistent/agora.json").unwrap_err();
        assert!(err.starts_with("/nonexistent/agora.json: "), "{err}");
    }

    #[test]
    fn compact_render_roundtrips_and_is_single_line() {
        let mut obj = Json::obj();
        obj.set("type", Json::Str("event".to_owned()));
        obj.set("key", Json::Str("0x0000001e".to_owned()));
        obj.set("vals", Json::Arr(vec![Json::Num(1.0), Json::Null]));
        let mut inner = Json::obj();
        inner.set("n", Json::Num(2.5));
        obj.set("inner", inner);
        let line = obj.render_compact();
        assert!(!line.contains('\n') && !line.contains(' '));
        assert_eq!(
            line,
            r#"{"type":"event","key":"0x0000001e","vals":[1,null],"inner":{"n":2.5}}"#
        );
        assert_eq!(Json::parse(&line).expect("parse back"), obj);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut obj = Json::obj();
        obj.set("k", Json::Num(1.0));
        obj.set("k", Json::Num(2.0));
        assert_eq!(obj.get("k").and_then(Json::as_f64), Some(2.0));
        assert_eq!(obj.render().matches("\"k\"").count(), 1);
    }

    #[test]
    fn render_is_stable_bytes() {
        let mut obj = Json::obj();
        obj.set("b", Json::Num(2.0));
        obj.set("a", Json::Num(1.0));
        // Insertion order, not alphabetical — callers control ordering.
        assert_eq!(obj.render(), "{\n  \"b\": 2,\n  \"a\": 1\n}\n");
    }

    /// A document with every value kind, escapes and 2/3/4-byte UTF-8 in
    /// keys and values, nested a few levels — the seed for the truncation
    /// table and the mutation fuzz.
    fn sample() -> Json {
        let mut trial = Json::obj();
        trial.set("index", Json::Num(17.0));
        trial.set("seed", Json::Str("0x9e3779b97f4a7c15".to_owned()));
        trial.set("ok", Json::Bool(true));
        trial.set("skipped", Json::Null);
        let mut metrics = Json::obj();
        metrics.set("dht.lookup_secs", Json::Num(0.3125));
        metrics.set("net.dropped", Json::Num(-4.0));
        metrics.set("peak", Json::Num(1.5e-7));
        metrics.set(
            "tab\there \"q\" back\\slash",
            Json::Str("a\nb\r\u{0001}".to_owned()),
        );
        metrics.set(
            "caf\u{e9}",
            Json::Str("\u{20ac}5 \u{1f600} done".to_owned()),
        );
        trial.set("metrics", metrics);
        let mut root = Json::obj();
        root.set("schema", Json::Num(1.0));
        root.set(
            "trials",
            Json::Arr(vec![trial, Json::Arr(vec![]), Json::obj()]),
        );
        root
    }

    #[test]
    fn checked_in_baseline_roundtrips_to_its_own_bytes() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_harness.json"
        ))
        .expect("checked-in BENCH_harness.json must exist at the repo root");
        let parsed = Json::parse(&text).expect("baseline parses");
        assert!(parsed.render() == text, "parse then render changed bytes");
    }

    #[test]
    fn strings_survive_the_run_copy() {
        // 2-, 3- and 4-byte scalars sit directly before an escape, directly
        // after one, and at the end of the string, so a run that ended or
        // began inside a sequence would show.
        let mut table: Vec<String> = [
            "",
            "plain ascii",
            "\u{e9}",
            "\u{20ac}",
            "\u{1f600}",
            "\u{e9}\n\u{e9}",
            "\u{20ac}\"\u{20ac}",
            "\u{1f600}\\\u{1f600}",
            "x\u{e9}\t\u{20ac}\r\u{1f600}\u{0001}\u{1f600}\u{20ac}\u{e9}",
            "\"\\/\n\r\t\u{0008}\u{000c}\u{0000}\u{001f}",
            "\\\\\\",
            "\"",
        ]
        .map(str::to_owned)
        .into();
        table.push("0123456789abcde\u{e9}".repeat(1 << 16)); // 1 MiB + 64 KiB
        for s in &table {
            let v = Json::Str(s.clone());
            assert_eq!(Json::parse(&v.render()).as_ref(), Ok(&v));
            assert_eq!(Json::parse(&v.render_compact()).as_ref(), Ok(&v));
        }
        // Every escape the grammar has, including the ones we never write.
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC\ud83d\ude00""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("\"\\/\u{0008}\u{000c}\n\r\tA\u{e9}\u{20ac}\u{1f600}")
        );
    }

    #[test]
    fn surrogate_escapes_decode_as_pairs_or_fail() {
        assert_eq!(
            Json::parse(r#""\uD83D\uDE00""#),
            Ok(Json::Str("\u{1f600}".to_owned()))
        );
        assert_eq!(
            Json::parse(r#""\udbff\udfff""#),
            Ok(Json::Str("\u{10ffff}".to_owned()))
        );
        for (input, want) in [
            (r#""ab\ud83d""#, "line 1, column 4: high surrogate"),
            (r#""\ud83dx""#, "line 1, column 2: high surrogate"),
            (r#""\ud83d\n""#, "line 1, column 2: high surrogate"),
            (r#""\ud83d\u0041""#, "line 1, column 2: high surrogate"),
            (r#""\ud83d\ud83d""#, "line 1, column 2: high surrogate"),
            (r#""\ude00""#, "line 1, column 2: lone low surrogate"),
            (r#""\ude00\ud83d""#, "line 1, column 2: lone low surrogate"),
            (r#""\u12g4""#, "line 1, column 2: \\u escape needs four hex"),
            (r#""\u+123""#, "line 1, column 2: \\u escape needs four hex"),
            (r#""\u12"#, "line 1, column 2: truncated \\u escape"),
            (r#""\ud83d\ude"#, "line 1, column 2: truncated \\u escape"),
        ] {
            let err = Json::parse(input).expect_err(input);
            assert!(err.starts_with(want), "{input}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // (open, close, innermost value, levels one repeat opens)
        for (open, close, leaf, levels) in [
            ("[", "]", "", 1),
            ("{\"k\":", "}", "0", 1),
            ("[{\"k\":", "}]", "0", 2),
        ] {
            let nest = |n: usize| open.repeat(n) + leaf + &close.repeat(n);
            let fits = MAX_DEPTH / levels;
            let v = Json::parse(&nest(fits)).expect("nesting at the bound parses");
            assert_eq!(Json::parse(&v.render()), Ok(v));
            let err = Json::parse(&nest(fits + 1)).expect_err("one level past the bound");
            let column = open.len() * fits + 1;
            assert_eq!(
                err,
                format!("line 1, column {column}: nesting deeper than {MAX_DEPTH}")
            );
        }
        // The bound is on depth, not on how many containers a document has.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(Json::parse(&wide).is_ok());
        // 300 000 open brackets overflowed the stack before the bound.
        let err = Json::parse(&"[".repeat(300_000)).unwrap_err();
        assert_eq!(err, "line 1, column 129: nesting deeper than 128");
        let err = Json::parse(&"\n[".repeat(300_000)).unwrap_err();
        assert_eq!(err, "line 130, column 1: nesting deeper than 128");
    }

    /// An 8 MiB document took the reader that re-validated the rest of the
    /// input per character about eight minutes; one pass takes tens of
    /// milliseconds. The bound sits two orders of magnitude above that
    /// linear cost, so host noise cannot trip it and a reader that goes
    /// quadratic again cannot pass it.
    #[test]
    fn parse_cost_is_linear_in_document_size() {
        let long = "linear \u{e9}\u{20ac}\u{1f600} \"run\"\n".repeat(240_000);
        let mut items = vec![Json::Str(long)];
        items.extend((0..100_000).map(|i| Json::Str(format!("trial/{i:06}/dht.lookup_secs"))));
        let doc = Json::Arr(items);
        let text = doc.render_compact();
        assert!(text.len() >= 8 << 20, "{} bytes", text.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).expect("parses");
        let elapsed = started.elapsed();
        assert!(parsed == doc, "parse changed the document");
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn hostile_input_is_an_error_with_a_position() {
        // Cut anywhere, a document is no document.
        let doc = sample().render_compact();
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let err = Json::parse(&doc[..cut]).expect_err(&doc[..cut]);
            assert!(err.starts_with("line 1, column "), "{cut}: {err}");
        }
        for (input, want) in [
            ("\"abc", "line 1, column 5: unterminated string"),
            ("{\"a\": \"b\n", "line 2, column 1: unterminated string"),
            (
                "\"a\\",
                "line 1, column 3: bad escape: '\\' then end of input",
            ),
            ("\"a\\x\"", "line 1, column 3: bad escape: '\\' then 'x'"),
            ("[1] x", "line 1, column 5: trailing input"),
            ("{}{}", "line 1, column 3: trailing input"),
            ("[1,]", "line 1, column 4: expected a value"),
            ("[1 2]", "line 1, column 4: expected ',' or ']', found '2'"),
            ("{\"a\":1,}", "line 1, column 8: expected '\"', found '}'"),
            ("{\"a\" 1}", "line 1, column 6: expected ':', found '1'"),
            ("{a:1}", "line 1, column 2: expected '\"', found 'a'"),
            ("nul", "line 1, column 1: invalid literal (expected 'null')"),
            ("--1", "line 1, column 1: invalid number '--1'"),
            ("1e999", "line 1, column 1: invalid number '1e999'"),
            ("\u{e9}", "line 1, column 1: expected a value"),
            ("", "line 1, column 1: unexpected end of input"),
            (
                "[\"\\ud800\"]",
                "line 1, column 3: high surrogate \\ud800 without a low surrogate after it",
            ),
            (
                "[\"\\udc00\"]",
                "line 1, column 3: lone low surrogate \\udc00",
            ),
        ] {
            assert_eq!(Json::parse(input).expect_err(input), want, "{input:?}");
        }
    }

    /// Seeded mutation fuzz over rendered documents: the reader never
    /// panics, and anything it accepts is a value that renders and parses
    /// back to itself.
    #[test]
    fn mutated_artifacts_never_panic_and_accepted_ones_roundtrip() {
        use agora_sim::SimRng;
        let seeds = [sample().render(), sample().render_compact()];
        let mut rng = SimRng::new(0x6a73_6f6e);
        let mut accepted = 0;
        for case in 0..2_000 {
            let mut bytes = rng.pick(&seeds).clone().into_bytes();
            for _ in 0..=rng.below(3) {
                let at = rng.below_usize(bytes.len());
                match rng.below(3) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.truncate(at.max(1)),
                    _ => {
                        let donor = rng.pick(&seeds).as_bytes();
                        let from = rng.below_usize(donor.len());
                        let len = rng.below_usize(donor.len() - from).min(64);
                        bytes.splice(at..at, donor[from..from + len].iter().copied());
                    }
                }
            }
            // A flipped bit can break a UTF-8 sequence; a file like that
            // never reaches the parser (`read_to_string` refuses it), so
            // feed the lossy text and keep the case live.
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(v) = Json::parse(&text) {
                accepted += 1;
                assert_eq!(Json::parse(&v.render()).as_ref(), Ok(&v), "case {case}");
                assert_eq!(
                    Json::parse(&v.render_compact()).as_ref(),
                    Ok(&v),
                    "case {case}"
                );
            }
        }
        // The mutations are small enough that some survive as documents,
        // so the round-trip half of the contract is exercised too.
        assert!((20..1_900).contains(&accepted), "{accepted} accepted");
    }
}
