//! Minimal JSON reader/writer.
//!
//! The workspace builds fully offline, so instead of an external JSON
//! dependency this module implements the small subset the trace formats
//! need: a complete value model, a strict recursive-descent parser, and a
//! writer whose `f64` formatting (Rust's shortest-roundtrip `Display`)
//! survives a write→read cycle bit-for-bit for finite values. The same
//! parser also reads trace records straight into [`MonitorRecord`], and
//! the same writer renders them, without building a tree (the JSON-lines
//! reader and writer in [`crate::io`]).
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::record::MonitorRecord;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed JSON value. Object keys keep their textual order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object; keys keep their textual order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input text.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.end()?;
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact (single-line) rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Indented rendering for human consumption.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(xs) if !xs.is_empty() => {
                // arrays of scalars stay on one line; nested structures wrap
                let scalar = xs
                    .iter()
                    .all(|x| !matches!(x, Json::Obj(f) if !f.is_empty()));
                if scalar {
                    self.write_compact(out);
                    return;
                }
                out.push_str("[\n");
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    x.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// JSON has no Infinity/NaN literals; non-finite values become `null`.
fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Appends `rec` as one compact JSON object, rendered as the equivalent
/// [`Json::Obj`] would be. The caller checks that `time` and `value` are
/// finite: a non-finite number renders as `null`, which
/// [`parse_record`] rejects.
pub(crate) fn write_record(out: &mut String, rec: &MonitorRecord) {
    out.push_str("{\"time\":");
    write_f64(out, rec.time);
    out.push_str(",\"node\":");
    write_escaped(out, &rec.node);
    out.push_str(",\"metric\":");
    write_escaped(out, &rec.metric);
    out.push_str(",\"value\":");
    write_f64(out, rec.value);
    out.push('}');
}

/// Parses one JSON-lines trace record without building a [`Json`] tree.
///
/// Same grammar as [`Json::parse`], and each field is read as
/// [`Json::get`] would read it from the tree: the *first*
/// `time`/`node`/`metric`/`value` member counts, later duplicates and any
/// other member are validated and dropped. Field errors (missing,
/// mistyped, or a `time` that [`MonitorRecord::new`] would reject) are
/// reported only for a syntactically complete line, in the order `time`,
/// `node`, `metric`, `value`. Offsets are bytes into `line`. `node` and
/// `metric` are read borrowed from `line` where they hold no escape and
/// handed to `intern`, which turns them into the record's names.
pub(crate) fn parse_record(
    line: &str,
    mut intern: impl FnMut(Cow<'_, str>) -> Arc<str>,
) -> Result<MonitorRecord, JsonError> {
    let mut p = Parser::new(line);
    p.skip_ws();
    let open = p.pos;
    let (mut time, mut node, mut metric, mut value) = (
        Member::Absent,
        Member::Absent,
        Member::Absent,
        Member::Absent,
    );
    let quote = |b| b == b'"';
    p.members(|p, key| {
        match &*key {
            "time" if time.is_absent() => time = p.member_value(starts_number, Parser::number)?,
            "node" if node.is_absent() => node = p.member_value(quote, Parser::str_token)?,
            "metric" if metric.is_absent() => metric = p.member_value(quote, Parser::str_token)?,
            "value" if value.is_absent() => {
                value = p.member_value(starts_number, Parser::number)?
            }
            _ => {
                p.value()?;
            }
        }
        Ok(())
    })?;
    p.end()?;
    let (time, time_at) = time.take("time", "numeric", open)?;
    let (node, _) = node.take("node", "string", open)?;
    let (metric, _) = metric.take("metric", "string", open)?;
    let (value, _) = value.take("value", "numeric", open)?;
    if !(time.is_finite() && time >= 0.0) {
        return Err(JsonError {
            offset: time_at,
            message: "field 'time' must be finite and non-negative".to_string(),
        });
    }
    Ok(MonitorRecord::new(
        time,
        intern(node),
        intern(metric),
        value,
    ))
}

/// The first occurrence of one record member.
enum Member<T> {
    Absent,
    /// The value and the offset it starts at.
    Found(T, usize),
    /// A value of the wrong type starts at this offset.
    Mistyped(usize),
}

impl<T> Member<T> {
    fn is_absent(&self) -> bool {
        matches!(self, Member::Absent)
    }

    /// The value and its offset; `open` is where the record's object starts.
    fn take(self, key: &str, kind: &str, open: usize) -> Result<(T, usize), JsonError> {
        match self {
            Member::Found(v, at) => Ok((v, at)),
            Member::Mistyped(offset) => Err(JsonError {
                offset,
                message: format!("non-{kind} field '{key}'"),
            }),
            Member::Absent => Err(JsonError {
                offset: open,
                message: format!("missing field '{key}'"),
            }),
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a bound a long enough run of `[` overflows the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one more array or object; the caller leaves it with
    /// `depth -= 1` once its closing bracket is consumed.
    fn descend(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!(
                "arrays and objects nested deeper than {MAX_DEPTH}"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// Skips trailing whitespace and rejects anything after it.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// `text[start..end]`; callers cut only next to ASCII bytes, so this
    /// fails only on a parser bug.
    fn slice(&self, start: usize, end: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..end)
            .ok_or_else(|| self.err("invalid UTF-8"))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if starts_number(b) => self.number().map(Json::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A record member value: read by `read` when its first byte passes
    /// `starts`, otherwise validated and reported as mistyped.
    fn member_value<T>(
        &mut self,
        starts: impl Fn(u8) -> bool,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Member<T>, JsonError> {
        let at = self.pos;
        if self.peek().is_some_and(starts) {
            Ok(Member::Found(read(self)?, at))
        } else {
            self.value()?;
            Ok(Member::Mistyped(at))
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.members(|p, key| {
            let val = p.value()?;
            fields.push((key.into_owned(), val));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// Walks an object, handing each key to `member` with the parser
    /// positioned at the member's value, which `member` must consume.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.descend()?;
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.str_token()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.str_token().map(Cow::into_owned)
    }

    /// A string token, borrowed from the input unless it holds an escape.
    fn str_token(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let (run, delim) = self.plain_run()?;
        if delim == b'"' {
            return Ok(Cow::Borrowed(run));
        }
        let mut s = run.to_string();
        loop {
            self.escape(&mut s)?;
            let (run, delim) = self.plain_run()?;
            s.push_str(run);
            if delim == b'"' {
                return Ok(Cow::Owned(s));
            }
        }
    }

    /// Consumes string text up to and including the next `"` or `\`;
    /// returns the text before it (valid UTF-8: the input is a `&str` and
    /// both ends sit next to ASCII) and the delimiter.
    fn plain_run(&mut self) -> Result<(&'a str, u8), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
            self.pos += 1;
        }
        let Some(delim) = self.peek() else {
            return Err(self.err("unterminated string"));
        };
        let run = self.slice(start, self.pos)?;
        self.pos += 1;
        Ok((run, delim))
    }

    /// Decodes the escape after a backslash onto `s`.
    fn escape(&mut self, s: &mut String) -> Result<(), JsonError> {
        let Some(e) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match e {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'b' => s.push('\u{8}'),
            b'f' => s.push('\u{c}'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // surrogate pair
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => s.push(c),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("invalid escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.slice(start, self.pos)?
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }
}

fn starts_number(b: u8) -> bool {
    b == b'-' || b.is_ascii_digit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Num(-2500.0));
        assert_eq!(
            Json::parse(r#""hi\nthere""#).unwrap(),
            Json::Str("hi\nthere".into())
        );
    }

    #[test]
    fn containers_roundtrip() {
        let src = r#"{"a":[1,2,3],"b":{"c":"d","e":null},"f":true}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            12345.678901234567,
        ] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {rendered}");
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        let v = Json::Str("naïve — ünïcode".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        let err = Json::parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "arrays and objects nested deeper than 128");
    }

    #[test]
    fn field_access() {
        let v = Json::parse(r#"{"time":5.0,"node":"a"}"#).unwrap();
        assert_eq!(v.get("time").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("node").and_then(Json::as_str), Some("a"));
        assert_eq!(v.get("missing"), None);
    }
}
