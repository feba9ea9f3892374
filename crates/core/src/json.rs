//! Minimal hand-rolled JSON — one shared writer and a small parser.
//!
//! The build environment vendors no external crates, so there is no serde;
//! every artifact that speaks JSON goes through this module:
//!
//! * [`JsonWriter`] — an explicit-state writer (objects, arrays, escaped
//!   strings, shortest-form numbers) used by
//!   [`SpadeReport::to_json`](crate::SpadeReport::to_json), the
//!   `spade-serve` response bodies and the pinned benchmark's reports.
//!   Output is **deterministic**: the caller controls key order, floats
//!   format by value alone (shortest round-trip via `{}`), and no map
//!   iteration order leaks in — identical inputs produce identical bytes,
//!   which is what lets the serve layer cache bodies and the determinism
//!   suite compare them.
//! * [`parse`] — a recursive-descent parser for the small request documents
//!   the serve layer accepts (depth-capped, full escape handling including
//!   surrogate pairs). It keeps object keys in document order.
//!
//! Neither half aims at the full ECMA-404 weirdness catalogue; both reject
//! anything malformed loudly ([`JsonParseError`] carries a byte offset).

use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Escapes `s` into `out` as the *contents* of a JSON string (no quotes).
pub(crate) fn escape_into(s: &str, out: &mut String) {
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
}

/// Returns `s` as a quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Frame {
    Object,
    Array,
}

/// A push-style compact JSON writer with automatic commas. Panics on misuse
/// (value without a key inside an object, unbalanced `end_*`) — the call
/// sites are all static, so misuse is a bug, not an input condition.
pub struct JsonWriter {
    buf: String,
    stack: Vec<Frame>,
    /// Items already written in each open container (parallel to `stack`).
    counts: Vec<usize>,
    /// A key was written and awaits its value.
    pending_key: bool,
}

impl JsonWriter {
    /// A compact writer (no whitespace) — wire bodies, cache keys.
    pub fn compact() -> Self {
        JsonWriter {
            buf: String::new(),
            stack: Vec::new(),
            counts: Vec::new(),
            pending_key: false,
        }
    }

    fn before_value(&mut self) {
        match self.stack.last() {
            None => assert!(self.buf.is_empty(), "one top-level value only"),
            Some(Frame::Array) => {
                let n = self.counts.last_mut().expect("counts parallel to stack");
                if *n > 0 {
                    self.buf.push(',');
                }
                *n += 1;
            }
            Some(Frame::Object) => {
                assert!(self.pending_key, "object values need a key first");
                self.pending_key = false;
            }
        }
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        assert_eq!(self.stack.last(), Some(&Frame::Object), "key outside an object");
        assert!(!self.pending_key, "two keys in a row");
        let n = self.counts.last_mut().expect("counts parallel to stack");
        if *n > 0 {
            self.buf.push(',');
        }
        *n += 1;
        self.buf.push('"');
        escape_into(k, &mut self.buf);
        self.buf.push_str("\":");
        self.pending_key = true;
        self
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('{');
        self.stack.push(Frame::Object);
        self.counts.push(0);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(Frame::Object), "unbalanced end_object");
        self.counts.pop().expect("counts parallel to stack");
        assert!(!self.pending_key, "key without a value");
        self.buf.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push('[');
        self.stack.push(Frame::Array);
        self.counts.push(0);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        assert_eq!(self.stack.pop(), Some(Frame::Array), "unbalanced end_array");
        self.counts.pop().expect("counts parallel to stack");
        self.buf.push(']');
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        self.buf.push('"');
        escape_into(s, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.before_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes a `usize` value.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.uint(v as u64)
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.before_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Splices a pre-serialized JSON value verbatim (no validation): the
    /// escape hatch for embedding documents rendered elsewhere (e.g. the
    /// telemetry ledger's snapshot `to_json` outputs) without re-parsing.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.before_value();
        self.buf.push_str(json);
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.before_value();
        self.buf.push_str("null");
        self
    }

    /// Writes a float in shortest round-trip form (`{}`); non-finite values
    /// become `null` (JSON has no NaN/Inf).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        self.before_value();
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Finishes and returns the document (must be balanced).
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unbalanced writer: {} frames open", self.stack.len());
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Parsed values
// ---------------------------------------------------------------------------

/// A parsed JSON document. Object keys keep document order (duplicates:
/// last one wins on [`Json::get`], as in every mainstream parser).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integer from float).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object (last duplicate wins); `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => {
                entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Containers may nest this deep before the parser refuses — bounds stack
/// use on adversarial bodies (the serve layer feeds this untrusted bytes).
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after the document"));
    }
    Ok(value)
}

fn err(offset: usize, message: &'static str) -> JsonParseError {
    JsonParseError { offset, message }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    bytes: &[u8],
    pos: &mut usize,
    b: u8,
    message: &'static str,
) -> Result<(), JsonParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, message))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    if depth > MAX_DEPTH {
        return Err(err(*pos, "nesting too deep"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(err(*pos, "object keys must be strings"));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':' after object key")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(entries));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    value: Json,
) -> Result<Json, JsonParseError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    // A strict syntax pre-check; `f64::parse` alone accepts "inf"/"nan"
    // spellings JSON forbids, and we already consumed only number chars.
    let ok = !text.is_empty()
        && text != "-"
        && !text.ends_with(['.', 'e', 'E', '+', '-'])
        && text.parse::<f64>().map(f64::is_finite).unwrap_or(false);
    if !ok {
        return Err(err(start, "invalid number"));
    }
    Ok(Json::Number(text.parse().expect("checked above")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    let mut run_start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                out.push_str(str_run(bytes, run_start, *pos)?);
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                out.push_str(str_run(bytes, run_start, *pos)?);
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        *pos -= 1; // rejoin the shared +1 below
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require `\uXXXX` low surrogate.
                            *pos += 1;
                            if bytes.get(*pos) == Some(&b'\\')
                                && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                *pos -= 1;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                *pos -= 1;
                                '\u{FFFD}'
                            }
                        } else {
                            char::from_u32(hi).unwrap_or('\u{FFFD}')
                        };
                        out.push(c);
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
                run_start = *pos;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => *pos += 1,
        }
    }
}

fn str_run(bytes: &[u8], start: usize, end: usize) -> Result<&str, JsonParseError> {
    std::str::from_utf8(&bytes[start..end]).map_err(|_| err(start, "invalid UTF-8 in string"))
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonParseError> {
    let slice = bytes.get(*pos..*pos + 4).ok_or_else(|| err(*pos, "truncated \\u escape"))?;
    let text = std::str::from_utf8(slice).map_err(|_| err(*pos, "invalid \\u escape"))?;
    let v = u32::from_str_radix(text, 16).map_err(|_| err(*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_compact_object() {
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("a").uint(1);
        w.key("b").string("x\"y");
        w.key("c").begin_array().f64(1.5).bool(true).null().end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":"x\"y","c":[1.5,true,null]}"#);
    }

    #[test]
    fn writer_nonfinite_floats_become_null() {
        let mut w = JsonWriter::compact();
        w.begin_array().f64(0.25).f64(f64::NAN).f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[0.25,null,null]");
    }

    #[test]
    fn parse_round_trips() {
        let doc =
            r#" {"k": 3, "s": "a\u00e9\n", "arr": [1, -2.5e1, true, false, null], "o": {}} "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aé\n"));
        let arr = v.get("arr").and_then(Json::as_array).unwrap();
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(v.get("o"), Some(&Json::Object(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_surrogate_pairs_and_lone_surrogates() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::String("😀".into()));
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), Json::String("\u{FFFD}x".into()));
        assert_eq!(parse(r#""\ud83d\u0041""#).unwrap(), Json::String("\u{FFFD}".into()));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "tru",
            "1.2.3",
            "nan",
            "-",
            "\"unterminated",
            "\u{1}",
            "[1] trailing",
            "{\"a\":1,}",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth cap");
    }

    #[test]
    fn parse_accepts_duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\u{2}"), r#""a\"b\\c\u0002""#);
    }
}
