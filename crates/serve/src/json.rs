//! A minimal, dependency-free JSON value type with an encoder and a
//! recursive-descent parser.
//!
//! The wire protocol of [`preexecd`](crate::server) is newline-delimited
//! JSON, and the build environment has no registry access, so the usual
//! serde stack is unavailable; this module implements exactly the subset
//! the service needs. Design points:
//!
//! - numbers are [`f64`] (like JavaScript): integral values up to 2^53
//!   round-trip exactly, which covers every counter the service reports
//!   (cycle counts are watchdog-bounded well below that);
//! - non-finite numbers encode as `null` (JSON has no NaN/infinity);
//! - object keys keep insertion order (a `Vec` of pairs, not a map), so
//!   encoding is deterministic;
//! - parsing is hardened against untrusted input: a nesting-depth limit
//!   bounds recursion and every error carries a byte offset.

use std::error::Error;
use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Protocol messages
/// are at most a few levels deep; the limit only exists so hostile input
/// cannot overflow the parser's stack.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Non-finite values cannot be represented on the wire
    /// and encode as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl Error for JsonError {}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from a `u64` counter. Values above 2^53 lose
    /// precision (none of the service's counters can reach that).
    pub fn num_u64(x: u64) -> Json {
        Json::Num(x as f64)
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if this is a
    /// non-negative integral number that fits exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Encodes the value as compact JSON (no whitespace, one line).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's f64 Display is the shortest string that
                    // parses back to the same value, and never uses
                    // exponent notation — always valid JSON.
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_str(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem:
    /// malformed literals, unterminated or badly-escaped strings, missing
    /// separators, trailing garbage, or nesting deeper than an internal
    /// limit.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped, non-quote) bytes at once
            // so multi-byte UTF-8 passes through untouched.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.err("expected low surrogate"))?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            c => return Err(self.err(format!("bad escape `\\{}`", c as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let x: f64 = text.parse().map_err(|_| JsonError {
            at: start,
            message: format!("bad number `{text}`"),
        })?;
        if !x.is_finite() {
            return Err(JsonError {
                at: start,
                message: format!("number `{text}` overflows"),
            });
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.encode();
        let back = Json::parse(&text).expect("round-trip parse");
        assert_eq!(&back, v, "through `{text}`");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(9_007_199_254_740_992.0),
            Json::Num(1e300),
            Json::str(""),
            Json::str("plain"),
            Json::str("esc \" \\ \n \r \t \u{0001} ünïcödé 🚀"),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn structures_round_trip() {
        let v = Json::obj(vec![
            ("cmd", Json::str("submit")),
            (
                "nested",
                Json::Arr(vec![Json::Null, Json::obj(vec![("k", Json::Num(3.25))])]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        round_trip(&v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v =
            Json::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\ud83d\\ude80\" ] } ").expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[2].as_str()),
            Some("A🚀")
        );
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for bad in [
            "", "{", "[1,", "\"abc", "{\"a\":}", "nul", "1 2", "\"\\q\"", "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
        let e = Json::parse("[true, xyz]").unwrap_err();
        assert_eq!(e.at, 7);
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = Json::obj(vec![("n", Json::Num(4.0)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(v.get("missing"), None);
    }
}
