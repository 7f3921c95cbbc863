//! A minimal, dependency-free JSON value type with a parser and a
//! deterministic serializer.
//!
//! The container this workspace builds in has no access to crates.io, so the
//! bench artifacts (`BENCH_*.json`) and the line-delimited service protocol
//! of [`crate::server`] are produced and consumed by this module instead of
//! `serde_json` (it moved here from `bidecomp-bench`, which re-exports it
//! unchanged, so the server sits below the bench harness in the dependency
//! graph). The subset implemented is full RFC 8259 minus
//! niceties nobody writing bench reports needs: numbers are `f64`
//! (integers round-trip exactly up to 2^53), objects preserve insertion
//! order so serialization is deterministic, and parse errors carry a byte
//! offset. Arrays and objects nest at most 128 levels deep: the
//! parser recurses once per level, and it runs on the server's connection
//! threads, so an unbounded `[[[…` line would overflow their stacks.

use std::fmt;

/// Deepest array/object nesting [`Value::parse`] accepts. Every document
/// this workspace writes (requests, replies, metrics snapshots, `BENCH_*`
/// artifacts) nests at most 5 levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// also when arrays and objects nest deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut parser = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece:
            // both are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(self.bytes.len(), |len| self.pos + len);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>().map(Value::Num).map_err(|_| self.error("malformed number"))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Write each run of bytes that need no escape in one piece: every byte
    // that does is ASCII, so the runs end on character boundaries.
    let mut start = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        match escape {
            Some(text) => f.write_str(text)?,
            None => write!(f, "\\u{byte:04x}")?,
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_str("\"")
}

/// Pretty-prints a value with two-space indentation (the format of the
/// committed `BENCH_baseline.json`, so diffs stay reviewable).
pub fn pretty(value: &Value) -> String {
    let mut out = String::new();
    pretty_into(value, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_into(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                pretty_into(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, v)) in entries.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                out.push_str(&Value::Str(key.clone()).to_string());
                out.push_str(": ");
                pretty_into(v, indent + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// Convenience: builds `Value::Num` from any integer that fits an `f64`
/// exactly.
pub fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

/// Convenience: builds `Value::Str`.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let doc = Value::Object(vec![
            ("schema".into(), s("bidecomp-sweep-v1")),
            ("jobs".into(), num(1234)),
            ("speedup".into(), Value::Num(3.75)),
            (
                "operators".into(),
                Value::Array(vec![Value::Object(vec![
                    ("op".into(), s("AND")),
                    ("verified".into(), num(42)),
                ])]),
            ),
            ("empty".into(), Value::Array(vec![])),
            ("none".into(), Value::Null),
            ("flag".into(), Value::Bool(true)),
        ]);
        let compact = doc.to_string();
        assert_eq!(Value::parse(&compact).unwrap(), doc);
        let pretty_text = pretty(&doc);
        assert_eq!(Value::parse(&pretty_text).unwrap(), doc);
    }

    #[test]
    fn accessors() {
        let doc = Value::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": -1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(doc.get("c").and_then(Value::as_array).map(<[Value]>::len), Some(2));
        assert_eq!(doc.get("d").and_then(Value::as_f64), Some(-1.5));
        assert_eq!(doc.get("d").and_then(Value::as_u64), None, "negative is not u64");
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = Value::Str("line\nbreak \"quoted\" back\\slash \u{0001} é".into());
        let text = original.to_string();
        assert_eq!(Value::parse(&text).unwrap(), original);
        assert_eq!(Value::parse(r#""é 😀""#).unwrap(), Value::Str("é 😀".into()));

        // Multi-byte characters right next to escapes, on both sides.
        let tight = Value::Str("é\"😀\\ü\nß\u{1f}€".into());
        let text = tight.to_string();
        assert_eq!(text, "\"é\\\"😀\\\\ü\\nß\\u001f€\"");
        assert_eq!(Value::parse(&text).unwrap(), tight);
        assert_eq!(Value::parse(r#""é\"😀\\ü""#).unwrap(), Value::Str("é\"😀\\ü".into()));

        // A surrogate pair between plain runs, and escaped ASCII.
        let pair = Value::parse(r#""a\ud83d\ude00b\u00e9\u0041""#).unwrap();
        assert_eq!(pair, Value::Str("a😀bé\u{41}".into()));

        // A request-sized hex table: one long run each way.
        let hex: String = (0..2048).map(|i| char::from(b"0123456789abcdef"[i * 7 % 16])).collect();
        let long = Value::Str(hex.clone());
        assert_eq!(long.to_string(), format!("\"{hex}\""));
        assert_eq!(Value::parse(&long.to_string()).unwrap(), long);
        assert!(Value::parse(&format!("\"{hex}")).is_err(), "unterminated long run");
    }

    #[test]
    fn numbers_parse_in_all_forms() {
        for (text, expected) in
            [("0", 0.0), ("-7", -7.0), ("3.25", 3.25), ("1e3", 1000.0), ("2.5E-1", 0.25)]
        {
            assert_eq!(Value::parse(text).unwrap(), Value::Num(expected), "{text}");
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "{\"a\":}"] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
        let err = Value::parse("[1, \u{7}]").unwrap_err();
        assert!(err.offset > 0 && err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Value::parse(&nested(MAX_DEPTH, open, close)).is_ok());
            let err = Value::parse(&nested(MAX_DEPTH + 1, open, close)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "offset of the first excess opener");
        }
        // Mixed nesting counts both kinds against one cap.
        let mixed = format!("{}0{}", "[{\"a\":".repeat(65), "}]".repeat(65));
        assert!(Value::parse(&mixed).is_err());
    }
}
