//! Minimal JSON reader/writer for specification files and the
//! `tempart-server` wire protocol.
//!
//! The build environment pins the workspace to vendored dependency shims,
//! so the CLI parses its (small, fixed-shape) specification format with a
//! hand-rolled recursive-descent parser instead of serde. Covers the full
//! JSON grammar except that numbers are held as `f64` — exact for every
//! magnitude a spec file can contain.
//!
//! The parser is hardened for adversarial input (it also decodes frames
//! arriving over the server's TCP socket): nesting is capped at
//! [`MAX_DEPTH`] so `[[[[…` cannot overflow the stack, inputs larger than
//! [`MAX_INPUT_BYTES`] are rejected up front, and every malformed byte
//! sequence returns a truthful `Err` — no input panics.

use std::fmt::Write as _;

/// Maximum nesting depth (arrays + objects combined) the parser accepts.
/// Recursion is one stack frame per level, so this bounds stack use on
/// adversarial `[[[[…` input to a few hundred KiB.
pub const MAX_DEPTH: usize = 128;

/// Maximum input size the parser accepts (16 MiB) — far above any real
/// specification or protocol frame, far below memory exhaustion.
pub const MAX_INPUT_BYTES: usize = 16 * 1024 * 1024;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source order. Duplicate keys keep the last occurrence
    /// when accessed through [`Value::get`].
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object (last occurrence wins, as in serde).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }
}

/// Parses one JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    if text.len() > MAX_INPUT_BYTES {
        return Err(format!(
            "input too large: {} bytes (limit {MAX_INPUT_BYTES})",
            text.len()
        ));
    }
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Guards one level of object/array recursion; the matching decrement
    /// happens in the container parsers' exits.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.descend()?;
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.descend()?;
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
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
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Formats a float the way serde_json does: integral values get a `.0`
/// suffix so they survive a round-trip as the same token class.
pub fn write_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `v` to `out` as compact JSON. Non-finite numbers serialize as
/// `null` (JSON has no NaN/∞ tokens), matching the CLI's `--json` output
/// convention.
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => write_f64(out, *n),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Serializes a value to a compact JSON string (see [`write_value`]).
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{ "a": [1, 2.5, -3e2], "b": { "c": true, "d": null }, "e": "x\n\"" }"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\n\""));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{ not json").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
    }

    #[test]
    fn integer_checks() {
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("164000").unwrap().as_u64(), Some(164_000));
    }

    #[test]
    fn escaping_round_trips() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // One past the cap fails truthfully…
        let deep = "[".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // …mixed containers too…
        let mixed = "{\"k\":[".repeat(MAX_DEPTH);
        assert!(parse(&mixed).unwrap_err().contains("nesting too deep"));
        // …and exactly at the cap still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn oversized_input_is_rejected_up_front() {
        let big = " ".repeat(MAX_INPUT_BYTES + 1);
        let err = parse(&big).unwrap_err();
        assert!(err.contains("input too large"), "{err}");
    }

    #[test]
    fn value_writer_round_trips() {
        let v = Value::Obj(vec![
            ("s".into(), Value::Str("x\n\"😀".into())),
            (
                "a".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5), Value::Null]),
            ),
            ("b".into(), Value::Bool(true)),
            ("nan".into(), Value::Num(f64::NAN)),
        ]);
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        assert_eq!(back.get("s").unwrap().as_str(), Some("x\n\"😀"));
        assert_eq!(
            back.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(back.get("b"), Some(&Value::Bool(true)));
        assert_eq!(back.get("nan"), Some(&Value::Null), "NaN degrades to null");
    }
}
