//! Minimal, dependency-free stand-in for `serde_json`.
//!
//! Renders and parses JSON text over the [`serde`] shim's [`Value`] data
//! model. Supports exactly what the workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], and a [`Value`] type with indexing.
//!
//! The parser recurses once per nested array or object, so [`from_str`]
//! refuses input nested deeper than 128 levels with an [`Error`] instead of
//! overflowing the stack.

pub use serde::{Error, Value};

/// The deepest nesting of arrays and objects [`from_str`] accepts: upstream
/// `serde_json`'s default. The deepest JSON this workspace writes is 6.
const RECURSION_LIMIT: usize = 128;

use serde::{Deserialize, Serialize};

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserializes a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                let text = f.to_string();
                out.push_str(&text);
                // Keep floats recognizable as floats on re-parse.
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn eat_byte(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Parses one value inside `depth` enclosing arrays and objects.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::custom("unexpected end of input")),
            Some(b'[' | b'{') if depth == RECURSION_LIMIT => Err(Error::custom(format!(
                "recursion limit exceeded at offset {}: nested deeper than {RECURSION_LIMIT}",
                self.pos
            ))),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::custom("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.eat_byte(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        _ => return Err(Error::custom("expected `,` or `}` in object")),
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::custom("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we just consumed.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && !self.bytes[start..end].is_ascii() {
                        // Multi-byte sequence: extend until it decodes.
                        if std::str::from_utf8(&self.bytes[start..end]).is_ok() {
                            break;
                        }
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid number at offset {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = vec![1u64, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let s = "a \"quoted\"\nline".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);

        let f = -0.125f64;
        let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn parses_into_value() {
        let v: Value = from_str(r#"{"a": [1, -2, 3.5], "b": null, "c": "x"}"#).unwrap();
        assert_eq!(v["a"][0], 1);
        assert_eq!(v["a"][1], -2);
        assert_eq!(v["a"][2], 3.5);
        assert!(v["b"].is_null());
        assert_eq!(v["c"], "x");
    }

    #[test]
    fn pretty_output_reparses() {
        let v: Value = from_str(r#"{"rows":[{"n":1},{"n":2}]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn whole_floats_keep_their_type() {
        let json = to_string(&2.0f64).unwrap();
        assert_eq!(json, "2.0");
        let v: Value = from_str(&json).unwrap();
        assert_eq!(v, 2.0);
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nested = |depth: usize| format!("{}0{}", open.repeat(depth), close.repeat(depth));
            assert!(from_str::<Value>(&nested(RECURSION_LIMIT)).is_ok());
            let err = from_str::<Value>(&nested(RECURSION_LIMIT + 1)).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
            // Deep enough to overflow the stack without the cap, and cut
            // short: the cap answers before the missing close is seen.
            assert!(from_str::<Value>(&open.repeat(100_000)).is_err());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
