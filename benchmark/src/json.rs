//! Strict JSON, both ways, without a dependency.
//!
//! The parser checks the program's JSONL and summary lines (so it must
//! not share the emitter's assumptions: `inf`, `NaN`, trailing commas
//! and trailing garbage all fail) and reads result files for `compare`.
//! The emitter writes result files and refuses non-finite numbers.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialise on one line. Fails on a non-finite number, which JSON
    /// cannot represent.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.render_into(&mut out)?;
        Ok(out)
    }

    fn render_into(&self, out: &mut String) -> Result<(), String> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    return Err(format!("{n} is not representable in JSON"));
                }
                // Rust's shortest round-trip form: every measured digit.
                write!(out, "{n}").expect("writing to a String cannot fail");
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out)?;
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Parse one JSON document; anything after it but whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.at));
    }
    Ok(value)
}

/// Nesting deeper than this is rejected, so a hostile file cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.at)),
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.bytes.get(self.at), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        let leading_zero = self.bytes.get(self.at) == Some(&b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(format!("bad number at byte {start}"));
        }
        if self.bytes.get(self.at) == Some(&b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.bytes.get(self.at), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.bytes.get(self.at), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(Value::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            // Surrogate halves are replaced, not paired:
                            // nothing this harness reads contains them.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at - 1)),
                    }
                }
                0..=0x1f => return Err(format!("raw control character at byte {}", self.at - 1)),
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_documents_parse_back() {
        let doc = obj([
            ("name", string("a \"quoted\"\tname\n\u{1}")),
            ("value", Value::Num(1.2034)),
            ("tiny", Value::Num(1.5e-9)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("samples", nums(&[0.1, 2.0, -3.25])),
            ("empty", obj::<String>([])),
        ]);
        let text = doc.render().expect("finite numbers only");
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text), Ok(doc));
    }

    #[test]
    fn non_finite_numbers_are_refused() {
        assert!(Value::Num(f64::NAN).render().is_err());
        assert!(nums(&[1.0, f64::INFINITY]).render().is_err());
    }

    #[test]
    fn parser_is_strict() {
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "[1,]",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "inf",
            "NaN",
            "{\"a\":inf}",
            "nul",
            "\"unterminated",
            "\"bad\\x\"",
            "1 2",
            "{} x",
            "\"raw\ttab\"",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        for good in [
            "0",
            "-0.5e+3",
            " [ ] ",
            "{\"a\":{\"b\":[1,2,{\"c\":null}]}}",
            "\"\\u00e9\\n\"",
        ] {
            assert!(parse(good).is_ok(), "rejected {good:?}");
        }
        assert_eq!(
            parse("{\"k\":[1,true,\"s\"]}")
                .unwrap()
                .get("k")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).is_err());
    }
}
