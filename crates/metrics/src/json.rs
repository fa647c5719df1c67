//! A minimal, dependency-free JSON value model with a deterministic
//! writer and a strict parser.
//!
//! Exists because the parity manifests (`report.json`, `BENCH_agp.json`)
//! and the Perfetto exporter must be **byte-stable across runs and
//! platforms**: objects keep insertion order (no hash containers), floats
//! render via Rust's shortest-roundtrip formatting, and integral floats
//! render without a fractional part. The parser accepts exactly the JSON
//! this writer (and any standard encoder) produces.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Render compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_f64(*n)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Compact rendering as a fresh string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Pretty rendering as a fresh string: two-space indentation, one
    /// element or member per line, no trailing newline. Empty containers
    /// and scalars render as in the compact writer, so numbers format
    /// identically in both modes. The committed JSON artifacts (fault
    /// plans, parity manifests, explain and postmortem reports) use it.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(0, &mut s);
        s
    }

    fn write_pretty(&self, indent: usize, out: &mut String) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    new_line(out, i > 0, indent + 1);
                    item.write_pretty(indent + 1, out);
                }
                new_line(out, false, indent);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    new_line(out, i > 0, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(indent + 1, out);
                }
                new_line(out, false, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Deterministic `f64` rendering: integral values (within exact-integer
/// range) drop the fractional part, everything else uses Rust's
/// shortest-roundtrip formatting. Non-finite values (JSON cannot carry
/// them) render as `null`.
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// End a pretty line, after a comma when another element follows, and
/// indent the next one.
fn new_line(out: &mut String, comma: bool, indent: usize) {
    if comma {
        out.push(',');
    }
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our ASCII
                            // manifests; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar"))?;
                            s.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let src = r#"{"a":1,"b":-2.5,"c":[true,false,null],"d":{"e":"hi"}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string_compact(), src);
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("d").unwrap().get("e").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn object_order_is_preserved() {
        let src = r#"{"z":1,"a":2,"m":3}"#;
        let v = Json::parse(src).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(v.to_string_compact(), src);
    }

    #[test]
    fn floats_render_deterministically() {
        assert_eq!(format_f64(35.2), "35.2");
        assert_eq!(format_f64(35.0), "35");
        assert_eq!(format_f64(-0.5), "-0.5");
        assert_eq!(format_f64(0.0), "0");
        assert_eq!(format_f64(f64::NAN), "null");
        // Parse → write → parse is a fixed point.
        for s in ["35.2", "35", "-0.5", "1e-3", "123456789.25"] {
            let v = Json::parse(s).unwrap();
            let out = v.to_string_compact();
            assert_eq!(Json::parse(&out).unwrap(), v, "{s} → {out}");
            let again = Json::parse(&out).unwrap().to_string_compact();
            assert_eq!(out, again, "writer must be a fixed point for {s}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::Str("a\"b\\c\nd\ttab\u{1}".to_string());
        let s = v.to_string_compact();
        assert_eq!(s, r#""a\"b\\c\nd\ttab\u0001""#);
        assert_eq!(Json::parse(&s).unwrap(), v);
        // Unicode passes through raw.
        let u = Json::parse("\"µs → done\"").unwrap();
        assert_eq!(u.as_str(), Some("µs → done"));
    }

    #[test]
    fn whitespace_and_pretty_inputs_parse() {
        let src = "{\n  \"a\": [ 1 , 2 ],\n  \"b\": { }\n}\n";
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_string_compact(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn pretty_output_nests_and_keeps_empty_containers_inline() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            (
                "b".into(),
                Json::Arr(vec![Json::Str("x".into()), Json::Arr(vec![]), Json::Null]),
            ),
            (
                "c".into(),
                Json::Obj(vec![("d\"".into(), Json::Bool(true))]),
            ),
            ("e".into(), Json::Obj(vec![])),
        ]);
        let want = r#"{
  "a": 1,
  "b": [
    "x",
    [],
    null
  ],
  "c": {
    "d\"": true
  },
  "e": {}
}"#;
        assert_eq!(v.to_string_pretty(), want);
        assert_eq!(Json::parse(want).unwrap(), v);
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::Num(2.5).to_string_pretty(), "2.5");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }
}
