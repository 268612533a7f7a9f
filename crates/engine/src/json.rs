//! Minimal dependency-free JSON writer + strict parser.
//!
//! Shared by the benchmark result files (`BENCH_*.json`), the stable
//! [`AppRun`](../doppio_sparksim/struct.AppRun.html) report schema and the
//! `doppio-serve` wire protocol. The writer keeps insertion order and
//! escapes strings; the parser is deliberately strict (no trailing commas,
//! no comments, finite numbers only) so a malformed document fails loudly
//! instead of being half-read by downstream tooling.
//!
//! Floats are rendered with Rust's shortest-round-trip formatting and
//! parsed back with `str::parse::<f64>`, so a value survives
//! serialize → deserialize **bit-identically** — the property the serving
//! layer's determinism contract rests on.

use std::fmt::Write as _;

/// A JSON value as produced by [`parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array of values.
    Arr(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True when this is an object containing `key`.
    pub fn has_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// An insertion-ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders an f64 so that parsing the text back yields the same bits.
/// Non-finite values are not valid JSON, so they panic at the write site.
pub fn render_f64(key: &str, val: f64) -> String {
    assert!(
        val.is_finite(),
        "JSON field {key:?} must be finite, got {val}"
    );
    let mut s = format!("{val}");
    if !s.contains('.') && !s.contains('e') {
        s.push_str(".0");
    }
    s
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    fn put_raw(&mut self, key: &str, raw: String) {
        self.fields.push((key.to_string(), raw));
    }

    /// Adds a string field.
    pub fn put_str(&mut self, key: &str, val: &str) {
        self.put_raw(key, format!("\"{}\"", escape(val)));
    }

    /// Adds a boolean field.
    pub fn put_bool(&mut self, key: &str, val: bool) {
        self.put_raw(key, val.to_string());
    }

    /// Adds an unsigned integer field.
    pub fn put_u64(&mut self, key: &str, val: u64) {
        self.put_raw(key, val.to_string());
    }

    /// Adds a float field. Non-finite values are not valid JSON and
    /// would poison the file, so they panic here, at the write site.
    pub fn put_f64(&mut self, key: &str, val: f64) {
        let s = render_f64(key, val);
        self.put_raw(key, s);
    }

    /// Adds a nested object field.
    pub fn put_obj(&mut self, key: &str, val: Object) {
        self.put_raw(key, val.render_inline(1));
    }

    /// Adds a field whose value is already-rendered JSON. The caller is
    /// trusted to pass valid JSON — the serve layer uses this to embed a
    /// cached, pre-rendered result payload without re-serializing it.
    pub fn put_json(&mut self, key: &str, raw_json: String) {
        self.put_raw(key, raw_json);
    }

    /// Adds an array-of-objects field.
    pub fn put_obj_arr(&mut self, key: &str, vals: Vec<Object>) {
        if vals.is_empty() {
            self.put_raw(key, "[]".to_string());
            return;
        }
        let body: Vec<String> = vals.iter().map(|v| v.render_inline(2)).collect();
        self.put_raw(key, format!("[\n    {}\n  ]", body.join(",\n    ")));
    }

    /// Adds an array-of-strings field.
    pub fn put_str_arr(&mut self, key: &str, vals: &[impl AsRef<str>]) {
        let body: Vec<String> = vals
            .iter()
            .map(|v| format!("\"{}\"", escape(v.as_ref())))
            .collect();
        self.put_raw(key, format!("[{}]", body.join(", ")));
    }

    fn render_inline(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k)))
            .collect();
        if body.is_empty() {
            "{}".to_string()
        } else {
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
    }

    /// Renders the object as a pretty-printed JSON document.
    pub fn render(&self) -> String {
        let mut s = self.render_inline(0);
        s.push('\n');
        s
    }

    /// Renders the object as a single line (no internal newlines), the
    /// framing the newline-delimited serve protocol requires.
    pub fn render_line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let flat: String = v
                    .split('\n')
                    .map(str::trim_start)
                    .collect::<Vec<_>>()
                    .join(" ");
                format!("\"{}\": {flat}", escape(k))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, val: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Value::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    ));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' in array, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    ));
                }
            }
        }
    }
}

/// Parses a JSON document, rejecting trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_benchmark_document() {
        let mut nested = Object::new();
        nested.put_str("label", "seed \"x\"\n");
        nested.put_f64("runs_per_sec", 0.5);
        let mut doc = Object::new();
        doc.put_str("schema", "doppio-sim-throughput/v1");
        doc.put_bool("smoke", false);
        doc.put_u64("runs", 3);
        doc.put_f64("events_per_sec", 1.25e6);
        doc.put_obj("baseline", nested);
        let text = doc.render();
        let v = parse(&text).expect("round-trip parses");
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some("doppio-sim-throughput/v1")
        );
        assert_eq!(v.get("runs").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("events_per_sec").unwrap().as_f64(), Some(1.25e6));
        assert_eq!(
            v.get("baseline").unwrap().get("label").unwrap().as_str(),
            Some("seed \"x\"\n")
        );
        assert!(v.has_key("smoke"));
        assert!(!v.has_key("missing"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} x",
            "{\"a\": inf}",
            "[1, 2",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn integers_render_without_decimal_and_floats_with() {
        let mut doc = Object::new();
        doc.put_u64("n", 7);
        doc.put_f64("x", 2.0);
        let text = doc.render();
        assert!(text.contains("\"n\": 7"), "{text}");
        assert!(text.contains("\"x\": 2.0"), "{text}");
    }

    #[test]
    fn f64_round_trip_is_bit_identical() {
        // Shortest-round-trip rendering must reproduce the exact bits,
        // including awkward values — the serving determinism contract.
        for x in [
            0.1,
            1.0 / 3.0,
            6.02214076e23,
            f64::MIN_POSITIVE,
            -0.0,
            123_456.789_012_345_67,
            1e-308,
        ] {
            let mut doc = Object::new();
            doc.put_f64("x", x);
            let v = parse(&doc.render()).unwrap();
            let back = v.get("x").unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} survives bit-exactly");
        }
    }

    #[test]
    fn arrays_and_line_rendering() {
        let mut inner = Object::new();
        inner.put_str("name", "a");
        inner.put_f64("secs", 1.5);
        let mut inner2 = Object::new();
        inner2.put_str("name", "b");
        inner2.put_f64("secs", 2.5);
        let mut doc = Object::new();
        doc.put_obj_arr("stages", vec![inner, inner2]);
        doc.put_obj_arr("empty", vec![]);
        doc.put_str_arr("tags", &["x", "y"]);
        let pretty = doc.render();
        let line = doc.render_line();
        assert!(!line.contains('\n'), "line rendering is newline-free");
        let vp = parse(&pretty).expect("pretty parses");
        let vl = parse(&line).expect("line parses");
        assert_eq!(vp, vl, "pretty and line renderings parse identically");
        let stages = vp.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].get("secs").unwrap().as_f64(), Some(2.5));
        assert_eq!(vp.get("empty").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(vp.get("tags").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn typed_accessors() {
        let v = parse("{\"b\": true, \"n\": 7, \"f\": 1.5, \"neg\": -1}").unwrap();
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("b").unwrap().as_f64(), None);
    }
}
