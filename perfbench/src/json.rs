//! A minimal JSON reader for reply lines.
//!
//! The benchmark needs three things from a reply: the top-level envelope
//! fields, the *verbatim* bytes of the `result` payload (so cached and
//! re-evaluated payloads can be compared byte for byte), and a few values
//! inside payloads for sanity checks. [`members`] validates a whole line
//! and returns each top-level member's raw text without building a tree;
//! [`parse`] builds a tree when values are needed.

use std::fmt;

/// A parsed JSON value.
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
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a path of object keys.
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a line is not JSON, with the byte offset where reading stopped.
#[derive(Debug)]
pub struct Error {
    at: usize,
    what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

/// Parses one complete JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.end()?;
    Ok(v)
}

/// Validates a JSON object and returns its top-level members as
/// `(key, raw value text)` pairs, in document order.
pub fn members(text: &str) -> Result<Vec<(String, &str)>, Error> {
    let mut r = Reader::new(text);
    let mut out = Vec::new();
    r.expect(b'{')?;
    if !r.eat(b'}') {
        loop {
            let key = r.string()?;
            r.expect(b':')?;
            r.ws();
            let start = r.i;
            r.skip()?;
            out.push((key, &text[start..r.i]));
            if r.eat(b'}') {
                break;
            }
            r.expect(b',')?;
        }
    }
    r.end()?;
    Ok(out)
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, what: &'static str) -> Error {
        Error { at: self.i, what }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn end(&mut self) -> Result<(), Error> {
        self.ws();
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    fn literal(&mut self, word: &'static [u8]) -> Result<(), Error> {
        if self.b[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<f64, Error> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.ws();
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| self.err("string is not UTF-8"))
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        let key = self.string()?;
                        self.expect(b':')?;
                        members.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(Value::Arr(items))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal(b"true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| Value::Null),
            Some(_) => self.number().map(Value::Num),
            None => Err(self.err("unexpected end")),
        }
    }

    /// Validates one value without building it.
    fn skip(&mut self) -> Result<(), Error> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                if !self.eat(b'}') {
                    loop {
                        self.string()?;
                        self.expect(b':')?;
                        self.skip()?;
                        if self.eat(b'}') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(())
            }
            Some(b'[') => {
                self.i += 1;
                if !self.eat(b']') {
                    loop {
                        self.skip()?;
                        if self.eat(b']') {
                            break;
                        }
                        self.expect(b',')?;
                    }
                }
                Ok(())
            }
            _ => self.value().map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_keep_raw_payload_bytes() {
        let line = r#"{"v": 1, "id": "a", "result": {"x": [1, 2.5e3], "s": "q\"uote"}}"#;
        let m = members(line).unwrap();
        assert_eq!(m[1], ("id".to_string(), "\"a\""));
        assert_eq!(m[2].1, r#"{"x": [1, 2.5e3], "s": "q\"uote"}"#);
        let v = parse(m[2].1).unwrap();
        assert_eq!(v.at(&["s"]).and_then(Value::as_str), Some("q\"uote"));
        assert_eq!(v.get("x").and_then(Value::as_arr).map(<[_]>::len), Some(2));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            r#"{"a": }"#,
            r#"{"a": 1} x"#,
            r#"{"a": tru}"#,
            "[1,]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(members(r#"{"a": [1, }"#).is_err());
    }
}
