//! A minimal JSON encoder/parser for the wire protocol.
//!
//! The build environment vendors no serialization crates, and the
//! protocol needs only flat objects of strings, numbers, booleans, and
//! (nested) arrays — so this module implements exactly that subset of
//! RFC 8259. Strings are escaped per the RFC by
//! [`intensio_obs::push_json_str`] and unescaped here (including
//! `\uXXXX` with surrogate pairs); numbers are written from
//! `u64`/`usize` and parsed as `f64`.

use intensio_obs::push_json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. BTreeMap keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// An incremental single-line JSON object writer.
#[derive(Debug, Default)]
pub struct ObjWriter {
    buf: String,
    any: bool,
}

impl ObjWriter {
    /// Start an object (`{`).
    pub fn new() -> ObjWriter {
        ObjWriter::with_capacity(0)
    }

    /// Start an object (`{`) in a buffer of at least `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ObjWriter {
        let mut buf = String::with_capacity(capacity.max(1));
        buf.push('{');
        ObjWriter { buf, any: false }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Add a raw (pre-encoded) member.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Add a member whose encoded value `write` appends to the buffer.
    pub fn raw_with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        self.key(key);
        write(&mut self.buf);
        self
    }

    /// Add a string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_json_str(&mut self.buf, value);
        self
    }

    /// Add an optional string member (`null` when absent).
    pub fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.raw(key, "null"),
        }
    }

    /// Add a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Add an unsigned numeric member.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add an array-of-strings member.
    pub fn str_array<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_json_str(&mut self.buf, item.as_ref());
        }
        self.buf.push(']');
        self
    }

    /// Close the object and return the encoded line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parse a JSON document (object, array, or scalar).
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing input at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected '{c}', got {got:?} at {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Json::Str),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected {got:?} at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                got => return Err(format!("expected ',' or '}}', got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                got => return Err(format!("expected ',' or ']', got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hi = self.hex4()?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uDC00..\uDFFF next.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".to_string());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(cp).ok_or_else(|| "invalid codepoint".to_string())?,
                        );
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.bump().ok_or("truncated \\u escape")?;
            v = v * 16 + c.to_digit(16).ok_or(format!("bad hex digit {c:?}"))?;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_an_object() {
        let mut w = ObjWriter::new();
        w.bool("ok", true)
            .num("epoch", 7)
            .str("note", "line1\nline\"2\"\t\\")
            .opt_str("summary", None)
            .str_array("cols", &["Id".to_string(), "Name".to_string()])
            .raw("rows", r#"[["a","b"],[]]"#);
        let line = w.finish();
        assert!(!line.contains('\n'), "wire format is single-line");

        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(7));
        assert_eq!(
            v.get("note").unwrap().as_str(),
            Some("line1\nline\"2\"\t\\")
        );
        assert_eq!(v.get("summary"), Some(&Json::Null));
        assert_eq!(v.get("cols").unwrap().as_array().unwrap().len(), 2);
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("b"));
        assert!(rows[1].as_array().unwrap().is_empty());
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = parse(r#"{"a": [1, -2.5, "é😀"], "b": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Json::Num(-2.5));
        assert_eq!(arr[2].as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1, 2] trailing").is_err());
    }
}
