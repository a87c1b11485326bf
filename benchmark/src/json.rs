//! A small JSON value with a writer and a parser.
//!
//! The workspace's `serde` is an offline marker shim and there is no
//! `serde_json`, so the benchmark carries the little JSON it needs: driver
//! processes hand their report to the parent as one line, the parent writes
//! `htapbench.json`, and `compare` and the tests read such files back.

use std::fmt;

/// A JSON value. Objects keep insertion order so printed reports read in the
/// order the benchmark defines its metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (no-op on other variants) and
    /// returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets `key` to `value`, replacing an existing entry.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(entries) = self {
            let value = value.into();
            match entries.iter_mut().find(|(k, _)| k == key) {
                Some(entry) => entry.1 = value,
                None => entries.push((key.to_string(), value)),
            }
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// The entries, if this is an object.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(entries) => entries,
            _ => &[],
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

impl From<&[f64]> for Json {
    fn from(items: &[f64]) -> Self {
        Json::Arr(items.iter().map(|n| Json::Num(*n)).collect())
    }
}

/// Compact, single-line output (`{}`); `{:#}` indents by two spaces.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f, if f.alternate() { Some(0) } else { None })
    }
}

fn write_value(value: &Json, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
    let newline = |f: &mut fmt::Formatter<'_>, depth: usize| match indent {
        Some(_) => write!(f, "\n{:width$}", "", width = depth * 2),
        None => Ok(()),
    };
    let inner = indent.map(|d| d + 1);
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        // JSON has no NaN or infinity; a measurement that produced one is
        // reported as null so the document stays valid.
        Json::Num(n) if !n.is_finite() => f.write_str("null"),
        Json::Num(n) => write!(f, "{n}"),
        Json::Str(s) => write_string(s, f),
        Json::Arr(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(if indent.is_some() { ", " } else { "," })?;
                }
                // Arrays hold scalars or short records: keep them on a line.
                write_value(item, f, None)?;
            }
            f.write_str("]")
        }
        Json::Obj(entries) => {
            f.write_str("{")?;
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                newline(f, inner.unwrap_or(0))?;
                write_string(key, f)?;
                f.write_str(if indent.is_some() { ": " } else { ":" })?;
                write_value(item, f, inner)?;
            }
            if !entries.is_empty() {
                newline(f, indent.unwrap_or(0))?;
            }
            f.write_str("}")
        }
    }
}

fn write_string(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(format!("expected {literal:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    if !entries.is_empty() {
                        self.expect(",")?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    entries.push((key, self.value()?));
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            let c = char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER);
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj()
            .with("name", "olap-cached")
            .with("ok", true)
            .with("n", 3u64)
            .with("values", Json::from(&[1.5, -2.0e-3][..]))
            .with("inner", Json::obj().with("quote", "a\"b\\c\n"));
        for text in [format!("{doc}"), format!("{doc:#}")] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let x = 14.023_456_789_012_345;
        let text = format!("{}", Json::Num(x));
        assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        assert_eq!(format!("{}", Json::Num(f64::NAN)), "null");
    }
}
