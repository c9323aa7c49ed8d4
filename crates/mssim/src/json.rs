//! The workspace's one JSON codec: an order-preserving [`Value`], a
//! writer with a pretty and a compact layout, and a strict parser that
//! reports the byte offset of any error.
//!
//! Every recorded artifact (the `mssim-trace-v1` JSONL trace and the
//! `mssim-faults-v2`, `mssim-bench-v1` and `mssim-analyze-v1` records)
//! is built as a [`Value`] and written here, and every gate that reads
//! one back parses it here. A number keeps its text token: producers
//! pick the precision through [`Value::float`], which writes NaN and
//! ±inf as `null`, so parsing a written document and writing it again
//! gives back the same bytes.
//!
//! ```
//! use mssim::json::{self, Precision, Value};
//!
//! let doc = Value::object()
//!     .with("ratio", Value::float(0.25, Precision::Fixed(4)))
//!     .with("window", vec![Value::from(1u32), Value::float(f64::NAN, Precision::Exp)]);
//! let text = doc.to_pretty();
//! assert_eq!(text, "{\n  \"ratio\": 0.2500,\n  \"window\": [1, null]\n}\n");
//! assert_eq!(json::parse(&text)?.to_pretty(), text);
//! assert_eq!(doc.to_compact(), r#"{"ratio":0.2500,"window":[1,null]}"#);
//! # Ok::<(), json::ParseError>(())
//! ```

/// Nesting depth beyond which [`parse`] refuses a document rather than
/// risk the stack.
const MAX_DEPTH: usize = 128;

/// How [`Value::float`] writes a finite number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Shortest text that reads back as the same `f64` (`{:?}`).
    Shortest,
    /// `n` digits after the decimal point (`{:.n}`).
    Fixed(usize),
    /// Scientific notation, shortest exact mantissa (`{:e}`).
    Exp,
    /// Scientific notation, `n` mantissa digits after the point (`{:.ne}`).
    ExpFixed(usize),
}

/// A container's `(key, element)` pairs; array elements have no key.
type Items<'a> = Vec<(Option<&'a str>, &'a Value)>;

/// A JSON value. Objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its JSON text token; build one with
    /// [`Value::float`] or from an integer.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with unique keys.
    Object(Vec<(String, Value)>),
}

macro_rules! impl_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}

impl_from! {
    bool => |b| Value::Bool(b);
    &str => |s| Value::String(s.to_string());
    String => |s| Value::String(s);
    Vec<Value> => |items| Value::Array(items);
    u32 => |n| Value::Number(n.to_string());
    u64 => |n| Value::Number(n.to_string());
    u128 => |n| Value::Number(n.to_string());
    usize => |n| Value::Number(n.to_string());
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::Array(iter.into_iter().collect())
    }
}

impl Value {
    /// An empty object, to be filled with [`Value::with`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// `x` written with `precision`, or `null` when `x` is NaN or
    /// infinite (JSON has neither). Every float in an artifact goes
    /// through here.
    pub fn float(x: f64, precision: Precision) -> Value {
        if !x.is_finite() {
            return Value::Null;
        }
        Value::Number(match precision {
            Precision::Shortest => format!("{x:?}"),
            Precision::Fixed(n) => format!("{x:.n$}"),
            Precision::Exp => format!("{x:e}"),
            Precision::ExpFixed(n) => format!("{x:.n$e}"),
        })
    }

    /// `self` with member `key` set to `value` (see [`Value::set`]).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.set(key, value);
        self
    }

    /// Sets member `key`: in place when present, appended otherwise, so
    /// every other member keeps its position.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let Value::Object(members) = self else {
            panic!("json: cannot set `{key}` on a non-object");
        };
        let value = value.into();
        match members.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => members.push((key.to_string(), value)),
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number's value, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The pretty layout, newline-terminated: two-space indent and one
    /// member or element per line, except that a container of scalars
    /// that is an object member prints on one line
    /// (`"counts": { "a": 1, "b": 2 }`, `"range": [0.9, 1.0]`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0, false);
        out + "\n"
    }

    /// A single line without insignificant whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out, ("", ",", ":"));
        out
    }

    /// A container's brackets and `(key, element)` items; `None` for a
    /// scalar.
    fn items(&self) -> Option<(char, char, Items<'_>)> {
        match self {
            Value::Array(items) => Some(('[', ']', items.iter().map(|v| (None, v)).collect())),
            Value::Object(members) => {
                let items = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                Some(('{', '}', items.collect()))
            }
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize, member: bool) {
        let Some((open, close, items)) = self.items() else {
            return self.write_line(out, ("", ",", ":"));
        };
        if items.is_empty() || member && items.iter().all(|(_, v)| v.items().is_none()) {
            return self.write_line(out, (" ", ", ", ": "));
        }
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(": ");
            }
            value.write_pretty(out, depth + 1, key.is_some());
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }

    /// Writes on one line with `(pad, comma, colon)` separators; `pad`
    /// goes inside the braces of a non-empty object.
    fn write_line(&self, out: &mut String, (pad, comma, colon): (&str, &str, &str)) {
        let Some((open, close, items)) = self.items() else {
            return out.push_str(&match self {
                Value::Bool(b) => b.to_string(),
                Value::Number(n) => n.clone(),
                Value::String(s) => quote(s),
                _ => "null".to_string(),
            });
        };
        let pad = if open == '{' && !items.is_empty() {
            pad
        } else {
            ""
        };
        out.push(open);
        out.push_str(pad);
        for (i, (key, value)) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "" } else { comma });
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(colon);
            }
            value.write_line(out, (pad, comma, colon));
        }
        out.push_str(pad);
        out.push(close);
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why [`parse`] rejected a document, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (RFC 8259 with no extensions: no trailing
/// commas, comments, NaN or duplicate keys). Whitespace may surround the
/// value; anything else after it is an error.
///
/// # Errors
///
/// Returns the byte offset and a description of the first violation.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return p.fail("trailing data after the document");
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, message: &'static str) -> Result<T, ParseError> {
        let offset = self.pos;
        Err(ParseError { offset, message })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(token);
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence("]", |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Value)> = Vec::new();
                self.sequence("}", |p| {
                    p.skip_ws();
                    let at = p.pos;
                    if p.peek() != Some(b'"') {
                        return p.fail("expected a string key");
                    }
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        p.pos = at;
                        return p.fail("duplicate object key");
                    }
                    p.skip_ws();
                    if !p.eat(":") {
                        return p.fail("expected ':'");
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            Some(_) => self.fail("expected a value"),
            None => self.fail("unexpected end of input"),
        }
    }

    /// Parses `item (',' item)*` up to `close`, starting on the opening
    /// bracket.
    fn sequence(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return self.fail("expected ',' or a closing bracket");
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat("-");
        if !self.eat("0") && self.digits() == 0 {
            return self.fail("expected a digit");
        }
        if self.eat(".") && self.digits() == 0 {
            return self.fail("expected a digit after '.'");
        }
        if self.eat("e") || self.eat("E") {
            let _sign = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return self.fail("expected an exponent digit");
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let open = self.pos;
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return self.fail("unescaped control character in string"),
                None => {
                    self.pos = open;
                    return self.fail("unterminated string");
                }
            }
        }
    }

    /// Decodes the escape sequence starting at the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.fail("unpaired surrogate escape");
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code)
                    .map_or_else(|| self.fail("unpaired surrogate escape"), Ok);
            }
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return self.fail("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        match hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) {
            Some(h) => {
                self.pos += 4;
                Ok(u32::from_str_radix(h, 16).unwrap_or_default())
            }
            None => self.fail("expected four hex digits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Precision::*;

    #[test]
    fn pretty_layout_inlines_scalar_containers_only_as_members() {
        let compact =
            r#"{"counts":{"a":1,"b":2},"range":[5.00e-1,null],"none":[],"rows":[{"k":[3]},true]}"#;
        let pretty = "{\n  \"counts\": { \"a\": 1, \"b\": 2 },\n  \"range\": [5.00e-1, null],\n  \
                      \"none\": [],\n  \"rows\": [\n    {\n      \"k\": [3]\n    },\n    true\n  ]\n}\n";
        let doc = parse(compact).unwrap();
        assert_eq!(doc.to_compact(), compact);
        assert_eq!(doc.to_pretty(), pretty);
        assert_eq!(parse(pretty), Ok(doc));
    }

    #[test]
    fn strings_and_numbers_round_trip_exactly() {
        let s = "q\"b\\n\nt\tc\u{1}r\r\u{8}\u{c}é😀/";
        let written = Value::from(s).to_compact();
        assert_eq!(written, r#""q\"b\\n\nt\tc\u0001r\r\u0008\u000cé😀/""#);
        assert_eq!(parse(&written).unwrap().as_str(), Some(s));
        assert_eq!(
            parse(r#""\ud83d\ude00\/\b\f\u00E9""#).unwrap().as_str(),
            Some("😀/\u{8}\u{c}é")
        );
        let numbers = "[0e0, 1e-12, -0.500, 3.5E+9, 17]";
        assert_eq!(
            parse(numbers).unwrap().to_compact(),
            numbers.replace(' ', "")
        );
        assert_eq!(parse("-0.500").unwrap().as_f64(), Some(-0.5));
    }

    #[test]
    fn non_finite_floats_write_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [Shortest, Fixed(6), Exp, ExpFixed(9)] {
                assert_eq!(Value::float(x, p), Value::Null);
            }
        }
        let finite = [
            (3.5e-9, Shortest),
            (1e-12, Exp),
            (0.7969, ExpFixed(3)),
            (2.0, Fixed(1)),
        ];
        let written: Vec<_> = finite
            .iter()
            .map(|&(x, p)| Value::float(x, p).to_compact())
            .collect();
        assert_eq!(written, ["3.5e-9", "1e-12", "7.969e-1", "2.0"]);
    }

    #[test]
    fn parser_rejects_malformed_documents_at_their_offset() {
        let cases = [
            ("[1, 2,]", 6, "expected a value"),
            ("{\"a\": 1,}", 8, "expected a string key"),
            ("[NaN]", 1, "expected a value"),
            ("-inf", 1, "expected a digit"),
            ("{\"a\": \"open", 6, "unterminated string"),
            ("{} {}", 3, "trailing data after the document"),
            ("{\"a\": 1, \"a\": 2}", 9, "duplicate object key"),
            ("\"tab\there\"", 4, "unescaped control character in string"),
            ("[1 2]", 3, "expected ',' or a closing bracket"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("01", 1, "trailing data after the document"),
            ("1.", 2, "expected a digit after '.'"),
            ("1e+", 3, "expected an exponent digit"),
            ("\"\\x\"", 2, "invalid escape"),
            ("\"\\u12\"", 3, "expected four hex digits"),
            ("\"\\ud800\"", 7, "unpaired surrogate escape"),
            ("", 0, "unexpected end of input"),
        ];
        for (text, offset, message) in cases {
            assert_eq!(parse(text), Err(ParseError { offset, message }), "{text:?}");
        }
        assert_eq!(
            parse(&"[".repeat(MAX_DEPTH + 2)).unwrap_err().message,
            "nesting too deep"
        );
    }

    #[test]
    fn set_replaces_in_place_and_appends_new_keys() {
        let mut doc = Value::object().with("a", 1u32).with("b", 2u32);
        doc.set("a", "one");
        doc.set("c", Option::<u32>::None);
        assert_eq!(doc.to_compact(), r#"{"a":"one","b":2,"c":null}"#);
        assert_eq!(doc.get("b").and_then(Value::as_f64), Some(2.0));
        assert_eq!(Value::Null.get("a"), None);
    }
}
