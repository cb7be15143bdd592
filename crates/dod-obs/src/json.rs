//! The workspace's one JSON reader and its shared writing primitives.
//!
//! The workspace builds offline (no serde), so JSON is hand-rolled, in
//! this module only. Every boundary that reads JSON — `dod serve`
//! requests, calibration profiles, checkpoint and dead-letter records,
//! trace replay — parses through [`parse`] and reads fields off the
//! resulting [`Json`] tree. The reader is bounded: nesting deeper than
//! [`MAX_DEPTH`] is a typed [`JsonError`] rather than a stack overflow,
//! strings decode in linear time, and a number must be finite
//! (`1e400` is rejected, not read as `inf`). Numbers keep their source
//! text, so a `u64` beyond 2^53 or an `f64` bit pattern round-trips
//! exactly.
//!
//! On the writing side, the escaping and non-finite-number rules must
//! agree everywhere (a trace line and a serve response are both
//! consumed by the same replay/jq tooling), so the primitives live here
//! instead of being copied per crate. Two number flavors exist on
//! purpose:
//!
//! * [`write_f64`] always emits a decimal point or exponent (`3.0`,
//!   never `3`) so the JSONL replay parser can tell floats from
//!   integers when round-tripping label values;
//! * [`number`] emits the shortest form (`0`, `1.5`) for human-facing
//!   response fields where the distinction does not matter.
//!
//! Both serialize non-finite values (`NaN`, `±Inf`) as `null`: bare
//! `NaN` is not valid JSON and would poison every downstream consumer.

use std::fmt;
use std::io::{self, Write};

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so this bound is what keeps hostile input (200,000
/// nested `[`) from overflowing the stack. The workspace's own
/// documents nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in source order, duplicates kept.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (the first, if duplicated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if its text is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.num_text()?.parse().ok()
    }

    /// The value as an exact `i64`, if its text is one.
    pub fn as_i64(&self) -> Option<i64> {
        self.num_text()?.parse().ok()
    }

    /// The value as the `f64` nearest its text.
    pub fn as_f64(&self) -> Option<f64> {
        self.num_text()?.parse().ok()
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn num_text(&self) -> Option<&str> {
        match self {
            Json::Num(raw) => Some(raw),
            _ => None,
        }
    }
}

/// Why a document failed to parse, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete RFC 8259 document; trailing non-whitespace is
/// an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut r = Reader { text, pos: 0 };
    let value = r.parse_value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.error("trailing characters"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses the value at the cursor; `depth` counts the arrays and
    /// objects around it.
    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.error("nesting deeper than MAX_DEPTH"))
            }
            Some(b'[' | b'{') => self.parse_container(depth + 1),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Parses the array or object opening at the cursor.
    fn parse_container(&mut self, depth: usize) -> Result<Json, JsonError> {
        let object = self.peek() == Some(b'{');
        let close = if object { b'}' } else { b']' };
        self.pos += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                if !object {
                    items.push(self.parse_value(depth)?);
                } else if self.peek() != Some(b'"') {
                    return Err(self.error("object key must be a string"));
                } else {
                    let key = self.parse_string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.error("expected ':'"));
                    }
                    fields.push((key, self.parse_value(depth)?));
                }
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.error("expected ',' or a closing bracket"));
                }
            }
        }
        Ok(if object {
            Json::Obj(fields)
        } else {
            Json::Arr(items)
        })
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, which must
    /// denote a finite `f64`.
    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            let from = r.pos;
            while matches!(r.peek(), Some(b'0'..=b'9')) {
                r.pos += 1;
            }
            r.pos > from
        };
        self.eat(b'-');
        let int = self.eat(b'0') || digits(self);
        let frac = !self.eat(b'.') || digits(self);
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            digits(self)
        };
        if !(int && frac && exp) {
            return Err(self.error("invalid number"));
        }
        let raw = &self.text[start..self.pos];
        if !raw.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(JsonError {
                offset: start,
                reason: "number out of f64 range",
            });
        }
        Ok(Json::Num(raw.to_string()))
    }

    /// Decodes the string literal at the cursor. Each run between
    /// escapes is copied as one slice, so decoding is linear.
    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            // A run ends at an ASCII byte or the end: both char boundaries.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.parse_escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash, joining UTF-16 surrogate
    /// pairs.
    fn parse_escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF if self.text[self.pos..].starts_with("\\u") => {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xD800..=0xDFFF => return Err(self.error("unpaired surrogate")),
                    _ => unit,
                };
                char::from_u32(code).expect("surrogates are paired above")
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let code = hex
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// Writes `s` as a JSON string literal with escaping.
pub fn write_str(out: &mut impl Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")
}

/// Writes an `f64` so it round-trips through the replay parser
/// (always with a decimal point or exponent; non-finite as `null`).
pub fn write_f64(out: &mut impl Write, v: f64) -> io::Result<()> {
    if !v.is_finite() {
        return out.write_all(b"null");
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        out.write_all(s.as_bytes())
    } else {
        write!(out, "{s}.0")
    }
}

/// Escapes a string for embedding between quotes in a JSON document
/// (the allocating form of [`write_str`], without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    write_str(&mut out, s).expect("writing to a Vec cannot fail");
    let mut quoted = String::from_utf8(out).expect("escaping emits valid UTF-8");
    quoted.pop(); // closing quote
    quoted.remove(0); // opening quote
    quoted
}

/// Serializes an `f64` as a JSON value in its shortest form; non-finite
/// numbers (`NaN`, `±Inf`) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_controls_and_unicode() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo"), "héllo");
    }

    fn num(text: &str) -> Json {
        Json::Num(text.to_string())
    }

    fn rejects(docs: &[&str]) {
        for doc in docs {
            let err = parse(doc).expect_err(doc);
            assert!(err.offset <= doc.len(), "{doc:?}: {err}");
        }
    }

    #[test]
    fn reads_the_serve_request_grammar() {
        // Insignificant whitespace anywhere between tokens.
        let v = parse(" {\"op\": \"score\",\"points\" :[[0.5, -1e2],\t[3,4.25]]}\r\n ").unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("score"));
        let points = v.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points[0], Json::Arr(vec![num("0.5"), num("-1e2")]));
        assert_eq!(points[0].as_arr().unwrap()[1].as_f64(), Some(-100.0));
        assert_eq!(points[1], Json::Arr(vec![num("3"), num("4.25")]));
        let v = parse(r#"{"a": [true, false, null], "k": 1, "k": 2, "o": {}}"#).unwrap();
        let a = vec![Json::Bool(true), Json::Bool(false), Json::Null];
        assert_eq!(v.get("a"), Some(&Json::Arr(a)));
        assert_eq!(v.get("k"), Some(&num("1")), "the first duplicate wins");
        assert_eq!(v.get("o"), Some(&Json::Obj(Vec::new())));
        assert_eq!(parse("[]").unwrap().get("k"), None);
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let s = |doc: &str| parse(doc).unwrap().as_str().map(str::to_string);
        assert_eq!(s(r#""a\"b\\c\/A""#).unwrap(), "a\"b\\c/A");
        assert_eq!(s(r#""\b\f\n\r\t é""#).unwrap(), "\u{8}\u{c}\n\r\t é");
        assert_eq!(s(r#""\u00e9\ud83d\ude00""#).unwrap(), "é😀");
        rejects(&[
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
            r#""\u12""#,
            r#""\u+fff""#,
            r#""\q""#,
            "\"raw\ncontrol\"",
            "\"unterminated",
            "\"dangling\\",
        ]);
        // Round trip through the writer, controls and all.
        let text = "q\"uote\\ \u{1}\u{1f}\n é 😀";
        assert_eq!(s(&format!("\"{}\"", escape(text))).unwrap(), text);
    }

    #[test]
    fn numbers_keep_their_text_and_must_be_finite() {
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max, num("18446744073709551615"));
        assert_eq!((max.as_u64(), max.as_i64()), (Some(u64::MAX), None));
        let n = |doc: &str| parse(doc).unwrap();
        assert_eq!(n("-9223372036854775808").as_i64(), Some(i64::MIN));
        assert_eq!((n("-3").as_u64(), n("2.5").as_u64()), (None, None));
        assert_eq!(
            (n("2.5e-3").as_f64(), n("1E+2").as_f64()),
            (Some(2.5e-3), Some(100.0))
        );
        assert_eq!(
            n("-0").as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            (n("1e-400").as_f64(), n("\"7\"").as_u64()),
            (Some(0.0), None)
        );
        let x = 0.1f64 + 0.2;
        assert_eq!(
            n(&format!("{x}")).as_f64().map(f64::to_bits),
            Some(x.to_bits())
        );
        rejects(&[
            "1e400", "-1e400", "+1", ".5", "1.", "1e", "1e+", "01", "-", "0x1", "NaN",
        ]);
        let err = parse("[0, 1e400]").unwrap_err();
        assert_eq!((err.offset, err.reason), (4, "number out of f64 range"));
    }

    #[test]
    fn rejects_malformed_documents_with_an_offset() {
        rejects(&[
            "",
            "   ",
            "not json",
            "{\"a\": }",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": 1,}",
            "[1, 2",
            "[1 2]",
            "[1,]",
            "tru",
            "nul",
            "{\"entries\": [",
        ]);
        let err = parse("{} x").unwrap_err();
        assert_eq!(err.to_string(), "trailing characters at byte 3");
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        for (head, tail) in [("[", "]"), ("{\"a\":", "}")] {
            let nested = |depth: usize| format!("{}0{}", head.repeat(depth), tail.repeat(depth));
            assert!(parse(&nested(MAX_DEPTH - 1)).is_ok());
            assert!(parse(&nested(MAX_DEPTH)).is_ok());
            for depth in [MAX_DEPTH + 1, 200_000] {
                let err = parse(&nested(depth)).unwrap_err();
                assert_eq!(err.reason, "nesting deeper than MAX_DEPTH");
            }
            // Unclosed nesting fails on depth too, not on the stack.
            assert!(parse(&head.repeat(200_000)).is_err());
        }
    }

    /// Linear-time string decoding: a 4 MiB literal with escapes and
    /// multi-byte characters mixed in parses in one pass.
    #[test]
    fn four_mib_string_parses() {
        let chunk = r"abcdefgh\n\u00e9é";
        let body = chunk.repeat((4 << 20) / chunk.len() + 1);
        assert!(body.len() >= 4 << 20);
        let v = parse(&format!("{{\"label\":\"{body}\"}}")).unwrap();
        let label = v.get("label").and_then(Json::as_str).unwrap();
        assert_eq!(label, "abcdefgh\néé".repeat((4 << 20) / chunk.len() + 1));
    }

    /// Regression: non-finite f64s must serialize as `null` in both
    /// flavors, never as bare `NaN`/`inf` (which no JSON parser accepts).
    #[test]
    fn non_finite_numbers_are_null_in_both_flavors() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v), "null");
            let mut buf = Vec::new();
            write_f64(&mut buf, v).unwrap();
            assert_eq!(buf, b"null");
        }
        assert_eq!(number(0.0), "0");
        assert_eq!(number(1.5), "1.5");
        let mut buf = Vec::new();
        write_f64(&mut buf, 3.0).unwrap();
        assert_eq!(buf, b"3.0", "replay flavor keeps the float marker");
    }
}
