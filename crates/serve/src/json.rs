//! Minimal JSON reading and writing.
//!
//! The build environment has no serde, so the wire protocol and the
//! benchmark artifacts are hand-rolled: a recursive-descent parser into
//! [`Json`] values plus the escaping helpers the writers share. The
//! parser accepts exactly the JSON grammar the protocol and the
//! `BENCH_*.json` schemas emit — objects, arrays, strings with escapes,
//! finite numbers, booleans and null — and rejects trailing content.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String field accessor.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Numeric field accessor.
    pub fn num_of(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{}", num(*n));
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&esc(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&esc(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// JSON string escaping.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finite-float JSON literal (`NaN`/`inf` have no JSON spelling; clamp to
/// zero rather than emit an invalid document). Integral values render
/// without a fraction so integer fields stay integers on the wire.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        "0.0".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Nesting cap: the protocol and bench schemas are at most a few levels
/// deep; a hostile request must not be able to blow the stack.
const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        };
        self.depth -= 1;
        v
    }

    fn parse_lit(&mut self, lit: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next delimiter as
            // one slice. Both delimiters are ASCII, so the cut always falls
            // on a char boundary of the (already valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.parse_unicode_escape()?);
                    continue;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    /// Decodes a `\u` escape whose `\u` was just consumed. A UTF-16
    /// surrogate pair (the form encoders such as Python's `json.dumps`
    /// emit for non-BMP characters) combines into one character; a lone
    /// surrogate is an error.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let code = match self.parse_hex4()? {
            hi @ 0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let lo = self.parse_hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("lone surrogate in \\u escape"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone surrogate in \\u escape")),
            c => c,
        };
        Ok(char::from_u32(code).expect("non-surrogate code point below U+110000"))
    }

    /// Reads the four hex digits of a `\u` escape: exactly four of
    /// `[0-9a-fA-F]`, no sign.
    fn parse_hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code << 4 | d;
        }
        self.pos += 4;
        Ok(code)
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
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
}

/// Parses one complete JSON document; trailing content is an error.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "x\n\"y\""], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Str("x\n\"y\"".into()),
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn render_round_trips() {
        let v = Json::Obj(vec![
            ("op".into(), Json::Str("query".into())),
            ("id".into(), Json::Num(7.0)),
            ("frac".into(), Json::Num(0.25)),
            (
                "rows".into(),
                Json::Arr(vec![Json::Str("control(n0, n2)".into()), Json::Bool(true)]),
            ),
            ("none".into(), Json::Null),
        ]);
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v);
        // Integral numbers stay integral on the wire.
        assert!(text.contains("\"id\":7,"), "{text}");
    }

    #[test]
    fn unicode_escapes_decode_strictly() {
        let str_of = |text: &str| match parse_json(text) {
            Ok(Json::Str(s)) => Ok(s),
            other => Err(format!("{other:?}")),
        };
        assert_eq!(
            str_of(r#""\u0041\u00e9\u20AC""#),
            Ok("A\u{e9}\u{20ac}".into())
        );
        assert_eq!(str_of(r#""\b\f\/""#), Ok("\u{8}\u{c}/".into()));
        // A surrogate pair is one non-BMP character, in either hex case.
        assert_eq!(str_of(r#""n\ud83d\ude00""#), Ok("n\u{1f600}".into()));
        assert_eq!(str_of(r#""\uD83D\uDE00!""#), Ok("\u{1f600}!".into()));
        for bad in [
            // Lone surrogates: a high one at the end, before plain text,
            // before another high one, and a bare low one.
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\n""#,
            r#""\ude00""#,
            // Non-hex digits, including the sign `from_str_radix` takes.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u 041""#,
            r#""\u12""#,
            // Unknown escapes and an unterminated string.
            r#""\x""#,
            r#""abc"#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn long_mixed_strings_round_trip() {
        // Several hundred KB mixing ASCII, multi-byte characters and
        // escapes: one `update` line near the frame limit.
        let mut text = String::new();
        let mut i = 0;
        while text.len() < 400_000 {
            text.push_str(&format!(
                "+own(n{i}, soci\u{e9}t\u{e9}_{i}, 0.3) \"\u{fc}\"\t\u{20ac}\u{1f600}\\\n"
            ));
            i += 1;
        }
        let line = Json::Str(text.clone()).render();
        assert!(line.len() > 400_000);
        assert_eq!(parse_json(&line), Ok(Json::Str(text.clone())));
        // The same text with every non-ASCII character spelled as a `\u`
        // escape (surrogate pairs above the BMP), as `json.dumps` does.
        let mut ascii = String::from("\"");
        for c in esc(&text).chars() {
            let mut units = [0u16; 2];
            if c.is_ascii() {
                ascii.push(c);
            } else {
                for u in c.encode_utf16(&mut units) {
                    ascii.push_str(&format!("\\u{u:04x}"));
                }
            }
        }
        ascii.push('"');
        assert_eq!(parse_json(&ascii), Ok(Json::Str(text)));
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse_json(&deep).is_err());
    }
}
