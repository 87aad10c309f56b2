//! Minimal JSON support: string escaping for the writers and a small
//! recursive-descent parser used by tests (and the CLI) to validate
//! emitted documents, and by the perf gate to read its baseline.
//! Parsing is linear in the input and depth-bounded, so any input
//! yields a value or an error. No external dependencies.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` into `out` as the *contents* of a JSON string (no
/// surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// A quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// documents this workspace writes nest at most 5 levels (an
/// `rfv-perf-v1` report); the bound turns a hostile input into an
/// error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// A message naming the first byte that is not valid JSON, or nesting
/// past [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
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

    /// Parses one array or object a level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
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
            self.skip_ws();
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
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // surrogate pairs are not produced by our
                            // writers; map them to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte at byte {}", self.pos))
                }
                Some(_) => {
                    // copy the run of plain characters up to the next
                    // quote, escape or control character (all ASCII, so
                    // `pos` stays on a character boundary)
                    let rest = &self.text[self.pos..];
                    let run = rest.find(|c| c == '"' || c == '\\' || c < ' ');
                    let run = run.unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses RFC 8259's `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a digit at byte {start}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let quoted = quote(original);
        let parsed = parse(&quoted).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }
    #[test]
    fn long_documents_parse_in_linear_time() {
        // 200,000 short strings, about 2.7 MB, a third multi-byte
        let items: Vec<String> = (0..200_000)
            .map(|i| match i % 3 {
                0 => format!("é{i}→"),
                1 => format!("row {i:07}"),
                _ => format!("{i}\\\"x"),
            })
            .collect();
        let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
        let doc = format!("[{}]", quoted.join(","));
        assert!(doc.len() > 2_400_000, "{} bytes", doc.len());
        let t0 = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = t0.elapsed();
        let parsed: Vec<&str> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(parsed, items);
        // a generous bound: linear parsing takes well under a second
        // even unoptimized, while any per-character rescan of the rest
        // of the input takes minutes
        assert!(elapsed.as_secs() < 10, "{elapsed:?}");
    }

    #[test]
    fn text_that_is_not_json_is_an_error_naming_its_byte() {
        for (text, byte) in [
            ("01", 1),
            ("[01]", 2),
            ("1.", 2),
            ("-.5", 1),
            ("[1.e5]", 3),
            ("-", 1),
            ("1e", 2),
            ("\"\\u+041\"", 2),
            ("\"\\u12\"", 2),
            ("\"a\u{1}b\"", 2),
            ("\"a\tb\"", 2),
        ] {
            let err = parse(text).expect_err(text);
            let at = format!("byte {byte}");
            let names_byte = err
                .match_indices(&at)
                .any(|(i, _)| !err[i + at.len()..].starts_with(|c: char| c.is_ascii_digit()));
            assert!(names_byte, "{text:?}: {err}");
        }
        for (text, want) in [("0", 0.0), ("-0.5", -0.5), ("10", 10.0), ("1.5E+2", 150.0)] {
            assert_eq!(parse(text).unwrap().as_num(), Some(want), "{text}");
        }
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // the documents this workspace reads back
        for name in ["BENCH_PR4.json", "BENCH_PR9.json"] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let trace = crate::chrome::write_trace(
            Vec::new(),
            &[crate::TraceEvent::warp_event(
                3,
                1,
                2,
                crate::TraceKind::Issue {
                    pc: 7,
                    active_lanes: 32,
                },
            )],
        )
        .unwrap();
        parse(std::str::from_utf8(&trace).unwrap()).unwrap();
    }

    #[test]
    fn nesting_past_the_bound_is_an_error() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // far past the bound: a typed error, not a stack overflow
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
