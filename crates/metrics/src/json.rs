//! A minimal JSON writer and reader for machine-readable reports.
//!
//! The harness has no serialization dependency (the workspace builds
//! offline), so the binaries that emit JSON — `scenario` and the
//! `simbench` package — build a [`Json`] tree and render it, and the
//! schema round-trip tests read the artifacts back with [`Json::parse`].
//! Only what those reports need is implemented: objects keep insertion
//! order, `u64` values are emitted exactly (not through
//! `f64`, which would corrupt 64-bit fingerprints), and strings are
//! escaped per RFC 8259. The parser guarantees `parse(s)?.render() == s`
//! for any rendered document (integral numbers without sign parse as
//! `U64`, so an `F64(0.0)` rendered as `0` reads back as `U64(0)` — the
//! textual form is identical).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted exactly.
    U64(u64),
    /// A signed integer, emitted exactly.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object to push keys into.
    #[must_use]
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Adds a key to an object (panics on non-objects — builder misuse).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Parses a JSON document (the RFC 8259 subset `render` emits, plus
    /// insignificant whitespace). Returns the byte offset and a message
    /// on malformed input.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors, trailing garbage, numbers no variant can
    /// hold exactly, unterminated strings, and arrays and objects nested
    /// more than [`MAX_DEPTH`] deep.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` on non-objects too.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as a compact JSON document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value indented with two spaces per level, one field or
    /// element per line — the format the committed `scenarios/` corpus
    /// uses so diffs stay reviewable. Parses back to the same value as
    /// [`Json::render`] (the parser skips insignificant whitespace).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let indent = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Short scalar-only arrays stay on one line.
                let scalars = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalars && items.len() <= 8 {
                    self.write(out);
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(f) if f.is_finite() => out.push_str(&format!("{f}")),
            Json::F64(_) => out.push_str("null"),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: it
/// recurses once per level, and a deeper document would overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent state over the input bytes.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Parses the value at the current position, inside `depth` open
    /// arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            )),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(n)
                                    .ok_or_else(|| "surrogate \\u escape".to_string())?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Step over one UTF-8 scalar (the input is a &str, so
                    // boundaries are well-formed).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| "invalid UTF-8".to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        let mut float = false;
        while let Some(c) = self.b.get(self.i) {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj()
            .field("name", "scenario")
            .field("ok", true)
            .field("runs", 64u64)
            .field("ratio", 0.5)
            .field("items", vec![1u64, 2, 3])
            .field("nested", Json::obj().field("x", Json::Null));
        assert_eq!(
            doc.render(),
            r#"{"name":"scenario","ok":true,"runs":64,"ratio":0.5,"items":[1,2,3],"nested":{"x":null}}"#
        );
    }

    #[test]
    fn u64_precision_is_exact() {
        let fp = 0xdead_beef_dead_beef_u64;
        assert_eq!(Json::U64(fp).render(), fp.to_string());
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::obj()
            .field("name", "fuzz")
            .field("ok", true)
            .field("none", Json::Null)
            .field("fp", 0xdead_beef_dead_beef_u64)
            .field("neg", -42i64)
            .field("ratio", 0.625)
            .field("items", vec![1u64, 2, 3])
            .field("nested", Json::obj().field("x", "a\"b\\c\nd"));
        let text = doc.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "textual round trip");
    }

    #[test]
    fn parse_accepts_whitespace_and_preserves_u64_exactly() {
        let v = Json::parse(" { \"fp\" : 18446744073709551615 ,\n \"a\": [ ] } ").unwrap();
        assert_eq!(v.get("fp"), Some(&Json::U64(u64::MAX)));
        assert_eq!(v.get("a"), Some(&Json::Arr(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"open",
            "{\"a\":1}x",
            "[01e]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        // Arrays and objects count alike; 50,000 levels would overflow the
        // stack without the bound.
        let nest = |n: usize| "[{\"a\":".repeat(n) + "0" + &"}]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH / 2)).is_ok());
        let err = Json::parse(&nest(50_000)).expect_err("too deep");
        assert_eq!(err, "nesting deeper than 128 levels at byte 384");
    }

    #[test]
    fn pretty_render_parses_back_to_the_same_value() {
        let doc = Json::obj()
            .field("name", "scenario")
            .field("kinds", vec!["stock", "fine"])
            .field("rates", Json::Arr((0..12u64).map(Json::U64).collect()))
            .field(
                "nested",
                Json::obj().field("x", 1u64).field("y", Json::Arr(vec![])),
            )
            .field("empty", Json::obj());
        let pretty = doc.render_pretty();
        assert!(pretty.contains('\n'), "pretty output is multi-line");
        let back = Json::parse(&pretty).expect("pretty output parses");
        assert_eq!(back, doc);
        // Short scalar arrays stay inline; long ones break across lines.
        assert!(pretty.contains("[\"stock\",\"fine\"]"));
        assert!(pretty.contains("  0,\n"));
    }

    #[test]
    fn parse_handles_escapes_and_floats() {
        assert_eq!(
            Json::parse("\"a\\u0041\\n\\/\"").unwrap(),
            Json::Str("aA\n/".into())
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::F64(250.0));
        // An integral render of a float reads back as the same text.
        assert_eq!(Json::parse("0").unwrap().render(), "0");
    }
}
