//! The workspace's one JSON value, parser and string escaper (the build
//! environment is offline, so no serde).
//!
//! Objects, arrays, strings, numbers, booleans and null, with object keys
//! kept in insertion order.  [`Json::pretty`] renders the `--json` reports
//! and `/v1/*` bodies (two-space indentation); [`Json::compact`] renders the
//! one-line summary-cache entries.  [`Json::parse`] reads request bodies and
//! cache entries, and bounds nesting at [`MAX_DEPTH`] so that a hostile body
//! is an error rather than a stack overflow.  Hand-laid-out documents (the
//! Chrome trace, `/v1/stats`) escape their strings with [`escape_into`] and
//! [`quote`].

use std::fmt::Write;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.  The
/// documents the workspace writes nest at most 12 levels deep.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Key order is preserved as inserted.
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object; panics on non-objects.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value)),
            _ => panic!("field() on non-object"),
        }
        self
    }

    /// Parses one JSON document (surrounding whitespace allowed, trailing
    /// garbage rejected).  Errors carry the byte offset they occurred at.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data after JSON value at byte {pos}"));
        }
        Ok(value)
    }

    /// The string payload, for `Json::Str` values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, for `Json::Int` values.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, for `Json::Bool` values.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, for `Json::Array` values.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of a `Json::Object` (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one line without whitespace: `{"k":v,...}`, `[a,b]`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the nesting depth when pretty-printing, `None` when
    /// compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
                // An integral float keeps a fraction, so it reads back as a
                // `Float` with the same bits (`3.0`, `-0.0`).
                if v.fract() == 0.0 {
                    out.push_str(".0");
                }
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => quote_into(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, i, inner);
                    item.write(out, inner);
                }
                close(out, items.is_empty(), indent);
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(out, i, inner);
                    quote_into(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                close(out, fields.is_empty(), indent);
                out.push('}');
            }
        }
    }
}

/// Before item `i` of an array or object: a comma after the first item and,
/// when pretty-printing, a line break indented to the items' depth.
fn separate(out: &mut String, i: usize, inner: Option<usize>) {
    if i > 0 {
        out.push(',');
    }
    if let Some(depth) = inner {
        out.push('\n');
        pad(out, depth);
    }
}

/// After the last item of a non-empty array or object, when pretty-printing:
/// a line break indented to the closing bracket's depth.
fn close(out: &mut String, empty: bool, indent: Option<usize>) {
    if let (false, Some(depth)) = (empty, indent) {
        out.push('\n');
        pad(out, depth);
    }
}

fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// `"`, `\`, newline, carriage return and tab get their short escapes, every
/// other control character a `\u00XX` escape.
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

/// `s` as a quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", byte as char))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte `{}` at byte {pos}", b as char)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Parses an object whose items sit inside `depth` arrays and objects.
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

/// Parses an array whose items sit inside `depth` arrays and objects.
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of bytes up to the next `"` or `\` in one piece: both
        // are ASCII, so in UTF-8 input the run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| "unterminated string".to_string())?;
        let text = std::str::from_utf8(&bytes[*pos..*pos + run])
            .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
        out.push_str(text);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
            _ => return Err(format!("invalid escape at byte {pos}")),
        }
        *pos += 1;
    }
}

/// Decodes the `\u` escape whose `u` is at `pos`, combining a UTF-16
/// surrogate pair written as two escapes into one character; leaves `pos`
/// on the escape's last hex digit.  A lone surrogate is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let start = *pos;
    let mut code = hex4(bytes, start + 1)?;
    *pos += 4;
    if (0xd800..0xdc00).contains(&code) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        let low = hex4(bytes, *pos + 3)?;
        if (0xdc00..0xe000).contains(&low) {
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            *pos += 6;
        }
    }
    char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {start}"))
}

/// The value of the four hex digits starting at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape at byte {at}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    // An integer literal beyond `i64` is how an integral `Float` of that
    // magnitude is written, so it reads back as one.
    match text.parse::<i64>() {
        Ok(v) => Ok(Json::Int(v)),
        Err(_) => text
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{text}` at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_what_it_prints() {
        let doc = Json::object()
            .field("name", Json::str("fib \"quoted\"\n"))
            .field("count", Json::Int(-3))
            .field("ratio", Json::Float(1.5))
            .field("ok", Json::Bool(true))
            .field("none", Json::Null)
            .field(
                "items",
                Json::Array(vec![Json::Int(1), Json::str("two"), Json::Array(vec![])]),
            );
        assert_eq!(
            doc.compact(),
            r#"{"name":"fib \"quoted\"\n","count":-3,"ratio":1.5,"ok":true,"none":null,"items":[1,"two",[]]}"#
        );
        for text in [doc.pretty(), doc.compact()] {
            let parsed = Json::parse(&text).expect("round trip");
            assert_eq!(
                parsed.get("name").and_then(Json::as_str),
                Some("fib \"quoted\"\n")
            );
            assert_eq!(parsed.get("count").and_then(Json::as_int), Some(-3));
            assert!(matches!(parsed.get("ratio"), Some(Json::Float(r)) if *r == 1.5));
            assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));
            assert!(matches!(parsed.get("none"), Some(Json::Null)));
            let items = parsed.get("items").and_then(Json::as_array).expect("array");
            assert_eq!(items.len(), 3);
            assert!(matches!(&items[2], Json::Array(v) if v.is_empty()));
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = Json::parse(r#"["a\tb", "Aé", "π", "😀", "\ud83d\ude00"]"#).expect("parses");
        let items = parsed.as_array().expect("array");
        assert_eq!(items[0].as_str(), Some("a\tb"));
        assert_eq!(items[1].as_str(), Some("Aé"));
        assert_eq!(items[2].as_str(), Some("π"));
        assert_eq!(items[3].as_str(), Some("😀"));
        assert_eq!(items[4].as_str(), Some("😀"));
    }

    #[test]
    fn integral_floats_beyond_i64_parse_back_as_floats() {
        for v in [1e20, -1e300, 9.3e18] {
            let doc = Json::Float(v);
            for text in [doc.compact(), doc.pretty()] {
                assert_eq!(Json::parse(&text), Ok(Json::Float(v)), "{text}");
            }
        }
    }

    #[test]
    fn integral_floats_render_with_a_fraction() {
        for (v, text) in [
            (3.0, "3.0"),
            (-0.0, "-0.0"),
            (1.5, "1.5"),
            (1e-7, "0.0000001"),
        ] {
            assert_eq!(Json::Float(v).compact(), text);
            let parsed = Json::parse(text);
            assert!(
                matches!(parsed, Ok(Json::Float(r)) if r.to_bits() == v.to_bits()),
                "{text} read back as {parsed:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "[1, 2",
            "{\"a\" 1}",
            "[1,]1",
            "nulp",
            "\"open",
            "[1] trailing",
            "{\"a\": }",
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }

    /// Builds a document from a word stream, at most 8 levels deep.  Strings
    /// mix every escape arm with multi-byte characters.  Floats are odd
    /// sixteenths, integral values inside and past the `i64` range, and
    /// `-0.0`.
    fn build(words: &mut impl Iterator<Item = u64>, depth: usize) -> Json {
        let w = words.next().unwrap_or(0);
        let len = (w >> 8) % 4;
        let kinds = if depth == 8 { 5 } else { 7 };
        match w % kinds {
            0 => Json::Null,
            1 => Json::Bool(w & 0x100 != 0),
            2 => Json::Int(words.next().unwrap_or(w) as i64),
            3 => Json::Float(match len {
                0 => f64::from((w >> 10) as i32 | 1) / 16.0,
                1 => ((w as i64) >> 11) as f64,
                2 => -0.0,
                _ => {
                    // Past 2^63 every float is integral; the `| 1` keeps
                    // -2^63, which is an `i64`, out.
                    let step =
                        f64::from((w >> 11) as u16 | 1) * 2f64.powi(11 + ((w >> 27) % 900) as i32);
                    let magnitude = 2f64.powi(63) + step;
                    if w & 0x400 != 0 {
                        -magnitude
                    } else {
                        magnitude
                    }
                }
            }),
            4 => Json::Str(text(words, (w >> 8) % 8)),
            5 => Json::Array((0..len).map(|_| build(words, depth + 1)).collect()),
            _ => Json::Object(
                (0..len)
                    .map(|_| (text(words, 2), build(words, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn text(words: &mut impl Iterator<Item = u64>, len: u64) -> String {
        let pool: Vec<char> = (0..0x20u8)
            .map(char::from)
            .chain(['"', '\\', '/', 'a', ' ', 'é', '😀'])
            .collect();
        (0..len)
            .map(|_| pool[(words.next().unwrap_or(0) % pool.len() as u64) as usize])
            .collect()
    }

    /// Equality that tells floats apart by their bits, so `-0.0` is not
    /// `0.0`.
    fn same_bits(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Float(x), Json::Float(y)) => x.to_bits() == y.to_bits(),
            (Json::Array(xs), Json::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Json::Object(xs), Json::Object(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((k, x), (l, y))| k == l && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn both_renderings_parse_back_to_the_value(
            words in prop::collection::vec(any::<u64>(), 1..200)
        ) {
            let doc = build(&mut words.into_iter(), 0);
            let compact = doc.compact();
            for text in [compact.clone(), doc.pretty()] {
                let parsed = Json::parse(&text).expect("parses its own output");
                prop_assert!(same_bits(&parsed, &doc), "{} read back as {:?}", text, parsed);
                prop_assert_eq!(parsed.compact(), compact.clone());
            }
        }
    }
}
