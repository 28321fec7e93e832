//! The workspace's one JSON value, reader and string escaper (the build
//! environment is offline, so no serde).
//!
//! Objects, arrays, strings, numbers, booleans and null, with object keys
//! kept in insertion order.  [`Json::pretty`] renders the `--json` reports
//! and `/v1/*` bodies (two-space indentation); [`Json::compact`] renders the
//! one-line summary-cache entries.
//!
//! There is one lexer, the pull [`Reader`]: the caller asks for the token
//! it expects next, so a decoder builds its own types as the tokens arrive.
//! [`Json::parse`] is a [`Json`] tree built on it and reads request bodies
//! (`/v1/batch`); the summary-cache decoder (`chora_core::cache`) reads
//! entries with the reader directly and builds no tree.  Both bound nesting
//! at [`MAX_DEPTH`], so a hostile document is an error rather than a stack
//! overflow.  Hand-laid-out documents (the Chrome trace, `/v1/stats`)
//! escape their strings with [`escape_into`] and [`quote`].

use std::borrow::Cow;
use std::fmt::Write;

/// The deepest nesting of arrays and objects a [`Reader`] accepts.  The
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
        let mut reader = Reader::new(input);
        let value = read_value(&mut reader)?;
        reader.finish()?;
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

/// Builds the value the reader is at.
fn read_value(r: &mut Reader<'_>) -> Result<Json, String> {
    Ok(match r.peek()? {
        b'{' => {
            r.begin_object()?;
            let mut fields = Vec::new();
            while let Some(key) = r.next_key()? {
                let key = key.into_owned();
                fields.push((key, read_value(r)?));
            }
            Json::Object(fields)
        }
        b'[' => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(read_value(r)?);
            }
            Json::Array(items)
        }
        b'"' => Json::Str(r.string()?.into_owned()),
        b't' | b'f' => Json::Bool(r.bool()?),
        b'n' => {
            r.null()?;
            Json::Null
        }
        _ => match r.number()? {
            Number::Int(v) => Json::Int(v),
            Number::Float(v) => Json::Float(v),
        },
    })
}

/// A pull reader over one JSON document: the caller asks for the value it
/// expects next, and the reader lexes just that, so a decoder can build its
/// own types as the tokens arrive without a [`Json`] tree in between.
///
/// It is the lexer behind [`Json::parse`] too, with the same checks: string
/// escapes, `\u` surrogate pairs and UTF-8, number syntax, literals, and at
/// most [`MAX_DEPTH`] nested arrays and objects.  Whitespace is allowed
/// between any two tokens.  Every method returns an error, never panics, on
/// input that is not what it asked for.
///
/// Items of an array are read with [`next_item`](Reader::next_item) (or
/// [`item`](Reader::item) and [`end_array`](Reader::end_array) for a fixed
/// shape), fields of an object with [`next_key`](Reader::next_key) (or
/// [`field`](Reader::field) and [`end_object`](Reader::end_object)).
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// How many arrays and objects enclose the position.
    depth: usize,
    /// Whether the innermost open array or object has no item yet, so the
    /// next one comes without a comma.
    first: bool,
}

/// A number token: an integer that fits `i64`, or else a float.
enum Number {
    Int(i64),
    Float(f64),
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Succeeds when only whitespace is left after the value just read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!(
                "trailing data after JSON value at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// The key of the object's next field, with its `:` read, or `None`
    /// once the object's `}` is read.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads the key of the object's next field, which must be `name`.
    pub fn field(&mut self, name: &str) -> Result<(), String> {
        let at = self.pos;
        match self.next_key()? {
            Some(key) if key == name => Ok(()),
            _ => Err(format!("expected field `{name}` after byte {at}")),
        }
    }

    /// Closes an object that has no more fields.
    pub fn end_object(&mut self) -> Result<(), String> {
        match self.next_key()? {
            None => Ok(()),
            Some(key) => Err(format!("unexpected field `{key}` at byte {}", self.pos)),
        }
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Whether the array has another item (the reader is then at it), or
    /// else reads the array's `]`.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    /// Moves to the array's next item, which must be there.
    pub fn item(&mut self) -> Result<(), String> {
        if self.next_item()? {
            Ok(())
        } else {
            Err(format!("array ends early at byte {}", self.pos))
        }
    }

    /// Closes an array that has no more items.
    pub fn end_array(&mut self) -> Result<(), String> {
        if self.next_item()? {
            Err(format!("expected `]` at byte {}", self.pos))
        } else {
            Ok(())
        }
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut out: Option<String> = None;
        loop {
            // Take the run of bytes up to the next `"` or `\` in one piece:
            // both are ASCII, so in UTF-8 input the run ends on a char
            // boundary, and the run is UTF-8 when the input is.
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            let text = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
            self.pos += run;
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                self.first = false;
                return Ok(match out {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = out.get_or_insert_with(String::new);
            out.push_str(text);
            self.pos += 1;
            match bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000c}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => out.push(self.unicode_escape()?),
                _ => return Err(format!("invalid escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.unexpected()),
        }
    }

    /// Reads a `null` if one comes next: `true` when it did, `false` (and
    /// nothing read) when another value comes next.
    pub fn null(&mut self) -> Result<bool, String> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Reads an integer that fits `i64`.
    pub fn int(&mut self) -> Result<i64, String> {
        let at = self.pos;
        match self.number()? {
            Number::Int(v) => Ok(v),
            Number::Float(_) => Err(format!("expected an integer after byte {at}")),
        }
    }

    /// Reads one value of any kind, and builds nothing.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
            }
            b'[' => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            b'"' => {
                self.string()?;
            }
            b't' | b'f' => {
                self.bool()?;
            }
            b'n' => {
                self.null()?;
            }
            _ => {
                self.number()?;
            }
        }
        Ok(())
    }

    /// The first byte of the next token.
    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&b) => Ok(b),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Why the next token cannot start the value asked for.
    fn unexpected(&self) -> String {
        match self.bytes.get(self.pos) {
            Some(&b) => format!("unexpected byte `{}` at byte {}", b as char, self.pos),
            None => "unexpected end of input".to_string(),
        }
    }

    /// Reads the `open` bracket of an array or object.
    fn open(&mut self, open: u8) -> Result<(), String> {
        self.skip_ws();
        if self.depth == MAX_DEPTH && self.bytes.get(self.pos) == Some(&open) {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.expect(open)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Whether the open array or object has another item: reads the comma
    /// before it, or else the `close` bracket.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let next = self.bytes.get(self.pos).copied();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if self.first {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(format!(
            "expected `,` or `{}` at byte {}",
            close as char, self.pos
        ))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.first = false;
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Decodes the `\u` escape whose `u` is at the position, combining a
    /// UTF-16 surrogate pair written as two escapes into one character;
    /// leaves the position on the escape's last hex digit.  A lone surrogate
    /// is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        let mut code = self.hex4(start + 1)?;
        self.pos += 4;
        if (0xd800..0xdc00).contains(&code)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            let low = self.hex4(self.pos + 3)?;
            if (0xdc00..0xe000).contains(&low) {
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                self.pos += 6;
            }
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate at byte {start}"))
    }

    /// The value of the four hex digits starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape at byte {at}"))
    }

    fn number(&mut self) -> Result<Number, String> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected());
        }
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.first = false;
        let text = &self.text[start..self.pos];
        // An integer literal beyond `i64` is how an integral `Float` of that
        // magnitude is written, so it reads back as one.
        match text.parse::<i64>() {
            Ok(v) => Ok(Number::Int(v)),
            Err(_) => text
                .parse::<f64>()
                .map(Number::Float)
                .map_err(|_| format!("invalid number `{text}` at byte {start}")),
        }
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
    fn errors_say_what_went_wrong_and_where() {
        for (bad, error) in [
            ("", "unexpected end of input"),
            (" \n", "unexpected end of input"),
            ("[1, 2", "expected `,` or `]` at byte 5"),
            ("{\"a\" 1}", "expected `:` at byte 5"),
            ("[1,]", "unexpected byte `]` at byte 3"),
            ("nulp", "invalid literal at byte 0"),
            ("\"open", "unterminated string"),
            ("[1] x", "trailing data after JSON value at byte 4"),
            ("{\"a\": }", "unexpected byte `}` at byte 6"),
            ("{1:2}", "expected `\"` at byte 1"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            ("{\"a\":1 \"b\":2}", "expected `,` or `}` at byte 7"),
            ("-", "invalid number `-` at byte 0"),
            ("1.2.3", "invalid number `1.2.3` at byte 0"),
            ("\"\\x\"", "invalid escape at byte 2"),
            ("\"\\u12\"", "truncated \\u escape at byte 3"),
            ("\"\\uzzzz\"", "invalid \\u escape at byte 3"),
            ("\"\\ud83d\"", "lone surrogate at byte 2"),
            ("[}", "unexpected byte `}` at byte 1"),
        ] {
            assert_eq!(Json::parse(bad), Err(error.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn the_reader_borrows_strings_without_escapes() {
        let mut r =
            Reader::new(r#"{"plain": "a b", "escaped": ["x\"y\\z\u00e9", 12, null, true]}"#);
        r.begin_object().expect("object");
        r.field("plain").expect("first field");
        assert!(matches!(r.string(), Ok(Cow::Borrowed("a b"))));
        r.field("escaped").expect("second field");
        r.begin_array().expect("array");
        r.item().expect("an item");
        assert!(matches!(r.string(), Ok(Cow::Owned(s)) if s == "x\"y\\zé"));
        r.item().expect("an item");
        assert_eq!(r.int(), Ok(12));
        r.item().expect("an item");
        assert_eq!(r.null(), Ok(true));
        r.item().expect("an item");
        assert_eq!(r.null(), Ok(false));
        assert_eq!(r.bool(), Ok(true));
        r.end_array().expect("end of array");
        r.end_object().expect("end of object");
        r.finish().expect("nothing after the document");
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
