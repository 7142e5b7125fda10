//! The one JSON module: every document this workspace writes (`EnactReport`,
//! traces, profiles, the service report, the chaos report) goes through
//! [`JsonWriter`] — as a [`Json`] value printed by its `Display`, or event by
//! event for the two trace exporters. Nothing outside the tests reads a
//! document back: [`Json::parse`] is the oracle the writer's tests and the
//! round-trip / never-panics properties read through. The workspace vendors
//! no JSON library.
//!
//! Integers stay integers: a `TraceEvent::bytes` lane mask uses all 64 bits,
//! which an `f64`-only number type would round. Floats print with `{}` — the
//! shortest string that round-trips — so equal bit patterns serialize to
//! equal bytes, the property the golden-trace suite pins.

use std::borrow::Cow;
use std::fmt;

/// Arrays and objects may nest this deep; 60 more than any document here.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (or any integer a writer holds signed).
    I64(i64),
    /// Any other number. A non-finite value prints as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered. Writers name their keys with literals
    /// (no allocation per key); the reader owns what it parsed.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

/// Why [`Json::parse`] refused its input: byte `at` (the input's length when
/// it ended early) is not `want`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What would have been accepted there.
    pub want: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.want, self.at)
    }
}

impl std::error::Error for JsonError {}

/// What an array or object nested past that depth is refused with.
pub const TOO_DEEP: &str = "nesting of at most 64 levels";

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (Cow::Borrowed(k), v)).collect())
    }

    /// An array of whatever converts into a value.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `x` rounded to `decimals` places, as `{:.decimals$}` rounds it — for
    /// the table rows whose committed baselines carry fixed decimals.
    pub fn rounded(x: f64, decimals: usize) -> Json {
        Json::F64(format!("{x:.decimals$}").parse().unwrap_or(f64::NAN))
    }

    /// Parse a complete JSON document; surrounding whitespace is allowed,
    /// anything after the value is an error. Never panics.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader { text, pos: 0 };
        let v = r.parse_value(0)?;
        r.skip_ws();
        match r.peek() {
            None => Ok(v),
            Some(_) => Err(r.expected("end of input")),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one (integers widen to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// JSON has one number type, so `4`, `4.0` and `-0.0` vs `0` compare equal
/// whichever variant holds them: integer variants exactly, anything against
/// a float as `f64`s.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        let int = |v: &Json| match *v {
            Json::U64(n) => Some(i128::from(n)),
            Json::I64(n) => Some(i128::from(n)),
            _ => None,
        };
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => match (int(self), int(other)) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64().is_some() && self.as_f64() == other.as_f64(),
            },
        }
    }
}

macro_rules! json_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                Json::$variant(x.into())
            }
        }
    )*};
}
json_from!(u64 => U64, u32 => U64, i64 => I64, f64 => F64, bool => Bool, String => Str);

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::U64(x as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// The only writer: appends compact JSON — no whitespace, keys in the order
/// given — to one `String`. `Display for Json` drives it over a tree; the
/// per-event trace exporters drive it directly, so a 10^5-event trace costs
/// no allocation per event.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// A comma before the next element, unless the last byte opened a
    /// container, ended a key or ended a line. (A string value ends in its
    /// closing quote, so those bytes are structural wherever they are last.)
    fn sep(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':' | b'\n')) {
            self.out.push(',');
        }
    }

    /// An object whose fields `body` writes as `key(..)` + a value each.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('{');
        body(self);
        self.out.push('}');
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('[');
        body(self);
        self.out.push(']');
    }

    /// The key of the next value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self
    }

    /// A string value, escaped.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push('"');
        // identifiers — every key, most values — need no escape: one copy
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            self.out.push_str(s);
        } else {
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    c if (c as u32) < 0x20 => self.raw(format_args!("\\u{:04x}", c as u32)),
                    c => self.out.push(c),
                }
            }
        }
        self.out.push('"');
    }

    /// Any value: a scalar as it converts, or a tree.
    pub fn value(&mut self, v: impl Into<Json>) {
        self.write(&v.into());
    }

    /// A tree, by reference.
    pub fn write(&mut self, v: &Json) {
        match v {
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.arr(|w| items.iter().for_each(|v| w.write(v))),
            Json::Obj(fields) => self.obj(|w| fields.iter().for_each(|(k, v)| w.key(k).write(v))),
            Json::Bool(b) => self.scalar(format_args!("{b}")),
            Json::U64(n) => self.scalar(format_args!("{n}")),
            Json::I64(n) => self.scalar(format_args!("{n}")),
            Json::F64(x) if x.is_finite() => self.scalar(format_args!("{x}")),
            Json::F64(_) | Json::Null => self.scalar(format_args!("null")),
        }
    }

    fn scalar(&mut self, args: fmt::Arguments<'_>) {
        self.sep();
        self.raw(args);
    }

    fn raw(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.out, args).expect("writing to a String cannot fail");
    }

    /// End a line of JSONL: the next value starts a new document.
    pub fn newline(&mut self) {
        self.out.push('\n');
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::default();
        w.write(self);
        f.write_str(&w.out)
    }
}

/// The only reader: recursive descent over the bytes of a `&str`. Every
/// index is bounds-checked through `peek`, and the structural bytes it stops
/// at are ASCII, so the `&str` slices it takes fall on char boundaries.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expected(&self, want: &'static str) -> JsonError {
        JsonError { at: self.pos, want }
    }

    fn expect(&mut self, byte: u8, want: &'static str) -> Result<(), JsonError> {
        if self.peek() != Some(byte) {
            return Err(self.expected(want));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.expected("a value")),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(self.expected(TOO_DEEP)),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.items(b'}', "',' or '}'", |r| {
                    r.skip_ws();
                    r.expect(b'"', "a string key")?;
                    let key = r.string()?;
                    r.skip_ws();
                    r.expect(b':', "':'")?;
                    fields.push((Cow::Owned(key), r.parse_value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', "',' or ']'", |r| {
                    items.push(r.parse_value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// The comma-separated items of the array or object opening at `pos`, up
    /// to and including its `close`.
    fn items(
        &mut self,
        close: u8,
        want: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.expected(want)),
            }
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.expected(word));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// An integer token becomes `U64`, else `I64`; anything with a fraction,
    /// an exponent, or past 64 bits becomes a finite `F64`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        if let Ok(n) = token.parse::<i64>() {
            return Ok(Json::I64(n));
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(JsonError { at: start, want: "a value" }),
        }
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<String, JsonError> {
        let mut s = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.expected("'\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape denotes; the backslash is consumed. `\u` is
    /// read for the scalar values the writer emits it for (surrogate halves,
    /// which only a non-BMP `\u` pair would need, are refused).
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'u') => {
                let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5);
                hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .and_then(|h| u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                    .and_then(char::from_u32)
                    .inspect(|_| self.pos += 4)
                    .ok_or_else(|| self.expected("'u' and four hex digits of a scalar value"))?
            }
            _ => return Err(self.expected("an escape character")),
        };
        self.pos += 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_ordered_and_escaped() {
        let v = Json::obj([
            ("name", "a\"b\\c\n\u{1}Δ".into()),
            ("mask", u64::MAX.into()),
            ("peer", (-1i64).into()),
            ("t", 100.0.into()),
            ("x", 0.1.into()),
            ("bad", f64::NAN.into()),
            ("rows", Json::arr([1u64, 2])),
            ("ok", true.into()),
            ("none", Json::Null),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"name\":\"a\\\"b\\\\c\\n\\u0001Δ\",\"mask\":18446744073709551615,\"peer\":-1,\
             \"t\":100,\"x\":0.1,\"bad\":null,\"rows\":[1,2],\"ok\":true,\"none\":null}"
        );
    }

    #[test]
    fn parse_reads_what_display_writes() {
        let v = Json::obj([
            ("s", "q\"\\\n\t\r\u{0}\u{1f}/Δ😀".into()),
            ("u", u64::MAX.into()),
            ("i", i64::MIN.into()),
            ("z", (-0.0).into()),
            ("f", 1e-7.into()),
            ("big", 1e300.into()),
            ("a", Json::Arr(vec![Json::Null, false.into(), Json::obj([])])),
        ]);
        assert_eq!(Json::parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn numbers_compare_by_value_across_variants() {
        assert_eq!(Json::parse("4"), Ok(Json::F64(4.0)));
        assert_eq!(Json::parse("4.0"), Ok(Json::U64(4)));
        assert_eq!(Json::parse("-0"), Ok(Json::F64(-0.0)));
        assert_eq!(Json::parse("-7"), Ok(Json::I64(-7)));
        assert_ne!(Json::U64(u64::MAX), Json::U64(u64::MAX - 1), "no f64 rounding in between");
        assert_ne!(Json::F64(0.5), Json::U64(0));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn parse_reads_escapes() {
        assert_eq!(Json::parse(r#""Δ😀\/\u0394\u001f""#), Ok("Δ😀/Δ\u{1f}".into()));
        for bad in [r#""\ud83d\ude00""#, r#""\u12""#, r#""\x""#, r#""\u00zz""#, r#""\u00"#] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_rejects_garbage_with_a_typed_error() {
        assert_eq!(Json::parse("{\"a\":1} x"), Err(JsonError { at: 8, want: "end of input" }));
        assert_eq!(Json::parse("[1,"), Err(JsonError { at: 3, want: "a value" }));
        assert_eq!(Json::parse("\"abc"), Err(JsonError { at: 4, want: "'\"'" }));
        for bad in ["{\"a\":}", "{1:2}", "[1 2]", "tru", "nul", "-", "1e999", "--1", ""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(1_000_000);
        assert_eq!(Json::parse(&deep), Err(JsonError { at: MAX_DEPTH, want: TOO_DEEP }));
        let mixed = "{\"a\":[".repeat(MAX_DEPTH);
        assert_eq!(Json::parse(&mixed).unwrap_err().want, TOO_DEEP);
    }

    #[test]
    fn rounded_keeps_the_fixed_decimal_value() {
        assert_eq!(Json::rounded(1.23456, 3).to_string(), "1.235");
        assert_eq!(Json::rounded(2.0, 3).to_string(), "2");
        assert_eq!(Json::parse("2.500"), Ok(Json::rounded(2.4996, 3)));
    }
}
