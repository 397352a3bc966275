//! A minimal JSON value: writer, and one lexer under three readers.
//!
//! The workspace builds offline (no serde), so the telemetry exporters
//! hand-roll their JSON through this module. The writer emits compact,
//! field-order-preserving output — a *stable* schema: two runs producing
//! the same values produce byte-identical text, which is what the
//! regression tests and the benchmark trajectory (`BENCH_*.json`) compare.
//!
//! Reading is one borrowed pull [`Lexer`] — the single definition of the
//! grammar this repository accepts (RFC 8259 JSON: all escapes including
//! surrogate pairs, no raw control bytes in strings, signed/exponent
//! numbers without leading zeros or bare dots, nesting capped at
//! [`MAX_DEPTH`]) and of its error texts — with three folds on top:
//!
//! * [`Json::parse`] builds the tree, for *documents* a reader walks more
//!   than once (`scd-run-stats/v1`, `scd-patterns/v1`, `BENCH_*.json`);
//! * [`Fields`] is the flat view of one object, for *records* read once
//!   and dropped (a stream record, a Perfetto `traceEvents` item or an
//!   event line the writer did not write byte for byte): keys
//!   and scalars are slices of the input, nested values stay text that
//!   either fold can read again, and nothing is allocated unless a string
//!   holds an escape;
//! * [`crate::TraceEvent::parse`] decodes a trace-event line into its
//!   event; a line off the writer's exact bytes is read as [`Fields`].
//!
//! The byte renderers' grammar is here too: `push_u64` and `push_label`
//! write values, a `keys!` set the fixed bytes between them, and one
//! `Exact` cursor reads text they wrote back by comparing it with those
//! bytes, before any lexing. The event and Perfetto readers keep only
//! their layouts: which key or fragment comes next.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object fields keep insertion order (schema stability).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (the telemetry schema's counters).
    U64(u64),
    /// Floating-point number (fractions, means).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered fields.
    Obj(Vec<(Key, Json)>),
}

/// An object field's name. The writers name fields with literals, which
/// are borrowed for the program's life; a parsed or computed name is
/// owned.
pub type Key = Cow<'static, str>;

/// What [`Json::set`] accepts as a field name: a literal is kept as the
/// borrowed [`Key`], so naming a field allocates nothing; a `String` is
/// moved in, a `&String` copied.
pub trait IntoKey {
    /// The name as a [`Key`].
    fn into_key(self) -> Key;
}

impl IntoKey for &'static str {
    fn into_key(self) -> Key {
        Cow::Borrowed(self)
    }
}

impl IntoKey for String {
    fn into_key(self) -> Key {
        Cow::Owned(self)
    }
}

impl IntoKey for &String {
    fn into_key(self) -> Key {
        Cow::Owned(self.clone())
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object; panics on non-objects.
    pub fn set(&mut self, key: impl IntoKey, value: Json) -> &mut Self {
        let key = key.into_key();
        match self {
            Json::Obj(fields) => {
                if let Some(f) = fields.iter_mut().find(|(k, _)| *k == key) {
                    f.1 = value;
                } else {
                    fields.push((key, value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: impl IntoKey, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64, accepting integral floats below 2^64 (the
    /// lexer reads all numbers as one lexical class).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) => integral(v),
            _ => None,
        }
    }

    /// The value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as &str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object fields as a name → value map (for order-insensitive
    /// comparisons in tests).
    pub fn field_map(&self) -> Option<BTreeMap<&str, &Json>> {
        match self {
            Json::Obj(fields) => {
                Some(fields.iter().map(|(k, v)| (k.as_ref(), v)).collect())
            }
            _ => None,
        }
    }

    /// Parses a JSON document into a tree: the tree-building fold over
    /// [`Lexer`], which defines the grammar (standard JSON with the
    /// numbers read as one lexical class, nesting capped at
    /// [`MAX_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut lexer = Lexer::new(text);
        let v = Json::read(&mut lexer)?;
        lexer.end()?;
        Ok(v)
    }

    fn read(lexer: &mut Lexer<'_>) -> Result<Json, String> {
        Ok(match lexer.value()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::U64(v) => Json::U64(v),
            Token::F64(v) => Json::F64(v),
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                while lexer.element()? {
                    items.push(Json::read(lexer)?);
                }
                Json::Arr(items)
            }
            Token::Obj => {
                let mut fields = Vec::new();
                while let Some(key) = lexer.key()? {
                    fields.push((Cow::Owned(key.into_owned()), Json::read(lexer)?));
                }
                Json::Obj(fields)
            }
        })
    }
}

/// `v` as a u64 when it is a non-negative integer below 2^64.
///
/// The bound is strict: `u64::MAX as f64` rounds *up* to 2^64 (the
/// nearest representable double), so `v <= u64::MAX as f64` would let a
/// JSON number equal to 2^64 through and `as u64` would silently saturate
/// it to `u64::MAX`. `v < 2^64` rejects it exactly — every double strictly
/// below that bound is a representable u64.
fn integral(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64).then_some(v as u64)
}

/// Writes `s` as a quoted JSON string straight into `out`: unescaped
/// runs go through in one `write_str`, so a plain schema label costs a
/// byte scan and a copy — no temporary `String`. Every escaped character
/// is ASCII, so scanning bytes is exact for multi-byte text too.
#[inline]
pub(crate) fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => {
                out.write_str(&s[plain..i])?;
                write!(out, "\\u{b:04x}")?;
                plain = i + 1;
                continue;
            }
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        out.write_str(esc)?;
        plain = i + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

/// A byte buffer as a [`fmt::Write`] target: what is written is `str`, so
/// the buffer stays UTF-8 if it was. Lets the crate's byte renderers send
/// the rare value through [`write_escaped`] or a `Display` impl without a
/// temporary `String`.
pub(crate) struct Utf8<'a>(pub(crate) &'a mut Vec<u8>);

impl fmt::Write for Utf8<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 is shortest-roundtrip; integral values
                    // gain a ".0" so the type survives a round trip.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest container nesting the lexer follows. Our own artifacts nest
/// five or six levels; the cap turns a hostile `[[[[…` into a positioned
/// error instead of a stack overflow in whichever fold is recursing.
pub const MAX_DEPTH: usize = 128;

/// One value as [`Lexer::value`] reads it: scalars whole, containers as
/// their opening bracket (the caller walks or skips what follows).
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// String: a slice of the input unless it held an escape.
    Str(Cow<'a, str>),
    /// `[` was consumed; [`Lexer::element`] steps through the items.
    Arr,
    /// `{` was consumed; [`Lexer::key`] steps through the fields.
    Obj,
}

/// The pull lexer under every JSON reader in the workspace: it borrows
/// the input, allocates only for a string that holds an escape, and is
/// the one definition of the accepted grammar and its error texts. The
/// caller drives structure — [`Lexer::value`] at a value, then
/// [`Lexer::element`] / [`Lexer::key`] inside the container it opened (or
/// [`Lexer::skip`] to pass over it) — and [`Json::parse`] and [`Fields`]
/// are the two folds built on that.
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open at the cursor.
    depth: usize,
    /// The last token opened a container, so its first child takes no
    /// comma.
    fresh: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    fn expected(&self, b: u8) -> String {
        format!(
            "expected `{}` at byte {} (found `{}`)",
            b as char,
            self.pos,
            self.peek().map(|c| c as char).unwrap_or('∅')
        )
    }

    #[cold]
    fn unexpected(&self) -> String {
        format!(
            "unexpected `{}` at byte {}",
            self.peek().map(|c| c as char).unwrap_or('∅'),
            self.pos
        )
    }

    #[inline]
    fn literal(&mut self, word: &str, tok: Token<'a>) -> Result<Token<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn open(&mut self, tok: Token<'a>) -> Result<Token<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(tok)
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Reads the value at the cursor (leading whitespace skipped).
    #[inline]
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Token::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'{') => self.open(Token::Obj),
            Some(b'[') => self.open(Token::Arr),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            _ => Err(self.unexpected()),
        }
    }

    /// Inside an array: moves to the next item, or past the closing `]`
    /// and returns `false`.
    #[inline]
    pub fn element(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(format!("expected `,` or `]` at byte {}", self.pos)),
        }
    }

    /// Inside an object: reads the next key and its colon, or moves past
    /// the closing `}` and returns `None`.
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
            }
            _ if first => {}
            _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Passes over the rest of the container `open` opened, checking its
    /// grammar; a scalar token has nothing left to pass over.
    #[inline]
    pub fn skip(&mut self, open: &Token<'a>) -> Result<(), String> {
        match open {
            Token::Arr | Token::Obj => self.skip_container(open == &Token::Obj),
            _ => Ok(()),
        }
    }

    fn skip_container(&mut self, object: bool) -> Result<(), String> {
        while if object { self.key()?.is_some() } else { self.element()? } {
            let item = self.value()?;
            self.skip(&item)?;
        }
        Ok(())
    }

    /// Reads the value at the cursor whole: a container is skipped, and
    /// its text comes back as a slice any reader can lex again.
    #[inline]
    pub fn whole(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        let start = self.pos;
        let token = self.value()?;
        self.skip(&token)?;
        Ok(Value {
            token,
            raw: &self.text[start..self.pos],
        })
    }

    /// The text not yet read, for a reader that knows how the value at the
    /// cursor was written (the Perfetto record reader).
    #[inline]
    pub(crate) fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Moves the cursor past the `n` bytes of a whole value that such a
    /// reader took from [`Lexer::rest`].
    #[inline]
    pub(crate) fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    /// Requires that only whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut i = start;
        while bytes.get(i).is_some_and(|&b| !STOPS_A_RUN[b as usize]) {
            i += 1;
        }
        // Delimiters are ASCII, so every cut is a char boundary.
        match bytes.get(i) {
            Some(b'"') => {
                self.pos = i + 1;
                Ok(Cow::Borrowed(&self.text[start..i]))
            }
            Some(b'\\') => self.escaped_string(start, i).map(Cow::Owned),
            Some(_) => Err(control(i)),
            None => Err("unterminated string".into()),
        }
    }

    /// The rest of a string whose first escape is at `i`: unescaped runs
    /// are copied whole.
    #[cold]
    fn escaped_string(&mut self, mut run: usize, mut i: usize) -> Result<String, String> {
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            match bytes.get(i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run..i]);
                    self.pos = i + 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..i]);
                    let Some(&esc) = bytes.get(i + 1) else {
                        return Err("unterminated escape".into());
                    };
                    i += 2;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.code_point(&mut i)?,
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    });
                    run = i;
                }
                Some(0..=0x1f) => return Err(control(i)),
                Some(_) => i += 1,
            }
        }
    }

    /// The four hex digits at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .text
            .as_bytes()
            .get(at..at + 4)
            .ok_or("truncated \\u escape")?;
        hex.iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    /// Decodes the `\u` escape whose digits start at `*i`, taking the
    /// second half of a surrogate pair with it.
    fn code_point(&self, i: &mut usize) -> Result<char, String> {
        let at = *i;
        let mut code = self.hex4(at)?;
        *i += 4;
        if (0xD800..0xDC00).contains(&code) {
            let low = match self.text.as_bytes().get(*i..*i + 2) {
                Some(b"\\u") => self.hex4(*i + 2)?,
                _ => 0,
            };
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("lone surrogate in \\u escape at byte {at}"));
            }
            *i += 6;
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate in \\u escape at byte {at}"))
    }

    #[inline]
    fn number(&mut self) -> Result<Token<'a>, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // A counter: up to 19 digits fit a u64 with room to spare.
        let mut i = start;
        let mut v = 0u64;
        while let Some(d) = bytes.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            v = v.wrapping_mul(10).wrapping_add(d as u64);
            i += 1;
        }
        let more = matches!(bytes.get(i), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        // A leading zero is a number of its own: `01` goes to the grammar.
        let zero_led = bytes[start] == b'0' && i - start > 1;
        if !more && (1..=19).contains(&(i - start)) && !zero_led {
            self.pos = i;
            return Ok(Token::U64(v));
        }
        self.long_number()
    }

    /// Every number that is not a short run of digits: the whole lexical
    /// class is cut out, held to RFC 8259's grammar, and handed to `std`,
    /// which would also take `01`, `1.` or `-.5`.
    #[cold]
    fn long_number(&mut self) -> Result<Token<'a>, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Some(at) = grammar_break(text.as_bytes()) {
            return Err(format!("bad number `{text}` at byte {}", start + at));
        }
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Token::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Token::F64(v)),
            _ => Err(format!("number `{text}` out of range at byte {start}")),
        }
    }
}

/// Where `text` (one cut of `[0-9.eE+-]`) leaves the number grammar
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, if it does.
fn grammar_break(text: &[u8]) -> Option<usize> {
    let digits = |i: usize| text[i..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(text.first() == Some(&b'-'));
    match digits(i) {
        0 => return Some(i),
        n if n > 1 && text[i] == b'0' => return Some(i + 1),
        n => i += n,
    }
    if text.get(i) == Some(&b'.') {
        i += 1;
        match digits(i) {
            0 => return Some(i),
            n => i += n,
        }
    }
    if let Some(b'e' | b'E') = text.get(i) {
        i += 1;
        i += usize::from(matches!(text.get(i), Some(b'+' | b'-')));
        match digits(i) {
            0 => return Some(i),
            n => i += n,
        }
    }
    (i < text.len()).then_some(i)
}

/// The bytes that end a plain run inside a string: the closing quote, an
/// escape, and the control bytes JSON forbids raw. One load per byte.
const STOPS_A_RUN: [bool; 256] = {
    let mut stops = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        stops[b] = true;
        b += 1;
    }
    stops[b'"' as usize] = true;
    stops[b'\\' as usize] = true;
    stops
};

/// A raw control byte at `at` inside a string, which JSON must escape.
#[cold]
fn control(at: usize) -> String {
    format!("unescaped control character at byte {at}")
}

/// A value read whole: its token, plus its text for the containers a
/// token cannot hold. Only the lexer makes one, so the text is known to
/// be the value it was cut from.
#[derive(Clone, Debug, PartialEq)]
pub struct Value<'a> {
    token: Token<'a>,
    raw: &'a str,
}

impl<'a> Value<'a> {
    /// The scalar, or which bracket opened the container.
    pub fn token(&self) -> &Token<'a> {
        &self.token
    }

    /// The value's text, brackets or quotes included; either fold can
    /// read it again.
    pub fn raw(&self) -> &'a str {
        self.raw
    }

    /// As [`Json::as_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self.token {
            Token::U64(v) => Some(v),
            Token::F64(v) => integral(v),
            _ => None,
        }
    }

    /// As [`Json::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self.token {
            Token::U64(v) => Some(v as f64),
            Token::F64(v) => Some(v),
            _ => None,
        }
    }

    /// As [`Json::as_str`].
    pub fn as_str(&self) -> Option<&str> {
        match &self.token {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As [`Json::as_bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self.token {
            Token::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The fields of an object value (none for anything else), as
    /// `Json::get` on the subtree would find them.
    pub fn fields(&self) -> Fields<'a> {
        Fields::parse(self.raw).expect("the text was checked when it was skipped")
    }

    /// The items of an array value; `None` for anything else.
    pub fn elements(&self) -> Option<Elements<'a>> {
        let mut lexer = Lexer::new(self.raw);
        (lexer.value() == Ok(Token::Arr)).then_some(Elements { lexer })
    }
}

/// The items of an array [`Value`], each read whole.
pub struct Elements<'a> {
    lexer: Lexer<'a>,
}

impl<'a> Iterator for Elements<'a> {
    type Item = Value<'a>;

    fn next(&mut self) -> Option<Value<'a>> {
        // The text was checked when it was skipped, so an error here can
        // only mean the array is over.
        match self.lexer.element() {
            Ok(true) => self.lexer.whole().ok(),
            _ => None,
        }
    }
}

/// The records of a JSONL text: its non-blank lines, numbered from 1 as
/// an editor shows them.
pub fn records(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        // A record starts at its `{`; only a line that does not is worth
        // a Unicode trim to find out that it is blank.
        .filter(|(_, line)| line.starts_with('{') || !line.trim().is_empty())
}

/// Fields a [`Fields`] view holds without touching the heap: a Perfetto
/// record has at most eight.
const INLINE_FIELDS: usize = 12;

/// The flat fold: the top-level fields of one object, read in one pass
/// with every key and scalar borrowed from the text and nested values
/// kept as text. Look-up is [`Json::get`]'s (first match wins); a value
/// that is not an object has no fields, exactly as `Json::get` finds none.
pub struct Fields<'a> {
    inline: [Option<(Cow<'a, str>, Value<'a>)>; INLINE_FIELDS],
    spill: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Fields<'a> {
    /// Reads `text` as one JSON document, under [`Json::parse`]'s grammar
    /// and with its errors.
    #[inline]
    pub fn parse(text: &'a str) -> Result<Self, String> {
        let mut lexer = Lexer::new(text);
        let fields = Fields::read(&mut lexer)?;
        lexer.end()?;
        Ok(fields)
    }

    /// Reads the value at the lexer's cursor, each field whole (a
    /// non-object has none).
    #[inline]
    pub fn read(lexer: &mut Lexer<'a>) -> Result<Self, String> {
        let mut fields = Fields {
            inline: [const { None }; INLINE_FIELDS],
            spill: Vec::new(),
        };
        let open = lexer.value()?;
        if open != Token::Obj {
            lexer.skip(&open)?;
            return Ok(fields);
        }
        let mut n = 0;
        while let Some(key) = lexer.key()? {
            let value = lexer.whole()?;
            match fields.inline.get_mut(n) {
                Some(slot) => *slot = Some((key, value)),
                None => fields.spill.push((key, value)),
            }
            n += 1;
        }
        Ok(fields)
    }

    /// Field lookup, as [`Json::get`].
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `n` in decimal: two digits per division, from a stack buffer
/// (no `fmt` machinery, no heap). The one decimal writer of the crate's
/// renderers — every event line and every Perfetto record goes through it.
///
/// The digits land right-aligned in the first half of the buffer and
/// leave as one constant-length copy starting at the first digit, cut
/// back to the digit count: a 20-byte move the compiler inlines, where a
/// copy of exactly 1..=20 bytes is a call into `memcpy`.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    const WIDTH: usize = 20; // digits of `u64::MAX`
    let mut buf = [0u8; 2 * WIDTH];
    let mut i = WIDTH;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    let window: &[u8; WIDTH] = buf[i..i + WIDTH].try_into().expect("WIDTH bytes");
    let end = out.len() + (WIDTH - i);
    out.extend_from_slice(window);
    out.truncate(end);
}

/// Appends `s` as a quoted JSON string. A label the machine supplies is a
/// plain identifier: one scan, one copy. Only a string with a byte JSON
/// must escape goes through the escaper, so both paths produce [`Json`]'s
/// bytes.
#[inline]
pub(crate) fn push_label(out: &mut Vec<u8>, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        write_escaped(&mut Utf8(out), s).expect("writing to a Vec cannot fail");
    } else {
        out.push(b'"');
        out.extend_from_slice(s.as_bytes());
        out.push(b'"');
    }
}

/// Declares a writer's fixed bytes, keys and punctuation included, as
/// byte arrays of fixed length: the one spelling the writer emits and
/// [`Exact`] compares. Each format invokes it in a `mod key` of its own.
macro_rules! keys {
    ($($name:ident = $bytes:literal,)*) => {
        $(pub(super) const $name: &[u8; $bytes.len()] = $bytes;)*
    };
}
pub(crate) use keys;

/// A cursor over text one of the crate's writers wrote. Each read compares
/// the next bytes with what the writer would have put there and gives
/// `None` at the first difference, without saying why: the caller then
/// hands the text to the [`Lexer`], which does.
pub(crate) struct Exact<'a> {
    text: &'a str,
    /// What is left of `text` to read.
    rest: &'a [u8],
}

impl<'a> Exact<'a> {
    #[inline(always)]
    pub(crate) fn new(text: &'a str) -> Self {
        Exact { text, rest: text.as_bytes() }
    }

    /// How many bytes of the text have been read.
    #[inline(always)]
    pub(crate) fn consumed(&self) -> usize {
        self.text.len() - self.rest.len()
    }

    #[inline(always)]
    pub(crate) fn key<const N: usize>(&mut self, key: &[u8; N]) -> Option<()> {
        let (at, rest) = self.rest.split_first_chunk()?;
        (at == key).then(|| self.rest = rest)
    }

    /// The fragment, when it is next.
    #[inline(always)]
    pub(crate) fn eat<const N: usize>(&mut self, fragment: &[u8; N]) -> bool {
        self.key(fragment).is_some()
    }

    /// An integer as [`push_u64`] writes it ([`exact_u64`]).
    #[inline(always)]
    pub(crate) fn num(&mut self) -> Option<u64> {
        let (v, n) = exact_u64(self.rest)?;
        self.rest = &self.rest[n..];
        Some(v)
    }

    /// `key`, then an integer.
    #[inline(always)]
    pub(crate) fn u64<const N: usize>(&mut self, key: &[u8; N]) -> Option<u64> {
        self.key(key)?;
        self.num()
    }

    #[inline(always)]
    pub(crate) fn u32<const N: usize>(&mut self, key: &[u8; N]) -> Option<u32> {
        self.u64(key)?.try_into().ok()
    }

    /// `key`, then the optional field's integer; `Some(None)` when the
    /// next key is another.
    #[inline(always)]
    pub(crate) fn opt_u64<const N: usize>(&mut self, key: &[u8; N]) -> Option<Option<u64>> {
        if self.rest.starts_with(key) {
            self.u64(key).map(Some)
        } else {
            Some(None)
        }
    }

    #[inline(always)]
    pub(crate) fn flag<const N: usize>(&mut self, key: &[u8; N]) -> Option<bool> {
        self.key(key)?;
        let (b, len) = match self.rest.first()? {
            b't' if self.rest.starts_with(b"true") => (true, 4),
            b'f' if self.rest.starts_with(b"false") => (false, 5),
            _ => return None,
        };
        self.rest = &self.rest[len..];
        Some(b)
    }

    /// `key`, then a quoted label resolved by `named`. Every vocabulary
    /// word is a plain identifier, so a label spelled with an escape (or
    /// holding a control byte) resolves to nothing, and the body needs no
    /// scan of its own.
    #[inline(always)]
    pub(crate) fn label<T, const N: usize>(
        &mut self,
        key: &[u8; N],
        named: impl Fn(&'a str) -> Option<T>,
    ) -> Option<T> {
        self.key(key)?;
        let rest = self.rest.strip_prefix(b"\"")?;
        let len = closing_quote(rest)?;
        let start = self.text.len() - rest.len();
        self.rest = &rest[len + 1..];
        // Quotes are ASCII, so both cuts are char boundaries.
        named(&self.text[start..start + len])
    }

    /// The string body at the cursor, up to its closing quote (left
    /// unread), when it holds no escape and no control byte: a slice the
    /// lexer would have borrowed as it is.
    #[inline(always)]
    pub(crate) fn plain(&mut self) -> Option<()> {
        let len = closing_quote(self.rest)?;
        let body = &self.rest[..len];
        if body.iter().fold(false, |bad, &b| bad | (b < 0x20) | (b == b'\\')) {
            return None;
        }
        self.rest = &self.rest[len..];
        Some(())
    }

    /// `key`, then a quoted [`Exact::plain`] string.
    #[inline(always)]
    pub(crate) fn string<const N: usize>(&mut self, key: &[u8; N]) -> Option<()> {
        self.key(key)?;
        self.rest = self.rest.strip_prefix(b"\"")?;
        self.plain()?;
        self.rest = &self.rest[1..];
        Some(())
    }

    /// A `}` that is the last byte of the text.
    #[inline(always)]
    pub(crate) fn end(&self) -> Option<()> {
        (self.rest == b"}").then_some(())
    }
}

/// The integer `bytes` starts with, as [`push_u64`] writes it, and its
/// digit count: a digit run with no leading zero. Nineteen digits cannot
/// overflow; a twentieth can, so that rare run is read again with the
/// check. `None` for anything the writer would not have written.
#[inline(always)]
fn exact_u64(digits: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut n = 0;
    while let Some(d) = digits.get(n).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        v = v.wrapping_mul(10).wrapping_add(d as u64);
        n += 1;
    }
    let v = match n {
        0 => return None,
        1 => v,
        _ if digits[0] == b'0' => return None,
        2..=19 => v,
        20 => std::str::from_utf8(&digits[..n]).ok()?.parse().ok()?,
        _ => return None,
    };
    Some((v, n))
}

/// The first `"` in `bytes`, eight bytes to a step: a byte loop's exit
/// branch, taken once per label at a length it cannot predict, cost more
/// than the rest of the label. `x` is zero in the byte that held a quote,
/// and the lowest byte the zero-byte test flags is always a true zero.
#[inline(always)]
fn closing_quote(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut n = 0;
    while let Some(chunk) = bytes[n..].first_chunk::<8>() {
        let x = u64::from_le_bytes(*chunk) ^ (ONES * u64::from(b'"'));
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(n + zero.trailing_zeros() as usize / 8);
        }
        n += 8;
    }
    bytes[n..].iter().position(|&b| b == b'"').map(|at| n + at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_stable_output() {
        let j = Json::obj()
            .with("schema", Json::Str("scd/v1".into()))
            .with("n", Json::U64(42))
            .with("mean", Json::F64(1.5))
            .with("flag", Json::Bool(true))
            .with("items", Json::Arr(vec![Json::U64(1), Json::Null]));
        assert_eq!(
            j.to_string(),
            r#"{"schema":"scd/v1","n":42,"mean":1.5,"flag":true,"items":[1,null]}"#
        );
    }

    /// Regression: `u64::MAX as f64` rounds up to 2^64, so the old
    /// `v <= u64::MAX as f64` guard accepted a JSON number equal to 2^64
    /// and `as u64` saturated it to `u64::MAX`. The strict bound rejects
    /// exactly at the boundary.
    #[test]
    fn as_u64_rejects_two_to_the_64_exactly() {
        let two_64 = 18446744073709551616.0_f64; // 2^64, representable
        assert_eq!(two_64, u64::MAX as f64, "2^64 is what u64::MAX rounds to");
        assert_eq!(Json::F64(two_64).as_u64(), None, "2^64 must not saturate");
        // The largest double strictly below 2^64 is 2^64 - 2048 and is a
        // valid u64; it must still convert.
        let below = 18446744073709549568.0_f64;
        assert!(below < two_64);
        assert_eq!(Json::F64(below).as_u64(), Some(18446744073709549568));
        // Parsed documents take the same path.
        assert_eq!(Json::parse("18446744073709551616.0").unwrap().as_u64(), None);
        assert_eq!(Json::F64(-1.0).as_u64(), None);
        assert_eq!(Json::F64(1.5).as_u64(), None);
    }

    #[test]
    fn integral_floats_keep_their_type() {
        assert_eq!(Json::F64(2.0).to_string(), "2.0");
        let back = Json::parse("2.0").unwrap();
        assert_eq!(back, Json::F64(2.0));
    }

    #[test]
    fn roundtrip() {
        let j = Json::obj()
            .with(
                "s",
                Json::Str("a \"quoted\"\nline\\ \u{1}bell\u{1f} é".into()),
            )
            .with("neg", Json::F64(-3.25))
            .with(
                "nested",
                Json::obj().with("arr", Json::Arr(vec![Json::Bool(false)])),
            );
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(
            Json::Str("\u{1}\"\té".into()).to_string(),
            r#""\u0001\"\té""#
        );
    }

    #[test]
    fn set_replaces_existing_field() {
        let mut j = Json::obj().with("a", Json::U64(1));
        j.set("a", Json::U64(2));
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(j.field_map().unwrap().len(), 1);
    }

    #[test]
    fn parses_multibyte_strings() {
        // Adjacent multi-byte chars (the 4-byte decode window clips the
        // second one — valid_up_to handling), a 4-byte char at the very
        // end of input, and mixed ASCII.
        for s in ["héllo", "αβγδ", "日本語", "🦀", "a🦀b", "x\u{10FFFF}"] {
            let text = format!("\"{s}\"");
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()), "{s:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// What RFC 8259 forbids and `std`'s number parser would take: a
    /// leading zero, a fraction or exponent without digits, a sign or
    /// dot without an integer part, a raw control byte in a string, and
    /// a number no `f64` holds. Each is refused where it goes wrong.
    #[test]
    fn refuses_what_the_standard_forbids_with_its_position() {
        for (bad, want) in [
            ("01", "bad number `01` at byte 1"),
            ("00", "bad number `00` at byte 1"),
            ("01.5", "bad number `01.5` at byte 1"),
            ("-01", "bad number `-01` at byte 2"),
            ("[1,012]", "bad number `012` at byte 4"),
            ("1.", "bad number `1.` at byte 2"),
            ("1.e5", "bad number `1.e5` at byte 2"),
            ("1e", "bad number `1e` at byte 2"),
            ("1e+", "bad number `1e+` at byte 3"),
            ("-.5", "bad number `-.5` at byte 1"),
            ("-", "bad number `-` at byte 1"),
            ("1-2", "bad number `1-2` at byte 1"),
            ("1.5.2", "bad number `1.5.2` at byte 3"),
            ("\"a\tb\"", "unescaped control character at byte 2"),
            ("{\"k\u{1}\":1}", "unescaped control character at byte 3"),
            ("\"\\n\u{1f}\"", "unescaped control character at byte 3"),
            ("1e999", "number `1e999` out of range at byte 0"),
            ("[-1e400]", "number `-1e400` out of range at byte 1"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), want, "{bad:?}");
            assert_eq!(Fields::parse(bad).err().as_deref(), Some(want), "{bad:?}");
        }
        for (good, want) in [
            ("0", Json::U64(0)),
            ("-0", Json::F64(-0.0)),
            ("0.5", Json::F64(0.5)),
            ("10", Json::U64(10)),
            ("1e05", Json::F64(1e5)),
            ("1E-2", Json::F64(0.01)),
            ("1e-999", Json::F64(0.0)),
            ("18446744073709551616", Json::F64(18446744073709551616.0)),
        ] {
            assert_eq!(Json::parse(good).unwrap(), want, "{good:?}");
        }
    }

    #[test]
    fn decodes_every_standard_escape_including_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\ud83e\udd80""#).unwrap(),
            Json::Str("\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1f980}".into())
        );
        for (bad, want) in [
            (r#""\ud83e""#, "lone surrogate in \\u escape at byte 3"),
            (r#""\ud83e\u0041""#, "lone surrogate in \\u escape at byte 3"),
            (r#""a\udd80""#, "lone surrogate in \\u escape at byte 4"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u12g4""#, "bad \\u escape at byte 3"),
            (r#""\x""#, "bad escape `\\x`"),
            (r#""\"#, "unterminated escape"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), want, "{bad}");
        }
    }

    /// A hostile document is an error with a position, never a stack
    /// overflow, in either fold.
    #[test]
    fn nesting_is_capped() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let want = format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}");
        assert_eq!(Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err(), want);
        assert_eq!(Json::parse(&"[".repeat(100_000)).unwrap_err(), want);
        assert_eq!(Json::parse(&"{\"a\":".repeat(100_000)).unwrap_err(), {
            let at = "{\"a\":".len() * MAX_DEPTH;
            format!("nesting deeper than {MAX_DEPTH} at byte {at}")
        });
        assert_eq!(Fields::parse(&"[".repeat(100_000)).err(), Some(want));
    }

    #[test]
    fn flat_view_borrows_scalars_and_keeps_nested_values_as_text() {
        let text = r#" { "n" : 7, "s":"plain", "e":"a\nb", "k\u0065y":true, "n":8,
            "arr":[1, [2], {"x":null}], "obj":{"in":{"deep":1.5}}, "f":2.0 } "#;
        let f = Fields::parse(text).unwrap();
        assert_eq!(f.get("n").and_then(Value::as_u64), Some(7), "first match wins");
        assert!(matches!(f.get("s").unwrap().token(), Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(f.get("e").unwrap().token(), Token::Str(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(f.get("key").and_then(Value::as_bool), Some(true));
        assert_eq!(f.get("f").and_then(Value::as_u64), Some(2));
        assert_eq!(f.get("f").and_then(Value::as_f64), Some(2.0));
        assert!(f.get("missing").is_none());
        let arr = f.get("arr").unwrap();
        assert_eq!(arr.raw(), r#"[1, [2], {"x":null}]"#);
        let items: Vec<&str> = arr.elements().unwrap().map(|v| v.raw()).collect();
        assert_eq!(items, ["1", "[2]", r#"{"x":null}"#]);
        assert!(f.get("obj").unwrap().elements().is_none());
        let inner = f.get("obj").unwrap().fields();
        assert_eq!(inner.get("in").unwrap().raw(), r#"{"deep":1.5}"#);
        assert_eq!(
            Json::parse(f.get("obj").unwrap().raw()).unwrap(),
            Json::parse(text).unwrap().get("obj").unwrap().clone()
        );
        // Not an object: valid JSON with no fields, as `Json::get` sees it.
        assert!(Fields::parse("[1,2]").unwrap().get("n").is_none());
        assert!(Fields::parse("7").unwrap().get("n").is_none());
    }

    #[test]
    fn flat_view_holds_more_fields_than_fit_inline() {
        let n = INLINE_FIELDS + 5;
        let text = format!(
            "{{{}}}",
            (0..n).map(|i| format!("\"k{i}\":{i}")).collect::<Vec<_>>().join(",")
        );
        let f = Fields::parse(&text).unwrap();
        for i in 0..n {
            assert_eq!(f.get(&format!("k{i}")).and_then(Value::as_u64), Some(i as u64));
        }
    }

    #[test]
    fn records_skips_blank_lines_and_numbers_from_one() {
        let text = "{\"a\":1}\n\n  \t\n\u{a0}\n x\r\n{}";
        let got: Vec<(usize, &str)> = records(text).collect();
        assert_eq!(got, [(1, "{\"a\":1}"), (5, " x"), (6, "{}")]);
    }

    #[test]
    fn accessors() {
        assert_eq!(Json::U64(7).as_u64(), Some(7));
        assert_eq!(Json::F64(7.0).as_u64(), Some(7));
        assert_eq!(Json::F64(7.5).as_u64(), None);
        assert_eq!(Json::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert!(Json::Arr(vec![]).as_arr().unwrap().is_empty());
    }
}
