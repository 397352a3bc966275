//! A minimal JSON value: writer and parser.
//!
//! The workspace builds offline (no serde), so the telemetry exporters
//! hand-roll their JSON through this module. The writer emits compact,
//! field-order-preserving output — a *stable* schema: two runs producing
//! the same values produce byte-identical text, which is what the
//! regression tests and the benchmark trajectory (`BENCH_*.json`) compare.
//! The parser accepts the subset of JSON the writer emits (plus standard
//! escapes), enough to validate and replay our own artifacts.

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
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(fields) => {
                if let Some(f) = fields.iter_mut().find(|(k, _)| k == key) {
                    f.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: Json) -> Self {
        self.set(key, value);
        self
    }

    /// Field lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64, accepting integral floats (the parser reads all
    /// numbers as one lexical class).
    ///
    /// The bound is strict: `u64::MAX as f64` rounds *up* to 2^64 (the
    /// nearest representable double), so `v <= u64::MAX as f64` would let
    /// a JSON number equal to 2^64 through and `as u64` would silently
    /// saturate it to `u64::MAX`. `v < 2^64` rejects it exactly — every
    /// double strictly below that bound is a representable u64.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64 => {
                Some(v as u64)
            }
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
                Some(fields.iter().map(|(k, v)| (k.as_str(), v)).collect())
            }
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module writes, plus
    /// standard string escapes and signed/exponent numbers).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Writes `s` as a quoted JSON string straight into `out`: unescaped
/// runs go through in one `write_str`, so a plain schema label costs a
/// byte scan and a copy — no temporary `String`. Every escaped character
/// is ASCII, so scanning bytes is exact for multi-byte text too.
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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
            Err(format!(
                "expected `{}` at byte {} (found `{}`)",
                b as char,
                self.pos,
                self.peek().map(|c| c as char).unwrap_or('∅')
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|c| c as char).unwrap_or('∅'),
                self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("bad \\u code point")?,
                            );
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: back up and decode just this
                    // character (at most 4 bytes). Validating the whole
                    // remaining input here instead makes parsing quadratic
                    // in document size.
                    self.pos -= 1;
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(chunk) {
                        Ok(s) => s,
                        // The window may clip a *following* character;
                        // everything up to the error is still decodable.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()]).unwrap()
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                    let c = valid.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
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
