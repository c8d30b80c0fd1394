//! The workspace's one JSON module: a value type, its parser and its writer.
//!
//! Every document the workspace reads or writes (metrics snapshots, span
//! trees, workflow run reports and manifests, the `BENCH_*.json` artifacts)
//! is a [`JsonValue`] rendered by its `Display` impl: compact, object keys
//! sorted, each number its raw [`JsonValue::Num`] token. Manifests travel
//! over the simulated WAN and run reports are compared with `cmp`, so that
//! one rule keeps their bytes stable. `u64` checksums travel as hex strings
//! ([`hex_u64`]), since JSON numbers cannot carry them exactly. The parser
//! bounds its nesting depth, so a forged document is
//! [`NsdfError::corrupt`], not a stack overflow.

use crate::error::{NsdfError, Result};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// Deepest array/object nesting [`JsonValue::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value. Numbers keep their raw token so integers round-trip
/// exactly and fixed-precision fields keep their digits.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse `text` as a single JSON value (trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(NsdfError::corrupt(format!("json: trailing data at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// An object with these members.
    pub fn obj<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `v` written with exactly `digits` decimals: the token
    /// `format!("{v:.digits$}")` prints.
    pub fn fixed(v: f64, digits: usize) -> JsonValue {
        JsonValue::Num(format!("{v:.digits$}"))
    }

    /// The string payload, or an error naming `what`.
    pub fn str_of(&self, what: &str) -> Result<&str> {
        let JsonValue::Str(s) = self else { return Err(self.mismatch(what, "a string")) };
        Ok(s)
    }

    /// The value as an exact `u64` (written as a plain digit token).
    pub fn u64_of(&self, what: &str) -> Result<u64> {
        let JsonValue::Num(raw) = self else { return Err(self.mismatch(what, "a number")) };
        raw.parse().map_err(|_| self.mismatch(what, "a u64"))
    }

    /// The array items, or an error naming `what`.
    pub fn arr_of(&self, what: &str) -> Result<&[JsonValue]> {
        let JsonValue::Arr(items) = self else { return Err(self.mismatch(what, "an array")) };
        Ok(items)
    }

    /// The object map, or an error naming `what`.
    pub fn obj_of(&self, what: &str) -> Result<&BTreeMap<String, JsonValue>> {
        let JsonValue::Obj(map) = self else { return Err(self.mismatch(what, "an object")) };
        Ok(map)
    }

    fn mismatch(&self, what: &str, kind: &str) -> NsdfError {
        NsdfError::corrupt(format!("json: {what} is not {kind}: {self:?}"))
    }

    /// Required object member `key`.
    pub fn field(&self, key: &str) -> Result<&JsonValue> {
        self.obj_of("value")?
            .get(key)
            .ok_or_else(|| NsdfError::corrupt(format!("json: missing field {key:?}")))
    }
}

/// Integers are written as their decimal digits.
macro_rules! from_integer {
    ($($int:ty),*) => {$(
        impl From<$int> for JsonValue {
            fn from(v: $int) -> JsonValue {
                JsonValue::Num(v.to_string())
            }
        }
    )*};
}

from_integer!(u32, u64, usize);

impl From<f64> for JsonValue {
    /// Rust's shortest round-trip form (`1.0`, `0.15`, `1e-7`); a
    /// non-finite value, which JSON cannot express, becomes `0`.
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(if v.is_finite() { format!("{v:?}") } else { "0".into() })
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.into())
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    /// An array of the items.
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> JsonValue {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for JsonValue {
    /// The workspace's one JSON writer: compact, keys sorted, numbers as
    /// their raw tokens.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(raw) => f.write_str(raw),
            JsonValue::Str(s) => write_string(f, s),
            JsonValue::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            JsonValue::Obj(map) => {
                f.write_char('{')?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// `s` as a JSON string literal.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A `u64` as a fixed-width 16-digit hex JSON string. JSON numbers are
/// doubles and silently lose precision past 2^53; checksums and
/// fingerprints use the full 64 bits, so they travel as strings.
pub fn hex_u64(v: u64) -> JsonValue {
    JsonValue::Str(format!("{v:016x}"))
}

/// Parse a [`hex_u64`]-encoded value back.
pub fn parse_hex_u64(v: &JsonValue, what: &str) -> Result<u64> {
    let s = v.str_of(what)?;
    u64::from_str_radix(s, 16)
        .map_err(|_| NsdfError::corrupt(format!("json: {what} is not hex-u64: {s:?}")))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| NsdfError::corrupt("json: unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek()? != b {
            return Err(NsdfError::corrupt(format!(
                "json: expected {:?} at byte {}",
                b as char, self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(NsdfError::corrupt(format!("json: bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<JsonValue> {
        match self.peek()? {
            b'n' => self.literal("null", JsonValue::Null),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(NsdfError::corrupt(format!(
                        "json: nested deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            b'-' | b'0'..=b'9' => self.number(),
            other => {
                Err(NsdfError::corrupt(format!("json: unexpected byte {other:#x} at {}", self.pos)))
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        let len = self.bytes[start..].iter().take_while(|b| b"+-.0123456789eE".contains(b)).count();
        self.pos += len;
        // The float parse validates the token (a digit included); the raw
        // text is what is kept.
        let raw = &self.text[start..self.pos];
        raw.parse::<f64>().map_err(|_| NsdfError::corrupt(format!("json: bad number {raw:?}")))?;
        Ok(JsonValue::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let digits = self.text.get(self.pos..end).unwrap_or_default();
        let v = u32::from_str_radix(digits, 16).map_err(|_| {
            NsdfError::corrupt(format!("json: bad \\u escape at byte {}", self.pos))
        })?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash is copied as it is;
            // both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| NsdfError::corrupt("json: unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek()?;
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
                    let hi = self.hex4()?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: a \uXXXX low half must follow.
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(NsdfError::corrupt("json: bad low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| NsdfError::corrupt("json: bad codepoint"))?,
                    );
                }
                other => {
                    return Err(NsdfError::corrupt(format!(
                        "json: bad escape \\{:?}",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue> {
        let mut items = Vec::new();
        self.list(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Arr(items))
    }

    fn object(&mut self) -> Result<JsonValue> {
        let mut map = BTreeMap::new();
        self.list(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Obj(map))
    }

    /// The comma-separated items after the opening bracket `value` matched,
    /// up to `close`, each read by `item`.
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.pos += 1;
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(NsdfError::corrupt(format!(
                        "json: expected ',' or {:?} at byte {}, got {:?}",
                        close as char, self.pos, other as char
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Num("42".into()));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap(), JsonValue::Num("-1.5e3".into()));
        assert_eq!(JsonValue::parse(r#""hi""#).unwrap(), JsonValue::Str("hi".into()));
        let arr = JsonValue::parse("[1, 2, 3]").unwrap();
        assert_eq!(arr.arr_of("a").unwrap().len(), 3);
        let obj = JsonValue::parse(r#"{"b": 2, "a": 1}"#).unwrap();
        assert_eq!(obj.field("a").unwrap().u64_of("a").unwrap(), 1);
        assert_eq!(obj.field("b").unwrap().u64_of("b").unwrap(), 2);
        assert!(JsonValue::parse("{}").unwrap().obj_of("o").unwrap().is_empty());
        assert!(JsonValue::parse("[]").unwrap().arr_of("a").unwrap().is_empty());
    }

    #[test]
    fn u64_round_trips_exactly_at_full_range() {
        for v in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D] {
            let text = hex_u64(v).to_string();
            let parsed = parse_hex_u64(&JsonValue::parse(&text).unwrap(), "v").unwrap();
            assert_eq!(parsed, v);
        }
        // Plain decimal tokens also round-trip through Num.
        let text = JsonValue::from(u64::MAX).to_string();
        assert_eq!(JsonValue::parse(&text).unwrap().u64_of("v").unwrap(), u64::MAX);
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g — π 🌍";
        let text = JsonValue::from(nasty).to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g — π 🌍\"");
        assert_eq!(JsonValue::parse(&text).unwrap().str_of("s").unwrap(), nasty);
        // Surrogate pair escape form parses too.
        assert_eq!(
            JsonValue::parse(r#""\ud83c\udf0d""#).unwrap().str_of("s").unwrap(),
            "\u{1F30D}"
        );
    }

    #[test]
    fn writer_is_compact_sorted_and_keeps_number_tokens() {
        let v = JsonValue::obj([
            ("zeta", JsonValue::fixed(0.5, 6)),
            ("alpha", [1.0, 0.15, f64::NAN].into_iter().collect()),
            ("mid", JsonValue::obj([("b", JsonValue::Null), ("a", true.into())])),
            ("e", JsonValue::Arr(Vec::new())),
        ]);
        let text = v.to_string();
        assert_eq!(
            text,
            r#"{"alpha":[1.0,0.15,0],"e":[],"mid":{"a":true,"b":null},"zeta":0.500000}"#
        );
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"",
            "{\"a\"}",
            "1 2",
            "nul",
            "{\"a\":}",
            "[,]",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"\\u00é\"",
            "--1",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_corrupt_not_a_stack_overflow() {
        assert!(JsonValue::parse(&"[".repeat(1 << 20)).unwrap_err().is_corrupt());
        assert!(JsonValue::parse(&"{\"a\":".repeat(1 << 20)).unwrap_err().is_corrupt());
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_bound).is_ok());
        assert!(JsonValue::parse(&format!("[{at_bound}]")).unwrap_err().is_corrupt());
    }

    #[test]
    fn typed_accessors_report_mismatches() {
        let v = JsonValue::parse(r#"{"n": 1}"#).unwrap();
        assert!(v.str_of("v").is_err());
        assert!(v.arr_of("v").is_err());
        assert!(v.field("missing").is_err());
        assert!(v.field("n").unwrap().obj_of("n").is_err());
        assert!(JsonValue::parse("1.5").unwrap().u64_of("v").is_err());
        assert!(JsonValue::parse("-3").unwrap().u64_of("v").is_err());
    }
}
