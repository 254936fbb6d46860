//! A minimal, dependency-free JSON reader/writer.
//!
//! The workspace ships models and calibrations as JSON (a TASFAR deployment
//! bundle is "model + calibration", Sec. III-B), but the build environment
//! has no access to crates.io, so `serde`/`serde_json` are not available.
//! This module is the small surface the workspace actually needs:
//!
//! * a [`Json`] value tree with a recursive-descent parser and a writer;
//! * [`ToJson`] / [`FromJson`] traits every persisted type implements by
//!   hand;
//! * `serde`-compatible conventions for enums (externally tagged: unit
//!   variants serialise as a bare string, struct variants as a one-key
//!   object), so bundles written by earlier builds keep parsing.
//!
//! Floats round-trip exactly: the writer uses Rust's shortest-representation
//! `Display` for `f64` and the parser uses the correctly-rounded
//! `str::parse`, so `write ∘ parse` is the identity on finite values. Both
//! ends stay finite: the writer refuses a non-finite float, and the parser
//! rejects a number literal that overflows to ±inf (`1e999`), so no document
//! decodes to a value the writer could not write back. (A literal that
//! underflows rounds to zero, as `str::parse` does.)
//!
//! The parser copies each string as runs of plain bytes between escapes, so
//! a document parses in time linear in its length. Besides building a tree,
//! it can walk a document in place (an object's members, an array's
//! elements, one number at a time, and a string with no escape borrowed
//! from the input instead of copied); `DeltaArtifact::from_json`, the
//! decoder on the serving cold path, uses those walks to decode in one pass
//! with no tree. A delta's `values` travel inside the JSON as base64 strings
//! of their raw f64 bits under an FNV-1a `check` (see `DeltaArtifact`), so
//! a rehydrate converts no decimals; the decimal arrays earlier builds wrote
//! still decode.

use std::collections::HashMap;
use std::fmt;

/// A parse or decode error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error from any displayable message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Wraps the error with the path segment it occurred under, so decode
    /// failures deep in a nested bundle report the full key path instead of
    /// just the leaf (`at `config.early_stop`: missing field `window``).
    /// Consecutive segments merge into one dotted path; segments written as
    /// `[i]` attach without a dot (array indices).
    pub fn at(self, segment: &str) -> JsonError {
        let msg = match self.msg.strip_prefix("at `") {
            Some(rest) if rest.starts_with('[') => format!("at `{segment}{rest}"),
            Some(rest) => format!("at `{segment}.{rest}"),
            None => format!("at `{segment}`: {}", self.msg),
        };
        JsonError { msg }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

/// A JSON value.
///
/// Objects preserve insertion order (they are a `Vec` of pairs), which keeps
/// written output stable and human-diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer written without a decimal point (exact for the
    /// full `u64` range, unlike a double).
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key in an object, failing with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Looks up `key` and decodes it as `T`, attaching `key` to the path of
    /// any decode error (see [`JsonError::at`]).
    pub fn decode<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json_value(self.field(key)?).map_err(|e| e.at(key))
    }

    /// The value as a float (integers coerce).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as a `u64` (floats must be integral and in range).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(v) => Ok(*v),
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => Ok(*v as u64),
            other => Err(JsonError::new(format!("expected integer, got {other:?}"))),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| JsonError::new(format!("integer {v} overflows usize")))
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document (rejecting trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(input);
        let value = p.value()?;
        p.finish()?;
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact serialisation (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Types that serialise to a [`Json`] value.
pub trait ToJson {
    /// The value tree for this object.
    fn to_json_value(&self) -> Json;

    /// Serialises straight to a compact string.
    fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// Types that deserialise from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes from a value tree.
    fn from_json_value(v: &Json) -> Result<Self, JsonError>;

    /// Parses and decodes from a string.
    fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(s)?)
    }
}

impl ToJson for f64 {
    fn to_json_value(&self) -> Json {
        Json::Num(*self)
    }
}
impl FromJson for f64 {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json_value(item).map_err(|e| e.at(&format!("[{i}]"))))
            .collect()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Json {
        match self {
            Some(v) => v.to_json_value(),
            None => Json::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json_value(v).map(Some)
        }
    }
}

// ----- writer ---------------------------------------------------------------

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::UInt(n) => {
            out.push_str(&n.to_string());
        }
        Json::Num(n) => write_f64(*n, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_f64(n: f64, out: &mut String) {
    assert!(n.is_finite(), "json: cannot serialise non-finite float {n}");
    // Rust's `Display` is the shortest decimal that round-trips, but it
    // omits the fractional part for integral values; keep `.0` so a reader
    // can tell floats from integers.
    let s = n.to_string();
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----- parser ---------------------------------------------------------------

/// The recursive-descent reader behind [`Json::parse`]. Its tree-building
/// `object` and `array` run on the same member and element walks that a
/// streaming decoder (`DeltaArtifact::from_json`) calls directly.
pub(crate) struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-whitespace byte of `input`.
    pub(crate) fn new(input: &'a str) -> Self {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    /// Succeeds when only whitespace is left (no trailing garbage).
    pub(crate) fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The next unconsumed byte.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Parses one value into a tree.
    pub(crate) fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(JsonError::new(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut pairs = Vec::new();
        self.members(|p, key| {
            pairs.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.elements(|p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// Walks an object: reads each member's key and calls `member` with the
    /// parser at that member's value, which `member` must consume. Returns
    /// past the closing `}`.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Walks an array: calls `element` with the parser at each element,
    /// which `element` must consume. Returns past the closing `]`.
    pub(crate) fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"` or `\`. Both
            // are ASCII, so the run starts and ends on char boundaries of
            // the (already valid) input text.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // A backslash: one escape sequence.
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
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "bad escape {other:?} at byte {}",
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Reads a string that holds no escape sequence, borrowed from the
    /// input instead of copied: the text between the quotes. A `\\` in it
    /// is an error, so the borrow is always the string's exact value.
    pub(crate) fn plain_str(&mut self) -> Result<&'a str, JsonError> {
        self.expect(b'"')?;
        let rest = &self.text[self.pos..];
        let len = rest
            .find('"')
            .ok_or_else(|| JsonError::new("unterminated string"))?;
        let s = &rest[..len];
        if let Some(at) = s.find('\\') {
            return Err(JsonError::new(format!(
                "escape in a plain string at byte {}",
                self.pos + at
            )));
        }
        self.pos += len + 1;
        Ok(s)
    }

    /// Parses the 4 hex digits after `\u` (plus a surrogate pair if needed);
    /// on entry `pos` points at the `u`.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume `u`
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // Surrogate pair: require `\uXXXX` low half.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                self.pos += 2;
                let low = self.hex4()?;
                let cp = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| JsonError::new("invalid surrogate pair"));
            }
            return Err(JsonError::new("lone high surrogate"));
        }
        char::from_u32(high).ok_or_else(|| JsonError::new("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Scans one number literal, returning its text and its value as a
    /// correctly rounded `f64`. A literal that overflows to ±inf is an
    /// error: the writer never emits one, and a non-finite value decoded
    /// into a model or a delta would only fail later, further from its
    /// source.
    pub(crate) fn scan_number(&mut self) -> Result<(&'a str, f64), JsonError> {
        let start = self.pos;
        match self.peek() {
            Some(b'-') => self.pos += 1,
            Some(b) if b.is_ascii_digit() => {}
            _ => return Err(JsonError::new(format!("expected number at byte {start}"))),
        }
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        // Every scanned byte is ASCII, so this slice needs no validating.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok((text, v)),
            Ok(_) => Err(JsonError::new(format!("number `{text}` overflows f64"))),
            Err(_) => Err(JsonError::new(format!("invalid number `{text}`"))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let (text, v) = self.scan_number()?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        Ok(Json::Num(v))
    }

    /// Reads one number as an `f64` — the value [`Json::as_f64`] gives for
    /// the same literal (an integer literal rounds like `u64 as f64`).
    pub(crate) fn f64(&mut self) -> Result<f64, JsonError> {
        self.scan_number().map(|(_, v)| v)
    }
}

/// Decodes an externally-tagged enum value: either a bare string (unit
/// variant) or a one-key object (struct variant). Returns the variant name
/// and the payload (`Json::Null` for unit variants).
pub fn enum_variant(v: &Json) -> Result<(&str, &Json), JsonError> {
    static NULL: Json = Json::Null;
    match v {
        Json::Str(name) => Ok((name, &NULL)),
        Json::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
        other => Err(JsonError::new(format!(
            "expected enum (string or single-key object), got {other:?}"
        ))),
    }
}

/// Convenience: a HashMap view of an object's keys (for duplicate checks and
/// diagnostics in tests).
pub fn object_keys(v: &Json) -> HashMap<&str, &Json> {
    match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => HashMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_paths_chain_through_nested_decodes() {
        // A wrong-typed element inside an array inside an object reports
        // the full path, not just the leaf failure.
        let v = Json::parse(r#"{"xs": [1.0, true, 3.0]}"#).unwrap();
        let err = v.decode::<Vec<f64>>("xs").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at `xs[1]`"), "got: {msg}");
        assert!(msg.contains("expected number"), "got: {msg}");

        // Missing keys name the key.
        let err = v.decode::<f64>("absent").unwrap_err();
        assert!(err.to_string().contains("missing field `absent`"));

        // Manual chaining merges segments into one dotted path.
        let err = JsonError::new("missing field `window`")
            .at("early_stop")
            .at("config");
        assert!(
            err.to_string()
                .contains("at `config.early_stop`: missing field `window`"),
            "got: {err}"
        );
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\": }",
            "{\"a\": 1,}",
            "tru",
            "\"unterminated",
            "1e",
            "{\"a\": 1} trailing",
            "[1 2]",
            "nan",
            "1e999",
            "[0.5, -2e308]",
        ] {
            assert!(
                Json::parse(bad).is_err(),
                "parser must reject {bad:?} with an error"
            );
        }
    }

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            1e-3,
            std::f64::consts::PI,
            -2.2250738585072014e-308,
            1.7976931348623157e308,
            0.1 + 0.2,
        ] {
            let mut s = String::new();
            write_f64(x, &mut s);
            let v = Json::parse(&s).unwrap();
            let y = v.as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} → {s} → {y}");
        }
    }

    #[test]
    fn u64_is_exact() {
        let v = Json::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64().unwrap(), u64::MAX);
        assert_eq!(v.to_string(), u64::MAX.to_string());
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x\"y\\z","d":{}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.field("c").unwrap().as_str().unwrap(), "x\"y\\z");
        assert_eq!(v.field("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] , \"u\" : \"\\u00e9\\n\" } ").unwrap();
        assert_eq!(v.field("u").unwrap().as_str().unwrap(), "é\n");
        assert_eq!(v.field("k").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn strings_mix_plain_runs_and_escapes() {
        let v = Json::parse(r#""aé😀\n\"b\\\u0041c""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aé😀\n\"b\\Ac");
        let long = "é".repeat(50_000);
        let v = Json::parse(&format!("\"{long}\"")).unwrap();
        assert_eq!(v.as_str().unwrap(), long);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }

    #[test]
    fn control_characters_escape_on_write() {
        let v = Json::Str("a\u{1}b".into());
        assert_eq!(v.to_string(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::Null.field("k").is_err());
        assert!(Json::Bool(true).as_f64().is_err());
    }

    #[test]
    fn enum_conventions() {
        let unit = Json::parse("\"Gaussian\"").unwrap();
        let (name, payload) = enum_variant(&unit).unwrap();
        assert_eq!(name, "Gaussian");
        assert!(payload.is_null());

        let tagged = Json::parse(r#"{"Dense":{"in_dim":4}}"#).unwrap();
        let (name, payload) = enum_variant(&tagged).unwrap();
        assert_eq!(name, "Dense");
        assert_eq!(payload.field("in_dim").unwrap().as_usize().unwrap(), 4);
    }

    #[test]
    fn option_and_vec_impls() {
        let v: Option<f64> = None;
        assert_eq!(v.to_json_value(), Json::Null);
        let xs = vec![1.0, 2.0];
        let round: Vec<f64> = Vec::from_json(&xs.to_json()).unwrap();
        assert_eq!(round, xs);
    }
}
