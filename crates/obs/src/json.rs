//! The workspace's one JSON codec: a value tree, a compact writer, a
//! linear-time reader, and a Chrome-trace validator.
//!
//! The build environment is offline, so there is no serde. Every JSON
//! document the workspace reads or writes goes through this module: the
//! harness result cache, mapping store and run manifest, the serve wire
//! protocol and acknowledgment journal, the lint baseline and call graph,
//! and the exported timelines.
//!
//! Numbers come in two forms. A token made only of decimal digits decodes
//! to an exact [`Json::U64`] (and is an error if it does not fit); any
//! other number decodes to [`Json::F64`]. Values that must round-trip
//! bit-exactly — simulator outputs, energies, cache payloads — are stored
//! as IEEE-754 bit patterns through [`Json::f64_bits`], never as decimal
//! floats. Trace timestamps and gauge values are written with
//! [`fmt_num`] and read back through [`Json::as_num`].
//!
//! The reader handles untrusted input (wire requests, MatrixMarket uploads,
//! on-disk files): it runs in time linear in the input length, rejects lone
//! UTF-16 surrogates in `\u` escapes, and returns `Err` for nesting deeper
//! than [`MAX_DEPTH`] instead of growing the stack without bound.

use std::fmt::Write as _;

/// The deepest array/object nesting [`parse`] accepts. Nothing the
/// workspace writes nests more than a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Formats a number the way trace viewers expect: integers without a
/// fractional part, everything else via Rust's shortest round-trip `{}`
/// display. Non-finite values (which JSON cannot carry) degrade to `0`.
/// Values of 2^64 and above take an exponent, so the reader never meets a
/// digits-only token too wide for [`Json::U64`].
pub fn fmt_num(value: f64) -> String {
    if !value.is_finite() {
        return "0".into();
    }
    if value == value.trunc() && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else if value >= u64::MAX as f64 {
        format!("{value:e}")
    } else {
        format!("{value}")
    }
}

/// Escapes a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so the unescaped runs
    // between them always end on character boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A JSON value. Objects keep their key order; lookup returns the first
/// matching key.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written with digits only, held exactly.
    U64(u64),
    /// Any other number (fractional, negative or with an exponent).
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Stores an `f64` as its exact bit pattern.
    pub fn f64_bits(v: f64) -> Json {
        Json::U64(v.to_bits())
    }

    /// Looks up a key in an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exact unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`, decoding the bit-pattern convention.
    pub fn as_f64_bits(&self) -> Option<f64> {
        self.as_u64().map(f64::from_bits)
    }

    /// The value as a plain number, whichever form it was written in.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text (no whitespace).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => out.push_str(&fmt_num(*v)),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Parses a complete JSON document, rejecting trailing data.
///
/// # Errors
///
/// Returns a message naming the byte offset of malformed input, an
/// unsigned integer that does not fit in `u64`, a non-finite float, a lone
/// surrogate escape, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    /// Parses one value that sits inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek()? {
            b'{' | b'[' if depth >= MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos))
            }
            b'{' => self.object(depth + 1),
            b'[' => self.array(depth + 1),
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected '{}' at byte {}", other as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("expected '{word}' at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let tok = &self.text[start..self.pos];
        if tok.bytes().all(|b| b.is_ascii_digit()) {
            return tok
                .parse::<u64>()
                .map(Json::U64)
                .map_err(|_| format!("integer {tok} at byte {start} does not fit in u64"));
        }
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(format!("bad number {tok:?} at byte {start}")),
        }
    }

    /// Parses a string whose opening quote is at `pos`. Unescaped runs are
    /// copied as whole slices, so decoding is linear in the string length.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            let stop = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += stop;
            out.push_str(&self.text[run..self.pos]);
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                other => return Err(format!("bad escape '\\{}'", other as char)),
            });
        }
    }

    /// Decodes the code point of a `\u` escape whose `\u` is consumed,
    /// joining a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(format!("lone surrogate \\u{hi:04x} at byte {at}"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u{code:04x} at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            if self.peek()? != b':' {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            pairs.push((key, self.value(depth)?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// What `validate_chrome_trace` learned about a trace file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Counter events (`ph == "C"`).
    pub counter_events: usize,
    /// Complete duration events (`ph == "X"`).
    pub duration_events: usize,
    /// Metadata events (`ph == "M"`).
    pub metadata_events: usize,
    /// Distinct counter-track names.
    pub counter_tracks: Vec<String>,
}

/// Validates `text` as a Chrome trace-event JSON object and summarizes it.
///
/// Checks the envelope (`traceEvents` array), then that every event has a
/// one-character `ph`, a `name`, and — for counter (`C`) and complete (`X`)
/// events — a numeric `ts` (plus `dur` and finite values where required).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse(text)?;
    let events =
        root.get("traceEvents").and_then(Json::as_arr).ok_or("missing \"traceEvents\" array")?;
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        match ph {
            "M" => summary.metadata_events += 1,
            "C" => {
                ev.get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): counter without numeric ts"))?;
                let args =
                    ev.get("args").ok_or_else(|| format!("event {i} ({name}): missing args"))?;
                let value = args
                    .get("value")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): counter without args.value"))?;
                if !value.is_finite() {
                    return Err(format!("event {i} ({name}): non-finite counter value"));
                }
                summary.counter_events += 1;
                if !summary.counter_tracks.iter().any(|t| t == name) {
                    summary.counter_tracks.push(name.to_string());
                }
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): slice without numeric ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i} ({name}): slice without numeric dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                summary.duration_events += 1;
            }
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
    }
    Ok(summary)
}
