//! The line/JSON wire protocol between the `serve` CLI and the daemon.
//!
//! Each request is one line of `spacea_obs::json` text with a `"cmd"`
//! discriminator; each response is one line with an `"ok"` boolean.
//! Floats — the response vectors — travel as IEEE-754 bit patterns
//! (`u64`), so the protocol preserves the simulator's bitwise guarantees
//! end to end: what the client decodes is exactly what the machine
//! produced, including negative zeros.
//!
//! # Framing
//!
//! Both ends send a line — its JSON text and the closing `'\n'` — with one
//! `write` ([`write_line`]) and keep `TCP_NODELAY` on their stream. A line
//! sent as two writes (text, then newline) stalls on loopback: Nagle holds
//! the 1-byte tail until the peer ACKs the text, and the peer, still
//! waiting for the newline, delays that ACK by ~40 ms — once per direction,
//! about 90 ms per round trip. The single write is what removes the stall;
//! with `TCP_NODELAY` on as well, no write of the protocol waits on Nagle.
//!
//! A request line holds at most [`MAX_LINE_BYTES`], newline included. The
//! daemon reads through that cap, so a client that never sends a newline
//! cannot grow its buffer without bound: past the cap it gets a
//! `too-large` error and the connection closes, since the rest of the line
//! cannot be framed. [`crate::Client`] refuses such a line with the same
//! code before sending a byte of it.
//!
//! # Matrix size
//!
//! A `register-mtx` matrix may declare at most
//! [`spacea_matrix::mmio::MAX_DIM`] (2,097,152) rows and as many columns,
//! about twice the largest Table I matrix (webbase-1M, 1,000,005 rows).
//! The reader checks the size line before it allocates anything, since a
//! CSR holds `rows + 1` offsets however few entries follow: a header past
//! the cap is answered with `too-large` and the connection serves on. Any
//! other unparseable text is `bad-request`.

use crate::error::ServeError;
use spacea_obs::json::Json;
use std::io::{self, Write};

/// Name of the file (under the daemon's cache directory) that holds the
/// bound TCP port, written once the listener is up. Doubles as the
/// "daemon is ready" signal for scripts.
pub const PORT_FILE: &str = "serve.port";

/// Longest request line the daemon reads, newline included: 64 MiB.
///
/// The one request that can be long is `register-mtx`, whose line carries
/// a whole MatrixMarket file. A stored entry costs at most 42 bytes of
/// line (two 7-digit indices, a 24-character shortest-round-trip `f64`,
/// two separators, the newline escaped as `\n`), so the cap admits at
/// least 1.6 million stored entries. Of the Table I matrices at full
/// scale that covers bcsstk32, ct20stif (both stored symmetric), lhr71 and
/// soc-sign-epinions, but not the largest: crankseg_2 stores ~7.1 million
/// entries even in symmetric form (~285 MiB of text at that bound) and
/// pwtk ~5.9 million. Table I matrices register by suite id
/// (`register {id, scale}`), which sends no text; an upload past the cap
/// is refused with `too-large`. The cap is not raised to fit them because
/// the daemon holds the whole line while reading it and copies it again
/// while decoding, so any local client could make it hold twice the cap.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The `too-large` message for a request line past [`MAX_LINE_BYTES`];
/// `len` is the line's length when the sender knows it (the daemon stops
/// reading at the cap, so it does not).
pub(crate) fn line_too_large(len: Option<usize>) -> ServeError {
    let what = match len {
        Some(n) => format!("request line of {n} bytes"),
        None => "request line".to_string(),
    };
    ServeError::TooLarge(format!(
        "{what} exceeds the {} MiB limit ({MAX_LINE_BYTES} bytes, newline included)",
        MAX_LINE_BYTES >> 20
    ))
}

/// Sends `json_text` and its closing newline as one `write_all`, so the
/// line leaves in as few segments as its length allows (see the module
/// docs on framing).
///
/// # Errors
///
/// Propagates the write error.
pub fn write_line(w: &mut impl Write, mut json_text: String) -> io::Result<()> {
    json_text.push('\n');
    w.write_all(json_text.as_bytes())
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Register a Table I suite matrix by id and down-scale factor.
    Register {
        /// Suite matrix id (Table I numbering).
        id: u8,
        /// Down-scale factor handed to the generator.
        scale: usize,
    },
    /// Run SpMV of a deterministic seeded vector against a registered
    /// matrix. The daemon derives the vector from the seed so a dense
    /// vector never crosses the wire on the request path.
    Submit {
        /// Content key returned by `Register`.
        matrix: u64,
        /// Seed of the input vector (see [`seeded_vector`]).
        seed: u64,
        /// Per-request deadline override in milliseconds; `None` uses the
        /// daemon's configured default. A request not answered in time is
        /// rejected with the `deadline-exceeded` code.
        deadline_ms: Option<u64>,
    },
    /// Register a matrix from MatrixMarket text (the file body travels
    /// on the wire with newlines JSON-escaped), so serving is not
    /// suite-only. Dimensions past [`spacea_matrix::mmio::MAX_DIM`] are
    /// `too-large` (see the module docs on matrix size).
    RegisterMtx {
        /// The MatrixMarket file contents.
        text: String,
    },
    /// Compact the acknowledgment journal down to the newest `retain`
    /// files (crash-safe watermark + unlink; see
    /// [`crate::journal::AckJournal::compact`]).
    Compact {
        /// How many journal files to keep.
        retain: usize,
    },
    /// Fetch engine counters.
    Stat,
    /// Stop the daemon (it flushes its manifest and telemetry first).
    Shutdown,
}

impl Request {
    /// Encodes the request as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::obj(vec![("cmd", Json::Str("ping".into()))]),
            Request::Register { id, scale } => Json::obj(vec![
                ("cmd", Json::Str("register".into())),
                ("id", Json::U64(u64::from(*id))),
                ("scale", Json::U64(*scale as u64)),
            ]),
            Request::Submit { matrix, seed, deadline_ms } => {
                let mut fields = vec![
                    ("cmd", Json::Str("submit".into())),
                    ("matrix", Json::U64(*matrix)),
                    ("seed", Json::U64(*seed)),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", Json::U64(*ms)));
                }
                Json::obj(fields)
            }
            Request::RegisterMtx { text } => Json::obj(vec![
                ("cmd", Json::Str("register-mtx".into())),
                ("text", Json::Str(text.clone())),
            ]),
            Request::Compact { retain } => Json::obj(vec![
                ("cmd", Json::Str("compact".into())),
                ("retain", Json::U64(*retain as u64)),
            ]),
            Request::Stat => Json::obj(vec![("cmd", Json::Str("stat".into()))]),
            Request::Shutdown => Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_text()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown `cmd`, or missing
    /// fields.
    pub fn parse(text: &str) -> Result<Request, String> {
        let v = spacea_obs::json::parse(text)?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "request has no \"cmd\" field".to_string())?
            .to_string();
        let need_u64 = |field: &str| {
            v.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("\"{cmd}\" needs a numeric \"{field}\" field"))
        };
        match cmd.as_str() {
            "ping" => Ok(Request::Ping),
            "register" => {
                let id = need_u64("id")?;
                let id = u8::try_from(id).map_err(|_| format!("suite id {id} out of range"))?;
                Ok(Request::Register { id, scale: need_u64("scale")? as usize })
            }
            "submit" => Ok(Request::Submit {
                matrix: need_u64("matrix")?,
                seed: need_u64("seed")?,
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            }),
            "register-mtx" => {
                let text = v
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "\"register-mtx\" needs a string \"text\" field".to_string())?;
                Ok(Request::RegisterMtx { text: text.to_string() })
            }
            "compact" => Ok(Request::Compact { retain: need_u64("retain")? as usize }),
            "stat" => Ok(Request::Stat),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// A success response carrying `fields`, with `"ok": true` prepended.
pub fn ok(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// An error response: `{"ok": false, "error": msg}` with the generic
/// `internal` code. Prefer [`err_code`] when a more specific code exists.
pub fn err(msg: &str) -> Json {
    err_code("internal", msg)
}

/// An error response carrying a stable machine-readable code alongside the
/// human-readable message: `{"ok": false, "code": code, "error": msg}`.
/// The codes are [`crate::error::ServeError::code`] values; clients branch
/// on the code (retry `overloaded`, surface `deadline-exceeded`), never on
/// the message text.
pub fn err_code(code: &str, msg: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::Str(code.into())),
        ("error", Json::Str(msg.into())),
    ])
}

/// Whether a response reports success.
pub fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The error message of a failed response, if present.
pub fn error_of(v: &Json) -> Option<&str> {
    v.get("error").and_then(Json::as_str)
}

/// The machine-readable error code of a failed response. Responses from
/// daemons predating the code field decode as `"internal"`.
pub fn code_of(v: &Json) -> &str {
    v.get("code").and_then(Json::as_str).unwrap_or("internal")
}

/// Encodes an output vector as an array of IEEE-754 bit patterns.
pub fn y_bits(y: &[f64]) -> Json {
    Json::Arr(y.iter().map(|v| Json::U64(v.to_bits())).collect())
}

/// Decodes a [`y_bits`] array back into floats; `None` if the value is
/// not an all-numeric array.
pub fn y_from_bits(v: &Json) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(|e| e.as_u64().map(f64::from_bits)).collect()
}

/// The deterministic request vector for `seed`: `n` values in `[-1, 1)`
/// from a splitmix64 stream. Client and daemon derive it independently,
/// so only the 8-byte seed crosses the wire.
pub fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64) * (1.0 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        let all = [
            Request::Ping,
            Request::Register { id: 3, scale: 256 },
            Request::Submit { matrix: 0xDEAD_BEEF_0123_4567, seed: 42, deadline_ms: None },
            Request::Submit { matrix: 7, seed: 0, deadline_ms: Some(250) },
            Request::RegisterMtx {
                text: "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n".into(),
            },
            Request::Compact { retain: 4 },
            Request::Stat,
            Request::Shutdown,
        ];
        for req in all {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn write_line_sends_text_and_newline_in_one_write() {
        /// Records each `write` call's bytes.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        write_line(&mut w, Request::Ping.to_line()).unwrap();
        assert_eq!(w.0, vec![b"{\"cmd\":\"ping\"}\n".to_vec()]);
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"cmd\":\"warp\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"submit\",\"matrix\":1}").is_err(), "missing seed");
        assert!(Request::parse("{\"cmd\":\"register\",\"id\":999,\"scale\":1}").is_err());
        assert!(Request::parse("{\"id\":1}").is_err(), "missing cmd");
        assert!(Request::parse("{\"cmd\":\"register-mtx\"}").is_err(), "missing text");
        assert!(Request::parse("{\"cmd\":\"compact\"}").is_err(), "missing retain");
    }

    #[test]
    fn vectors_round_trip_bitwise_including_negative_zero() {
        let y = vec![1.5, -0.0, f64::MIN_POSITIVE, -123.456];
        let back = y_from_bits(&y_bits(&y)).unwrap();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert!(y_from_bits(&Json::Str("nope".into())).is_none());
    }

    #[test]
    fn seeded_vectors_are_deterministic_and_bounded() {
        let a = seeded_vector(1024, 7);
        let b = seeded_vector(1024, 7);
        assert_eq!(a, b);
        assert_ne!(a, seeded_vector(1024, 8));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn responses_carry_ok_and_error() {
        let good = ok(vec![("cycles", Json::U64(9))]);
        assert!(is_ok(&good));
        assert_eq!(good.get("cycles").and_then(Json::as_u64), Some(9));
        let bad = err("nope");
        assert!(!is_ok(&bad));
        assert_eq!(error_of(&bad), Some("nope"));
        assert_eq!(code_of(&bad), "internal");
    }

    #[test]
    fn coded_errors_round_trip_their_code() {
        let v = err_code("overloaded", "queue full");
        assert!(!is_ok(&v));
        assert_eq!(code_of(&v), "overloaded");
        assert_eq!(error_of(&v), Some("queue full"));
        // A code-less legacy error decodes as the generic internal code.
        let legacy = Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::Str("x".into()))]);
        assert_eq!(code_of(&legacy), "internal");
    }
}
