//! The JSON codec against untrusted input: writer/reader round trips,
//! arbitrary bytes, hostile nesting and large strings.

use proptest::prelude::*;
use proptest::TestRng;
use spacea_obs::json::{escape, fmt_num, parse, validate_chrome_trace, Json, MAX_DEPTH};
use std::time::{Duration, Instant};

/// Random JSON trees, at most `depth` containers deep. Floats are drawn
/// non-integral: an integral float is written without a fraction and so
/// reads back as the equal `U64` (exact values travel as `f64_bits`).
struct ArbJson {
    depth: u32,
}

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        arb_json(rng, self.depth)
    }
}

fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::U64(match rng.below(4) {
            0 => u64::MAX,
            1 => rng.below(10),
            _ => rng.next_u64() >> rng.below(64),
        }),
        3 => Json::f64_bits(f64::from_bits(rng.next_u64())),
        4 => {
            let f = (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20);
            Json::F64(if f == f.trunc() { 0.25 } else { f })
        }
        5 => Json::Str(arb_string(rng)),
        6 => Json::Arr((0..rng.below(5)).map(|_| arb_json(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(5)).map(|_| (arb_string(rng), arb_json(rng, depth - 1))).collect(),
        ),
    }
}

fn arb_string(rng: &mut TestRng) -> String {
    const CHARS: [char; 12] = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', 'é', '€', '😀'];
    (0..rng.below(12)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
}

/// Fragments that steer random input into every branch of the reader,
/// separated by `|`.
const FRAGMENTS: &str =
    r#"[|]|{|}|,|:|"|\|\u|d83d|dc00|00e9|1|0|-|.|e|+|true|nul| |é|"k":|18446744073709551616"#;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn written_trees_parse_back_equal(v in ArbJson { depth: 4 }) {
        let text = v.to_text();
        prop_assert_eq!(parse(&text), Ok(v));
    }

    #[test]
    fn f64_bits_round_trip(bits in any::<u64>()) {
        let text = Json::f64_bits(f64::from_bits(bits)).to_text();
        let back = parse(&text).unwrap().as_f64_bits().unwrap();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn fragment_soup_never_panics(picks in proptest::collection::vec(0usize..24, 0..48)) {
        let fragments: Vec<&str> = FRAGMENTS.split('|').collect();
        let text: String = picks.iter().map(|&i| fragments[i]).collect();
        let _ = parse(&text);
    }

    #[test]
    fn truncated_documents_never_panic(v in ArbJson { depth: 3 }) {
        let text = v.to_text();
        for cut in 0..text.len() {
            if let Some(prefix) = text.get(..cut) {
                let _ = parse(prefix);
            }
        }
    }
}

#[test]
fn documents_round_trip_through_writer_and_reader() {
    let cases = [
        Json::obj(vec![
            ("kind", Json::Str("sim".into())),
            ("bits", Json::f64_bits(-1.5)),
            ("work", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]),
        Json::Str("a\"b\\c\nd\u{1}é".into()),
        Json::U64(u64::MAX),
        Json::F64(-12.0),
        Json::F64(2.5),
        Json::Null,
    ];
    for v in cases {
        assert_eq!(parse(&v.to_text()), Ok(v));
    }
    for x in [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE, 2.5e-300] {
        let back = parse(&Json::f64_bits(x).to_text()).unwrap().as_f64_bits().unwrap();
        assert_eq!(back.to_bits(), x.to_bits());
    }
}

#[test]
fn writer_is_compact_and_keeps_key_order() {
    let v = Json::obj(vec![
        ("z", Json::U64(1)),
        ("a", Json::Arr(vec![Json::Bool(false), Json::Null, Json::F64(0.5)])),
        ("s", Json::Str("q\"\t".into())),
    ]);
    assert_eq!(v.to_text(), r#"{"z":1,"a":[false,null,0.5],"s":"q\"\t"}"#);
}

#[test]
fn reader_accepts_documents_from_both_dialects() {
    let v = parse(" { \"a\" : [ 1 , true ] } ").unwrap();
    assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);

    let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": true, "d": null}}"#).unwrap();
    let a = v.get("a").unwrap().as_arr().unwrap();
    assert_eq!((a[0].as_u64(), a[1].as_num(), a[2].as_str()), (Some(1), Some(2.5), Some("x")));
    assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
    assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));

    assert_eq!(
        parse("\"a\\\"b\\\\c\\nd\\u0041\\b\\f\\/\"").unwrap().as_str(),
        Some("a\"b\\c\ndA\u{8}\u{c}/")
    );
    assert_eq!(parse(r#"{"k":1,"k":2}"#).unwrap().get("k"), Some(&Json::U64(1)));
}

#[test]
fn numbers_split_into_exact_integers_and_floats() {
    assert_eq!(parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
    assert!(parse("18446744073709551616").is_err());
    assert_eq!(parse("007"), Ok(Json::U64(7)));
    // Floats and negatives are numbers, but never unsigned integers: the
    // field accessors of the wire protocol and the cache reject them.
    for (text, want) in [("1.5", 1.5), ("-3", -3.0), ("2e3", 2000.0), ("-0.25E-2", -0.0025)] {
        let v = parse(text).unwrap();
        assert_eq!((v.as_u64(), v.as_num()), (None, Some(want)), "{text}");
    }
    for text in ["-", "1e", "1.2.3", "1e999", "+1", "--1"] {
        assert!(parse(text).is_err(), "{text}");
    }
}

#[test]
fn fmt_num_output_reads_back() {
    assert_eq!(fmt_num(3.0), "3");
    assert_eq!(fmt_num(0.5), "0.5");
    assert_eq!(fmt_num(-12.0), "-12");
    assert_eq!(fmt_num(f64::NAN), "0");
    assert_eq!(fmt_num(f64::INFINITY), "0");
    for v in [0.1, 123.456, 1.0e-9, 9.5e15, -3.0e18, 1.0e19, 1.0e300, f64::MAX] {
        assert_eq!(parse(&fmt_num(v)).unwrap().as_num(), Some(v), "{v}");
    }
}

#[test]
fn escape_handles_controls_and_quotes() {
    assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    assert_eq!(escape("\u{1}\u{1f}é"), "\\u0001\\u001fé");
    assert_eq!(Json::Str("x\ry".into()).to_text(), format!("\"{}\"", escape("x\ry")));
}

#[test]
fn surrogate_escapes_join_in_pairs_and_lone_ones_fail() {
    assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
    for text in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
        assert!(parse(text).is_err(), "{text}");
    }
}

#[test]
fn malformed_documents_are_errors() {
    for text in [
        "",
        "{",
        "[1,]",
        "[1, 2,]",
        "{}x",
        "{\"a\": 1} junk",
        "{1:2}",
        "{\"a\" 1}",
        "[1 2]",
        "\"open",
        "\"\\q\"",
        "\"\\u12\"",
        "\"\\u+041\"",
        "tru",
        "nul",
        "x",
        "\u{1}",
    ] {
        assert!(parse(text).is_err(), "{text:?}");
    }
}

#[test]
fn nesting_is_bounded() {
    let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&ok).is_ok());
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert!(parse(&deep).is_err());
    let objs = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
    assert!(parse(&objs).is_err());
}

#[test]
fn a_million_open_brackets_is_an_error_not_an_abort() {
    let err = parse(&"[".repeat(1_000_000)).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
}

#[test]
fn a_one_mib_string_decodes_in_linear_time() {
    let body: String = "12 34 5.5e-3\\n\"é€😀\u{1}\n".chars().cycle().take(1 << 20).collect();
    let text = Json::Str(body.clone()).to_text();
    let start = Instant::now();
    let back = parse(&text).unwrap();
    let took = start.elapsed();
    assert_eq!(back.as_str(), Some(body.as_str()));
    assert!(took < Duration::from_secs(1), "1 MiB string took {took:?}");
}

#[test]
fn validator_accepts_minimal_trace() {
    let text = r#"{"displayTimeUnit":"ns","traceEvents":[
        {"ph":"M","pid":1,"name":"process_name","args":{"name":"spacea"}},
        {"ph":"C","pid":1,"name":"vault0/ldq/l1-occupancy","ts":0.5,"args":{"value":3}},
        {"ph":"X","pid":1,"tid":0,"name":"X block 1","ts":1,"dur":2}
    ]}"#;
    let summary = validate_chrome_trace(text).unwrap();
    assert_eq!(summary.counter_events, 1);
    assert_eq!(summary.duration_events, 1);
    assert_eq!(summary.metadata_events, 1);
    assert_eq!(summary.counter_tracks, vec!["vault0/ldq/l1-occupancy".to_string()]);
}

#[test]
fn validator_rejects_malformed_traces() {
    assert!(validate_chrome_trace("{}").is_err());
    assert!(validate_chrome_trace(r#"{"traceEvents":[{"name":"x"}]}"#).is_err());
    let bad_counter = r#"{"traceEvents":[{"ph":"C","name":"c","ts":0,"args":{}}]}"#;
    assert!(validate_chrome_trace(bad_counter).is_err());
    let negative = r#"{"traceEvents":[{"ph":"X","name":"x","ts":-1,"dur":2}]}"#;
    assert!(validate_chrome_trace(negative).is_err());
}
