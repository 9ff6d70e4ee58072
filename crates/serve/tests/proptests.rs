//! Property tests: the mini-JSON encoder and parser round-trip each
//! other over scalars, strings with escapes, and nested containers.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_serve::Json;
use proptest::prelude::*;

/// Strings exercising the encoder's escape paths: quotes, backslashes,
/// control characters, multi-byte UTF-8, and astral-plane characters
/// (surrogate pairs on the wire).
fn string_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        String::new(),
        "plain".to_string(),
        "with \"quotes\" and \\backslashes\\".to_string(),
        "tab\there, newline\nthere, return\rdone".to_string(),
        "control \u{0001}\u{001f} chars".to_string(),
        "ünïcödé — καλημέρα".to_string(),
        "astral \u{1F600}\u{10FFFF}".to_string(),
        "solidus / stays bare".to_string(),
    ])
}

/// Scalar values only (depth 0).
fn scalar_strategy() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // f64s that survive text round-trips exactly: integers and
        // dyadic fractions well inside the 2^53 exact range.
        (-1_000_000_000i64..1_000_000_000).prop_map(|n| Json::Num(n as f64)),
        (-4_000_000i64..4_000_000, 0u32..8)
            .prop_map(|(n, shift)| Json::Num(n as f64 / f64::from(1u32 << shift))),
        string_strategy().prop_map(Json::Str),
    ]
}

/// Containers of scalars (depth 1).
fn container_strategy() -> impl Strategy<Value = Json> {
    prop_oneof![
        prop::collection::vec(scalar_strategy(), 0..6).prop_map(Json::Arr),
        (
            prop::collection::vec(string_strategy(), 0..4),
            scalar_strategy()
        )
            .prop_map(|(keys, v)| {
                Json::Obj(
                    keys.into_iter()
                        .enumerate()
                        // Distinct keys: `get` returns the first match, so
                        // duplicate keys would round-trip structurally but
                        // not observationally.
                        .map(|(i, k)| (format!("{i}:{k}"), v.clone()))
                        .collect(),
                )
            }),
    ]
}

/// Values up to depth 2: containers holding scalars or containers.
fn value_strategy() -> impl Strategy<Value = Json> {
    prop_oneof![
        scalar_strategy(),
        container_strategy(),
        prop::collection::vec(container_strategy(), 0..4).prop_map(Json::Arr),
        (string_strategy(), container_strategy())
            .prop_map(|(k, v)| Json::Obj(vec![(format!("k:{k}"), v)])),
    ]
}

proptest! {
    /// `parse(encode(v)) == v` for every generated value.
    #[test]
    fn encode_parse_round_trips(v in value_strategy()) {
        let text = v.encode();
        let back = Json::parse(&text).expect("encoder output parses");
        prop_assert_eq!(back, v);
    }

    /// Encoded output stays a single line: raw control characters (the
    /// protocol delimiter included) are always escaped.
    #[test]
    fn encoded_text_is_one_line(v in value_strategy()) {
        let text = v.encode();
        prop_assert!(!text.contains('\n') && !text.contains('\r'), "{}", text);
        prop_assert!(text.chars().all(|c| c >= ' '), "{}", text);
    }

    /// Encoding is deterministic and re-encoding a parsed value is
    /// idempotent (canonical form reached after one round).
    #[test]
    fn re_encoding_is_stable(v in value_strategy()) {
        let once = v.encode();
        let again = Json::parse(&once).expect("parses").encode();
        prop_assert_eq!(once, again);
    }
}
