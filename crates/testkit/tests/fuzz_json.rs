//! Fuzz gate for the JSON reader: mutated request bodies and documents
//! must be accepted or refused, never panic, and parse in bounded time.

use multipath_testkit::{fuzz, prop_assert, prop_test, Json, TestRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Valid inputs the mutations start from: the bodies `multipath serve`
/// reads and the shapes of the documents it writes.
const CORPUS: [&str; 5] = [
    r#"{"benches": ["compress", "go"], "features": "rec-rs-ru", "machine": "big.2.16",
        "policy": "nostop-16", "commits": 4000, "seed": 3, "interval": 100,
        "deadline_ms": 5000}"#,
    r#"{"deadline_ms": 60000, "cells": [{"benches": ["compress"], "features": "tme"},
        {"benches": ["go"], "features": "rec-rs-ru", "seed": 3}]}"#,
    r#"{"schema": "multipath-serve-error/v1", "error": "bad_request",
        "message": "unknown field \"x\" \\ é \n"}"#,
    r#"{"a": [1, -2.5e3, true, false, null, {"b": [[], {}]}], "c": "😀"}"#,
    r#"[0.000001, 9007199254740991, -0, 1E+2, "", "\t\"\/"]"#,
];

/// The most a parse of at most 64 KiB may take, even in a debug build.
const PARSE_BOUND: Duration = Duration::from_millis(500);

prop_test! {
    /// Mutated inputs never panic the reader and never take long.
    fn mutated_json_never_panics_or_hangs(input in |rng: &mut TestRng| {
        let base = *rng.pick(&CORPUS);
        fuzz::mutate(rng, base.as_bytes())
    }, cases = 512) {
        let text = String::from_utf8_lossy(&input).into_owned();
        let start = Instant::now();
        let parsed = catch_unwind(AssertUnwindSafe(|| Json::parse(&text).is_ok()));
        let took = start.elapsed();
        prop_assert!(parsed.is_ok(), "Json::parse panicked on {text:?}");
        prop_assert!(took < PARSE_BOUND, "Json::parse took {took:?} on {} bytes", text.len());
    }
}

#[test]
fn the_corpus_itself_parses() {
    for doc in CORPUS {
        Json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
}
