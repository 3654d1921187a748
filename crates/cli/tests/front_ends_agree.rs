//! A run request has three spellings: `multipath` command-line flags, a
//! JSON body (`POST /v1/run` and sweep cells), and the query pairs of
//! `GET /v1/explain/:kernel`. All three are syntax over one
//! `RunRequest`, so the same run spelled each way must describe the
//! same simulation, and a bad value must draw the same message from
//! every front end that accepts the field.

use multipath_cli::{parse_invocation, Invocation};
use multipath_serve::{ExplainRequest, RunRequest};

fn from_argv(line: &str) -> Result<RunRequest, String> {
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    match parse_invocation(&args)? {
        Invocation::Run(req)
        | Invocation::Compare(req)
        | Invocation::Trace(_, req)
        | Invocation::Explain(_, req) => Ok(req),
        other => panic!("{line:?} is not a simulating command: {other:?}"),
    }
}

/// `kernel?key=value&...`, as the explain route receives it.
fn from_query(target: &str) -> Result<RunRequest, String> {
    let (kernel, query) = target.split_once('?').unwrap_or((target, ""));
    let params: Vec<(String, String)> = query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').expect("key=value");
            (k.to_owned(), v.to_owned())
        })
        .collect();
    ExplainRequest::from_query(kernel, &params).map(|e| e.run)
}

/// One run per row: argv, JSON body, and explain query where the row's
/// fields allow (one kernel, no `interval`).
const SAME_RUN: &[(&str, &str, Option<&str>)] = &[
    ("run compress", r#"{"benches": ["compress"]}"#, Some("compress")),
    (
        "run compress --features rec-rs-ru --machine big.2.16 --policy stop-8 --commits 30000 --seed 1",
        r#"{"benches": ["compress"], "features": "rec-rs-ru", "machine": "big.2.16",
            "policy": "stop-8", "commits": 30000, "seed": 1, "interval": 100}"#,
        Some("compress?features=rec-rs-ru&machine=big.2.16&policy=stop-8&commits=30000&seed=1"),
    ),
    (
        "run compress --features rec --commits 4000 --seed 7",
        r#"{"benches": ["compress"], "features": "rec", "commits": 4000, "seed": 7}"#,
        Some("compress?features=rec&commits=4000&seed=7"),
    ),
    (
        "run li --machine small.2.8 --policy nostop-16",
        r#"{"benches": ["li"], "machine": "small.2.8", "policy": "nostop-16"}"#,
        Some("li?machine=small.2.8&policy=nostop-16"),
    ),
    // A policy given before the machine survives the machine's preset.
    (
        "run li --policy nostop-16 --features smt --machine small.2.8",
        r#"{"benches": ["li"], "policy": "nostop-16", "features": "smt", "machine": "small.2.8"}"#,
        Some("li?policy=nostop-16&features=smt&machine=small.2.8"),
    ),
    (
        "compare vortex go --features tme --machine big.1.8 --policy fetch-4",
        r#"{"benches": ["vortex", "go"], "features": "tme", "machine": "big.1.8",
            "policy": "fetch-4"}"#,
        None,
    ),
    (
        "trace compress --interval 50 --commits 2000 --out t.json",
        r#"{"benches": ["compress"], "interval": 50, "commits": 2000}"#,
        None,
    ),
    // An interval of 0 means 1, whichever front end says it.
    (
        "trace gcc --interval 0",
        r#"{"benches": ["gcc"], "interval": 1}"#,
        None,
    ),
    (
        "explain perl --seed 3 --top 4 --tree",
        r#"{"benches": ["perl"], "seed": 3}"#,
        Some("perl?seed=3&top=4"),
    ),
];

#[test]
fn every_spelling_of_a_run_describes_the_same_simulation() {
    for &(line, body, query) in SAME_RUN {
        let cli = from_argv(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        let mut forms = vec![(body, RunRequest::parse(body))];
        if let Some(q) = query {
            forms.push((q, from_query(q)));
        }
        for (spelling, parsed) in forms {
            let req = parsed.unwrap_or_else(|e| panic!("{spelling:?}: {e}"));
            assert_eq!(req.cache_key(), cli.cache_key(), "{line:?} vs {spelling:?}");
            assert_eq!(
                req.spec().config.canonical_string(),
                cli.spec().config.canonical_string(),
                "{line:?} vs {spelling:?}"
            );
        }
    }
}

/// One bad value per row, spelled by every front end that takes the
/// field, and the one message they all give.
const SAME_ERROR: &[(&str, &str, Option<&str>, &str)] = &[
    (
        "run compress --features warp",
        r#"{"benches": ["compress"], "features": "warp"}"#,
        Some("compress?features=warp"),
        "unknown features \"warp\"",
    ),
    (
        "run compress --machine tiny.0.0",
        r#"{"benches": ["compress"], "machine": "tiny.0.0"}"#,
        Some("compress?machine=tiny.0.0"),
        "unknown machine \"tiny.0.0\"",
    ),
    (
        "run compress --policy stop8",
        r#"{"benches": ["compress"], "policy": "stop8"}"#,
        Some("compress?policy=stop8"),
        "unknown policy \"stop8\"",
    ),
    (
        "run compress --commits 0",
        r#"{"benches": ["compress"], "commits": 0}"#,
        Some("compress?commits=0"),
        "\"commits\" must be positive",
    ),
    (
        "run compress --commits many",
        r#"{"benches": ["compress"], "commits": "many"}"#,
        Some("compress?commits=many"),
        "\"commits\" must be a non-negative integer",
    ),
    (
        "run nonesuch",
        r#"{"benches": ["nonesuch"]}"#,
        Some("nonesuch"),
        "unknown benchmark \"nonesuch\" (see `multipath list`)",
    ),
    (
        "run compress gcc go li perl su2cor tomcatv vortex compress --machine big.1.8",
        r#"{"benches": ["compress", "gcc", "go", "li", "perl", "su2cor", "tomcatv",
            "vortex", "compress"], "machine": "big.1.8"}"#,
        None,
        "9 programs exceed the machine's 8 hardware contexts",
    ),
    (
        "run --seed 2",
        r#"{"seed": 2}"#,
        None,
        "no benchmarks given (see `multipath list`)",
    ),
];

#[test]
fn every_front_end_rejects_a_bad_value_with_one_message() {
    for &(line, body, query, message) in SAME_ERROR {
        assert_eq!(from_argv(line).unwrap_err(), message, "{line:?}");
        assert_eq!(RunRequest::parse(body).unwrap_err(), message, "{body}");
        if let Some(q) = query {
            assert_eq!(from_query(q).unwrap_err(), message, "{q:?}");
        }
    }
}
