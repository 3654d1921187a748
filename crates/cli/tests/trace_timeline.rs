//! `multipath trace --timeline N` shows the last N cycles of the run and
//! leaves the run itself alone: the stats document is byte-identical with
//! and without it, so it still matches what `POST /v1/run` serves.

use std::path::Path;
use std::process::Command;

/// Runs `multipath trace compress --commits 4000` with `extra` flags;
/// returns stdout and the stats document.
fn trace(dir: &Path, name: &str, extra: &[&str]) -> (String, Vec<u8>) {
    let stats = dir.join(format!("{name}-stats.json"));
    let out = dir.join(format!("{name}-trace.json"));
    let run = Command::new(env!("CARGO_BIN_EXE_multipath"))
        .args(["trace", "compress", "--commits", "4000", "--stats-out"])
        .arg(&stats)
        .arg("--out")
        .arg(&out)
        .args(extra)
        .output()
        .expect("run the multipath binary");
    assert!(run.status.success(), "multipath trace failed: {run:?}");
    (
        String::from_utf8(run.stdout).expect("utf-8 stdout"),
        std::fs::read(&stats).expect("read stats doc"),
    )
}

#[test]
fn timeline_shows_the_last_cycles_and_leaves_stats_untouched() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_timeline");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let (plain_out, plain_stats) = trace(&dir, "plain", &[]);
    let (timeline_out, timeline_stats) = trace(&dir, "timeline", &["--timeline", "200"]);
    assert_eq!(
        plain_stats, timeline_stats,
        "--timeline must not change the stats document"
    );
    assert_eq!(
        plain_out.lines().next(),
        timeline_out.lines().next(),
        "same committed/cycles summary"
    );

    // One header plus one row per 200 / 48 = 4 cycles.
    let rows: Vec<&str> = timeline_out
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("cycle"))
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(rows.len(), 1 + 200 / 4, "{timeline_out}");

    // The last row is within one stride of the run's final cycle.
    let cycles: u64 = plain_out
        .split(" committed in ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("summary line reports cycles");
    let last: u64 = rows[rows.len() - 1]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .expect("timeline rows start with the cycle");
    assert!(
        last <= cycles && cycles - last < 4,
        "last row {last}, run ended at {cycles}"
    );
}
