//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig-sweep|serve-miss|serve-hit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the timed run: it measures the end-to-end metrics with
//! no tracing anywhere. `--trace 1` is the traced run: it times calls
//! into each crate's public functions from this package and reports the
//! per-layer metrics. Both check the program's outputs; any mismatch
//! makes the command exit nonzero. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`). See
//! `README.md` beside this package for every metric and workload.

mod check;
mod gen;
mod layers;
mod measure;
mod timed;
mod traced;

use std::process::ExitCode;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 48 Figure-3 cells, serial, probes off.
    FigSweep,
    /// Distinct `POST /v1/run` bodies in a closed loop: every request misses.
    ServeMiss,
    /// A warmed set of bodies in a closed loop: every request hits.
    ServeHit,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "fig-sweep" => Workload::FigSweep,
            "serve-miss" => Workload::ServeMiss,
            "serve-hit" => Workload::ServeHit,
            _ => return None,
        })
    }

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigSweep => "fig-sweep",
            Workload::ServeMiss => "serve-miss",
            Workload::ServeHit => "serve-hit",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

const USAGE: &str = "usage: multipath-perfbench --workload <fig-sweep|serve-miss|serve-hit> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        // Kept below 2^53 so request bodies carry it exactly as JSON numbers.
        seed: seed.ok_or("missing --seed")? % (1 << 53),
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured (full precision).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports: the checked operation counts, the metrics, and
/// free-form notes (sample counts, workload property shares).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells simulated, requests sent, replays).
    pub attempted: u64,
    /// Operations whose output failed a check, or that failed or were refused.
    pub failed: u64,
    /// Run-level checks that failed (reconciliation, determinism).
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation; `problem` is `Some` when it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(p);
            }
        }
    }

    /// Records a failed run-level check.
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for note in &self.notes {
            println!("  {note}");
        }
        for e in &self.errors {
            println!("  CHECK FAILED: {e}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  {:<38} {:>18}  frac", "fail_frac", fail_frac);
        for m in &self.metrics {
            println!("  {:<38} {:>18.6}  {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_owned()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(&args)
    } else {
        timed::run(&args)
    };
    outcome.print(&args);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
