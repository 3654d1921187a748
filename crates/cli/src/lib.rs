//! `multipath-cli` — argument parsing for the `multipath` binary.
//!
//! Parsing lives in a library (separate from `main.rs`) so that other
//! code can validate command lines without executing them: the docs
//! suite parses every `$ multipath ...` invocation found in the
//! repository's markdown through [`parse_invocation`], which guarantees
//! documented commands cannot rot silently.
//!
//! Parsers are pure: they touch no files, print nothing, and report
//! problems as `Err(String)`. A simulating subcommand's workload flags
//! (`--features`, `--machine`, `--policy`, `--commits`, `--seed`, and
//! `trace`'s `--interval`) and benchmark names are only syntax: each goes
//! straight to [`RunRequest::set`] or [`RunRequest::add_bench`], the one
//! definition of a run's fields, defaults, checks and error messages,
//! which `multipath serve` parses request bodies into as well.

pub use multipath_bench::FIGURES;
use multipath_core::EventFilter;
use multipath_serve::request::{self, Value};
use multipath_serve::{ExplainRequest, RunRequest, ServeConfig};
use multipath_workload::Benchmark;

/// The usage text printed on any parse error.
pub const USAGE: &str = "usage:\n  multipath run [OPTIONS] <BENCH>...\n  \
    multipath trace [OPTIONS] <BENCH>...\n  \
    multipath explain [OPTIONS] <BENCH>...\n  \
    multipath compare [OPTIONS] <BENCH>...\n  \
    multipath figures [fig3|fig4|fig5|fig6|table1|explain]...\n  \
    multipath serve [SERVE OPTIONS]\n  \
    multipath list\n  multipath disasm <BENCH>\n\noptions:\n  \
    --features smt|tme|rec|rec-ru|rec-rs|rec-rs-ru\n  \
    --machine big.2.16|big.1.8|small.2.8|small.1.8\n  --policy stop-N|fetch-N|nostop-N\n  \
    --commits N   --seed N\n\ntrace options:\n  \
    --interval N   --events LIST   --out PATH   --stats-out PATH\n  \
    --format json|csv   --timeline N   --print-events N\n\nexplain options:\n  \
    --top N   --json-out PATH   --report-out PATH   --dot-out PATH   --tree\n\n\
    serve options:\n  \
    --addr HOST:PORT (default 127.0.0.1:8273)   --workers N (default: all cores)\n  \
    --queue N (default 64)   --cache-mb N (default 64)\n\n\
    environment (figures):\n  \
    MULTIPATH_THREADS=N   sweep worker count (default: all cores)\n  \
    MULTIPATH_BUDGET=quick   smoke-sized sweep\n  MP_FORMAT=csv   CSV output\n";

/// `multipath trace`-specific options.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// Event filter (default: all events).
    pub filter: EventFilter,
    /// Perfetto/Chrome-trace output path.
    pub out: String,
    /// Stats-document output path.
    pub stats_out: String,
    /// Emit interval CSV instead of the stats JSON document.
    pub csv: bool,
    /// Also print a text timeline of the last N cycles.
    pub timeline: Option<u64>,
    /// Dump the last N events as text.
    pub print_events: Option<usize>,
}

/// `multipath explain`-specific options.
#[derive(Debug, Clone)]
pub struct ExplainOptions {
    /// Rows per attribution table (default 10).
    pub top: usize,
    /// `multipath-explain/v1` output path.
    pub json_out: String,
    /// Also write the markdown report here.
    pub report_out: Option<String>,
    /// Write the path DAG as Graphviz DOT here.
    pub dot_out: Option<String>,
    /// Print the ASCII path tree after the report.
    pub tree: bool,
}

/// One fully parsed `multipath` command line.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// `multipath run` — simulate one workload, print the summary line.
    Run(RunRequest),
    /// `multipath trace` — run with probes, write trace + stats files.
    Trace(TraceOptions, RunRequest),
    /// `multipath explain` — attribution report + path tree.
    Explain(ExplainOptions, RunRequest),
    /// `multipath compare` — all six feature configurations side by side.
    Compare(RunRequest),
    /// `multipath figures` — regenerate the named paper figures.
    Figures(Vec<&'static str>),
    /// `multipath serve` — run the persistent simulation service.
    Serve(ServeConfig),
    /// `multipath list` — list benchmarks, machines, policies.
    List,
    /// `multipath disasm` — disassemble one kernel.
    Disasm(Benchmark),
}

/// Parses a full argument vector (without the program name).
pub fn parse_invocation(args: &[String]) -> Result<Invocation, String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| "missing command".to_owned())?;
    match cmd.as_str() {
        "run" => Ok(Invocation::Run(parse_request(RunRequest::default(), rest)?)),
        "trace" => {
            let mut req = RunRequest::default();
            let (topts, rest) = parse_trace_options(rest, &mut req)?;
            Ok(Invocation::Trace(topts, parse_request(req, &rest)?))
        }
        "explain" => {
            let (eopts, rest) = parse_explain_options(rest)?;
            let req = parse_request(RunRequest::default(), &rest)?;
            Ok(Invocation::Explain(eopts, req))
        }
        "compare" => Ok(Invocation::Compare(parse_request(
            RunRequest::default(),
            rest,
        )?)),
        "figures" => Ok(Invocation::Figures(parse_figures(rest)?)),
        "serve" => Ok(Invocation::Serve(parse_serve_options(rest)?)),
        "list" => {
            require_no_args("list", rest)?;
            Ok(Invocation::List)
        }
        "disasm" => {
            let name = rest
                .first()
                .ok_or_else(|| "disasm needs a benchmark name".to_owned())?;
            if rest.len() > 1 {
                return Err(format!("disasm takes one benchmark, got {}", rest.len()));
            }
            Ok(Invocation::Disasm(request::bench(name)?))
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Parses the workload flags and benchmark names in `args` into `req`
/// (everything after the subcommand for `run`/`compare`; the remainder
/// for `trace`/`explain`) and applies the request's checks.
pub fn parse_request(mut req: RunRequest, args: &[String]) -> Result<RunRequest, String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(field) if RunRequest::COMMON_FIELDS.contains(&field) => {
                req.set(field, Value::Text(flag_value(&mut it, arg)?))?
            }
            Some(_) => return Err(format!("unknown option '{arg}'")),
            None => req.add_bench(arg)?,
        }
    }
    req.checked()
}

/// Splits the trace-specific flags off `args`, setting `--interval` on
/// `req` and returning the remainder (which parses as ordinary run
/// options).
pub fn parse_trace_options(
    args: &[String],
    req: &mut RunRequest,
) -> Result<(TraceOptions, Vec<String>), String> {
    let mut topts = TraceOptions {
        filter: EventFilter::all(),
        out: "multipath-trace.json".to_owned(),
        stats_out: "multipath-stats.json".to_owned(),
        csv: false,
        timeline: None,
        print_events: None,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => req.set("interval", Value::Text(flag_value(&mut it, "--interval")?))?,
            "--events" => {
                topts.filter = EventFilter::parse(flag_value(&mut it, "--events")?)?;
            }
            "--out" => topts.out = flag_value(&mut it, "--out")?.to_owned(),
            "--stats-out" => topts.stats_out = flag_value(&mut it, "--stats-out")?.to_owned(),
            "--format" => {
                topts.csv = match flag_value(&mut it, "--format")? {
                    "csv" => true,
                    "json" => false,
                    other => {
                        return Err(format!(
                            "unknown stats format '{other}' (expected json or csv)"
                        ))
                    }
                }
            }
            "--timeline" => {
                topts.timeline = Some(parse_number(flag_value(&mut it, "--timeline")?)?)
            }
            "--print-events" => {
                topts.print_events = Some(parse_number(flag_value(&mut it, "--print-events")?)?)
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((topts, rest))
}

/// Splits the explain-specific flags off `args`, returning the remainder
/// (which parses as ordinary run options).
pub fn parse_explain_options(args: &[String]) -> Result<(ExplainOptions, Vec<String>), String> {
    let mut eopts = ExplainOptions {
        top: ExplainRequest::DEFAULT_TOP,
        json_out: "multipath-explain.json".to_owned(),
        report_out: None,
        dot_out: None,
        tree: false,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => eopts.top = parse_number(flag_value(&mut it, "--top")?)?,
            "--json-out" => eopts.json_out = flag_value(&mut it, "--json-out")?.to_owned(),
            "--report-out" => {
                eopts.report_out = Some(flag_value(&mut it, "--report-out")?.to_owned())
            }
            "--dot-out" => eopts.dot_out = Some(flag_value(&mut it, "--dot-out")?.to_owned()),
            "--tree" => eopts.tree = true,
            _ => rest.push(arg.clone()),
        }
    }
    Ok((eopts, rest))
}

/// Validates figure names against [`FIGURES`]; no names means all.
pub fn parse_figures(args: &[String]) -> Result<Vec<&'static str>, String> {
    if args.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    args.iter()
        .map(|a| {
            FIGURES
                .iter()
                .find(|&&f| f == a.as_str())
                .copied()
                .ok_or_else(|| {
                    format!(
                        "unknown figure '{a}' (expected one of {})",
                        FIGURES.join(" ")
                    )
                })
        })
        .collect()
}

/// Parses the `multipath serve` flags into a [`ServeConfig`].
pub fn parse_serve_options(args: &[String]) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = flag_value(&mut it, "--addr")?.to_owned(),
            "--workers" => config.workers = parse_number(flag_value(&mut it, "--workers")?)?,
            "--queue" => {
                config.queue = parse_number(flag_value(&mut it, "--queue")?)?;
                if config.queue == 0 {
                    return Err("--queue must be positive".to_owned());
                }
            }
            "--cache-mb" => {
                let mb: usize = parse_number(flag_value(&mut it, "--cache-mb")?)?;
                config.cache_bytes = mb << 20;
            }
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    Ok(config)
}

fn flag_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number '{s}'"))
}

fn require_no_args(cmd: &str, rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("{cmd} takes no arguments"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_every_subcommand() {
        assert!(matches!(
            parse_invocation(&argv("run compress gcc --features rec --commits 500")),
            Ok(Invocation::Run(o)) if o.benches.len() == 2 && o.commits == 500
        ));
        assert!(matches!(
            parse_invocation(&argv("trace compress --interval 50 --stats-out s.json")),
            Ok(Invocation::Trace(_, o)) if o.interval == 50 && o.benches.len() == 1
        ));
        assert!(matches!(
            parse_invocation(&argv("explain compress --top 3 --tree")),
            Ok(Invocation::Explain(e, _)) if e.top == 3 && e.tree
        ));
        assert!(matches!(
            parse_invocation(&argv("compare li go")),
            Ok(Invocation::Compare(_))
        ));
        assert!(matches!(
            parse_invocation(&argv("figures fig3 table1")),
            Ok(Invocation::Figures(f)) if f == vec!["fig3", "table1"]
        ));
        assert!(matches!(
            parse_invocation(&argv("figures")),
            Ok(Invocation::Figures(f)) if f.len() == FIGURES.len()
        ));
        assert!(matches!(
            parse_invocation(&argv("list")),
            Ok(Invocation::List)
        ));
        assert!(matches!(
            parse_invocation(&argv("disasm compress")),
            Ok(Invocation::Disasm(b)) if b.name() == "compress"
        ));
        assert!(matches!(
            parse_invocation(&argv("serve --addr 127.0.0.1:0 --workers 2 --queue 8 --cache-mb 16")),
            Ok(Invocation::Serve(s))
                if s.addr == "127.0.0.1:0"
                    && s.workers == 2
                    && s.queue == 8
                    && s.cache_bytes == 16 << 20
        ));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "frobnicate",
            "run",
            "run nonesuch",
            "run compress --features warp",
            "run compress --machine tiny.0.0",
            "run compress --policy stop8",
            "run compress --commits many",
            "run compress --commits 0",
            "trace compress --format yaml",
            "figures fig9",
            "disasm",
            "disasm nonesuch",
            "list extra",
            "serve --queue 0",
            "serve --frob",
        ] {
            assert!(parse_invocation(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_commits_get_the_service_message() {
        let err = parse_invocation(&argv("run compress --commits 0")).unwrap_err();
        assert_eq!(err, "\"commits\" must be positive");
    }

    #[test]
    fn huge_commit_budgets_saturate_instead_of_wrapping() {
        // 2^63 per program times two programs wraps to 0 in u64.
        let Ok(Invocation::Run(req)) =
            parse_invocation(&argv("run compress compress --commits 9223372036854775808"))
        else {
            panic!("a huge budget is a valid command line");
        };
        let spec = req.spec();
        assert_eq!(spec.total_commits(), u64::MAX);
        assert_eq!(spec.cycle_cap(), u64::MAX);
    }

    #[test]
    fn context_capacity_is_enforced() {
        // big.1.8 has 8 contexts; 9 programs cannot co-schedule.
        let nine = "run compress gcc go li perl su2cor tomcatv vortex compress --machine big.1.8";
        assert!(parse_invocation(&argv(nine)).is_err());
    }
}
