//! Run requests: the one description of a requested simulation.
//!
//! Every result the simulator prints or serves is one point in a fixed
//! vocabulary: kernels, a feature set, a machine preset, an
//! alternate-path policy, a commit budget and a seed. [`RunRequest`] is
//! that vocabulary's single definition — its defaults, its name → value
//! resolution, its checks and its error messages. The front ends are thin
//! syntax adapters over [`RunRequest::set`] and [`RunRequest::add_bench`]:
//! `multipath` command-line flags (in `multipath-cli`), JSON bodies and
//! sweep cells ([`RunRequest::from_json`]), and the query pairs of
//! `GET /v1/explain` ([`ExplainRequest::from_query`]). A body and a
//! command line naming the same run therefore build the same
//! [`RunSpec`], which is what lets a served document match
//! `multipath trace --stats-out` byte for byte.
//!
//! The cache key is the FNV-1a digest of the canonical configuration
//! string plus everything else that determines the result bytes (kernels,
//! seed, commit budget, interval width); the deadline is deliberately
//! excluded, since it changes when an answer arrives, never what it is.

use multipath_core::config::fnv1a;
use multipath_core::{AltPolicy, Features, RunSpec, SimConfig};
use multipath_testkit::Json;
use multipath_workload::{mix, Benchmark};

/// A field value as a front end spells it.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A command-line flag value or a query parameter: always text.
    Text(&'a str),
    /// A JSON body member: names must be strings and numbers numbers.
    Json(&'a Json),
}

impl<'a> Value<'a> {
    fn name(self, field: &str) -> Result<&'a str, String> {
        match self {
            Value::Text(s) => Some(s),
            Value::Json(v) => v.as_str(),
        }
        .ok_or_else(|| format!("{field:?} must be a string"))
    }

    fn number(self, field: &str) -> Result<u64, String> {
        match self {
            Value::Text(s) => s.parse().ok(),
            Value::Json(v) => v.as_u64(),
        }
        .ok_or_else(|| format!("{field:?} must be a non-negative integer"))
    }
}

/// Resolves a kernel name, with the error every front end reports.
pub fn bench(name: &str) -> Result<Benchmark, String> {
    Benchmark::from_name(name)
        .ok_or_else(|| format!("unknown benchmark {name:?} (see `multipath list`)"))
}

/// A `POST /v1/run` body, a sweep cell, or a simulating `multipath`
/// command line.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// The workload kernels, in request order.
    pub benches: Vec<Benchmark>,
    /// The feature set (default `rec-rs-ru`).
    pub features: Features,
    /// The fully configured machine (geometry + features + policy;
    /// default `big.2.16` with its preset policy).
    pub config: SimConfig,
    /// Committed instructions per program (default 30000).
    pub commits: u64,
    /// Workload seed (default 1).
    pub seed: u64,
    /// Time-series interval width in cycles (default 100).
    pub interval: u64,
    /// Optional wall-clock budget for the simulation, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The explicit policy, kept so a later `machine` does not reset it.
    policy: Option<AltPolicy>,
}

impl Default for RunRequest {
    /// Every field at its default, and no kernels yet.
    fn default() -> RunRequest {
        RunRequest {
            benches: Vec::new(),
            features: Features::rec_rs_ru(),
            config: SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
            commits: 30_000,
            seed: 1,
            interval: 100,
            deadline_ms: None,
            policy: None,
        }
    }
}

impl RunRequest {
    /// The fields every front end accepts.
    pub const COMMON_FIELDS: [&'static str; 5] =
        ["features", "machine", "policy", "commits", "seed"];

    /// Parses and validates a JSON request body.
    pub fn parse(body: &str) -> Result<RunRequest, String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        RunRequest::from_json(&doc)
    }

    /// Builds a request from an already-parsed JSON object (used directly
    /// for the cells of a sweep body).
    pub fn from_json(doc: &Json) -> Result<RunRequest, String> {
        let Json::Obj(map) = doc else {
            return Err("request body must be a JSON object".to_owned());
        };
        let mut run = RunRequest::default();
        for (key, value) in map {
            if key != "benches" {
                run.set(key, Value::Json(value))?;
                continue;
            }
            let names = value
                .as_arr()
                .ok_or("\"benches\" must be an array of kernel names")?;
            for name in names {
                run.add_bench(name.as_str().ok_or("\"benches\" entries must be strings")?)?;
            }
        }
        run.checked()
    }

    /// Appends one kernel by name.
    pub fn add_bench(&mut self, name: &str) -> Result<(), String> {
        self.benches.push(bench(name)?);
        Ok(())
    }

    /// Sets one field, named as a JSON body spells it: `features`,
    /// `machine`, `policy`, `commits`, `seed`, `interval` or
    /// `deadline_ms`. A front end that takes only some of them filters
    /// before calling this.
    pub fn set(&mut self, field: &str, value: Value<'_>) -> Result<(), String> {
        match field {
            "features" => {
                let name = value.name(field)?;
                let features = Features::from_name(name)
                    .ok_or_else(|| format!("unknown features {name:?}"))?;
                self.features = features;
                self.config.features = features;
            }
            "machine" => {
                let name = value.name(field)?;
                let preset = SimConfig::from_machine_name(name)
                    .ok_or_else(|| format!("unknown machine {name:?}"))?;
                let policy = self.policy.unwrap_or(preset.alt_policy);
                self.config = preset.with_features(self.features).with_alt_policy(policy);
            }
            "policy" => {
                let name = value.name(field)?;
                let policy = AltPolicy::from_label(name)
                    .ok_or_else(|| format!("unknown policy {name:?}"))?;
                self.policy = Some(policy);
                self.config.alt_policy = policy;
            }
            "commits" => {
                self.commits = value.number(field)?;
                if self.commits == 0 {
                    return Err("\"commits\" must be positive".to_owned());
                }
            }
            "seed" => self.seed = value.number(field)?,
            "interval" => self.interval = value.number(field)?.max(1),
            "deadline_ms" => self.deadline_ms = Some(value.number(field)?),
            _ => {
                return Err(format!(
                    "unknown field {field:?} (expected one of benches, {}, interval, deadline_ms)",
                    RunRequest::COMMON_FIELDS.join(", ")
                ))
            }
        }
        Ok(())
    }

    /// The checks that span fields, which every front end ends with: at
    /// least one kernel, and no more kernels than hardware contexts.
    pub fn checked(self) -> Result<RunRequest, String> {
        if self.benches.is_empty() {
            return Err("no benchmarks given (see `multipath list`)".to_owned());
        }
        if self.benches.len() > self.config.contexts {
            return Err(format!(
                "{} programs exceed the machine's {} hardware contexts",
                self.benches.len(),
                self.config.contexts
            ));
        }
        Ok(self)
    }

    /// The run this request describes, with the default cycle cap and no
    /// probes; each front end adds the probes its output needs.
    pub fn spec(&self) -> RunSpec {
        RunSpec::new(
            self.config.clone(),
            mix::programs(&self.benches, self.seed),
            self.commits,
        )
    }

    /// The workload label (`"compress+gcc"`), as the CLI prints it.
    pub fn label(&self) -> String {
        self.benches
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The content address of this request's result document.
    pub fn cache_key(&self) -> u64 {
        fnv1a(self.canonical_string().as_bytes())
    }

    /// The canonical form hashed by [`RunRequest::cache_key`]: field
    /// order is fixed here, so JSON bodies spelling the same request with
    /// reordered keys hash identically.
    pub fn canonical_string(&self) -> String {
        format!(
            "run;config={};benches={};seed={};commits={};interval={}",
            self.config.canonical_string(),
            self.label(),
            self.seed,
            self.commits,
            self.interval
        )
    }
}

/// A validated `GET /v1/explain/:kernel` request.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The run to attribute: the path's one kernel and the query's
    /// common fields.
    pub run: RunRequest,
    /// Rows per attribution table.
    pub top: usize,
}

impl ExplainRequest {
    /// The default number of rows per attribution table.
    pub const DEFAULT_TOP: usize = 10;

    /// Builds an explain request from the path's kernel name and the
    /// query parameters: [`RunRequest::COMMON_FIELDS`] and `top`.
    pub fn from_query(kernel: &str, params: &[(String, String)]) -> Result<ExplainRequest, String> {
        let mut run = RunRequest::default();
        run.add_bench(kernel)?;
        let mut top = ExplainRequest::DEFAULT_TOP;
        for (key, value) in params {
            match key.as_str() {
                // More rows than a table has means all of them.
                "top" => {
                    top = usize::try_from(Value::Text(value).number(key)?).unwrap_or(usize::MAX)
                }
                field if RunRequest::COMMON_FIELDS.contains(&field) => {
                    run.set(field, Value::Text(value))?
                }
                other => return Err(format!("unknown query parameter {other:?}")),
            }
        }
        Ok(ExplainRequest {
            run: run.checked()?,
            top,
        })
    }

    /// The content address of this request's explain document.
    pub fn cache_key(&self) -> u64 {
        let canon = format!(
            "explain;config={};bench={};seed={};commits={};top={}",
            self.run.config.canonical_string(),
            self.run.label(),
            self.run.seed,
            self.run.commits,
            self.top
        );
        fnv1a(canon.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli() {
        let req = RunRequest::parse(r#"{"benches": ["compress"]}"#).unwrap();
        assert_eq!(req.label(), "compress");
        assert_eq!(req.features.label(), "REC/RS/RU");
        assert_eq!((req.commits, req.seed, req.interval), (30_000, 1, 100));
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_values() {
        assert!(
            RunRequest::parse(r#"{"benches": ["compress"], "bogus": 1}"#)
                .unwrap_err()
                .contains("unknown field")
        );
        assert!(RunRequest::parse(r#"{"benches": []}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["nope"]}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["gcc"], "commits": 0}"#).is_err());
        assert!(RunRequest::parse(r#"{"benches": ["gcc"], "features": "max"}"#).is_err());
        assert!(RunRequest::parse("[1,2]").is_err());
        // 2^53 + 1 reads as the double 2^53, so it cannot name a seed
        // exactly; it must not silently run (and cache as) 2^53.
        assert_eq!(
            RunRequest::parse(r#"{"benches": ["gcc"], "seed": 9007199254740993}"#).unwrap_err(),
            "\"seed\" must be a non-negative integer"
        );
        let largest = RunRequest::parse(r#"{"benches": ["gcc"], "seed": 9007199254740991}"#);
        assert_eq!(largest.unwrap().seed, (1 << 53) - 1);
    }

    #[test]
    fn cache_key_is_stable_across_json_key_order() {
        let a = RunRequest::parse(
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec"}"#,
        )
        .unwrap();
        let b = RunRequest::parse(
            r#"{"features": "rec", "commits": 500, "seed": 3, "benches": ["compress","gcc"]}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        // Deadline is excluded: it cannot change the result bytes.
        let c = RunRequest::parse(
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500,
                "features": "rec", "deadline_ms": 5}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), c.cache_key());
        // Every simulation knob is included.
        for other in [
            r#"{"benches": ["gcc","compress"], "seed": 3, "commits": 500, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 4, "commits": 500, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 501, "features": "rec"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "tme"}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec",
                "interval": 200}"#,
            r#"{"benches": ["compress","gcc"], "seed": 3, "commits": 500, "features": "rec",
                "policy": "nostop-8"}"#,
        ] {
            let d = RunRequest::parse(other).unwrap();
            assert_ne!(a.cache_key(), d.cache_key(), "{other}");
        }
    }

    #[test]
    fn explain_request_parses_query_parameters() {
        let req = ExplainRequest::from_query(
            "compress",
            &[
                ("features".to_owned(), "rec".to_owned()),
                ("commits".to_owned(), "4000".to_owned()),
                ("top".to_owned(), "3".to_owned()),
            ],
        )
        .unwrap();
        assert_eq!(req.run.label(), "compress");
        assert_eq!(req.run.features.label(), "REC");
        assert_eq!((req.run.commits, req.top), (4000, 3));
        assert!(ExplainRequest::from_query("compress", &[("x".into(), "1".into())]).is_err());
        assert!(
            ExplainRequest::from_query("compress", &[("interval".into(), "5".into())]).is_err()
        );
        assert!(ExplainRequest::from_query("nope", &[]).is_err());
    }
}
