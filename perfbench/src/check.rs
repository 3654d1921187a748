//! Output checks that span runs: the digest book, and the parsing of a
//! served `multipath-stats/v1` document.
//!
//! The book maps each body (by the FNV-1a of its text) to the digest of
//! the `Stats::counters()` vector it produced. The first run of a seed in
//! a checkout records the digests; every later run of that seed, timed
//! or traced, must reproduce them exactly. The simulator is
//! deterministic, so any difference is a defect.

use crate::measure::fnv1a;
use multipath_testkit::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Recorded counter digests for one workload and seed.
pub struct DigestBook {
    path: PathBuf,
    entries: BTreeMap<u64, u64>,
    dirty: bool,
}

impl DigestBook {
    /// Opens (or starts) the book under the build directory: the
    /// `CARGO_TARGET_DIR` the benchmark was built into, else
    /// `perfbench/target`.
    pub fn open(workload: &str, seed: u64) -> DigestBook {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
            .join("perfbench-digests");
        let path = dir.join(format!("{workload}-{seed}.txt"));
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| {
                let (k, v) = line.split_once(' ')?;
                Some((
                    u64::from_str_radix(k, 16).ok()?,
                    u64::from_str_radix(v, 16).ok()?,
                ))
            })
            .collect();
        DigestBook {
            path,
            entries,
            dirty: false,
        }
    }

    /// Checks `digest` against the one recorded for `body`, recording it
    /// if this is the first time the body is seen.
    pub fn check(&mut self, body: &str, digest: u64) -> Result<(), String> {
        let key = fnv1a(body.as_bytes());
        match self.entries.get(&key) {
            Some(&want) if want != digest => Err(format!(
                "counters digest {digest:016x} differs from the recorded {want:016x} for {body}"
            )),
            Some(_) => Ok(()),
            None => {
                self.entries.insert(key, digest);
                self.dirty = true;
                Ok(())
            }
        }
    }

    /// Writes new entries back (atomically, by rename).
    pub fn save(&self) -> Result<(), String> {
        if !self.dirty {
            return Ok(());
        }
        let dir = self.path.parent().expect("book path has a directory");
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let text: String = self
            .entries
            .iter()
            .map(|(k, v)| format!("{k:016x} {v:016x}\n"))
            .collect();
        let tmp = self
            .path
            .with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| format!("rename {}: {e}", tmp.display()))
    }
}

/// The exact counters a served stats document carries.
#[derive(Debug, Clone)]
pub struct DocCounters {
    /// The full `counters` vector, in `Stats::COUNTER_NAMES` order.
    pub counters: Vec<u64>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
}

/// Parses a `multipath-stats/v1` document and extracts its counters.
pub fn doc_counters(doc: &str) -> Result<DocCounters, String> {
    let json = Json::parse(doc).map_err(|e| format!("response is not JSON: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("multipath-stats/v1") {
        return Err("response does not carry schema multipath-stats/v1".to_owned());
    }
    let names: Vec<&str> = json
        .get("counter_names")
        .and_then(Json::as_arr)
        .ok_or("missing counter_names")?
        .iter()
        .map(|n| n.as_str().ok_or("counter name is not a string"))
        .collect::<Result<_, _>>()?;
    let counters: Vec<u64> = json
        .get("counters")
        .and_then(Json::as_arr)
        .ok_or("missing counters")?
        .iter()
        .map(|c| c.as_u64().ok_or("counter is not an integer"))
        .collect::<Result<_, _>>()?;
    if names.len() != counters.len() {
        return Err("counter_names and counters differ in length".to_owned());
    }
    let get = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .map(|i| counters[i])
            .ok_or_else(|| format!("missing counter {name}"))
    };
    Ok(DocCounters {
        cycles: get("cycles")?,
        committed: get("committed")?,
        counters,
    })
}
