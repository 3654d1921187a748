//! Simulator configuration: machine geometry, feature toggles, and the
//! paper's four machine presets.

use multipath_branch::PredictorConfig;
use multipath_mem::HierarchyConfig;

/// Which of the paper's mechanisms are enabled.
///
/// The six configurations of Figures 3 and 4 are provided as constructors:
/// [`Features::smt`], [`Features::tme`], [`Features::rec`],
/// [`Features::rec_ru`], [`Features::rec_rs`], [`Features::rec_rs_ru`].
///
/// # Examples
///
/// ```
/// use multipath_core::Features;
/// assert_eq!(Features::rec_rs_ru().label(), "REC/RS/RU");
/// assert!(Features::tme().tme && !Features::tme().recycle);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Threaded multipath execution: fork alternate paths on
    /// low-confidence branches.
    pub tme: bool,
    /// Instruction recycling from active lists into the rename stage.
    pub recycle: bool,
    /// Instruction reuse (bypass issue/execute when operands unchanged).
    pub reuse: bool,
    /// Re-spawn an inactive context whose start address matches a fork
    /// target, via the recycle datapath.
    pub respawn: bool,
}

impl Features {
    /// Plain simultaneous multithreading: no multipath execution.
    pub fn smt() -> Features {
        Features {
            tme: false,
            recycle: false,
            reuse: false,
            respawn: false,
        }
    }

    /// TME without recycling (the paper's baseline to beat).
    pub fn tme() -> Features {
        Features {
            tme: true,
            recycle: false,
            reuse: false,
            respawn: false,
        }
    }

    /// TME + recycling (`REC`).
    pub fn rec() -> Features {
        Features {
            tme: true,
            recycle: true,
            reuse: false,
            respawn: false,
        }
    }

    /// Recycling + reuse (`REC/RU`).
    pub fn rec_ru() -> Features {
        Features {
            tme: true,
            recycle: true,
            reuse: true,
            respawn: false,
        }
    }

    /// Recycling + re-spawning (`REC/RS`).
    pub fn rec_rs() -> Features {
        Features {
            tme: true,
            recycle: true,
            reuse: false,
            respawn: true,
        }
    }

    /// The full architecture (`REC/RS/RU`).
    pub fn rec_rs_ru() -> Features {
        Features {
            tme: true,
            recycle: true,
            reuse: true,
            respawn: true,
        }
    }

    /// The paper's label for this configuration.
    pub fn label(&self) -> &'static str {
        match (self.tme, self.recycle, self.reuse, self.respawn) {
            (false, _, _, _) => "SMT",
            (true, false, _, _) => "TME",
            (true, true, false, false) => "REC",
            (true, true, true, false) => "REC/RU",
            (true, true, false, true) => "REC/RS",
            (true, true, true, true) => "REC/RS/RU",
        }
    }

    /// All six configurations in the paper's legend order.
    pub fn all_six() -> [Features; 6] {
        [
            Features::smt(),
            Features::tme(),
            Features::rec(),
            Features::rec_ru(),
            Features::rec_rs(),
            Features::rec_rs_ru(),
        ]
    }

    /// Parses the CLI/API spelling of a configuration (`smt`, `tme`,
    /// `rec`, `rec-ru`, `rec-rs`, `rec-rs-ru`) — the shared vocabulary of
    /// `multipath run --features` and the serving API's `"features"`
    /// field.
    pub fn from_name(name: &str) -> Option<Features> {
        Some(match name {
            "smt" => Features::smt(),
            "tme" => Features::tme(),
            "rec" => Features::rec(),
            "rec-ru" => Features::rec_ru(),
            "rec-rs" => Features::rec_rs(),
            "rec-rs-ru" => Features::rec_rs_ru(),
            _ => return None,
        })
    }
}

/// How recycled conditional branches are predicted (Section 3.4).
///
/// The paper describes two methods: keep the branch prediction previously
/// used for the trace (cheap), or re-predict each recycled branch with the
/// current predictor state and stop recycling on divergence (aggressive —
/// "requires even higher prediction throughput"). The paper, and this
/// simulator by default, use the latter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecycledPrediction {
    /// Re-predict each recycled branch; diverging predictions end the
    /// stream and redirect fetch (the paper's chosen method).
    #[default]
    Repredict,
    /// Trust the direction the trace followed; mispredictions are caught
    /// at execute like any other branch (the paper's "former method").
    Trace,
}

/// The alternate-path fetch policy of Section 5.2.
///
/// The limit is the maximum number of instructions an alternate path may
/// hold in its active list (the paper sweeps 8, 16, 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltPolicy {
    /// `stop N`: stop fetching and issuing the moment the forking branch
    /// resolves (and never follow an alternate path for more than N).
    Stop(u32),
    /// `fetch N`: after resolution keep *fetching* (filling the recycle
    /// trace) up to N total, but dispatch nothing more for execution.
    FetchOnly(u32),
    /// `nostop N`: keep fetching and executing up to N total.
    NoStop(u32),
}

impl AltPolicy {
    /// The instruction limit for the alternate path.
    pub fn limit(self) -> u32 {
        match self {
            AltPolicy::Stop(n) | AltPolicy::FetchOnly(n) | AltPolicy::NoStop(n) => n,
        }
    }

    /// Whether fetch may continue after the forking branch resolves.
    pub fn fetch_after_resolve(self) -> bool {
        !matches!(self, AltPolicy::Stop(_))
    }

    /// Whether post-resolution instructions may execute.
    pub fn execute_after_resolve(self) -> bool {
        matches!(self, AltPolicy::NoStop(_))
    }

    /// The paper's label, e.g. `"nostop-32"`.
    pub fn label(self) -> String {
        match self {
            AltPolicy::Stop(n) => format!("stop-{n}"),
            AltPolicy::FetchOnly(n) => format!("fetch-{n}"),
            AltPolicy::NoStop(n) => format!("nostop-{n}"),
        }
    }

    /// Parses the label form (`stop-8`, `fetch-16`, `nostop-32`) — the
    /// inverse of [`AltPolicy::label`], shared by the CLI's `--policy`
    /// flag and the serving API's `"policy"` field.
    pub fn from_label(s: &str) -> Option<AltPolicy> {
        let (kind, n) = s.split_once('-')?;
        let n: u32 = n.parse().ok()?;
        Some(match kind {
            "stop" => AltPolicy::Stop(n),
            "fetch" => AltPolicy::FetchOnly(n),
            "nostop" => AltPolicy::NoStop(n),
            _ => return None,
        })
    }

    /// The nine policies of Figure 5.
    pub fn figure5_sweep() -> Vec<AltPolicy> {
        let mut v = Vec::with_capacity(9);
        for n in [8, 16, 32] {
            v.push(AltPolicy::NoStop(n));
        }
        for n in [8, 16, 32] {
            v.push(AltPolicy::Stop(n));
        }
        for n in [8, 16, 32] {
            v.push(AltPolicy::FetchOnly(n));
        }
        v
    }
}

impl Default for AltPolicy {
    /// `stop-8`: the paper's Section 5.2 finding is that "stopping after 8
    /// instructions down an alternate or inactive path performs very well",
    /// and our calibration agrees — aggressive alternate execution floods
    /// the machine with wrong-path work that delays path inactivation and
    /// re-spawning (see DESIGN.md).
    fn default() -> AltPolicy {
        AltPolicy::Stop(8)
    }
}

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hardware contexts. Paper: 8.
    pub contexts: usize,
    /// Threads fetched per cycle.
    pub fetch_threads: usize,
    /// Total fetch bandwidth in instructions per cycle.
    pub fetch_total: usize,
    /// Maximum sequential instructions from one thread per cycle.
    pub fetch_per_thread: usize,
    /// Rename (and commit) width.
    pub rename_width: usize,
    /// Integer instruction-queue entries.
    pub int_queue: usize,
    /// Floating-point instruction-queue entries.
    pub fp_queue: usize,
    /// Integer functional units.
    pub int_units: usize,
    /// How many of the integer units can do loads/stores.
    pub ls_units: usize,
    /// Floating-point functional units.
    pub fp_units: usize,
    /// Active-list slots per context (the recycle trace length).
    pub active_list: usize,
    /// Physical integer registers.
    pub phys_int: usize,
    /// Physical floating-point registers.
    pub phys_fp: usize,
    /// Cycles between issue and execute (the two register-read stages).
    pub regread_latency: u32,
    /// Front-end stages between fetch and rename (decode depth).
    pub decode_latency: u32,
    /// Branch predictor tables.
    pub predictor: PredictorConfig,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Enabled mechanisms.
    pub features: Features,
    /// Alternate-path fetch policy.
    pub alt_policy: AltPolicy,
    /// Forks allowed per cycle.
    pub forks_per_cycle: usize,
    /// Memory-disambiguation-buffer entries (load-reuse tracking).
    pub mdb_entries: usize,
    /// How recycled conditional branches are predicted.
    pub recycled_prediction: RecycledPrediction,
    /// Cycles to duplicate register state over the Mapping Synchronization
    /// Bus when spawning an alternate path (the TME paper's MSB keeps idle
    /// contexts synchronised so spawning is fast; 1 models that).
    pub spawn_latency: u32,
    /// Commit width per cycle (shared across contexts).
    pub commit_width: usize,
}

impl SimConfig {
    /// The paper's baseline: `big.2.16` — 16-wide, 2×8 fetch, 18 FUs,
    /// 2×64-entry queues, 8 contexts.
    pub fn big_2_16() -> SimConfig {
        SimConfig {
            contexts: 8,
            fetch_threads: 2,
            fetch_total: 16,
            fetch_per_thread: 8,
            rename_width: 16,
            int_queue: 64,
            fp_queue: 64,
            int_units: 12,
            ls_units: 8,
            fp_units: 6,
            active_list: 64,
            phys_int: 8 * 32 + 100,
            phys_fp: 8 * 32 + 100,
            regread_latency: 2,
            decode_latency: 1,
            predictor: PredictorConfig::default(),
            hierarchy: HierarchyConfig::baseline(),
            features: Features::rec_rs_ru(),
            alt_policy: AltPolicy::default(),
            forks_per_cycle: 1,
            mdb_entries: 64,
            recycled_prediction: RecycledPrediction::default(),
            spawn_latency: 1,
            commit_width: 16,
        }
    }

    /// `big.1.8`: the baseline machine with fetch reduced to one thread ×
    /// eight instructions.
    pub fn big_1_8() -> SimConfig {
        let mut c = SimConfig::big_2_16();
        c.fetch_threads = 1;
        c.fetch_total = 8;
        c
    }

    /// `small.2.8`: half the functional units, queues, and caches; fetch
    /// eight instructions filled from two threads.
    pub fn small_2_8() -> SimConfig {
        let mut c = SimConfig::big_2_16();
        c.fetch_threads = 2;
        c.fetch_total = 8;
        c.rename_width = 8;
        c.commit_width = 8;
        c.int_queue = 32;
        c.fp_queue = 32;
        c.int_units = 6;
        c.ls_units = 4;
        c.fp_units = 3;
        c.hierarchy = HierarchyConfig::small();
        c
    }

    /// `small.1.8`: the small machine fetching from a single thread.
    pub fn small_1_8() -> SimConfig {
        let mut c = SimConfig::small_2_8();
        c.fetch_threads = 1;
        c
    }

    /// Parses a machine preset name (`big.2.16`, `big.1.8`, `small.2.8`,
    /// `small.1.8`) — the shared vocabulary of `multipath run --machine`
    /// and the serving API's `"machine"` field.
    pub fn from_machine_name(name: &str) -> Option<SimConfig> {
        Some(match name {
            "big.2.16" => SimConfig::big_2_16(),
            "big.1.8" => SimConfig::big_1_8(),
            "small.2.8" => SimConfig::small_2_8(),
            "small.1.8" => SimConfig::small_1_8(),
            _ => return None,
        })
    }

    /// Renders every field of the configuration — geometry, latencies,
    /// predictor and hierarchy shapes, features, and policies — in one
    /// fixed order, independent of how the configuration was constructed
    /// or what order a request spelled its fields in.
    ///
    /// Two configurations canonicalize identically iff the simulator
    /// would behave identically under them, which is what makes this
    /// string safe to hash into a content address for cached simulation
    /// results.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "contexts={};fetch_threads={};fetch_total={};fetch_per_thread={};\
             rename_width={};int_queue={};fp_queue={};int_units={};ls_units={};\
             fp_units={};active_list={};phys_int={};phys_fp={};regread_latency={};\
             decode_latency={};forks_per_cycle={};mdb_entries={};spawn_latency={};\
             commit_width={}",
            self.contexts,
            self.fetch_threads,
            self.fetch_total,
            self.fetch_per_thread,
            self.rename_width,
            self.int_queue,
            self.fp_queue,
            self.int_units,
            self.ls_units,
            self.fp_units,
            self.active_list,
            self.phys_int,
            self.phys_fp,
            self.regread_latency,
            self.decode_latency,
            self.forks_per_cycle,
            self.mdb_entries,
            self.spawn_latency,
            self.commit_width,
        );
        let p = &self.predictor;
        let _ = write!(
            s,
            ";predictor=pht:{},btb:{},ways:{},conf:{},max:{},thr:{},ras:{},scheme:{:?}",
            p.pht_entries,
            p.btb_entries,
            p.btb_ways,
            p.conf_entries,
            p.conf_max,
            p.conf_threshold,
            p.ras_depth,
            p.scheme,
        );
        let h = &self.hierarchy;
        for (name, c) in [
            ("l1i", &h.l1i),
            ("l1d", &h.l1d),
            ("l2", &h.l2),
            ("l3", &h.l3),
        ] {
            let _ = write!(
                s,
                ";{name}={}x{}x{}x{}",
                c.size_bytes, c.line_bytes, c.ways, c.banks
            );
        }
        let _ = write!(
            s,
            ";penalties={},{},{};features={};alt={};recycled_prediction={:?}",
            h.l2_penalty,
            h.l3_penalty,
            h.memory_penalty,
            self.features.label(),
            self.alt_policy.label(),
            self.recycled_prediction,
        );
        s
    }

    /// Returns the configuration with different features (builder-style).
    pub fn with_features(mut self, features: Features) -> SimConfig {
        self.features = features;
        self
    }

    /// Returns the configuration with a different alternate-path policy.
    pub fn with_alt_policy(mut self, policy: AltPolicy) -> SimConfig {
        self.alt_policy = policy;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (e.g. more load/store units
    /// than integer units, zero contexts, or a fetch configuration that can
    /// never supply the rename stage).
    pub fn validate(&self) {
        assert!(
            self.contexts >= 1 && self.contexts <= 8,
            "1..=8 contexts supported"
        );
        assert!(
            self.ls_units <= self.int_units,
            "load/store units are a subset of integer units"
        );
        assert!(self.fetch_threads >= 1 && self.fetch_total >= 1);
        assert!(self.fetch_per_thread >= 1);
        assert!(self.rename_width >= 1);
        assert!(
            self.active_list >= 8,
            "active lists shorter than 8 defeat recycling"
        );
        assert!(
            self.phys_int >= self.contexts * 32 + 16,
            "too few physical integer registers for {} contexts",
            self.contexts
        );
        assert!(self.phys_fp >= self.contexts * 32 + 16);
    }

    /// Contexts per program group when running `programs` programs.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is zero or exceeds the context count.
    pub fn group_size(&self, programs: usize) -> usize {
        assert!(
            programs >= 1 && programs <= self.contexts,
            "cannot run {programs} programs on {} contexts",
            self.contexts
        );
        self.contexts / programs
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::big_2_16()
    }
}

/// FNV-1a 64-bit digest — the workspace's standard process-independent
/// hash: the golden-trace suite's commit digests and the service's
/// result-cache keys both use it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SimConfig::big_2_16().validate();
        SimConfig::big_1_8().validate();
        SimConfig::small_2_8().validate();
        SimConfig::small_1_8().validate();
    }

    #[test]
    fn preset_geometry_matches_paper() {
        let big = SimConfig::big_2_16();
        assert_eq!(big.int_units + self_fp(&big), 18);
        assert_eq!(big.phys_int, 356);
        assert_eq!(big.fetch_threads * big.fetch_per_thread, 16);
        let small = SimConfig::small_2_8();
        assert_eq!(small.int_units, 6);
        assert_eq!(small.int_queue, 32);
        fn self_fp(c: &SimConfig) -> usize {
            c.fp_units
        }
    }

    #[test]
    fn feature_labels() {
        assert_eq!(Features::smt().label(), "SMT");
        assert_eq!(Features::tme().label(), "TME");
        assert_eq!(Features::rec().label(), "REC");
        assert_eq!(Features::rec_ru().label(), "REC/RU");
        assert_eq!(Features::rec_rs().label(), "REC/RS");
        assert_eq!(Features::rec_rs_ru().label(), "REC/RS/RU");
        assert_eq!(Features::all_six().len(), 6);
    }

    #[test]
    fn alt_policy_semantics() {
        assert!(!AltPolicy::Stop(8).fetch_after_resolve());
        assert!(AltPolicy::FetchOnly(16).fetch_after_resolve());
        assert!(!AltPolicy::FetchOnly(16).execute_after_resolve());
        assert!(AltPolicy::NoStop(32).execute_after_resolve());
        assert_eq!(AltPolicy::Stop(8).label(), "stop-8");
        assert_eq!(AltPolicy::figure5_sweep().len(), 9);
    }

    #[test]
    fn group_sizes() {
        let c = SimConfig::big_2_16();
        assert_eq!(c.group_size(1), 8);
        assert_eq!(c.group_size(2), 4);
        assert_eq!(c.group_size(4), 2);
        assert_eq!(c.group_size(8), 1);
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn too_many_programs_rejected() {
        SimConfig::big_2_16().group_size(9);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn builder_style_chaining() {
        let c = SimConfig::big_1_8()
            .with_features(Features::rec())
            .with_alt_policy(AltPolicy::FetchOnly(16));
        assert_eq!(c.fetch_threads, 1);
        assert_eq!(c.features.label(), "REC");
        assert_eq!(c.alt_policy, AltPolicy::FetchOnly(16));
    }

    #[test]
    fn default_policy_is_stop_8() {
        assert_eq!(AltPolicy::default(), AltPolicy::Stop(8));
        assert_eq!(SimConfig::default().alt_policy, AltPolicy::Stop(8));
    }

    #[test]
    fn name_parsers_round_trip() {
        for f in Features::all_six() {
            let spelled = f.label().to_lowercase().replace('/', "-");
            assert_eq!(Features::from_name(&spelled), Some(f));
        }
        assert_eq!(Features::from_name("bogus"), None);
        for name in ["big.2.16", "big.1.8", "small.2.8", "small.1.8"] {
            assert!(SimConfig::from_machine_name(name).is_some(), "{name}");
        }
        assert!(SimConfig::from_machine_name("huge.9.9").is_none());
        for p in AltPolicy::figure5_sweep() {
            assert_eq!(AltPolicy::from_label(&p.label()), Some(p));
        }
        assert_eq!(AltPolicy::from_label("stop8"), None);
        assert_eq!(AltPolicy::from_label("halt-8"), None);
    }

    #[test]
    fn canonical_string_distinguishes_configurations() {
        let base = SimConfig::big_2_16();
        assert_eq!(
            base.canonical_string(),
            SimConfig::big_2_16().canonical_string()
        );
        let mut seen = std::collections::HashSet::new();
        for machine in ["big.2.16", "big.1.8", "small.2.8", "small.1.8"] {
            for f in Features::all_six() {
                let c = SimConfig::from_machine_name(machine)
                    .unwrap()
                    .with_features(f);
                assert!(seen.insert(c.canonical_string()), "{machine}/{}", f.label());
            }
        }
        assert_ne!(
            base.canonical_string(),
            base.clone()
                .with_alt_policy(AltPolicy::NoStop(8))
                .canonical_string()
        );
    }

    #[test]
    fn recycled_prediction_default_is_repredict() {
        assert_eq!(RecycledPrediction::default(), RecycledPrediction::Repredict);
        assert_eq!(
            SimConfig::big_2_16().recycled_prediction,
            RecycledPrediction::Repredict
        );
    }
}
