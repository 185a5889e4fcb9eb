//! The declarative scenario catalog.
//!
//! A [`Scenario`] is a complete end-to-end experiment described as data:
//! machine and core counts, the listen-socket implementations to compare,
//! workload shape and the perturbing knobs, plus the *gates* the outcome
//! must pass (audit cleanliness, cross-implementation ordering, and
//! numeric bounds on per-kind metrics such as served requests) and the
//! *golden* fingerprints that pin it bit-for-bit. Scenarios are stored
//! as JSON files under `scenarios/`
//! (parsed with the repo's own [`metrics::json`] parser — no serde), run
//! by the `scenario` driver binary and by `tests/scenarios.rs`, and
//! re-recorded with `scenario --record` when a simulation change
//! intentionally shifts fingerprints.
//!
//! Every knob defaults to the corresponding [`RunConfig::new`] /
//! [`Workload::base`] default, so a scenario that sets nothing describes
//! exactly the run the golden determinism tests pin: the catalog adds no
//! second source of truth, it points at the existing one.

use app::files::DEFAULT_N_FILES;
use app::{ListenKind, RunConfig, RunResult, ServerKind, Workload};
use metrics::json::Json;
use sim::time::{ms, Cycles, CPU_HZ, CYCLES_PER_MS};
use sim::topology::Machine;
use std::path::{Path, PathBuf};

/// Which simulated machine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineId {
    /// The paper's 48-core AMD machine.
    Amd48,
    /// The paper's 80-core Intel machine.
    Intel80,
}

impl MachineId {
    /// The machine model.
    #[must_use]
    pub fn machine(self) -> Machine {
        match self {
            MachineId::Amd48 => Machine::amd48(),
            MachineId::Intel80 => Machine::intel80(),
        }
    }

    /// JSON label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MachineId::Amd48 => "amd48",
            MachineId::Intel80 => "intel80",
        }
    }
}

/// Which server application a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerId {
    /// Apache worker MPM.
    Apache,
    /// lighttpd event-driven processes.
    Lighttpd,
}

impl ServerId {
    /// The paper-default [`ServerKind`] configuration.
    #[must_use]
    pub fn kind(self) -> ServerKind {
        match self {
            ServerId::Apache => ServerKind::apache(),
            ServerId::Lighttpd => ServerKind::lighttpd(),
        }
    }

    /// JSON label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServerId::Apache => "apache",
            ServerId::Lighttpd => "lighttpd",
        }
    }
}

/// How each configuration's connection rate is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// Run at the configured fixed rate (golden-compatible).
    Fixed,
    /// Run the saturation search from the rate guess (figures' mode;
    /// too rate-dependent to pin with goldens).
    Saturation,
}

/// Which observer build this is, as the `scenarios-v1` artifact's
/// `instrumentation` field records it. The `fast` feature compiles
/// fingerprints to zero, so only an `"instrumented"` build checks goldens.
pub const INSTRUMENTATION: &str = if cfg!(feature = "fast") {
    "fast"
} else {
    "instrumented"
};

/// What a `fast` build says wherever it would have checked a golden.
pub const GOLDENS_UNCHECKED: &str = "goldens not checked (fast build)";

/// One recorded golden outcome: the combined run fingerprint and total
/// served requests for one listen kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenEntry {
    /// Listen kind the entry pins.
    pub kind: ListenKind,
    /// Combined fingerprint over the kind's runs (identity for a
    /// single-run scenario, so it matches the `GOLDEN` values of
    /// `tests/common/mod.rs` directly; an FNV-1a fold otherwise — see
    /// [`combine_fingerprints`]).
    pub fingerprint: u64,
    /// Total requests served across the kind's runs.
    pub served: u64,
}

/// A sweep axis: one run per value. Each value is substituted at the
/// dotted `key` (`"cores"`, `"workload.think_ms"`, …) of the scenario's
/// rendered document ([`Scenario::points`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Dotted key of the swept value.
    pub key: String,
    /// The values, in run order.
    pub values: Vec<Json>,
}

/// Top-level keys a sweep may not substitute: identity, the kinds every
/// point shares, and the outcome checks evaluated once per scenario.
const UNSWEEPABLE: [&str; 6] = ["name", "kinds", "sweep", "gates", "golden", "smoke"];

/// Pass/fail conditions evaluated after a scenario's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Gates {
    /// Require every run's conservation audit to be violation-free.
    pub audit_clean: bool,
    /// Served-throughput ordering across kinds, best first (e.g.
    /// `[affinity, fine, stock]` asserts Affinity ≥ Fine ≥ Stock, each
    /// comparison slackened by [`Gates::ordering_slack`]).
    pub ordering: Vec<ListenKind>,
    /// Slack factor for ordering comparisons: `hi ≥ lo * slack`.
    pub ordering_slack: f64,
    /// Bounds on per-kind metrics (`gates.bounds`), in file order.
    pub bounds: Vec<Bound>,
}

impl Default for Gates {
    fn default() -> Self {
        Self {
            audit_clean: true,
            ordering: Vec::new(),
            ordering_slack: 0.97,
            bounds: Vec::new(),
        }
    }
}

/// One `gates.bounds` entry: every kind's value of `metric` must lie in
/// `[min, max]` (either side may be open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// The bounded metric.
    pub metric: Metric,
    /// Inclusive lower bound.
    pub min: Option<f64>,
    /// Inclusive upper bound.
    pub max: Option<f64>,
}

/// A per-kind outcome a [`Bound`] can constrain. Counters sum over the
/// kind's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Requests served in the measurement windows.
    Served,
    /// Completed / (completed + timed-out) client connections.
    CompletedFrac,
}

impl Metric {
    /// Every metric, in report-row order.
    pub const ALL: [Metric; 2] = [Metric::Served, Metric::CompletedFrac];

    /// The metric's key in `gates.bounds` and in the report row.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Served => "served",
            Metric::CompletedFrac => "completed_frac",
        }
    }

    /// The metric's value in one kind's report.
    #[allow(clippy::cast_precision_loss)]
    fn of(self, kr: &KindReport) -> f64 {
        match self {
            Metric::Served => kr.served as f64,
            Metric::CompletedFrac => {
                let total = kr.completed + kr.timeouts;
                if total == 0 {
                    0.0
                } else {
                    kr.completed as f64 / total as f64
                }
            }
        }
    }
}

/// A complete declarative experiment. See the module docs; every field's
/// default matches the corresponding [`RunConfig::new`] default so the
/// empty scenario reproduces the golden determinism runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique catalog name (`[a-z0-9_-]+`; also the report key).
    pub name: String,
    /// Free-form description shown in reports.
    pub description: String,
    /// Simulated machine.
    pub machine: MachineId,
    /// Active cores.
    pub cores: usize,
    /// Listen-socket implementations to run.
    pub kinds: Vec<ListenKind>,
    /// Server application.
    pub server: ServerId,
    /// Rate selection mode.
    pub search: Search,
    /// Offered connections/second per core; `None` uses
    /// [`crate::rate_guess`].
    pub rate_per_core: Option<f64>,
    /// Multiplier on the offered rate (a sweep over `rate_mult` is a load
    /// curve).
    pub rate_mult: f64,
    /// Warmup before measurement.
    pub warmup: Cycles,
    /// Measurement window.
    pub measure: Cycles,
    /// RNG seed.
    pub seed: u64,
    /// Tracked `file` objects.
    pub tracked_files: usize,
    /// Client workload shape.
    pub workload: Workload,
    /// Connection stealing enabled.
    pub steal: bool,
    /// Flow-group migration enabled.
    pub migrate: bool,
    /// Enable the `lock_stat` profiler (it perturbs the run).
    pub lockstat: bool,
    /// CPU work of the §6.5 batch job on the upper half of the cores
    /// (`hog_ms`; 0 runs none).
    pub hog: Cycles,
    /// Record the dprof-v2 per-cacheline ledger (fingerprint-neutral;
    /// compiled out under the `fast` feature).
    pub dprof_v2: bool,
    /// One run per value of a swept key ([`Scenario::points`]); `None`
    /// runs the scenario once.
    pub sweep: Option<Sweep>,
    /// Outcome gates.
    pub gates: Gates,
    /// Golden fingerprints (empty until `scenario --record`).
    pub golden: Vec<GoldenEntry>,
    /// Whether the scenario belongs to the quick smoke subset CI runs on
    /// every push (the full corpus runs nightly).
    pub smoke: bool,
}

impl Scenario {
    /// A scenario with every knob at its [`RunConfig::new`] default.
    #[must_use]
    pub fn base(name: &str) -> Self {
        Self {
            name: name.to_string(),
            description: String::new(),
            machine: MachineId::Amd48,
            cores: 8,
            kinds: crate::IMPLS.to_vec(),
            server: ServerId::Apache,
            search: Search::Fixed,
            rate_per_core: None,
            rate_mult: 1.0,
            warmup: ms(600),
            measure: ms(500),
            seed: 1,
            tracked_files: 2_000,
            workload: Workload::base(),
            steal: true,
            migrate: true,
            lockstat: false,
            hog: 0,
            dprof_v2: false,
            sweep: None,
            gates: Gates::default(),
            golden: Vec::new(),
            smoke: false,
        }
    }

    /// The scenario's sweep points, in run order: for each sweep value,
    /// the scenario's own rendered document with the value substituted
    /// at the sweep key, parsed and validated like a file. Without a
    /// sweep, the scenario itself.
    ///
    /// # Errors
    ///
    /// A sweep key the rendered document lacks, or the first point that
    /// fails to parse or validate (`sweep.values[1]: cores: …`).
    pub fn points(&self) -> Result<Vec<Scenario>, String> {
        let Some(sw) = &self.sweep else {
            return Ok(vec![self.clone()]);
        };
        let mut doc = self.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "sweep");
        }
        sw.values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut point = doc.clone();
                *json_slot(&mut point, &sw.key).ok_or_else(|| {
                    format!(
                        "sweep.key: {:?} is not a key of the rendered scenario",
                        sw.key
                    )
                })? = v.clone();
                Scenario::from_json(&point).map_err(|e| format!("sweep.values[{i}]: {e}"))
            })
            .collect()
    }

    /// Whether the scenario can carry golden fingerprints: the saturation
    /// search picks rates dynamically, so only fixed-rate scenarios pin.
    #[must_use]
    pub fn supports_golden(&self) -> bool {
        self.search == Search::Fixed
    }

    /// Builds the [`RunConfig`] for one listen kind of one point (a
    /// sweep's points each build their own). With every scenario knob at
    /// its default this is exactly `RunConfig::new` plus the scenario's
    /// windows — the fig6-parity test asserts equality against
    /// [`crate::base_config`].
    #[must_use]
    pub fn config(&self, kind: ListenKind) -> RunConfig {
        let server = self.server.kind();
        let cores = self.cores;
        let rate = self.rate_per_core.map_or_else(
            || crate::rate_guess(kind, server, cores),
            |r| r * cores as f64,
        ) * self.rate_mult;
        let mut cfg = RunConfig::new(
            self.machine.machine(),
            cores,
            kind,
            server,
            self.workload.clone(),
            rate,
        );
        cfg.warmup = self.warmup;
        cfg.measure = self.measure;
        cfg.seed = self.seed;
        cfg.tracked_files = self.tracked_files;
        cfg.steal_enabled = self.steal;
        cfg.migrate_enabled = self.migrate;
        cfg.lockstat = self.lockstat;
        cfg.hog_work = (self.hog > 0).then_some(self.hog);
        cfg.dprof_v2 = self.dprof_v2;
        cfg
    }
}

/// Folds per-run fingerprints into one scenario-level value. A single
/// run's fingerprint passes through unchanged (so single-run goldens can
/// be compared against `tests/common/mod.rs` directly); multiple runs
/// fold byte-wise with FNV-1a in run order.
#[must_use]
pub fn combine_fingerprints(fps: &[u64]) -> u64 {
    if let [only] = fps {
        return *only;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fp in fps {
        for b in fp.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Parsing. Every helper threads a dotted `path` ("workload.batches[2]")
// so a malformed file fails with the exact key at fault, not a panic.
// ---------------------------------------------------------------------

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::U64(_) | Json::I64(_) => "integer",
        Json::F64(_) => "float",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn sub(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The value at a dotted key of an object tree (`"workload.think_ms"`).
fn json_slot<'a>(doc: &'a mut Json, dotted: &str) -> Option<&'a mut Json> {
    dotted.split('.').try_fold(doc, |node, key| match node {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

fn want_obj<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(fields) => Ok(fields),
        other => Err(format!("{path}: expected object, got {}", type_name(other))),
    }
}

fn want_arr<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        other => Err(format!("{path}: expected array, got {}", type_name(other))),
    }
}

fn want_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(format!("{path}: expected string, got {}", type_name(other))),
    }
}

fn want_bool(v: &Json, path: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{path}: expected bool, got {}", type_name(other))),
    }
}

fn want_u64(v: &Json, path: &str) -> Result<u64, String> {
    match v {
        Json::U64(n) => Ok(*n),
        Json::I64(n) if *n >= 0 => Ok(u64::try_from(*n).expect("non-negative")),
        other => Err(format!(
            "{path}: expected unsigned integer, got {}",
            type_name(other)
        )),
    }
}

fn want_usize(v: &Json, path: &str) -> Result<usize, String> {
    let n = want_u64(v, path)?;
    usize::try_from(n).map_err(|_| format!("{path}: {n} does not fit usize"))
}

fn want_u32(v: &Json, path: &str) -> Result<u32, String> {
    let n = want_u64(v, path)?;
    u32::try_from(n).map_err(|_| format!("{path}: {n} does not fit u32"))
}

fn want_f64(v: &Json, path: &str) -> Result<f64, String> {
    #[allow(clippy::cast_precision_loss)]
    let n = match v {
        Json::U64(n) => *n as f64,
        Json::I64(n) => *n as f64,
        Json::F64(n) => *n,
        other => Err(format!("{path}: expected number, got {}", type_name(other)))?,
    };
    if !n.is_finite() {
        return Err(format!("{path}: expected a finite number"));
    }
    Ok(n)
}

/// A duration in milliseconds as cycles; one the simulated clock cannot
/// hold is an error, not a wrapped value.
fn want_ms(v: &Json, path: &str) -> Result<Cycles, String> {
    let n = want_u64(v, path)?;
    n.checked_mul(CYCLES_PER_MS)
        .ok_or_else(|| format!("{path}: {n} overflows the simulated clock"))
}

/// Rejects an object key given twice anywhere in the document, which
/// would otherwise keep its last value without a word.
fn no_repeated_keys(v: &Json, path: &str) -> Result<(), String> {
    match v {
        Json::Obj(fields) => {
            for (i, (k, child)) in fields.iter().enumerate() {
                let p = sub(path, k);
                if fields[..i].iter().any(|(seen, _)| seen == k) {
                    return Err(format!("{p}: repeated key"));
                }
                no_repeated_keys(child, &p)?;
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                no_repeated_keys(item, &format!("{path}[{i}]"))?;
            }
        }
        _ => {}
    }
    Ok(())
}

fn parse_kind(s: &str, path: &str) -> Result<ListenKind, String> {
    ListenKind::ALL
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| {
            format!(
                "{path}: unknown listen kind {s:?} (one of stock/fine/affinity/twenty/busypoll)"
            )
        })
}

fn parse_kinds(v: &Json, path: &str) -> Result<Vec<ListenKind>, String> {
    if let Json::Str(s) = v {
        if s == "all" {
            return Ok(ListenKind::ALL.to_vec());
        }
        return Err(format!(
            "{path}: expected \"all\" or an array of kind labels, got {s:?}"
        ));
    }
    want_arr(v, path)?
        .iter()
        .enumerate()
        .map(|(i, k)| {
            parse_kind(
                want_str(k, &format!("{path}[{i}]"))?,
                &format!("{path}[{i}]"),
            )
        })
        .collect()
}

fn parse_fingerprint(v: &Json, path: &str) -> Result<u64, String> {
    let s = want_str(v, path)?;
    let hex = s.strip_prefix("0x").ok_or_else(|| {
        format!("{path}: fingerprint must be a 0x-prefixed hex string, got {s:?}")
    })?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("{path}: bad hex fingerprint {s:?}: {e}"))
}

fn parse_workload(v: &Json, path: &str) -> Result<Workload, String> {
    let mut w = Workload::base();
    for (k, v) in want_obj(v, path)? {
        let p = sub(path, k);
        match k.as_str() {
            "batches" => {
                w.batches = want_arr(v, &p)?
                    .iter()
                    .enumerate()
                    .map(|(i, b)| want_u32(b, &format!("{p}[{i}]")))
                    .collect::<Result<_, _>>()?;
            }
            "think_ms" => w.think = want_ms(v, &p)?,
            "file_scale" => w.file_scale = want_f64(v, &p)?,
            "timeout_ms" => w.timeout = want_ms(v, &p)?,
            _ => return Err(format!("{p}: unknown key")),
        }
    }
    Ok(w)
}

fn parse_bounds(v: &Json, path: &str) -> Result<Vec<Bound>, String> {
    want_obj(v, path)?
        .iter()
        .map(|(name, bv)| {
            let p = sub(path, name);
            let metric = Metric::ALL
                .into_iter()
                .find(|m| m.name() == name)
                .ok_or_else(|| format!("{p}: unknown metric"))?;
            let mut b = Bound {
                metric,
                min: None,
                max: None,
            };
            for (bk, bvv) in want_obj(bv, &p)? {
                let bp = sub(&p, bk);
                match bk.as_str() {
                    "min" => b.min = Some(want_f64(bvv, &bp)?),
                    "max" => b.max = Some(want_f64(bvv, &bp)?),
                    _ => return Err(format!("{bp}: unknown key")),
                }
            }
            Ok(b)
        })
        .collect()
}

fn parse_sweep(v: &Json, path: &str) -> Result<Sweep, String> {
    let (mut key, mut values) = (None, None);
    for (k, v) in want_obj(v, path)? {
        let p = sub(path, k);
        match k.as_str() {
            "key" => key = Some(want_str(v, &p)?.to_string()),
            "values" => values = Some(want_arr(v, &p)?.to_vec()),
            _ => return Err(format!("{p}: unknown key")),
        }
    }
    Ok(Sweep {
        key: key.ok_or_else(|| format!("{path}: missing required key \"key\""))?,
        values: values.ok_or_else(|| format!("{path}: missing required key \"values\""))?,
    })
}

fn parse_gates(v: &Json, path: &str) -> Result<Gates, String> {
    let mut g = Gates::default();
    for (k, v) in want_obj(v, path)? {
        let p = sub(path, k);
        match k.as_str() {
            "audit_clean" => g.audit_clean = want_bool(v, &p)?,
            "ordering" => g.ordering = parse_kinds(v, &p)?,
            "ordering_slack" => {
                let s = want_f64(v, &p)?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(format!("{p}: slack {s} out of range (0, 1]"));
                }
                g.ordering_slack = s;
            }
            "bounds" => g.bounds = parse_bounds(v, &p)?,
            _ => return Err(format!("{p}: unknown key")),
        }
    }
    Ok(g)
}

fn parse_golden(v: &Json, path: &str) -> Result<Vec<GoldenEntry>, String> {
    want_obj(v, path)?
        .iter()
        .map(|(label, gv)| {
            let p = sub(path, label);
            let kind = parse_kind(label, &p)?;
            let mut fingerprint = None;
            let mut served = None;
            for (gk, gvv) in want_obj(gv, &p)? {
                let gp = sub(&p, gk);
                match gk.as_str() {
                    "fingerprint" => fingerprint = Some(parse_fingerprint(gvv, &gp)?),
                    "served" => served = Some(want_u64(gvv, &gp)?),
                    _ => return Err(format!("{gp}: unknown key")),
                }
            }
            Ok(GoldenEntry {
                kind,
                fingerprint: fingerprint
                    .ok_or_else(|| format!("{p}: missing required key \"fingerprint\""))?,
                served: served.ok_or_else(|| format!("{p}: missing required key \"served\""))?,
            })
        })
        .collect()
}

impl Scenario {
    /// Parses a scenario document. Unknown keys, wrong types and
    /// out-of-range values fail with the dotted path of the offending
    /// key.
    ///
    /// # Errors
    ///
    /// Returns a path-qualified message on malformed JSON, unknown keys,
    /// type mismatches, and semantic violations ([`Scenario::validate`]).
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        Self::from_json(&doc)
    }

    /// Parses a scenario from an already-parsed JSON document.
    ///
    /// # Errors
    ///
    /// As [`Scenario::parse_str`].
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let fields = want_obj(doc, "scenario")?;
        no_repeated_keys(doc, "")?;
        let mut s = Scenario::base("");
        for (k, v) in fields {
            let p = sub("", k);
            match k.as_str() {
                "name" => s.name = want_str(v, &p)?.to_string(),
                "description" => s.description = want_str(v, &p)?.to_string(),
                "machine" => {
                    s.machine = match want_str(v, &p)? {
                        "amd48" => MachineId::Amd48,
                        "intel80" => MachineId::Intel80,
                        other => {
                            return Err(format!(
                                "{p}: unknown machine {other:?} (amd48 or intel80)"
                            ))
                        }
                    };
                }
                "cores" => s.cores = want_usize(v, &p)?,
                "kinds" => s.kinds = parse_kinds(v, &p)?,
                "server" => {
                    s.server = match want_str(v, &p)? {
                        "apache" => ServerId::Apache,
                        "lighttpd" => ServerId::Lighttpd,
                        other => {
                            return Err(format!(
                                "{p}: unknown server {other:?} (apache or lighttpd)"
                            ))
                        }
                    };
                }
                "search" => {
                    s.search = match want_str(v, &p)? {
                        "fixed" => Search::Fixed,
                        "saturation" => Search::Saturation,
                        other => {
                            return Err(format!(
                                "{p}: unknown search {other:?} (fixed or saturation)"
                            ))
                        }
                    };
                }
                "rate_per_core" => s.rate_per_core = Some(want_f64(v, &p)?),
                "rate_mult" => s.rate_mult = want_f64(v, &p)?,
                "warmup_ms" => s.warmup = want_ms(v, &p)?,
                "measure_ms" => s.measure = want_ms(v, &p)?,
                "seed" => s.seed = want_u64(v, &p)?,
                "tracked_files" => s.tracked_files = want_usize(v, &p)?,
                "workload" => s.workload = parse_workload(v, &p)?,
                "steal" => s.steal = want_bool(v, &p)?,
                "migrate" => s.migrate = want_bool(v, &p)?,
                "lockstat" => s.lockstat = want_bool(v, &p)?,
                "hog_ms" => s.hog = want_ms(v, &p)?,
                "dprof_v2" => s.dprof_v2 = want_bool(v, &p)?,
                "sweep" => s.sweep = Some(parse_sweep(v, &p)?),
                "gates" => s.gates = parse_gates(v, &p)?,
                "golden" => s.golden = parse_golden(v, &p)?,
                "smoke" => s.smoke = want_bool(v, &p)?,
                _ => return Err(format!("{p}: unknown key")),
            }
        }
        s.validate()?;
        Ok(s)
    }

    /// Semantic validation beyond per-field types.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, path-qualified.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
        {
            return Err(format!(
                "name: {:?} must be non-empty [a-z0-9_-]+",
                self.name
            ));
        }
        let n_cores = self.machine.machine().n_cores;
        if self.cores < 1 || self.cores > n_cores {
            return Err(format!(
                "cores: {} out of range 1..={n_cores} for machine {}",
                self.cores,
                self.machine.label()
            ));
        }
        if self.kinds.is_empty() {
            return Err("kinds: must name at least one listen kind".to_string());
        }
        for (i, k) in self.kinds.iter().enumerate() {
            if self.kinds[..i].contains(k) {
                return Err(format!("kinds[{i}]: duplicate kind {:?}", k.label()));
            }
        }
        if let Some(r) = self.rate_per_core {
            if r <= 0.0 || r.is_nan() {
                return Err(format!("rate_per_core: {r} must be positive"));
            }
        }
        if self.rate_mult <= 0.0 || !self.rate_mult.is_finite() {
            return Err(format!(
                "rate_mult: {} must be a positive finite number",
                self.rate_mult
            ));
        }
        // The runner floors every arrival gap at one cycle, so a faster
        // offered rate never lets the clock reach the end of the window.
        for &kind in &self.kinds {
            let rate = self.config(kind).conn_rate;
            if !rate.is_finite() || rate > CPU_HZ as f64 {
                let key = self.rate_per_core.map_or("rate_mult", |_| "rate_per_core");
                return Err(format!(
                    "{key}: {} offers {rate:.3e} conns/s, above one per cycle",
                    kind.label()
                ));
            }
        }
        if self.measure == 0 {
            return Err("measure_ms: must be positive".to_string());
        }
        if self.warmup.checked_add(self.measure).is_none() {
            return Err("measure_ms: warmup_ms + measure_ms overflows the clock".to_string());
        }
        // Requests touch one tracked object per served file, so more than
        // that would only be allocated, never used.
        if self.tracked_files == 0 || self.tracked_files > DEFAULT_N_FILES {
            return Err(format!(
                "tracked_files: {} out of range 1..={DEFAULT_N_FILES}",
                self.tracked_files
            ));
        }
        if self.workload.batches.is_empty() {
            return Err("workload.batches: must hold at least one batch".to_string());
        }
        for (i, &b) in self.workload.batches.iter().enumerate() {
            if b == 0 {
                return Err(format!("workload.batches[{i}]: batches must be >= 1"));
            }
        }
        if self.workload.file_scale <= 0.0 || !self.workload.file_scale.is_finite() {
            return Err(format!(
                "workload.file_scale: {} must be a positive finite number",
                self.workload.file_scale
            ));
        }
        if self.workload.file_scale > app::files::MAX_SCALE {
            return Err(format!(
                "workload.file_scale: {} is above {:.0}, where the largest response overflows u32",
                self.workload.file_scale,
                app::files::MAX_SCALE.floor()
            ));
        }
        if self.workload.timeout == 0 {
            return Err("workload.timeout_ms: must be positive".to_string());
        }
        if !self.gates.ordering.is_empty() {
            if self.gates.ordering.len() < 2 {
                return Err("gates.ordering: needs at least two kinds to order".to_string());
            }
            for (i, k) in self.gates.ordering.iter().enumerate() {
                if !self.kinds.contains(k) {
                    return Err(format!(
                        "gates.ordering[{i}]: kind {:?} not in this scenario's kinds",
                        k.label()
                    ));
                }
                if self.gates.ordering[..i].contains(k) {
                    return Err(format!(
                        "gates.ordering[{i}]: duplicate kind {:?}",
                        k.label()
                    ));
                }
            }
        }
        self.validate_bounds()?;
        for g in &self.golden {
            if !self.kinds.contains(&g.kind) {
                return Err(format!(
                    "golden.{}: kind not in this scenario's kinds",
                    g.kind.label()
                ));
            }
        }
        if !self.golden.is_empty() && !self.supports_golden() {
            return Err(
                "golden: saturation-search scenarios cannot pin fingerprints (search picks \
                 rates dynamically); use search \"fixed\""
                    .to_string(),
            );
        }
        let granular = [
            (self.warmup, "warmup_ms"),
            (self.measure, "measure_ms"),
            (self.workload.think, "workload.think_ms"),
            (self.workload.timeout, "workload.timeout_ms"),
            (self.hog, "hog_ms"),
        ];
        for (v, label) in granular {
            if v % CYCLES_PER_MS != 0 {
                return Err(format!("{label}: {v} cycles is not unit-granular"));
            }
        }
        if let Some(sw) = &self.sweep {
            let top = sw.key.split('.').next().unwrap_or_default();
            if UNSWEEPABLE.contains(&top) {
                return Err(format!("sweep.key: {:?} cannot be swept", sw.key));
            }
            if sw.values.is_empty() {
                return Err("sweep.values: must hold at least one value".to_string());
            }
            self.points()?;
        }
        Ok(())
    }

    /// The `gates.bounds` rules: a known metric at most once and a
    /// non-empty range.
    fn validate_bounds(&self) -> Result<(), String> {
        for (i, b) in self.gates.bounds.iter().enumerate() {
            let p = format!("gates.bounds.{}", b.metric.name());
            if self.gates.bounds[..i].iter().any(|o| o.metric == b.metric) {
                return Err(format!("{p}: duplicate metric"));
            }
            match (b.min, b.max) {
                (None, None) => return Err(format!("{p}: needs a min or a max")),
                (Some(min), Some(max)) if min > max => {
                    return Err(format!("{p}: min {min} above max {max}"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Renders the scenario back to its canonical JSON document:
    /// `parse(render(s)) == s` for every valid scenario (the proptest
    /// round-trip property).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let kinds_json = if self.kinds == ListenKind::ALL {
            Json::Str("all".to_string())
        } else {
            Json::Arr(self.kinds.iter().map(|k| Json::from(k.label())).collect())
        };
        let mut doc = Json::obj().field("name", self.name.as_str());
        if !self.description.is_empty() {
            doc = doc.field("description", self.description.as_str());
        }
        doc = doc
            .field("machine", self.machine.label())
            .field("cores", self.cores)
            .field("kinds", kinds_json)
            .field("server", self.server.label())
            .field(
                "search",
                match self.search {
                    Search::Fixed => "fixed",
                    Search::Saturation => "saturation",
                },
            );
        if let Some(r) = self.rate_per_core {
            doc = doc.field("rate_per_core", r);
        }
        doc = doc
            .field("rate_mult", self.rate_mult)
            .field("warmup_ms", self.warmup / CYCLES_PER_MS)
            .field("measure_ms", self.measure / CYCLES_PER_MS)
            .field("seed", self.seed)
            .field("tracked_files", self.tracked_files)
            .field(
                "workload",
                Json::obj()
                    .field(
                        "batches",
                        Json::Arr(
                            self.workload
                                .batches
                                .iter()
                                .map(|&b| Json::from(b))
                                .collect(),
                        ),
                    )
                    .field("think_ms", self.workload.think / CYCLES_PER_MS)
                    .field("file_scale", self.workload.file_scale)
                    .field("timeout_ms", self.workload.timeout / CYCLES_PER_MS),
            )
            .field("steal", self.steal)
            .field("migrate", self.migrate)
            .field("lockstat", self.lockstat)
            .field("hog_ms", self.hog / CYCLES_PER_MS)
            .field("dprof_v2", self.dprof_v2);
        if let Some(sw) = &self.sweep {
            doc = doc.field(
                "sweep",
                Json::obj()
                    .field("key", sw.key.as_str())
                    .field("values", Json::Arr(sw.values.clone())),
            );
        }
        doc = doc.field("gates", gates_json(&self.gates));
        if !self.golden.is_empty() {
            doc = doc.field("golden", golden_json(&self.golden));
        }
        doc.field("smoke", self.smoke)
    }
}

fn gates_json(g: &Gates) -> Json {
    let mut j = Json::obj().field("audit_clean", g.audit_clean);
    if !g.ordering.is_empty() {
        j = j.field(
            "ordering",
            Json::Arr(g.ordering.iter().map(|k| Json::from(k.label())).collect()),
        );
    }
    j = j.field("ordering_slack", g.ordering_slack);
    if !g.bounds.is_empty() {
        let bound = |b: &Bound| {
            let mut o = Json::obj();
            if let Some(min) = b.min {
                o = o.field("min", min);
            }
            if let Some(max) = b.max {
                o = o.field("max", max);
            }
            (b.metric.name().to_string(), o)
        };
        j = j.field("bounds", Json::Obj(g.bounds.iter().map(bound).collect()));
    }
    j
}

fn golden_json(golden: &[GoldenEntry]) -> Json {
    Json::Obj(
        golden
            .iter()
            .map(|g| {
                (
                    g.kind.label().to_string(),
                    Json::obj()
                        .field("fingerprint", format!("{:#018x}", g.fingerprint))
                        .field("served", g.served),
                )
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Running and gate evaluation.
// ---------------------------------------------------------------------

/// One run's headline numbers inside a [`KindReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The run's sweep value ([`Json::Null`] without a sweep).
    pub swept: Json,
    /// Active cores.
    pub cores: usize,
    /// Offered connection rate (the searched rate's starting guess under
    /// saturation search).
    pub rate: f64,
    /// Requests served in the window.
    pub served: u64,
    /// Client-completed connections.
    pub completed: u64,
    /// Client-abandoned connections.
    pub timeouts: u64,
    /// Served per second per core.
    pub rps_per_core: f64,
    /// Run fingerprint.
    pub fingerprint: u64,
    /// Events the run loop dispatched.
    pub events: u64,
}

/// Aggregated outcome of one listen kind's runs. Counters sum over the
/// runs.
#[derive(Debug, Clone, PartialEq)]
pub struct KindReport {
    /// Listen kind.
    pub kind: ListenKind,
    /// Total served requests.
    pub served: u64,
    /// Total client-completed connections.
    pub completed: u64,
    /// Total client-abandoned connections.
    pub timeouts: u64,
    /// Combined fingerprint over the runs ([`combine_fingerprints`]).
    pub fingerprint: u64,
    /// dprof-v2 wasted bytes per served request across the kind's runs
    /// (0.0 when the ledger was off or compiled out).
    pub wasted_bytes_per_request: f64,
    /// Conservation-audit violations across all runs (empty = clean).
    pub audit: Vec<String>,
    /// Per-run summaries in sweep order.
    pub runs: Vec<RunSummary>,
}

impl KindReport {
    /// A report with every count at zero and nothing measured.
    fn empty(kind: ListenKind) -> Self {
        Self {
            kind,
            served: 0,
            completed: 0,
            timeouts: 0,
            fingerprint: 0,
            wasted_bytes_per_request: 0.0,
            audit: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn from_results(kind: ListenKind, rs: &[RunResult]) -> Self {
        let sum = |f: fn(&RunResult) -> u64| rs.iter().map(f).sum();
        let fps: Vec<u64> = rs.iter().map(|r| r.fingerprint).collect();
        Self {
            served: sum(|r| r.served),
            completed: sum(|r| r.conns_completed),
            timeouts: sum(|r| r.timeouts),
            fingerprint: combine_fingerprints(&fps),
            wasted_bytes_per_request: wasted_per_request(rs),
            audit: audit_lines(kind, rs.iter().map(|r| r.audit.violations())),
            ..Self::empty(kind)
        }
    }

    fn to_json(&self) -> Json {
        let mut row = Json::obj()
            .field("kind", self.kind.label())
            .field("completed", self.completed)
            .field("timeouts", self.timeouts)
            .field("fingerprint", format!("{:#018x}", self.fingerprint));
        for m in Metric::ALL {
            row = row.field(m.name(), m.of(self));
        }
        row.field("wasted_bytes_per_request", self.wasted_bytes_per_request)
            .field(
                "audit_violations",
                Json::Arr(self.audit.iter().map(|v| Json::from(v.as_str())).collect()),
            )
            .field(
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("swept", r.swept.clone())
                                .field("cores", r.cores)
                                .field("rate", r.rate)
                                .field("served", r.served)
                                .field("completed", r.completed)
                                .field("timeouts", r.timeouts)
                                .field("rps_per_core", r.rps_per_core)
                                .field("fingerprint", format!("{:#018x}", r.fingerprint))
                                .field("events", r.events)
                        })
                        .collect(),
                ),
            )
    }
}

/// Each run's audit violations, tagged with the kind and the run index.
fn audit_lines(kind: ListenKind, violations: impl Iterator<Item = Vec<String>>) -> Vec<String> {
    violations
        .enumerate()
        .flat_map(|(i, vs)| {
            vs.into_iter()
                .map(move |v| format!("{} run[{i}]: {v}", kind.label()))
        })
        .collect()
}

/// dprof-v2 wasted bytes per served request summed over a kind's runs.
fn wasted_per_request(rs: &[RunResult]) -> f64 {
    let wasted: u64 = rs.iter().map(|r| r.cacheline.totals().bytes_wasted).sum();
    let served: u64 = rs.iter().map(|r| r.served).sum();
    #[allow(clippy::cast_precision_loss)]
    let out = wasted as f64 / served.max(1) as f64;
    out
}

/// The outcome of running one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Violated gates and golden mismatches; empty means the scenario
    /// passed.
    pub problems: Vec<String>,
    /// Per-kind aggregates.
    pub kinds: Vec<KindReport>,
}

impl ScenarioReport {
    /// Whether every gate and golden held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// The report as a JSON object (one element of the driver artifact's
    /// `scenarios` array).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("scenario", self.name.as_str())
            .field("ok", self.ok())
            .field(
                "problems",
                Json::Arr(
                    self.problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            )
            .field(
                "kinds",
                Json::Arr(self.kinds.iter().map(KindReport::to_json).collect()),
            )
    }
}

impl Scenario {
    /// Runs the scenario on `workers` sweep threads and evaluates its
    /// gates and goldens.
    #[must_use]
    pub fn run(&self, workers: usize) -> ScenarioReport {
        let points = match self.points() {
            Ok(points) => points,
            Err(e) => {
                return ScenarioReport {
                    name: self.name.clone(),
                    problems: vec![e],
                    kinds: Vec::new(),
                }
            }
        };
        let kinds = self.run_points(&points, workers);
        let problems = self.evaluate(&kinds);
        ScenarioReport {
            name: self.name.clone(),
            problems,
            kinds,
        }
    }

    /// One run per `(kind, point)`, kinds outermost, aggregated per kind.
    fn run_points(&self, points: &[Scenario], workers: usize) -> Vec<KindReport> {
        let jobs: Vec<(Search, RunConfig)> = self
            .kinds
            .iter()
            .flat_map(|&kind| points.iter().map(move |p| (p.search, p.config(kind))))
            .collect();
        let shapes: Vec<(usize, f64)> = jobs.iter().map(|(_, c)| (c.cores, c.conn_rate)).collect();
        let results = crate::par_map(jobs, workers, |(search, cfg)| match search {
            Search::Saturation => app::find_saturation(&cfg),
            Search::Fixed => app::Runner::new(cfg).run(),
        });
        let swept = |i: usize| {
            self.sweep
                .as_ref()
                .map_or(Json::Null, |sw| sw.values[i].clone())
        };
        results
            .chunks(points.len())
            .zip(shapes.chunks(points.len()))
            .zip(&self.kinds)
            .map(|((rs, shapes), &kind)| KindReport {
                runs: rs
                    .iter()
                    .zip(shapes)
                    .enumerate()
                    .map(|(i, (r, &(cores, rate)))| RunSummary {
                        swept: swept(i),
                        cores,
                        rate,
                        served: r.served,
                        completed: r.conns_completed,
                        timeouts: r.timeouts,
                        rps_per_core: r.rps_per_core,
                        fingerprint: r.fingerprint,
                        events: r.events_executed,
                    })
                    .collect(),
                ..KindReport::from_results(kind, rs)
            })
            .collect()
    }

    /// Evaluates gates and goldens against per-kind aggregates; returns
    /// the violations.
    #[must_use]
    pub fn evaluate(&self, kinds: &[KindReport]) -> Vec<String> {
        let g = &self.gates;
        let mut problems = Vec::new();
        for kr in kinds {
            let lbl = kr.kind.label();
            if g.audit_clean && !kr.audit.is_empty() {
                problems.push(format!(
                    "{lbl}: conservation audit violations:\n  {}",
                    kr.audit.join("\n  ")
                ));
            }
            for b in &g.bounds {
                let name = b.metric.name();
                let v = b.metric.of(kr);
                if let Some(min) = b.min.filter(|&min| v < min) {
                    problems.push(format!("{lbl}: {name} {v} below gate min {min}"));
                }
                if let Some(max) = b.max.filter(|&max| v > max) {
                    problems.push(format!("{lbl}: {name} {v} above gate max {max}"));
                }
            }
        }
        let served_of = |k: ListenKind| kinds.iter().find(|kr| kr.kind == k).map(|kr| kr.served);
        for pair in g.ordering.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            if let (Some(sh), Some(sl)) = (served_of(hi), served_of(lo)) {
                #[allow(clippy::cast_precision_loss)]
                if (sh as f64) < sl as f64 * g.ordering_slack {
                    problems.push(format!(
                        "ordering gate: {} served {sh} < {} x {} served {sl}",
                        hi.label(),
                        g.ordering_slack,
                        lo.label()
                    ));
                }
            }
        }
        // The `fast` feature compiles the fingerprint plane to a no-op
        // (fingerprints read 0), so goldens are only meaningful in the
        // instrumented build; the `scenario` binary says so
        // ([`GOLDENS_UNCHECKED`]).
        if !cfg!(feature = "fast") {
            for ge in &self.golden {
                let Some(kr) = kinds.iter().find(|kr| kr.kind == ge.kind) else {
                    continue;
                };
                if kr.fingerprint != ge.fingerprint || kr.served != ge.served {
                    problems.push(format!(
                        "golden mismatch for {}: fingerprint {:#018x} (recorded {:#018x}), \
                         served {} (recorded {}) — if the change is intentional, re-record \
                         with `scenario --record`",
                        ge.kind.label(),
                        kr.fingerprint,
                        ge.fingerprint,
                        kr.served,
                        ge.served
                    ));
                }
            }
        }
        problems
    }
}

// ---------------------------------------------------------------------
// Catalog I/O.
// ---------------------------------------------------------------------

/// Resolves a catalog path relative to the repo root: tries the working
/// directory first (how the binaries are run), then falls back to the
/// source checkout (how `cargo test` runs, with the crate directory as
/// the working directory).
#[must_use]
pub fn catalog_path(rel: &str) -> PathBuf {
    let p = PathBuf::from(rel);
    if p.exists() {
        return p;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Loads one scenario file.
///
/// # Errors
///
/// I/O and parse errors, prefixed with the file path.
pub fn load_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scenario::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `*.json` scenario in a directory, sorted by file name.
///
/// # Errors
///
/// I/O and parse errors, an empty directory, and duplicate scenario
/// names.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, Scenario)>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no *.json scenarios found", dir.display()));
    }
    let mut out = Vec::with_capacity(paths.len());
    let mut seen: Vec<String> = Vec::new();
    for p in paths {
        let s = load_file(&p)?;
        if seen.contains(&s.name) {
            return Err(format!(
                "{}: duplicate scenario name {:?}",
                p.display(),
                s.name
            ));
        }
        seen.push(s.name.clone());
        out.push((p, s));
    }
    Ok(out)
}

/// Rewrites the `golden` key of a scenario file in place from a report's
/// measured values, leaving every other key untouched (the file is
/// re-rendered pretty, so hand-kept comments are not supported — the
/// format has none).
///
/// # Errors
///
/// I/O and parse errors, prefixed with the file path.
pub fn record_golden(path: &Path, report: &ScenarioReport) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries: Vec<GoldenEntry> = report
        .kinds
        .iter()
        .map(|kr| GoldenEntry {
            kind: kr.kind,
            fingerprint: kr.fingerprint,
            served: kr.served,
        })
        .collect();
    let golden = golden_json(&entries);
    match &mut doc {
        Json::Obj(fields) => {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "golden") {
                slot.1 = golden;
            } else {
                fields.push(("golden".to_string(), golden));
            }
        }
        _ => return Err(format!("{}: top level is not an object", path.display())),
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim::rng::SimRng;

    #[test]
    fn base_scenario_round_trips_and_validates() {
        let s = Scenario::base("base-1");
        s.validate().expect("base is valid");
        let text = s.to_json().render();
        let back = Scenario::parse_str(&text).expect("canonical render parses");
        assert_eq!(back, s);
        // Pretty form parses to the same scenario too (the corpus format).
        let pretty = s.to_json().render_pretty();
        assert_eq!(Scenario::parse_str(&pretty).expect("pretty parses"), s);
    }

    #[test]
    fn default_config_is_exactly_runconfig_new() {
        let s = Scenario::base("defaults");
        let points = s.points().expect("no sweep: one point");
        assert_eq!(points, vec![s.clone()]);
        let got = points[0].config(ListenKind::Affinity);
        let want = RunConfig::new(
            Machine::amd48(),
            8,
            ListenKind::Affinity,
            ServerKind::apache(),
            Workload::base(),
            crate::rate_guess(ListenKind::Affinity, ServerKind::apache(), 8),
        );
        assert_eq!(got, want, "empty scenario must mean the seed defaults");
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let mut s = Scenario::base("kitchen_sink");
        s.description = "every knob set".to_string();
        s.machine = MachineId::Intel80;
        s.cores = 64;
        s.kinds = vec![ListenKind::Affinity, ListenKind::Twenty];
        s.server = ServerId::Lighttpd;
        s.rate_per_core = Some(1234.5);
        s.rate_mult = 0.75;
        s.warmup = ms(120);
        s.measure = ms(250);
        s.seed = 42;
        s.tracked_files = 300;
        s.workload = Workload {
            batches: vec![2, 4],
            think: ms(50),
            file_scale: 2.5,
            timeout: ms(4000),
        };
        s.steal = false;
        s.migrate = false;
        s.lockstat = true;
        s.hog = ms(40);
        s.dprof_v2 = true;
        s.sweep = Some(Sweep {
            key: "cores".to_string(),
            values: vec![Json::U64(16), Json::U64(80)],
        });
        s.gates = Gates {
            audit_clean: true,
            ordering: vec![ListenKind::Affinity, ListenKind::Twenty],
            ordering_slack: 0.95,
            bounds: vec![
                Bound {
                    metric: Metric::Served,
                    min: Some(1000.0),
                    max: None,
                },
                Bound {
                    metric: Metric::CompletedFrac,
                    min: Some(0.9),
                    max: Some(1.0),
                },
            ],
        };
        s.golden = vec![GoldenEntry {
            kind: ListenKind::Affinity,
            fingerprint: 0x0123_4567_89ab_cdef,
            served: 7266,
        }];
        s.smoke = true;
        s.validate().expect("kitchen sink is valid");
        let back = Scenario::parse_str(&s.to_json().render()).expect("parses");
        assert_eq!(back, s);
        // Each sweep point is the scenario with the value at its key.
        let points = s.points().expect("points validate");
        let cores: Vec<usize> = points.iter().map(|p| p.cores).collect();
        assert_eq!(cores, [16, 80]);
        let mut want = s.clone();
        want.sweep = None;
        want.cores = 80;
        assert_eq!(points[1], want);
    }

    /// Builds a random *valid* scenario: a fuzz case, plus what a fuzz
    /// case must not carry — core counts up to the machine's size, a
    /// sweep, saturation search, gates and goldens — from a seeded
    /// [`SimRng`] (the vendored proptest stub has no structured
    /// strategies, so the randomness comes from the seed it feeds us).
    fn arb_scenario(seed: u64) -> Scenario {
        let mut s = crate::fuzz::case(seed);
        let mut rng = SimRng::new(seed ^ 0x5ce7_a810);
        if rng.chance(0.5) {
            s.description = "generated".to_string();
        }
        let n_cores = s.machine.machine().n_cores;
        s.cores = 1 + rng.index(n_cores);
        if rng.chance(0.3) {
            let key = ["cores", "rate_mult", "workload.think_ms"][rng.index(3)];
            let values = (0..=rng.index(3)).map(|_| match key {
                "cores" => Json::from(s.cores + rng.index(n_cores + 1 - s.cores)),
                "rate_mult" => Json::from(0.25 * (1 + rng.index(8)) as f64),
                _ => Json::from(rng.index(200)),
            });
            // The values as a file reads them back (`1.0` reads as `1`).
            let values = values
                .map(|v| Json::parse(&v.render()).expect("rendered JSON parses"))
                .collect();
            s.sweep = Some(Sweep {
                key: key.to_string(),
                values,
            });
        }
        // More kinds, so the ordering gate has something to order.
        let first = s.kinds[0];
        s.kinds.extend(
            ListenKind::ALL
                .into_iter()
                .filter(|&k| k != first && rng.chance(0.3)),
        );
        if rng.chance(0.2) {
            s.search = Search::Saturation;
        }
        s.gates.audit_clean = rng.chance(0.9);
        if s.kinds.len() >= 2 && rng.chance(0.5) {
            s.gates.ordering = s.kinds[..2].to_vec();
        }
        s.gates.ordering_slack = (1 + rng.index(100)) as f64 / 100.0;
        // Any subset of the metrics the scenario can bound, each with a
        // min, a max, or both (min <= max).
        for m in Metric::ALL {
            if !rng.chance(0.3) {
                continue;
            }
            let lo = rng.index(1000) as f64 / 4.0;
            let (min, max) = match rng.index(3) {
                0 => (Some(lo), None),
                1 => (None, Some(lo)),
                _ => (Some(lo), Some(lo + rng.index(1000) as f64)),
            };
            s.gates.bounds.push(Bound {
                metric: m,
                min,
                max,
            });
        }
        if s.search == Search::Fixed && rng.chance(0.5) {
            s.golden = s
                .kinds
                .clone()
                .into_iter()
                .map(|k| GoldenEntry {
                    kind: k,
                    fingerprint: rng.next_u64(),
                    served: rng.next_u64(),
                })
                .collect();
        }
        s.smoke = rng.chance(0.5);
        s.validate()
            .expect("generator must produce valid scenarios");
        s
    }

    proptest! {
        /// Render → parse is the identity over the whole scenario space.
        #[test]
        fn random_scenarios_round_trip(seed in any::<u64>()) {
            let s = arb_scenario(seed);
            let compact = Scenario::parse_str(&s.to_json().render()).expect("compact parses");
            prop_assert_eq!(&compact, &s);
            let pretty = Scenario::parse_str(&s.to_json().render_pretty()).expect("pretty parses");
            prop_assert_eq!(&pretty, &s);
        }
    }

    #[test]
    fn malformed_documents_fail_with_the_offending_path() {
        let cases: &[(&str, &str)] = &[
            (r#"{"name":"x","bogus":1}"#, "bogus: unknown key"),
            (
                r#"{"name":"x","cores":"eight"}"#,
                "cores: expected unsigned integer, got string",
            ),
            (
                r#"{"name":"x","fault":{"drop_p":0.02}}"#,
                "fault: unknown key",
            ),
            (
                r#"{"name":"x","kinds":["stok"]}"#,
                "kinds[0]: unknown listen kind",
            ),
            (
                r#"{"name":"x","kinds":["fine","fine"]}"#,
                "kinds[1]: duplicate kind",
            ),
            (
                r#"{"name":"x","kinds":[]}"#,
                "kinds: must name at least one",
            ),
            (
                r#"{"name":"x","workload":{"batches":[]}}"#,
                "workload.batches: must hold",
            ),
            (
                r#"{"name":"x","workload":{"batches":[1,0]}}"#,
                "workload.batches[1]",
            ),
            (
                r#"{"name":"x","cores":90}"#,
                "cores: 90 out of range 1..=48",
            ),
            (
                r#"{"name":"x","kinds":["fine"],"golden":{"twenty":{"fingerprint":"0x0","served":1}}}"#,
                "golden.twenty: kind not in",
            ),
            (
                r#"{"name":"x","search":"saturation","golden":{"stock":{"fingerprint":"0x0","served":1}}}"#,
                "golden: saturation-search scenarios cannot pin",
            ),
            (
                r#"{"name":"x","golden":{"stock":{"fingerprint":"g1","served":1}}}"#,
                "golden.stock.fingerprint: fingerprint must be a 0x-prefixed hex string",
            ),
            (
                r#"{"name":"x","golden":{"stock":{"fingerprint":"0xzz","served":1}}}"#,
                "bad hex fingerprint",
            ),
            (r#"{"name":"x","overload":{}}"#, "overload: unknown key"),
            (
                r#"{"name":"x","workload":{"n_files":500}}"#,
                "workload.n_files: unknown key",
            ),
            (
                r#"{"name":"x","workload":{"file_scale":1000000}}"#,
                "workload.file_scale: 1000000 is above 757489",
            ),
            (
                r#"{"name":"x","hotplug":[{"core":0,"at_ms":5,"up":false}]}"#,
                "hotplug: unknown key",
            ),
            (
                r#"{"name":"x","timeline_bucket_ms":10}"#,
                "timeline_bucket_ms: unknown key",
            ),
            (r#"{"name":"x","backend":"wheel"}"#, "backend: unknown key"),
            (
                r#"{"name":"x","rate_mult":0}"#,
                "rate_mult: 0 must be a positive",
            ),
            (
                r#"{"name":"x","sweep":{"key":"bogus","values":[1]}}"#,
                "sweep.key: \"bogus\" is not a key of the rendered scenario",
            ),
            (
                r#"{"name":"x","sweep":{"key":"gates","values":[{}]}}"#,
                "sweep.key: \"gates\" cannot be swept",
            ),
            (
                r#"{"name":"x","sweep":{"key":"cores","values":[]}}"#,
                "sweep.values: must hold at least one value",
            ),
            (
                r#"{"name":"x","sweep":{"key":"cores","values":[4,99]}}"#,
                "sweep.values[1]: cores: 99 out of range 1..=48",
            ),
            (
                r#"{"name":"x","sweep":{"key":"cores"}}"#,
                "sweep: missing required key \"values\"",
            ),
            (r#"{"name":"BAD NAME"}"#, "must be non-empty [a-z0-9_-]+"),
            (
                r#"{"name":"x","gates":{"ordering":["fine"]}}"#,
                "gates.ordering: needs at least two",
            ),
            (
                r#"{"name":"x","gates":{"ordering":["fine","twenty"]}}"#,
                "gates.ordering[1]: kind \"twenty\" not in",
            ),
            (
                r#"{"name":"x","gates":{"min_served":1}}"#,
                "gates.min_served: unknown key",
            ),
            (
                r#"{"name":"x","gates":{"bounds":{"bogus":{"min":1}}}}"#,
                "gates.bounds.bogus: unknown metric",
            ),
            (
                r#"{"name":"x","gates":{"bounds":{"served":{"lo":1}}}}"#,
                "gates.bounds.served.lo: unknown key",
            ),
            (
                r#"{"name":"x","gates":{"bounds":{"served":{}}}}"#,
                "gates.bounds.served: needs a min or a max",
            ),
            (
                r#"{"name":"x","gates":{"bounds":{"served":{"min":1},"served":{"max":9}}}}"#,
                "gates.bounds.served: repeated key",
            ),
            (
                r#"{"name":"x","gates":{"bounds":{"served":{"min":5,"max":1}}}}"#,
                "gates.bounds.served: min 5 above max 1",
            ),
            (r#"{"name":"x","layout":"packed"}"#, "layout: unknown key"),
            (r#"{"name":"x","seed":1,"seed":2}"#, "seed: repeated key"),
            (
                r#"{"name":"x","warmup_ms":10000000000000}"#,
                "warmup_ms: 10000000000000 overflows",
            ),
            (
                r#"{"name":"x","workload":{"think_ms":100000000000000}}"#,
                "workload.think_ms: 100000000000000 overflows the simulated clock",
            ),
            (
                r#"{"name":"x","warmup_ms":7000000000000,"measure_ms":7000000000000}"#,
                "measure_ms: warmup_ms + measure_ms overflows the clock",
            ),
            (
                r#"{"name":"x","tracked_files":30001}"#,
                "tracked_files: 30001 out of range 1..=30000",
            ),
            (
                r#"{"name":"x","rate_per_core":1e308}"#,
                "rate_per_core: stock offers inf conns/s",
            ),
            (
                r#"{"name":"x","rate_mult":1e300}"#,
                "rate_mult: stock offers 1.667e304 conns/s",
            ),
            (
                "{\"name\":\"x\"",
                "", /* truncated document: any parse error, no panic */
            ),
        ];
        for (text, want) in cases {
            let err = Scenario::parse_str(text).expect_err(text);
            assert!(
                err.contains(want),
                "for {text}\n  error {err:?}\n  missing {want:?}"
            );
        }
    }

    #[test]
    fn fingerprint_combine_is_identity_for_one_and_order_sensitive() {
        assert_eq!(combine_fingerprints(&[0xdead_beef]), 0xdead_beef);
        let ab = combine_fingerprints(&[1, 2]);
        let ba = combine_fingerprints(&[2, 1]);
        assert_ne!(ab, ba, "fold must be order-sensitive");
        assert_ne!(combine_fingerprints(&[1]), combine_fingerprints(&[1, 1]));
    }

    #[test]
    fn gate_evaluation_reports_each_violation() {
        let mut s = Scenario::base("gates");
        s.kinds = vec![ListenKind::Affinity, ListenKind::Stock];
        s.gates.bounds = vec![Bound {
            metric: Metric::Served,
            min: Some(100.0),
            max: None,
        }];
        s.gates.ordering = vec![ListenKind::Affinity, ListenKind::Stock];
        s.gates.ordering_slack = 1.0;
        s.golden = vec![GoldenEntry {
            kind: ListenKind::Affinity,
            fingerprint: 0x1,
            served: 50,
        }];
        let report = |kind: ListenKind, served: u64, fp: u64| KindReport {
            served,
            completed: served,
            fingerprint: fp,
            ..KindReport::empty(kind)
        };
        // affinity misses the served bound and the golden; stock beats
        // affinity, violating the ordering gate.
        let problems = s.evaluate(&[
            report(ListenKind::Affinity, 50, 0x2),
            report(ListenKind::Stock, 120, 0x3),
        ]);
        assert!(problems
            .iter()
            .any(|p| p.contains("affinity: served 50 below gate min 100")));
        assert!(problems
            .iter()
            .any(|p| p.contains("ordering gate: affinity served 50")));
        if cfg!(feature = "fast") {
            assert_eq!(problems.len(), 2, "{problems:?}");
        } else {
            assert!(problems
                .iter()
                .any(|p| p.contains("golden mismatch for affinity")));
            assert_eq!(problems.len(), 3, "{problems:?}");
        }
        // A clean outcome passes every gate.
        let clean = s.evaluate(&[
            report(ListenKind::Affinity, 150, 0x1),
            report(ListenKind::Stock, 120, 0x3),
        ]);
        let expect = usize::from(!cfg!(feature = "fast")); // golden served 50 != 150
        assert_eq!(clean.len(), expect, "{clean:?}");
        // An audit violation fails audit_clean.
        let mut dirty = report(ListenKind::Stock, 120, 0x3);
        dirty
            .audit
            .push("stock run[0]: request conservation".to_string());
        let audit = s.evaluate(&[report(ListenKind::Affinity, 150, 0x1), dirty]);
        assert!(
            audit
                .iter()
                .any(|p| p.starts_with("stock: conservation audit violations")),
            "{audit:?}"
        );
    }

    /// Every metric, through a bound pinned to a clean report's value:
    /// the clean report passes, and corrupting the field the metric
    /// reads fails with the kind and the metric's name.
    #[test]
    fn every_bound_fails_on_its_corruption() {
        let good = KindReport {
            served: 150,
            completed: 150,
            ..KindReport::empty(ListenKind::Affinity)
        };
        type Corrupt = fn(&mut KindReport);
        let rows: &[(Metric, Corrupt)] = &[
            (Metric::Served, |k| k.served = 50),
            (Metric::CompletedFrac, |k| k.timeouts = 50),
        ];
        for &(metric, corrupt) in rows {
            let v = Some(metric.of(&good));
            let mut s = Scenario::base("bounds");
            s.gates.bounds = vec![Bound {
                metric,
                min: v,
                max: v,
            }];
            assert!(s.evaluate(std::slice::from_ref(&good)).is_empty());
            let mut bad = good.clone();
            corrupt(&mut bad);
            let problems = s.evaluate(&[bad]);
            let prefix = format!("affinity: {} ", metric.name());
            assert!(
                problems.len() == 1 && problems[0].starts_with(&prefix),
                "{problems:?} should be one {prefix:?} problem"
            );
        }
        assert!(Metric::ALL.iter().all(|m| rows.iter().any(|r| r.0 == *m)));
    }
}
