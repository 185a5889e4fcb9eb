//! `simbench` — host-time benchmark of the Affinity-Accept simulator.
//!
//! Three fixed workloads (see `workloads.rs` and README.md). Each repeat
//! of a workload runs in a fresh child process of this binary, one at a
//! time and single-threaded, and every repeat's simulated output is
//! checked: clean audits, identical replay across repeats, and the pins
//! of `pins.json` at seed 1. Each repeat times its pass part by part, and
//! the end-to-end metrics take every part at the fastest any repeat ran
//! it (`stats::fastest_parts`). A traced pass then measures each layer
//! from outside (`layers.rs`, `probes.rs`).
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- [--seed N] [--repeats R]
//!     all three workloads, R repeats each round-robin (default 8), then
//!     the traced pass; writes results/benchmark.json and
//!     results/benchmark_trace.json. Exits non-zero on any failed check.
//! ... -- --smoke          R = 1, no traced pass
//! ... -- --list           every metric with unit, direction, bound, layer map
//! ... -- --repin          rerun seed 1 and rewrite pins.json
//! ... -- --workload NAME --seed N --seconds S --trace 0|1
//!     one workload, repeated for about S seconds (--trace 0: end-to-end
//!     metrics) or one repeat and its traced pass (--trace 1: per-layer
//!     metrics); the last stdout line is one JSON object
//!     {"correct", "attempted", "failed", "metrics"}.
//! ... -- --child NAME --seed N
//!     internal: one untraced pass in this process, printed as one JSON
//!     line for the parent that spawned it.
//! ```

mod catalog;
mod layers;
mod pins;
mod probes;
mod stats;
mod trace;
mod workloads;

use metrics::json::Json;
use pins::{Pin, Pins, PIN_SEED};
use stats::Summary;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Outcome, Workload};

const USAGE: &str = "usage: simbench [--seed N] [--repeats R] [--smoke]
       simbench --list | --repin
       simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
/// Repeats per workload in the full run.
const DEFAULT_REPEATS: usize = 8;
/// Fewest repeats a timed `--workload` run makes, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
/// `--seconds` when not given (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 40.0;
const REPORT: &str = "results/benchmark.json";
const TRACE: &str = "results/benchmark_trace.json";

enum Cli {
    Full {
        seed: u64,
        repeats: usize,
        smoke: bool,
    },
    List,
    Repin,
    Single {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Child {
        workload: Workload,
        seed: u64,
    },
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut seed = PIN_SEED;
        let (mut repeats, mut seconds, mut trace) = (DEFAULT_REPEATS, DEFAULT_SECONDS, false);
        let (mut smoke, mut list, mut repin) = (false, false, false);
        let mut workload = None;
        let mut child = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{a} needs a value"))
                    .map(String::as_str)
            };
            let workload_named =
                |v: &str| Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"));
            match a.as_str() {
                "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--repeats" => {
                    repeats = value()?.parse().map_err(|_| "--repeats takes an integer")?;
                    if repeats == 0 {
                        return Err("--repeats must be at least 1".into());
                    }
                }
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()? {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--workload" => workload = Some(workload_named(value()?)?),
                "--child" => child = Some(workload_named(value()?)?),
                "--smoke" => smoke = true,
                "--list" => list = true,
                "--repin" => repin = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(match (child, workload) {
            (Some(workload), _) => Cli::Child { workload, seed },
            (None, Some(workload)) => Cli::Single {
                workload,
                seed,
                seconds,
                trace,
            },
            (None, None) if list => Cli::List,
            (None, None) if repin => Cli::Repin,
            (None, None) => Cli::Full {
                seed,
                repeats: if smoke { 1 } else { repeats },
                smoke,
            },
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match Cli::parse(&args) {
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            2
        }
        Ok(Cli::List) => {
            print!("{}", catalog::listing());
            0
        }
        Ok(Cli::Child { workload, seed }) => child(workload, seed),
        Ok(Cli::Repin) => repin(),
        Ok(Cli::Single {
            workload,
            seed,
            seconds,
            trace,
        }) => {
            if trace {
                single_traced(workload, seed)
            } else {
                single_timed(workload, seed, seconds)
            }
        }
        Ok(Cli::Full {
            seed,
            repeats,
            smoke,
        }) => full(seed, repeats, smoke),
    };
    std::process::exit(code);
}

fn instrumentation() -> &'static str {
    if cfg!(feature = "fast") {
        "fast"
    } else {
        "full"
    }
}

// ------------------------------------------------------------- repeats

/// One repeat: a pass in a fresh child process.
struct Repeat {
    wall_s: f64,
    peak_rss_mib: f64,
    outcome: Outcome,
}

fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

impl Repeat {
    /// Host seconds of the repeat outside its timed parts: starting and
    /// ending the process, building configurations, audits.
    fn overhead_s(&self) -> f64 {
        self.wall_s - self.outcome.setups.iter().sum::<f64>() - self.outcome.run_s()
    }

    /// The value of end-to-end metric `name` for this repeat alone.
    fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "events_per_s" => self.outcome.events as f64 / self.outcome.run_s(),
            "setup_s" => fastest(self.outcome.setups.iter().copied()),
            "peak_rss_mib" => self.peak_rss_mib,
            other => unreachable!("no end-to-end metric {other}"),
        }
    }
}

/// A run's end-to-end metrics from its checked repeats.
struct Estimate {
    /// The whole pass with every part at its fastest: the fastest
    /// overhead, construction by construction, slice by slice.
    wall_s: f64,
    /// Events over the run's parts at their fastest.
    events_per_s: f64,
    /// The fastest construction.
    setup_s: f64,
    /// The median repeat's peak resident set.
    peak_rss_mib: f64,
    /// Host seconds of the run's parts at their fastest.
    run_s: f64,
}

impl Estimate {
    fn of(reps: &[Repeat]) -> Result<Self, String> {
        let first = reps.first().ok_or("no repeat passed its checks")?;
        let setups = stats::fastest_parts(reps.iter().map(|r| r.outcome.setups.as_slice()))?;
        let parts = stats::fastest_parts(reps.iter().map(|r| r.outcome.parts.as_slice()))?;
        let run_s: f64 = parts.iter().sum();
        let rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_mib).collect();
        Ok(Self {
            wall_s: fastest(reps.iter().map(Repeat::overhead_s))
                + setups.iter().sum::<f64>()
                + run_s,
            events_per_s: first.outcome.events as f64 / run_s,
            setup_s: fastest(setups),
            peak_rss_mib: stats::median(&rss),
            run_s,
        })
    }

    fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "events_per_s" => self.events_per_s,
            "setup_s" => self.setup_s,
            "peak_rss_mib" => self.peak_rss_mib,
            other => unreachable!("no end-to-end metric {other}"),
        }
    }
}

fn outcome_json(o: &Outcome) -> Json {
    let seconds = |v: &[f64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
    Json::obj()
        .field("setups", seconds(&o.setups))
        .field("parts", seconds(&o.parts))
        .field("events", o.events)
        .field("served", o.served)
        .field("fingerprint", pins::hex(o.fingerprint))
        .field(
            "rates",
            Json::Arr(o.rates.iter().map(|&r| r.into()).collect()),
        )
        .field(
            "violations",
            Json::Arr(o.violations.iter().map(|v| v.as_str().into()).collect()),
        )
}

fn number(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::F64(v)) => Ok(*v),
        Some(Json::U64(v)) => Ok(*v as f64),
        other => Err(format!("{key}: expected a number, got {other:?}")),
    }
}

fn numbers(j: &Json, key: &str) -> Result<Vec<f64>, String> {
    match j.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|x| match x {
                Json::F64(v) => Ok(*v),
                Json::U64(v) => Ok(*v as f64),
                other => Err(format!("{key}: {other:?} is not a number")),
            })
            .collect(),
        other => Err(format!("{key}: expected an array, got {other:?}")),
    }
}

fn integer(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(Json::U64(v)) => Ok(*v),
        other => Err(format!("{key}: expected an integer, got {other:?}")),
    }
}

fn outcome_from_json(j: &Json) -> Result<Outcome, String> {
    let violations = match j.get("violations") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!("violations: {other:?} is not a string")),
            })
            .collect::<Result<_, _>>()?,
        other => return Err(format!("violations: expected an array, got {other:?}")),
    };
    Ok(Outcome {
        setups: numbers(j, "setups")?,
        parts: numbers(j, "parts")?,
        events: integer(j, "events")?,
        served: integer(j, "served")?,
        fingerprint: pins::parse_hex(j.get("fingerprint"))?,
        rates: pins::parse_rates(j.get("rates"))?,
        violations,
    })
}

/// Peak resident set of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unreadable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// `--child`: one untraced pass, reported as one JSON line.
fn child(w: Workload, seed: u64) -> i32 {
    let pass = workloads::execute(w, seed, false, &mut Tracer::new());
    match peak_rss_mib() {
        Ok(rss) => {
            println!(
                "{}",
                outcome_json(&pass.outcome)
                    .field("peak_rss_mib", rss)
                    .render()
            );
            0
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            1
        }
    }
}

/// Runs one repeat in a fresh child process and waits for it.
fn spawn_repeat(w: Workload, seed: u64) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let t0 = Instant::now();
    let out = Command::new(exe)
        .args(["--child", w.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start child: {e}", w.name()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{}: child failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed nothing", w.name()))?;
    let j = Json::parse(line).map_err(|e| format!("{}: child output: {e}", w.name()))?;
    Ok(Repeat {
        wall_s,
        peak_rss_mib: number(&j, "peak_rss_mib")?,
        outcome: outcome_from_json(&j)?,
    })
}

/// The per-workload checks every repeat passes through: a clean audit,
/// the same simulated output as the workload's first repeat, and the pin
/// when the seed is the pinned one.
struct Checker {
    w: Workload,
    pin: Option<Pin>,
    reference: Option<Outcome>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(w: Workload, seed: u64, pins: &Pins) -> Self {
        Self {
            w,
            pin: (seed == PIN_SEED).then(|| pins.get(w).cloned()).flatten(),
            reference: None,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, r: Result<Repeat, String>) -> Option<Repeat> {
        self.attempted += 1;
        let rep = match r {
            Ok(rep) => rep,
            Err(e) => {
                self.failures.push(e);
                return None;
            }
        };
        let problems = self.problems(&rep.outcome);
        if problems.is_empty() {
            Some(rep)
        } else {
            self.failures
                .push(format!("{}: {}", self.w.name(), problems.join("; ")));
            None
        }
    }

    /// What is wrong with `o`, if anything; the first outcome seen
    /// becomes the replay reference.
    fn problems(&mut self, o: &Outcome) -> Vec<String> {
        let mut v: Vec<String> = o.violations.iter().map(|x| format!("audit: {x}")).collect();
        if let Some(pin) = &self.pin {
            v.extend(pin.misses(o).into_iter().map(|m| format!("pin: {m}")));
        }
        match &self.reference {
            None => self.reference = Some(o.clone()),
            Some(r) if !pins::same_replay(r, o) => {
                v.push("replay differs from the first repeat".into())
            }
            Some(_) => {}
        }
        v
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Prints a `--workload` run's result line and returns the exit code.
fn single_result(c: &Checker, metrics: Json, have_metrics: bool) -> i32 {
    for f in &c.failures {
        eprintln!("simbench: FAIL {f}");
    }
    let correct = c.failures.is_empty() && have_metrics;
    println!(
        "{}",
        Json::obj()
            .field("correct", correct)
            .field("attempted", c.attempted.max(1))
            .field("failed", c.failed())
            .field("metrics", metrics)
            .render()
    );
    i32::from(!correct)
}

fn metric_value(value: f64, unit: &str) -> Json {
    Json::obj().field("value", value).field("unit", unit)
}

/// `--workload W --trace 0`: repeats in fresh processes for about
/// `seconds`; reports the end-to-end metrics of their fastest parts.
fn single_timed(w: Workload, seed: u64, seconds: f64) -> i32 {
    let mut checker = Checker::new(w, seed, &Pins::committed());
    let mut reps = Vec::new();
    let t0 = Instant::now();
    loop {
        if let Some(rep) = checker.check(spawn_repeat(w, seed)) {
            println!(
                "{} seed {seed} repeat {}: wall {:.3}s setup {:.4}s run {:.3}s",
                w.name(),
                checker.attempted,
                rep.wall_s,
                rep.metric("setup_s"),
                rep.outcome.run_s()
            );
            reps.push(rep);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_repeat = elapsed / checker.attempted as f64;
        if checker.attempted as usize >= MIN_REPEATS && elapsed + per_repeat > seconds {
            break;
        }
    }
    let mut metrics = Json::obj();
    let estimate = Estimate::of(&reps);
    match &estimate {
        Ok(e) => {
            for m in &catalog::END_TO_END {
                metrics = metrics.field(m.name, metric_value(e.metric(m.name), m.unit));
            }
        }
        Err(err) => checker.failures.push(format!("{}: {err}", w.name())),
    }
    single_result(&checker, metrics, estimate.is_ok())
}

/// The traced pass of `w` against the untraced `reference`, whose run
/// took `untraced_run_s`: records a failure when the traced run does not
/// reproduce it.
fn traced_checked(
    w: Workload,
    seed: u64,
    reference: &Outcome,
    untraced_run_s: f64,
    checker: &mut Checker,
    t: &mut Tracer,
) -> layers::Traced {
    let traced = layers::traced_pass(w, seed, untraced_run_s, t);
    checker.attempted += 1;
    if !pins::same_replay(reference, &traced.outcome) {
        checker.failures.push(format!(
            "{}: the traced run does not reproduce the untraced one",
            w.name()
        ));
    }
    traced
}

/// `--workload W --trace 1`: one untraced repeat as the reference, then
/// the traced pass; reports every per-layer metric.
fn single_traced(w: Workload, seed: u64) -> i32 {
    let mut checker = Checker::new(w, seed, &Pins::committed());
    let mut t = Tracer::new();
    let pass = t.begin(format!("simbench {} seed {seed}", w.name()), "pass");
    let Some(rep) = checker.check(spawn_repeat(w, seed)) else {
        return single_result(&checker, Json::obj(), false);
    };
    let run_s = rep.outcome.run_s();
    let traced = traced_checked(w, seed, &rep.outcome, run_s, &mut checker, &mut t);
    t.end(pass);
    if let Err(e) = write(TRACE, &t.to_json()) {
        checker.failures.push(e);
    }
    let mut metrics = Json::obj();
    let mut complete = true;
    for ((name, value), (_, unit, _)) in traced.metrics.iter().zip(catalog::per_layer()) {
        match value {
            Some(v) => metrics = metrics.field(name, metric_value(*v, unit)),
            None => complete = false,
        }
    }
    single_result(&checker, metrics, complete)
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))
}

// ---------------------------------------------------------- full run

/// The default command: every workload, `repeats` fresh-process repeats
/// round-robin, then (unless `smoke`) the traced pass of each.
fn full(seed: u64, repeats: usize, smoke: bool) -> i32 {
    let pins = Pins::committed();
    println!(
        "simbench: seed {seed}, {repeats} repeat(s) per workload, instrumentation {}",
        instrumentation()
    );
    let mut checkers: Vec<Checker> = Workload::ALL
        .iter()
        .map(|&w| Checker::new(w, seed, &pins))
        .collect();
    let mut reps: Vec<Vec<Repeat>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..repeats {
        for (i, &w) in Workload::ALL.iter().enumerate() {
            if let Some(rep) = checkers[i].check(spawn_repeat(w, seed)) {
                println!(
                    "  round {} {:<14} wall {:7.3}s  setup {:.4}s  {:>9.0} events/s  {:6.1} MiB",
                    round + 1,
                    w.name(),
                    rep.wall_s,
                    rep.metric("setup_s"),
                    rep.metric("events_per_s"),
                    rep.peak_rss_mib
                );
                reps[i].push(rep);
            }
        }
    }

    let mut t = Tracer::new();
    let pass = t.begin(format!("simbench seed {seed}"), "pass");
    let mut rows = Vec::new();
    println!(
        "\n{:<14} {:<13} {:<9} {:>14} {:>16} {:>8} {:>3}",
        "workload", "metric", "unit", "value", "repeat median", "spread", "n"
    );
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let mut row = Json::obj().field("name", w.name());
        let estimate = match Estimate::of(&reps[i]) {
            Ok(e) => e,
            Err(err) => {
                checkers[i].failures.push(format!("{}: {err}", w.name()));
                rows.push(failure_fields(row, &checkers[i]));
                continue;
            }
        };
        let mut e2e = Json::obj();
        for m in &catalog::END_TO_END {
            let values: Vec<f64> = reps[i].iter().map(|r| r.metric(m.name)).collect();
            let s = Summary::of(&values);
            let value = estimate.metric(m.name);
            println!(
                "{:<14} {:<13} {:<9} {:>14.6} {:>16.6} {:>7.1}% {:>3}",
                w.name(),
                m.name,
                m.unit,
                value,
                s.median,
                100.0 * s.spread(),
                s.n
            );
            e2e = e2e.field(
                m.name,
                metric_value(value, m.unit).field("repeats", summary_json(&s)),
            );
        }
        let first = &reps[i][0].outcome;
        row = row
            .field("end_to_end", e2e)
            .field("outcome", outcome_json(first));
        if !smoke {
            let traced = traced_checked(w, seed, first, estimate.run_s, &mut checkers[i], &mut t);
            let layer = traced.metrics.iter().zip(catalog::per_layer()).fold(
                Json::obj(),
                |j, ((name, value), (_, unit, _))| {
                    j.field(name, value.map_or(Json::Null, |v| metric_value(v, unit)))
                },
            );
            row = row.field("per_layer", layer);
        }
        let c = &checkers[i];
        println!(
            "{:<14} {:<13} {:<9} {:>14.6} ({} of {} checked passes failed)",
            w.name(),
            "fail_frac",
            "ratio",
            c.failed() as f64 / c.attempted as f64,
            c.failed(),
            c.attempted
        );
        rows.push(failure_fields(row, c));
    }
    t.end(pass);

    let report = Json::obj()
        .field("schema", "simbench/v1")
        .field("instrumentation", instrumentation())
        .field("seed", seed)
        .field("repeats", repeats)
        .field("smoke", smoke)
        .field("workloads", Json::Arr(rows));
    let mut failures: Vec<String> = checkers.iter().flat_map(|c| c.failures.clone()).collect();
    for (path, doc) in [(REPORT, &report), (TRACE, &t.to_json())] {
        match write(path, doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => failures.push(e),
        }
    }
    for f in &failures {
        eprintln!("simbench: FAIL {f}");
    }
    if failures.is_empty() {
        println!("simbench: OK");
        0
    } else {
        println!("simbench: {} check(s) failed", failures.len());
        1
    }
}

/// Adds a workload's attempt and failure counts to its report row.
fn failure_fields(row: Json, c: &Checker) -> Json {
    row.field("attempted", c.attempted)
        .field("failed", c.failed())
        .field("fail_frac", c.failed() as f64 / c.attempted.max(1) as f64)
        .field(
            "failures",
            Json::Arr(c.failures.iter().map(|f| f.as_str().into()).collect()),
        )
}

/// The spread of one metric over single repeats, each taken whole.
fn summary_json(s: &Summary) -> Json {
    Json::obj()
        .field("median", s.median)
        .field("min", s.min)
        .field("q1", s.q1)
        .field("q3", s.q3)
        .field("max", s.max)
        .field("n", s.n)
        .field("spread", s.spread())
}

/// `--repin`: records seed 1's simulated outputs into `pins.json`.
fn repin() -> i32 {
    if cfg!(feature = "fast") {
        eprintln!(
            "simbench: --repin needs the instrumented build (fingerprints read 0 under fast)"
        );
        return 1;
    }
    let mut pins = Vec::new();
    for w in Workload::ALL {
        let o = workloads::execute(w, PIN_SEED, false, &mut Tracer::new()).outcome;
        if !o.violations.is_empty() {
            eprintln!(
                "simbench: {} audit fails, not pinning: {:?}",
                w.name(),
                o.violations
            );
            return 1;
        }
        println!(
            "{:<14} fingerprint {:#018x} served {} events {} rates {:?}",
            w.name(),
            o.fingerprint,
            o.served,
            o.events,
            o.rates
        );
        pins.push((w, Pin::of(&o)));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");
    match std::fs::write(path, Pins(pins).to_json().render_pretty()) {
        Ok(()) => {
            println!("wrote {path}; rebuild to compile the new pins in");
            0
        }
        Err(e) => {
            eprintln!("simbench: write {path}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            setups: vec![0.004_25, 0.003_5],
            parts: vec![0.5, 0.625, 0.001],
            events: 1_023_895,
            served: 46_594,
            fingerprint: 0xEC60_062E_6FA5_1009,
            rates: vec![26_667.0, 21_333.6],
            violations: vec!["client: \"started\" != finished".into()],
        }
    }

    #[test]
    fn report_renders_to_a_fixpoint() {
        let row = Json::obj()
            .field("name", "fig6_fine")
            .field(
                "end_to_end",
                Json::obj().field(
                    "wall_s",
                    metric_value(0.75, "s").field(
                        "repeats",
                        summary_json(&Summary::of(&[1.25, 1.0, 1.5, 0.75])),
                    ),
                ),
            )
            .field(
                "per_layer",
                Json::obj().field("sim.events.pop_ns", Json::Null),
            )
            .field("outcome", outcome_json(&outcome()));
        let report = Json::obj()
            .field("schema", "simbench/v1")
            .field("workloads", Json::Arr(vec![row]));
        let text = report.render();
        let parsed = Json::parse(&text).expect("the report parses");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn estimate_takes_every_part_at_its_fastest() {
        let repeat = |wall_s, setups: [f64; 2], parts: [f64; 3], rss| Repeat {
            wall_s,
            peak_rss_mib: rss,
            outcome: Outcome {
                setups: setups.to_vec(),
                parts: parts.to_vec(),
                ..outcome()
            },
        };
        // Overheads: 0.25 and 0.125 s.
        let reps = [
            repeat(1.5, [0.125, 0.0625], [0.25, 0.5, 0.3125], 70.0),
            repeat(1.25, [0.25, 0.03125], [0.5, 0.25, 0.09375], 72.0),
        ];
        let e = Estimate::of(&reps).unwrap();
        assert_eq!(e.run_s, 0.25 + 0.25 + 0.09375);
        assert_eq!(e.wall_s, 0.125 + (0.125 + 0.03125) + e.run_s);
        assert_eq!(e.events_per_s, 1_023_895.0 / e.run_s);
        assert_eq!(e.setup_s, 0.03125);
        assert_eq!(e.peak_rss_mib, 71.0);
        assert!(Estimate::of(&[]).is_err());
    }

    #[test]
    fn child_outcomes_round_trip() {
        let o = outcome();
        let back = outcome_from_json(&Json::parse(&outcome_json(&o).render()).unwrap()).unwrap();
        assert!(pins::same_replay(&o, &back));
        assert_eq!((&back.setups, &back.parts), (&o.setups, &o.parts));
        assert_eq!(back.violations, o.violations);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let args: Vec<String> = s.split_whitespace().map(String::from).collect();
            Cli::parse(&args)
        };
        assert!(matches!(
            parse("--workload search_16c --seed 7 --seconds 20 --trace 1"),
            Ok(Cli::Single {
                workload: Workload::Search16c,
                seed: 7,
                trace: true,
                ..
            })
        ));
        assert!(matches!(
            parse("--smoke"),
            Ok(Cli::Full {
                repeats: 1,
                smoke: true,
                ..
            })
        ));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--repeats 0",
            "--seconds -1",
            "--seed",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }
}
