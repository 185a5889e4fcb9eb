//! The fuzzer behind `scenario --fuzz N`: its cases are [`Scenario`]
//! values, its shrinker edits a scenario's own JSON document, and its
//! repro is a scenario file.
//!
//! [`case`] draws case `i` from seed `i` alone. [`check`] runs every case
//! twice through [`crate::par_map`], once at 1 worker and once at N: a
//! case fails when a run panics, breaks a conservation audit, or differs
//! between the two sides. That one pair of executions covers replay
//! (same config, same fingerprint and counters) and sweep stability
//! (results independent of the worker count). [`shrink`] walks a failing
//! case's document down to a minimal one that still fails.

use crate::scenario::{MachineId, Scenario, ServerId};
use app::{ListenKind, RunAudit, RunConfig, Runner, Workload};
use metrics::json::Json;
use sim::rng::SimRng;
use sim::time::ms;

/// Fuzz case `i`, named `fuzz-<i>` and drawn from seed `i` alone, so
/// `--fuzz 2560` runs the cases of `--fuzz 80` as its prefix and a case's
/// name reproduces it. One fixed-rate run of one listen kind, with the
/// perturbing knobs (stealing and migration toggles, lock_stat, a batch
/// job) and the cache-line ledger drawn at random.
#[must_use]
pub fn case(i: u64) -> Scenario {
    let mut rng = SimRng::new(i);
    let mut s = Scenario::base(&format!("fuzz-{i}"));
    s.machine = if rng.chance(0.5) {
        MachineId::Amd48
    } else {
        MachineId::Intel80
    };
    s.kinds = vec![ListenKind::ALL[rng.index(ListenKind::ALL.len())]];
    s.server = if rng.chance(0.5) {
        ServerId::Apache
    } else {
        ServerId::Lighttpd
    };
    s.cores = [1, 2, 3, 4, 6, 8][rng.index(6)];
    // Per-core offered rates from idle to overload.
    s.rate_per_core =
        Some([200.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 12_000.0][rng.index(7)]);
    // Short windows and a small tracked-file set: cheap enough to fuzz by
    // the hundreds.
    s.warmup = ms(150);
    s.measure = ms(150);
    s.tracked_files = 200;
    s.seed = rng.next_u64();
    s.workload = match rng.below(3) {
        0 => Workload::base(),
        1 => Workload::with_requests_per_conn([1, 2, 6, 24][rng.index(4)]),
        _ => Workload::with_think(ms(rng.range(0, 120))),
    };
    s.steal = rng.chance(0.8);
    s.migrate = rng.chance(0.8);
    s.lockstat = rng.chance(0.15);
    if rng.chance(0.15) && s.cores >= 2 {
        s.hog = ms(rng.range(20, 150));
    }
    // The dprof-v2 ledger, so its audit laws get fuzzed too.
    s.dprof_v2 = rng.chance(0.3);
    s
}

/// Runs every fixed-rate run of every case twice through
/// [`crate::par_map`], once at 1 worker and once at `workers`, and
/// returns each case's problems (empty when the case passes). A run
/// fails when either side panics, its audit is violated, or the two
/// sides differ; each problem names the run and the first field that
/// differs.
#[must_use]
pub fn check(cases: &[Scenario], workers: usize) -> Vec<Vec<String>> {
    let mut problems = vec![Vec::new(); cases.len()];
    let mut runs: Vec<(usize, String, RunConfig)> = Vec::new();
    for (c, case) in cases.iter().enumerate() {
        match case.points() {
            Ok(points) => {
                for &kind in &case.kinds {
                    for (j, p) in points.iter().enumerate() {
                        runs.push((c, format!("{} run[{j}]", kind.label()), p.config(kind)));
                    }
                }
            }
            Err(e) => problems[c].push(e),
        }
    }
    let cfgs: Vec<RunConfig> = runs.iter().map(|(_, _, cfg)| cfg.clone()).collect();
    // The two passes share nothing, so they run side by side.
    let (serial, parallel) = std::thread::scope(|s| {
        let serial = s.spawn(|| crate::par_map(cfgs.clone(), 1, run_caught));
        let parallel = crate::par_map(cfgs.clone(), workers, run_caught);
        (serial.join().expect("runs catch their panics"), parallel)
    });
    for (((c, run, _), a), b) in runs.iter().zip(serial).zip(parallel) {
        problems[*c].extend(run_problems(run, a, b, workers));
    }
    problems
}

/// What the two sides of a run are compared on, kept instead of the
/// whole [`app::RunResult`] so a large batch stays small in memory.
struct Outcome {
    fingerprint: u64,
    counters: [(&'static str, u64); 6],
    audit: RunAudit,
}

/// Runs one config, catching a panic as its message.
fn run_caught(cfg: RunConfig) -> Result<Outcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let r = Runner::new(cfg).run();
        Outcome {
            fingerprint: r.fingerprint,
            counters: [
                ("served", r.served),
                ("drops_overflow", r.drops_overflow),
                ("drops_nic", r.drops_nic),
                ("timeouts", r.timeouts),
                ("migrations", r.migrations),
                ("conns_completed", r.conns_completed),
            ],
            audit: r.audit,
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// The problems of one run, given its outcome at 1 worker and at
/// `workers`.
fn run_problems(
    run: &str,
    serial: Result<Outcome, String>,
    parallel: Result<Outcome, String>,
    workers: usize,
) -> Vec<String> {
    let (a, b) = match (serial, parallel) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            return [(1, a.err()), (workers, b.err())]
                .into_iter()
                .filter_map(|(w, e)| e.map(|m| format!("{run}: panic at workers={w}: {m}")))
                .collect()
        }
    };
    let mut out: Vec<String> = a
        .audit
        .violations()
        .into_iter()
        .map(|v| format!("{run}: audit: {v}"))
        .collect();
    if let Some(why) = diverges(&a, &b) {
        out.push(format!("{run}: workers=1 vs workers={workers}: {why}"));
    }
    out
}

/// The first field on which two runs of one config differ.
fn diverges(a: &Outcome, b: &Outcome) -> Option<String> {
    if a.fingerprint != b.fingerprint {
        return Some(format!(
            "fingerprint {:#018x} != {:#018x}",
            a.fingerprint, b.fingerprint
        ));
    }
    if let Some(((name, x), (_, y))) = a.counters.iter().zip(&b.counters).find(|(x, y)| x != y) {
        return Some(format!("{name} {x} != {y}"));
    }
    (a.audit != b.audit).then(|| "audit counters differ".to_string())
}

/// Greedily shrinks a failing scenario document to a fixpoint. Each
/// candidate step removes an object key (it falls back to its default),
/// halves an integer, halves a float and rounds it down to two decimals,
/// or drops an array element; the top-level `name` and `seed` are left
/// alone. A candidate is kept when it parses, validates and still
/// `fails`. Every kept step makes the document strictly smaller, so the
/// walk terminates. A document that does not fail to begin with (a
/// failure that does not replay) comes back unchanged.
pub fn shrink(doc: Json, mut fails: impl FnMut(&Scenario) -> bool) -> Json {
    let Ok(mut cur) = Scenario::from_json(&doc) else {
        return doc;
    };
    if !fails(&cur) {
        return doc;
    }
    let mut doc = doc;
    // Resume each pass at the step that just succeeded: after a kept
    // step, the candidate at the same index edits the next site.
    let (mut i, mut progressed) = (0, false);
    loop {
        let Some(cand) = candidates(&doc, true).into_iter().nth(i) else {
            if !progressed {
                return doc;
            }
            (i, progressed) = (0, false);
            continue;
        };
        match Scenario::from_json(&cand) {
            // A step that leaves the scenario as it was (a key already at
            // its default) cannot change the outcome: keep it unrun.
            Ok(s) if s == cur || fails(&s) => {
                doc = cand;
                cur = s;
                progressed = true;
            }
            _ => i += 1,
        }
    }
}

/// Every one-step shrink of `v`, outermost edits first.
fn candidates(v: &Json, top: bool) -> Vec<Json> {
    let mut out = Vec::new();
    match v {
        Json::Obj(fields) => {
            for (j, (key, child)) in fields.iter().enumerate() {
                if top && (key == "name" || key == "seed") {
                    continue;
                }
                let mut without = fields.clone();
                without.remove(j);
                out.push(Json::Obj(without));
                for c in candidates(child, false) {
                    let mut edited = fields.clone();
                    edited[j].1 = c;
                    out.push(Json::Obj(edited));
                }
            }
        }
        Json::Arr(items) => {
            for (j, child) in items.iter().enumerate() {
                let mut without = items.clone();
                without.remove(j);
                out.push(Json::Arr(without));
                for c in candidates(child, false) {
                    let mut edited = items.clone();
                    edited[j] = c;
                    out.push(Json::Arr(edited));
                }
            }
        }
        Json::U64(n) if *n > 0 => out.push(Json::U64(n / 2)),
        Json::F64(f) if *f > 0.0 => out.push(Json::F64((f * 50.0).floor() / 100.0)),
        _ => {}
    }
    out
}
