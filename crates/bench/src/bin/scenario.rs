//! `scenario` — runs the declarative scenario catalog.
//!
//! Loads scenario files (one `--file` each, or every `*.json` under
//! `--dir`, default `scenarios/`), runs each one, evaluates its gates and
//! golden fingerprints, and writes the schema-pinned
//! `results/scenarios.json` artifact. Exits nonzero if any scenario
//! fails.
//!
//! `--smoke` restricts the catalog to the quick subset CI runs on every
//! push; the full corpus runs nightly. `--record` re-runs each
//! fixed-rate scenario and rewrites its `golden` block in place from the
//! measured fingerprints — the explicit, reviewable step after an
//! intentional simulation change.
//!
//! Usage: `scenario [--file F]... [--dir D] [--smoke] [--record]
//! [--workers N] [--out PATH] [--check]`

use bench::scenario::{catalog_path, load_dir, load_file, record_golden, Scenario, ScenarioReport};
use metrics::json::Json;
use std::num::NonZeroUsize;
use std::path::PathBuf;

const USAGE: &str =
    "scenario [--file F]... [--dir D] [--smoke] [--record] [--workers N] [--out PATH] [--check]";

fn main() {
    let mut args = bench::Args::parse(USAGE);
    let files = args.values("--file");
    let dir = args.value("--dir");
    let smoke = args.flag("--smoke");
    let record = args.flag("--record");
    let workers = args
        .parsed::<NonZeroUsize>("--workers")
        .map_or_else(bench::default_workers, NonZeroUsize::get);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "results/scenarios.json".to_string());
    args.done();

    bench::header("scenario", "declarative scenario catalog");

    let catalog = load_catalog(&files, dir.as_deref(), smoke);
    println!(
        "scenarios: {}   workers: {}   smoke: {}",
        catalog.len(),
        workers,
        if smoke { "on" } else { "off" }
    );

    if record {
        if cfg!(feature = "fast") {
            fail(
                "--record needs the instrumented build: the fast feature \
                 compiles fingerprints to zero",
            );
        }
        for (path, s) in &catalog {
            if !s.supports_golden() {
                println!(
                    "skip    {:<28} (saturation search cannot pin goldens)",
                    s.name
                );
                continue;
            }
            // Strip the stale goldens so only real gate failures surface.
            let mut bare = s.clone();
            bare.golden.clear();
            let report = bare.run(workers);
            for p in &report.problems {
                println!("  problem: {p}");
            }
            record_golden(path, &report).unwrap_or_else(|e| fail(&e));
            println!("recorded {:<28} -> {}", s.name, path.display());
        }
        return;
    }

    let mut reports: Vec<ScenarioReport> = Vec::new();
    for (_, s) in &catalog {
        let t0 = std::time::Instant::now();
        let r = s.run(workers);
        let served: u64 = r.kinds.iter().map(|k| k.served).sum();
        println!(
            "{:<28} {:>4}   kinds={} served={} [{:.1}s]",
            r.name,
            if r.ok() { "ok" } else { "FAIL" },
            r.kinds.len(),
            served,
            t0.elapsed().as_secs_f64()
        );
        for p in &r.problems {
            println!("  problem: {p}");
        }
        reports.push(r);
    }

    let all_ok = reports.iter().all(ScenarioReport::ok);
    let artifact = Json::obj()
        .field("schema", "scenarios-v1")
        .field("smoke", smoke)
        .field("ok", all_ok)
        .field(
            "scenarios",
            Json::Arr(reports.iter().map(ScenarioReport::to_json).collect()),
        );
    bench::write_artifact(&out, &artifact);

    if all_ok {
        println!("scenario: OK ({} scenarios)", reports.len());
    } else {
        let failed = reports.iter().filter(|r| !r.ok()).count();
        println!("scenario: FAILED ({failed} of {} scenarios)", reports.len());
        std::process::exit(1);
    }
}

fn fail(e: &str) -> ! {
    eprintln!("scenario: {e}");
    std::process::exit(2)
}

/// Loads the selected catalog: explicit `--file`s if any, else the
/// scenario directory; then applies the smoke filter.
fn load_catalog(files: &[String], dir: Option<&str>, smoke: bool) -> Vec<(PathBuf, Scenario)> {
    let mut catalog: Vec<(PathBuf, Scenario)> = Vec::new();
    if files.is_empty() {
        let d = catalog_path(dir.unwrap_or("scenarios"));
        catalog = load_dir(&d).unwrap_or_else(|e| fail(&e));
    } else {
        for f in files {
            let p = catalog_path(f);
            catalog.push((p.clone(), load_file(&p).unwrap_or_else(|e| fail(&e))));
        }
    }
    if smoke {
        catalog.retain(|(_, s)| s.smoke);
    }
    if catalog.is_empty() {
        fail("no scenarios selected");
    }
    catalog
}
