//! `scenario` — runs the declarative scenario catalog, or fuzzes it.
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
//! `--fuzz N` runs fuzz cases `fuzz-0` .. `fuzz-<N-1>` instead (see
//! [`bench::fuzz`]), each at 1 worker and at `max(2, --workers)`. Each
//! failing case is printed and written as `fuzz/<case>.json` next to the
//! artifact, a scenario file `--file` runs again; the first one is
//! shrunk first. The artifact's `fuzz` block lists the failures. Exits 1
//! on any failure.
//!
//! Usage: `scenario [--file F]... [--dir D] [--smoke] [--record]
//! [--fuzz N] [--workers N] [--out PATH]`

use bench::scenario::{
    catalog_path, load_dir, load_file, record_golden, Scenario, ScenarioReport, GOLDENS_UNCHECKED,
    INSTRUMENTATION,
};
use metrics::json::Json;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

const USAGE: &str = "scenario [--file F]... [--dir D] [--smoke] [--record] [--fuzz N] \
                     [--workers N] [--out PATH]";

fn main() {
    let mut args = bench::Args::parse(USAGE);
    let files = args.values("--file");
    let dir = args.value("--dir");
    let smoke = args.flag("--smoke");
    let record = args.flag("--record");
    let fuzz = args.parsed::<u64>("--fuzz");
    let workers = args
        .parsed::<NonZeroUsize>("--workers")
        .map_or_else(bench::default_workers, NonZeroUsize::get);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "results/scenarios.json".to_string());
    if fuzz.is_some() && (!files.is_empty() || dir.is_some() || smoke || record) {
        args.fail("--fuzz cannot be combined with --file, --dir, --smoke or --record".to_string());
    }
    args.done();

    print!(
        "{}",
        bench::header("scenario", "declarative scenario catalog")
    );
    let fast = cfg!(feature = "fast");
    if fast {
        println!("{GOLDENS_UNCHECKED}: the fast feature compiles fingerprints to zero");
    }

    if let Some(n) = fuzz {
        run_fuzz(n, workers.max(2), &out);
        return;
    }

    let catalog = load_catalog(&files, dir.as_deref(), smoke);
    println!(
        "scenarios: {}   workers: {}   smoke: {}",
        catalog.len(),
        workers,
        if smoke { "on" } else { "off" }
    );

    if record {
        if fast {
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
        let unchecked = if fast && !s.golden.is_empty() {
            format!("   {GOLDENS_UNCHECKED}")
        } else {
            String::new()
        };
        println!(
            "{:<28} {:>4}   kinds={} served={} [{:.1}s]{unchecked}",
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
        .field("instrumentation", INSTRUMENTATION)
        .field("smoke", smoke)
        .field("ok", all_ok)
        .field(
            "scenarios",
            Json::Arr(reports.iter().map(ScenarioReport::to_json).collect()),
        );
    bench::write_artifact(&out, &artifact).unwrap_or_else(|e| fail(&e));

    let unchecked = if fast {
        format!("; {GOLDENS_UNCHECKED}")
    } else {
        String::new()
    };
    if all_ok {
        println!("scenario: OK ({} scenarios{unchecked})", reports.len());
    } else {
        let failed = reports.iter().filter(|r| !r.ok()).count();
        println!(
            "scenario: FAILED ({failed} of {} scenarios{unchecked})",
            reports.len()
        );
        std::process::exit(1);
    }
}

fn fail(e: &str) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

/// Runs fuzz cases `0..n` at 1 and `workers` workers, writes each
/// failure's repro, and writes the artifact.
fn run_fuzz(n: u64, workers: usize, out: &str) {
    println!("fuzz cases: {n}   workers: 1 and {workers}");
    let t0 = std::time::Instant::now();
    let cases: Vec<Scenario> = (0..n).map(bench::fuzz::case).collect();
    let problems = bench::fuzz::check(&cases, workers);
    let repro_dir = Path::new(out)
        .parent()
        .unwrap_or_else(|| Path::new(""))
        .join("fuzz");
    let mut failures = Vec::new();
    for (case, problems) in cases.iter().zip(problems) {
        if problems.is_empty() {
            continue;
        }
        println!("FAIL {}", case.name);
        for p in &problems {
            println!("  problem: {p}");
        }
        // A shrink reruns the case dozens of times, so only the first
        // failure is shrunk; the rest keep their case as drawn (a change
        // that breaks many cases tends to break them all the same way).
        let doc = if failures.is_empty() {
            bench::fuzz::shrink(case.to_json(), |s| {
                !bench::fuzz::check(std::slice::from_ref(s), workers)[0].is_empty()
            })
        } else {
            case.to_json()
        };
        let path = repro_dir.join(format!("{}.json", case.name));
        let text = doc.render_pretty();
        println!("  repro, {}:\n{text}", path.display());
        bench::write_file(&path, &text).unwrap_or_else(|e| fail(&e));
        failures.push(
            Json::obj()
                .field("case", case.name.as_str())
                .field("problems", problems)
                .field("repro", path.display().to_string()),
        );
    }
    let failed = failures.len();
    let ok = failed == 0;
    let artifact = Json::obj()
        .field("schema", "scenarios-v1")
        .field("instrumentation", INSTRUMENTATION)
        .field("smoke", false)
        .field("ok", ok)
        .field("scenarios", Json::Arr(Vec::new()))
        .field(
            "fuzz",
            Json::obj()
                .field("cases", n)
                .field("workers", vec![1, workers])
                .field("failures", failures),
        );
    bench::write_artifact(out, &artifact).unwrap_or_else(|e| fail(&e));
    println!(
        "scenario: fuzz {} ({} of {n} cases failed) [{:.1}s]",
        if ok { "OK" } else { "FAILED" },
        failed,
        t0.elapsed().as_secs_f64()
    );
    if !ok {
        std::process::exit(1);
    }
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
