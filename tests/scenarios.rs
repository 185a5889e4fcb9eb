//! End-to-end coverage of the committed scenario catalog: every
//! `scenarios/*.json` file loads, runs, and passes its gates and golden
//! fingerprints; the fig6 scenario derives bit-identical configs to the
//! hand-built Intel core sweep's; and the fuzzer's first cases pass
//! while its shrinker reduces a failing document to the knobs that fail.
//!
//! The catalog is the only home of the ordering gate above Stock's knee
//! (`overload_ordering`) and of the cache-line waste scenario; both run
//! here.

// Golden fingerprints only exist in instrumented builds; the `fast`
// feature compiles the fingerprint plane to zero.
#![cfg(not(feature = "fast"))]

mod common;

use app::{ListenKind, ServerKind};
use bench::scenario::{catalog_path, load_dir, load_file, Scenario, Search};
use metrics::json::Json;
use sim::topology::Machine;

fn corpus() -> Vec<(std::path::PathBuf, Scenario)> {
    load_dir(&catalog_path("scenarios")).expect("scenarios/ loads cleanly")
}

/// Structural requirements on the committed corpus: breadth across
/// listen kinds, goldens on every fixed-rate entry, and a non-empty smoke
/// subset for CI's push job.
#[test]
fn corpus_is_broad_and_fully_pinned() {
    let corpus = corpus();
    assert!(corpus.len() >= 9, "corpus shrank to {}", corpus.len());

    let mut kinds_covered = Vec::new();
    let mut smoke = 0;
    for (path, s) in &corpus {
        for k in &s.kinds {
            if !kinds_covered.contains(k) {
                kinds_covered.push(*k);
            }
        }
        smoke += usize::from(s.smoke);
        if s.search == Search::Fixed {
            assert!(
                !s.golden.is_empty(),
                "{}: fixed-rate scenarios must carry goldens (run `scenario --record`)",
                path.display()
            );
        }
    }
    assert_eq!(
        kinds_covered.len(),
        ListenKind::ALL.len(),
        "corpus must exercise all five listen kinds, got {kinds_covered:?}"
    );
    assert!(smoke >= 3, "smoke subset shrank to {smoke}");
    for name in ["rpc_short", "keepalive_sessions", "diurnal"] {
        assert!(
            corpus.iter().any(|(_, s)| s.name == name),
            "beyond-paper scenario {name} missing from corpus"
        );
    }
    // The cache-line experiment, gated on every push.
    let Some((path, s)) = corpus.iter().find(|(_, s)| s.name == "cacheline_waste") else {
        panic!("ported scenario cacheline_waste missing from corpus");
    };
    assert!(s.smoke, "{}: must be in the smoke subset", path.display());
    // The paper's ranking above Stock's saturation knee.
    let Some((path, s)) = corpus.iter().find(|(_, s)| s.name == "overload_ordering") else {
        panic!("overload_ordering missing from corpus");
    };
    assert_eq!(
        s.gates.ordering,
        [ListenKind::Affinity, ListenKind::Fine, ListenKind::Stock],
        "{}: must gate the paper's ranking",
        path.display()
    );
}

/// Runs every selected scenario, spreading them over the host's CPUs
/// (one sweep worker each), and fails with every scenario's problems.
fn run_all(select: impl Fn(&Scenario) -> bool) {
    let chosen: Vec<_> = corpus().into_iter().filter(|(_, s)| select(s)).collect();
    assert!(!chosen.is_empty(), "selection is empty");
    let failures: Vec<String> = bench::par_map(chosen, bench::default_workers(), |(path, s)| {
        let report = s.run(1);
        (!report.ok()).then(|| format!("{}: {:#?}", path.display(), report.problems))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `paper`'s fig6 output reads its points from `scenarios/fig6.json`:
/// every config the scenario derives must equal the `bench::base_config`
/// one of the Intel core sweep (Figure 5's, on lighttpd). With
/// determinism pinned by the golden tests, equal configs mean
/// bit-identical figure output.
#[test]
fn fig6_scenario_equals_the_hand_built_figure_configs() {
    let sc = load_file(&catalog_path("scenarios/fig6.json")).expect("fig6 loads");
    assert_eq!(sc.kinds, bench::IMPLS.to_vec());
    assert_eq!(sc.search, Search::Saturation);
    let points = sc.points().expect("fig6 sweep points validate");
    let cores: Vec<usize> = points.iter().map(|p| p.cores).collect();
    assert_eq!(cores, bench::paper::INTEL_CORES);
    for &kind in &sc.kinds {
        for p in &points {
            let want =
                bench::base_config(Machine::intel80(), p.cores, kind, ServerKind::lighttpd());
            assert_eq!(p.config(kind), want, "fig6 {kind:?} at {} cores", p.cores);
        }
    }
}

/// The first cases `scenario --fuzz` runs pass at 1 and 2 workers: no
/// panic, clean audits, and equal outcomes on both sides.
#[test]
fn first_fuzz_cases_pass_at_one_and_two_workers() {
    let cases: Vec<Scenario> = (0..4).map(bench::fuzz::case).collect();
    let problems = bench::fuzz::check(&cases, 2);
    for (case, p) in cases.iter().zip(&problems) {
        assert!(p.is_empty(), "{}: {p:#?}", case.name);
    }
}

/// The shrinker on its own, with a synthetic failure and no simulator:
/// a document that sets nearly every key, and "fails" iff it runs
/// lock_stat and sweeps a key, shrinks to exactly those two knobs, plus
/// the `name` and `seed` it never edits.
#[test]
fn shrinker_keeps_only_the_failing_knobs() {
    let sink = r#"{
      "name": "sink", "description": "every knob set", "machine": "intel80", "cores": 64,
      "kinds": ["affinity", "twenty"], "server": "lighttpd", "rate_per_core": 1234.5,
      "rate_mult": 0.75, "warmup_ms": 120, "measure_ms": 250, "seed": 42,
      "tracked_files": 300, "steal": false, "migrate": false, "lockstat": true, "hog_ms": 40,
      "workload": {"batches": [2, 4], "think_ms": 50, "file_scale": 2.5, "timeout_ms": 4000},
      "dprof_v2": true,
      "sweep": {"key": "cores", "values": [16, 80]},
      "gates": {"ordering": ["affinity", "twenty"], "ordering_slack": 0.95,
                "bounds": {"served": {"min": 1000}, "completed_frac": {"min": 0.9}}},
      "golden": {"affinity": {"fingerprint": "0x0123456789abcdef", "served": 7266}},
      "smoke": true
    }"#;
    let mut calls = 0;
    let shrunk = bench::fuzz::shrink(Json::parse(sink).expect("sink parses"), |s| {
        calls += 1;
        s.lockstat && s.sweep.is_some()
    });
    assert_eq!(
        shrunk.render(),
        r#"{"name":"sink","seed":42,"lockstat":true,"sweep":{"key":"cores","values":[1]}}"#
    );
    assert!(calls <= 100, "{calls} predicate calls");
}

/// The smoke subset — what CI runs on every push — passes every gate
/// and golden.
#[test]
fn smoke_scenarios_pass_gates_and_goldens() {
    run_all(|s| s.smoke && s.search != Search::Saturation);
}

/// The rest of the fixed-rate corpus (nightly's territory) passes every
/// gate and golden too. Saturation sweeps (fig6) are exercised by the
/// nightly binary run, not here — a full 80-core saturation search has
/// no place in the tier-1 budget.
#[test]
fn full_corpus_passes_gates_and_goldens() {
    run_all(|s| !s.smoke && s.search != Search::Saturation);
}

/// paper_base is the determinism suite's quick configuration; its
/// recorded goldens must equal `common::GOLDEN` (same machine, cores,
/// rate, windows, seed). If a simulation change moves one table, it must
/// move both.
#[test]
fn paper_base_goldens_equal_the_determinism_table() {
    let s = load_file(&catalog_path("scenarios/paper_base.json")).expect("paper_base loads");
    for pin in common::GOLDEN {
        let kind = pin.kind;
        let entry = s
            .golden
            .iter()
            .find(|g| g.kind == kind)
            .unwrap_or_else(|| panic!("paper_base missing golden for {kind:?}"));
        assert_eq!(
            (entry.fingerprint, entry.served),
            (pin.fingerprint, pin.served),
            "{kind:?}: paper_base golden diverged from the determinism table"
        );
    }
}
