//! Schema round-trip tests for the JSON artifact the `scenario` binary
//! writes.
//!
//! CI uploads its `results/scenarios*.json` and `results/fuzz.json`
//! (schema `scenarios-v1`); downstream tooling reads them by field name.
//! These tests run each writer in its cheapest mode, re-read the artifact
//! through `Json::parse`, and pin the fields that must not be renamed
//! silently. A writer-side rename now fails here instead of producing a
//! nightly artifact nobody can read.

use metrics::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn run_binary(exe: &str, args: &[&str], out: &PathBuf) -> Json {
    let status = Command::new(exe)
        .args(args)
        .arg("--out")
        .arg(out)
        .status()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(status.success(), "{exe} exited with {status}");
    let text = std::fs::read_to_string(out).expect("artifact written");
    let doc = Json::parse(&text).expect("artifact is valid JSON");
    // The writers must emit exactly what our renderer produces, so the
    // textual fixpoint holds on real artifacts, not just synthetic docs.
    assert_eq!(doc.render(), text.trim_end(), "render fixpoint for {exe}");
    doc
}

fn obj<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?} in {}", doc.render()))
}

fn arr<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match obj(doc, key) {
        Json::Arr(items) => items,
        other => panic!("field {key:?} is not an array: {}", other.render()),
    }
}

fn assert_u64(doc: &Json, key: &str) {
    assert!(
        matches!(obj(doc, key), Json::U64(_)),
        "field {key:?} is not a u64"
    );
}

fn assert_num(doc: &Json, key: &str) {
    assert!(
        matches!(obj(doc, key), Json::U64(_) | Json::I64(_) | Json::F64(_)),
        "field {key:?} is not numeric"
    );
}

fn assert_bool(doc: &Json, key: &str) {
    assert!(
        matches!(obj(doc, key), Json::Bool(_)),
        "field {key:?} is not a bool"
    );
}

/// The build that wrote the artifact: a `fast` one checks no golden and
/// must say so.
fn assert_instrumentation(doc: &Json) {
    let expect = if cfg!(feature = "fast") {
        "fast"
    } else {
        "instrumented"
    };
    assert!(
        matches!(obj(doc, "instrumentation"), Json::Str(s) if s == expect),
        "instrumentation is not {expect:?}: {}",
        doc.render()
    );
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bench-json-schemas");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn fuzz_artifact_schema_round_trips() {
    let out = tmp("fuzz.json");
    let doc = run_binary(env!("CARGO_BIN_EXE_scenario"), &["--fuzz", "2"], &out);
    assert!(matches!(obj(&doc, "schema"), Json::Str(s) if s == "scenarios-v1"));
    assert_instrumentation(&doc);
    assert_bool(&doc, "ok");
    assert!(arr(&doc, "scenarios").is_empty());
    let fuzz = obj(&doc, "fuzz");
    assert_u64(fuzz, "cases");
    let workers = arr(fuzz, "workers");
    assert!(workers.len() == 2 && workers.iter().all(|w| matches!(w, Json::U64(_))));
    // The first cases pass; a failure would carry its case name, its
    // problems and its repro path.
    assert!(arr(fuzz, "failures").is_empty(), "{}", doc.render());
}

#[test]
fn scenario_artifact_schema_round_trips() {
    let out = tmp("scenarios.json");
    // A single-point scenario, a sweep, and one that records the dprof-v2
    // ledger.
    let doc = run_binary(
        env!("CARGO_BIN_EXE_scenario"),
        &[
            "--file",
            "scenarios/paper_base.json",
            "--file",
            "scenarios/diurnal.json",
            "--file",
            "scenarios/cacheline_waste.json",
        ],
        &out,
    );
    assert!(matches!(obj(&doc, "schema"), Json::Str(_)));
    assert_instrumentation(&doc);
    assert_bool(&doc, "smoke");
    assert_bool(&doc, "ok");
    let scenarios = arr(&doc, "scenarios");
    assert_eq!(scenarios.len(), 3, "each --file produces one report");
    for (i, report) in scenarios.iter().enumerate() {
        assert!(matches!(obj(report, "scenario"), Json::Str(_)));
        assert_bool(report, "ok");
        assert!(matches!(obj(report, "problems"), Json::Arr(_)));
        let kinds = arr(report, "kinds");
        assert!(!kinds.is_empty(), "scenario reports at least one kind");
        for row in kinds {
            assert!(matches!(obj(row, "kind"), Json::Str(_)));
            assert_u64(row, "served");
            assert_u64(row, "completed");
            assert_u64(row, "timeouts");
            assert!(matches!(obj(row, "fingerprint"), Json::Str(_)));
            // Every `gates.bounds` metric has a column.
            assert_num(row, "completed_frac");
            for key in [
                "stranded",
                "recovered",
                "evictions",
                "worst_eviction_delay_ms",
                "restarts",
                "drains_done",
                "drains_forced",
                "crashes",
            ] {
                assert!(row.get(key).is_none(), "removed column {key:?} is back");
            }
            // The dprof-v2 waste column: zero unless the scenario runs the
            // ledger and the `fast` feature does not compile it out.
            assert_num(row, "wasted_bytes_per_request");
            let wasted = !matches!(obj(row, "wasted_bytes_per_request"), Json::U64(0));
            assert_eq!(wasted, i == 2 && !cfg!(feature = "fast"), "{i}");
            assert!(matches!(obj(row, "audit_violations"), Json::Arr(_)));
            let runs = arr(row, "runs");
            assert!(!runs.is_empty(), "kind reports at least one run");
            for run in runs {
                // The sweep value of the run's point; null without a sweep.
                if i == 1 {
                    assert_num(run, "swept");
                } else {
                    assert!(matches!(obj(run, "swept"), Json::Null), "swept not null");
                }
                assert_u64(run, "cores");
                assert_num(run, "rate");
                assert_u64(run, "served");
                assert_u64(run, "completed");
                assert_u64(run, "timeouts");
                assert_num(run, "rps_per_core");
                assert!(matches!(obj(run, "fingerprint"), Json::Str(_)));
                assert_u64(run, "events");
            }
        }
    }
}
