//! Schema round-trip tests for the JSON artifacts the bench binaries write.
//!
//! Nightly CI uploads `results/chaos.json`, `results/recovery.json`, and
//! `results/BENCH_sim.json`; downstream tooling reads them by field name.
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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bench-json-schemas");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn chaos_artifact_schema_round_trips() {
    let out = tmp("chaos.json");
    let doc = run_binary(
        env!("CARGO_BIN_EXE_chaos"),
        &["--cases", "2", "--seed", "7"],
        &out,
    );
    assert_u64(&doc, "cases");
    assert_u64(&doc, "base_seed");
    assert_bool(&doc, "ok");
    let fuzz = obj(&doc, "fuzz");
    assert_u64(fuzz, "cases");
    assert_bool(fuzz, "ok");
    let cluster = obj(&doc, "cluster");
    assert_u64(cluster, "cases");
    assert_bool(cluster, "ok");
    assert!(matches!(obj(cluster, "failures"), Json::Arr(_)));
    let ordering = obj(&doc, "ordering");
    assert_bool(ordering, "ok");
}

#[test]
fn cluster_artifact_schema_round_trips() {
    let out = tmp("cluster.json");
    let doc = run_binary(env!("CARGO_BIN_EXE_cluster"), &["--smoke"], &out);
    assert!(matches!(obj(&doc, "schema"), Json::Str(_)));
    assert_bool(&doc, "smoke");
    assert_bool(&doc, "ok");

    let kill = obj(&doc, "kill");
    assert_u64(kill, "hosts");
    assert_u64(kill, "kill_host");
    assert_u64(kill, "kill_at_ms");
    assert_u64(kill, "bucket_ms");
    assert_u64(kill, "detection_bound_ms");
    assert_bool(kill, "ok");
    let policies = arr(kill, "policies");
    assert!(!policies.is_empty(), "kill pass reports every LB policy");
    for row in policies {
        assert!(matches!(obj(row, "policy"), Json::Str(_)));
        assert_u64(row, "baseline_served");
        assert_u64(row, "kill_served");
        assert_num(row, "goodput_retained");
        assert_bool(row, "recovered_in_time");
        assert_u64(row, "stranded");
        assert_u64(row, "recovered");
        assert_u64(row, "misroutes");
        assert_u64(row, "retries_scheduled");
        assert_num(row, "retry_amplification");
        assert_bool(row, "replay_identical");
        assert!(matches!(obj(row, "timeline"), Json::Arr(_)));
        assert!(matches!(obj(row, "problems"), Json::Arr(_)));
        assert_bool(row, "ok");
    }

    let rolling = obj(&doc, "rolling");
    assert_u64(rolling, "hosts");
    assert_u64(rolling, "stagger_ms");
    assert_u64(rolling, "drain_timeout_ms");
    assert_bool(rolling, "ok");
    let policies = arr(rolling, "policies");
    assert!(!policies.is_empty(), "rolling pass reports every LB policy");
    for row in policies {
        assert!(matches!(obj(row, "policy"), Json::Str(_)));
        assert_u64(row, "served");
        assert_u64(row, "restarts");
        assert_u64(row, "drains");
        assert_u64(row, "drain_done");
        assert_u64(row, "drain_forced");
        assert_u64(row, "stranded");
        assert_u64(row, "timeouts_dead_owner");
        assert_num(row, "retry_amplification");
        assert_bool(row, "ok");
    }

    let flash = obj(&doc, "flash");
    assert_u64(flash, "hosts");
    assert_num(flash, "multiplier");
    assert_num(flash, "affinity_vs_stock");
    assert_bool(flash, "ok");
    let kinds = arr(flash, "kinds");
    assert!(!kinds.is_empty(), "flash pass compares listen kinds");
    for row in kinds {
        assert!(matches!(obj(row, "kind"), Json::Str(_)));
        assert_u64(row, "served");
        assert_u64(row, "timeouts");
        assert_u64(row, "stranded");
        assert_num(row, "retry_amplification");
    }
}

#[test]
fn recovery_artifact_schema_round_trips() {
    let out = tmp("recovery.json");
    let doc = run_binary(env!("CARGO_BIN_EXE_recovery"), &["--smoke"], &out);
    assert_bool(&doc, "smoke");
    assert_bool(&doc, "ok");

    let kill = obj(&doc, "kill");
    assert_u64(kill, "cores");
    assert_u64(kill, "kill_core");
    assert_num(kill, "kill_at_ms");
    assert_num(kill, "bucket_ms");
    let kinds = arr(kill, "kinds");
    assert!(!kinds.is_empty(), "kill pass reports at least one kind");
    for row in kinds {
        assert!(matches!(obj(row, "kind"), Json::Str(_)));
        assert_u64(row, "baseline_served");
        assert_u64(row, "kill_served");
        assert_num(row, "goodput_retained");
        assert_bool(row, "recovered");
        assert_num(row, "time_to_recover_ms");
        assert_u64(row, "timeouts_live_owner");
        assert_u64(row, "rehome_ops");
        assert_bool(row, "ok");
    }

    let flood = obj(&doc, "flood");
    assert_u64(flood, "cores");
    assert_num(flood, "rate_multiple");
    let kinds = arr(flood, "kinds");
    assert!(!kinds.is_empty(), "flood pass reports at least one kind");
    for row in kinds {
        assert!(matches!(obj(row, "kind"), Json::Str(_)));
        assert_u64(row, "served");
        assert_u64(row, "cookies_issued");
        assert_u64(row, "cookies_validated");
        assert_u64(row, "cookies_established");
        assert_u64(row, "cookie_drops");
        assert_u64(row, "reaped");
        assert_bool(row, "ok");
    }
}

#[test]
fn scenario_artifact_schema_round_trips() {
    let out = tmp("scenarios.json");
    let doc = run_binary(
        env!("CARGO_BIN_EXE_scenario"),
        &["--file", "scenarios/paper_base.json"],
        &out,
    );
    assert!(matches!(obj(&doc, "schema"), Json::Str(_)));
    assert_bool(&doc, "smoke");
    assert_bool(&doc, "ok");
    let scenarios = arr(&doc, "scenarios");
    assert_eq!(scenarios.len(), 1, "one --file produces one report");
    for report in scenarios {
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
            assert_u64(row, "cookies");
            assert_u64(row, "rehomes");
            assert_u64(row, "timeouts_live_owner");
            // The dprof-v2 waste columns the packed-layout gate reads
            // (zero when the scenario keeps the ledger off).
            assert_num(row, "wasted_bytes_per_request");
            assert_num(row, "paper_wasted_bytes_per_request");
            assert!(matches!(obj(row, "audit_violations"), Json::Arr(_)));
            let runs = arr(row, "runs");
            assert!(!runs.is_empty(), "kind reports at least one run");
            for run in runs {
                assert_u64(run, "cores");
                assert_num(run, "rate");
                assert_u64(run, "served");
                assert_num(run, "rps_per_core");
                assert!(matches!(obj(run, "fingerprint"), Json::Str(_)));
                assert_u64(run, "events");
            }
        }
    }
}

#[test]
fn cacheline_artifact_schema_round_trips() {
    let out = tmp("cacheline.json");
    let doc = run_binary(env!("CARGO_BIN_EXE_cacheline"), &["--smoke"], &out);
    assert!(matches!(obj(&doc, "schema"), Json::Str(_)));
    assert!(matches!(obj(&doc, "mode"), Json::Str(_)));
    assert!(matches!(obj(&doc, "instrumentation"), Json::Str(_)));
    assert_bool(&doc, "ledger_fingerprint_neutral");
    assert_bool(&doc, "ok");
    let gate = obj(&doc, "gate");
    assert_bool(gate, "checked");
    assert_num(gate, "packed_fine_wasted_per_req");
    assert_num(gate, "paper_fine_wasted_per_req");
    assert_bool(gate, "ok");
    let variants = arr(&doc, "variants");
    assert_eq!(variants.len(), 2, "paper and packed variants");
    for variant in variants {
        assert!(matches!(obj(variant, "layout"), Json::Str(_)));
        let kinds = arr(variant, "kinds");
        assert_eq!(kinds.len(), 3, "stock, fine, affinity");
        for row in kinds {
            assert!(matches!(obj(row, "kind"), Json::Str(_)));
            assert_u64(row, "served");
            assert!(matches!(obj(row, "fingerprint"), Json::Str(_)));
            assert_bool(row, "ledger_enabled");
            assert_num(row, "wasted_bytes_per_request");
            assert_num(row, "bytes_fetched_per_request");
            assert_num(row, "reuse_per_eviction");
            assert_num(row, "busy_cycles_per_request");
            let types = arr(row, "types");
            if cfg!(feature = "fast") {
                assert!(types.is_empty(), "fast compiles the ledger out");
            } else {
                assert!(!types.is_empty(), "instrumented run records types");
                for t in types {
                    assert!(matches!(obj(t, "type"), Json::Str(_)));
                    assert_u64(t, "fills");
                    assert_u64(t, "warm_gens");
                    assert_num(t, "wasted_bytes_per_request");
                    assert_num(t, "reuse_per_eviction");
                    assert_u64(t, "shared_lines");
                    assert_u64(t, "shared_bytes");
                }
            }
        }
    }
}

#[test]
fn wallclock_artifact_schema_round_trips() {
    let out = tmp("bench_sim.json");
    let doc = run_binary(
        env!("CARGO_BIN_EXE_wallclock"),
        &["--smoke", "--repeats", "1"],
        &out,
    );
    assert!(matches!(obj(&doc, "schema"), Json::Str(_)));
    assert!(matches!(obj(&doc, "mode"), Json::Str(_)));
    assert_u64(&doc, "repeats");
    assert_u64(&doc, "total_events");
    assert_num(&doc, "total_wheel_wall_s");
    let kinds = arr(&doc, "kinds");
    assert!(!kinds.is_empty(), "wallclock reports at least one kind");
    for row in kinds {
        assert!(matches!(obj(row, "listen"), Json::Str(_)));
        assert_u64(row, "events");
        assert!(matches!(obj(row, "fingerprint"), Json::Str(_)));
        assert_num(row, "events_per_sec");

        // The cacheline block the bytes-per-request gate reads back:
        // present in instrumented builds, omitted under `fast` (the
        // ledger is compiled out, so there is nothing to report).
        if cfg!(feature = "fast") {
            assert!(
                row.get("cacheline").is_none(),
                "fast build must omit the cacheline block"
            );
        } else {
            let cl = obj(row, "cacheline");
            assert_num(cl, "wasted_bytes_per_request");
            assert_num(cl, "bytes_fetched_per_request");
            assert_num(cl, "reuse_per_eviction");
        }
    }
}
