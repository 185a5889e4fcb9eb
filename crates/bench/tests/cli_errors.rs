//! Bad command lines fail with `error: … (usage: …)` and exit status 2,
//! before any simulation runs: never a panic, never a silent default.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_the_usage() {
    let rows: &[(&str, &[&str], &str)] = &[
        (
            env!("CARGO_BIN_EXE_scenario"),
            &["--bogus"],
            "unknown argument --bogus",
        ),
        (
            env!("CARGO_BIN_EXE_scenario"),
            &["--workers", "0"],
            "--workers got malformed value \"0\"",
        ),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--cases"],
            "--cases requires a value",
        ),
        (
            env!("CARGO_BIN_EXE_simcheck"),
            &["--runs", "x"],
            "--runs got malformed value \"x\"",
        ),
    ];
    for &(exe, args, want) in rows {
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {want}")) && stderr.contains("(usage: "),
            "{exe} {args:?}: {stderr}"
        );
    }
}
