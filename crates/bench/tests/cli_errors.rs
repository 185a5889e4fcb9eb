//! Bad command lines fail with `error: … (usage: …)` and exit status 2,
//! before any simulation runs: never a panic, never a silent default. An
//! artifact path that cannot be written, or a scenario file that cannot
//! be read, fails the same way, naming the path.

use std::process::Command;

#[test]
fn bad_flags_exit_2_with_the_usage() {
    // A scenario whose description nests deeper than the stack can recurse.
    let deep = concat!(env!("CARGO_TARGET_TMPDIR"), "/deep_nesting.json");
    let nest = "[".repeat(20_000) + &"]".repeat(20_000);
    std::fs::write(
        deep,
        format!("{{\"name\":\"deep\",\"description\":{nest}}}"),
    )
    .expect("write the deep scenario file");
    let rows: &[(&[&str], &str)] = &[
        (&["--bogus"], "unknown argument --bogus"),
        (&["--workers", "0"], "--workers got malformed value \"0\""),
        (&["--fuzz", "x"], "--fuzz got malformed value \"x\""),
        (
            &["--fuzz", "4", "--smoke"],
            "--fuzz cannot be combined with --file, --dir, --smoke or --record",
        ),
        (
            &["--fuzz", "0", "--out", "Cargo.toml/x.json"],
            "Cargo.toml/x.json: ",
        ),
        (
            &["--file", deep],
            &format!("{deep}: nesting deeper than 128 levels at byte "),
        ),
    ];
    let exe = env!("CARGO_BIN_EXE_scenario");
    for &(args, want) in rows {
        let out = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        // Flag errors name the usage; a file error names the path.
        let usage = !args.contains(&"--out") && !args.contains(&"--file");
        assert!(
            stderr.starts_with(&format!("error: {want}")) && stderr.contains("(usage: ") == usage,
            "{args:?}: {stderr}"
        );
    }
}
