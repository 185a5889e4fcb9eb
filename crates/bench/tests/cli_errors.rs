//! Bad command lines of `scenario` and `paper` fail with `error: …
//! (usage: …)` and exit status 2, before any simulation runs: never a
//! panic, never a silent default. An artifact path that cannot be
//! written, or a scenario file that cannot be read, fails the same way,
//! naming the path.

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

/// `paper` fails the same way: an unknown id or flag names the usage,
/// an unwritable `results/` or a Figure 6 scenario that does not load
/// names the path before any run, and a `fast` build refuses the outputs
/// whose observer plane it compiles out.
#[test]
fn paper_rejects_bad_ids_flags_and_paths() {
    // A file named `results` in the working directory blocks every write,
    // and its `scenarios/fig6.json` is cut short.
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/paper_cwd");
    std::fs::create_dir_all(format!("{dir}/scenarios")).expect("make the working directory");
    std::fs::write(format!("{dir}/results"), "").expect("block results/");
    std::fs::write(format!("{dir}/scenarios/fig6.json"), "{").expect("cut fig6.json");
    let fast = cfg!(feature = "fast");
    let refused = ["table2 reads lock_stat,", "fig4 reads DProf,"];
    let rows = [
        ("fig11", "unknown argument fig11 (usage: paper [ID]..."),
        ("--bogus", "unknown argument --bogus (usage: paper [ID]..."),
        ("table1", "results: "),
        ("fig6", "scenarios/fig6.json: "),
        ("table2", if fast { refused[0] } else { "results: " }),
        ("fig4", if fast { refused[1] } else { "results: " }),
    ];
    for (arg, want) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg(arg)
            .current_dir(dir)
            .output()
            .expect("spawn paper");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        let want = format!("error: {want}");
        assert!(stderr.starts_with(&want), "{arg}: {stderr}");
    }
}
