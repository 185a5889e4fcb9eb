//! The sweep engine and the CLI/artifact scaffolding every harness
//! binary shares.
//!
//! Before the scenario catalog landed, each binary under `src/bin/`
//! hand-rolled the same three things: a worker pool that runs a list of
//! [`RunConfig`]s in parallel while preserving input order, an
//! `std::env::args` loop for its flags, and the `create_dir_all` +
//! `fs::write` + "report:" dance for its JSON artifact. This module is
//! the single home for all three; `fig6` is a thin wrapper over the
//! scenario catalog and the `scenario` driver parses its flags through
//! [`Args`] and emits its artifact through [`write_artifact`].

use app::{RunConfig, RunResult};
use metrics::json::Json;

/// Runs `configs` through the saturation search in parallel (one OS
/// thread per hardware thread), preserving input order in the output.
/// Each best run is [`audited`].
#[must_use]
pub fn sweep_saturation(configs: Vec<RunConfig>) -> Vec<RunResult> {
    par_map(configs, default_workers(), |cfg| {
        audited(&cfg, app::find_saturation(&cfg))
    })
}

/// Default sweep parallelism: one worker per hardware thread.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(4)
}

/// Passes through a run of `cfg` (a fixed-rate run, or a saturation
/// search's best probe) whose numbers a figure or table binary prints,
/// failing the binary if the run broke its conservation audit.
///
/// # Panics
///
/// On any audit violation, naming the configuration and every violation.
#[must_use]
pub fn audited(cfg: &RunConfig, r: RunResult) -> RunResult {
    let violations = r.audit.violations();
    assert!(
        violations.is_empty(),
        "conservation audit failed for [{} {} cores={} rate={} seed={}]:\n  {}",
        cfg.listen.label(),
        cfg.server.label(),
        cfg.cores,
        cfg.conn_rate,
        cfg.seed,
        violations.join("\n  ")
    );
    r
}

/// Runs an arbitrary job over each item on a worker pool, preserving
/// input order in the output: the engine behind the sweeps, the
/// scenario runner and the fuzzer (with run configs, saturation searches
/// or fuzz cases). Results must not depend on `workers` — `scenario
/// --fuzz` checks exactly that property at 1 and N workers.
pub fn par_map<C, T, F>(items: Vec<C>, workers: usize, f: F) -> Vec<T>
where
    C: Send,
    T: Send,
    F: Fn(C) -> T + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    // A shared work-list plus an mpsc channel: each worker claims the
    // next un-run config, runs it outside the lock, and sends the result
    // back tagged with its input index.
    let jobs: std::sync::Mutex<std::collections::VecDeque<(usize, C)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let jobs = &jobs;
            let f = &f;
            s.spawn(move || loop {
                let job = jobs.lock().expect("sweep queue poisoned").pop_front();
                let Some((i, cfg)) = job else { break };
                let r = f(cfg);
                tx.send((i, r)).expect("receiver alive");
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("all jobs ran")).collect()
    })
}

/// Writes a JSON artifact, creating parent directories and trailing the
/// document with a newline, and echoes the path — the uniform tail of
/// every report-writing binary.
///
/// # Errors
///
/// The I/O error, prefixed with the path.
pub fn write_artifact(path: &str, report: &Json) -> Result<(), String> {
    write_file(std::path::Path::new(path), &(report.render() + "\n"))?;
    println!("report: {path}");
    Ok(())
}

/// Writes a text file, creating its parent directories.
///
/// # Errors
///
/// The I/O error, prefixed with the path.
pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(err)?;
    }
    std::fs::write(path, text).map_err(err)
}

/// A tiny declarative flag parser for the harness binaries: registered
/// flags and valued options are consumed from `std::env::args`. The
/// first bad input (a missing or malformed value, or an argument no call
/// consumed) is kept and reported by [`Args::finish`]; [`Args::done`]
/// turns it into `error: … (usage: …)` and exit status 2.
pub struct Args {
    tokens: Vec<String>,
    usage: String,
    taken: Vec<bool>,
    error: Option<String>,
}

impl Args {
    /// Captures the process arguments (after the binary name).
    #[must_use]
    pub fn parse(usage: &str) -> Self {
        Self::from_tokens(std::env::args().skip(1).collect(), usage)
    }

    /// A test/driver entry point over an explicit token list.
    #[must_use]
    pub fn from_tokens(tokens: Vec<String>, usage: &str) -> Self {
        let taken = vec![false; tokens.len()];
        Self {
            tokens,
            usage: usage.to_string(),
            taken,
            error: None,
        }
    }

    /// Keeps a bad-input error unless an earlier one is already kept; a
    /// driver calls it for a bad combination of otherwise valid flags.
    pub fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Consumes a boolean flag; `true` if present.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for (i, t) in self.tokens.iter().enumerate() {
            if !self.taken[i] && t == name {
                self.taken[i] = true;
                found = true;
            }
        }
        found
    }

    /// Consumes a `--name value` option; a missing value is an error.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let i = (0..self.tokens.len()).find(|&i| !self.taken[i] && self.tokens[i] == name)?;
        self.taken[i] = true;
        let Some(v) = self.tokens.get(i + 1).cloned() else {
            self.fail(format!("{name} requires a value"));
            return None;
        };
        self.taken[i + 1] = true;
        Some(v)
    }

    /// Consumes a repeatable `--name value` option, in argument order.
    pub fn values(&mut self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(v) = self.value(name) {
            out.push(v);
        }
        out
    }

    /// Like [`Args::value`] but parsed; a malformed value is an error.
    pub fn parsed<T>(&mut self, name: &str) -> Option<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let v = self.value(name)?;
        v.parse()
            .map_err(|e| self.fail(format!("{name} got malformed value {v:?}: {e}")))
            .ok()
    }

    /// The first bad input, if any: a recorded error, else the first
    /// argument no `flag`/`value` call consumed.
    ///
    /// # Errors
    ///
    /// `… (usage: …)` naming the bad input.
    pub fn finish(self) -> Result<(), String> {
        let stray = self
            .tokens
            .iter()
            .zip(&self.taken)
            .find(|(_, &taken)| !taken)
            .map(|(t, _)| format!("unknown argument {t}"));
        match self.error.or(stray) {
            Some(e) => Err(format!("{e} (usage: {})", self.usage)),
            None => Ok(()),
        }
    }

    /// [`Args::finish`] for a binary's `main`: on bad input, prints
    /// `error: …` to stderr and exits with status 2.
    pub fn done(self) {
        if let Err(e) = self.finish() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_consume_flags_values_and_reject_strays() {
        let mut a = Args::from_tokens(
            ["--smoke", "--out", "x.json", "--cases", "7"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            "test",
        );
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--smoke"), "flags are consumed");
        assert_eq!(a.value("--out").as_deref(), Some("x.json"));
        assert_eq!(a.parsed::<usize>("--cases"), Some(7));
        assert_eq!(a.value("--missing"), None);
        assert_eq!(a.finish(), Ok(()));
    }

    /// Bad input is an error naming the input and the usage, never a
    /// panic or a silent default.
    #[test]
    fn args_report_bad_input() {
        type Read = fn(&mut Args);
        let rows: &[(&[&str], Read, &str)] = &[
            (&["--bogus"], |_| {}, "unknown argument --bogus"),
            (
                &["--out"],
                |a| assert_eq!(a.value("--out"), None),
                "--out requires a value",
            ),
            (
                &["--cases", "many"],
                |a| assert_eq!(a.parsed::<usize>("--cases"), None),
                "--cases got malformed value \"many\"",
            ),
            (
                &["--workers", "0"],
                |a| assert_eq!(a.parsed::<std::num::NonZeroUsize>("--workers"), None),
                "--workers got malformed value \"0\"",
            ),
        ];
        for &(tokens, read, want) in rows {
            let mut a =
                Args::from_tokens(tokens.iter().map(|s| (*s).to_string()).collect(), "test");
            read(&mut a);
            let err = a.finish().expect_err(want);
            assert!(
                err.starts_with(want) && err.ends_with("(usage: test)"),
                "{err:?} should name {want:?} and the usage"
            );
        }
    }

    #[test]
    fn repeatable_values_keep_order() {
        let mut a = Args::from_tokens(
            ["--file", "a", "--file", "b"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            "test",
        );
        assert_eq!(a.values("--file"), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(a.finish(), Ok(()));
    }
}
