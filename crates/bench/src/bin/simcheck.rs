//! `simcheck` — the determinism and conservation audit harness.
//!
//! Three passes, each exercising a different reliability property of the
//! simulator:
//!
//! 1. **Replay**: every sampled `(machine, listen, server, rate, seed)`
//!    configuration is run twice; the two runs must produce bit-identical
//!    event-stream fingerprints and equal counters.
//! 2. **Sweep stability**: a config batch is pushed through
//!    [`bench::sweep_fixed_workers`] at 1, 2, and N worker threads; the
//!    result order and every value must not depend on the worker count.
//! 3. **Fuzz**: randomized configurations run with conservation audits
//!    enabled. Any violation or panic is shrunk to a minimal failing
//!    [`app::RunConfig`] and printed as a ready-to-paste regression test.
//!
//! Writes a machine-readable report to `results/simcheck.json` and exits
//! nonzero on any divergence or violation.
//!
//! Usage: `simcheck [--runs N] [--fuzz N] [--seed S] [--out PATH]`

use app::{ListenKind, RunConfig, RunResult, Runner, ServerKind, Workload};
use bench::quick_config;
use metrics::json::Json;
use sim::rng::SimRng;
use sim::time::ms;
use sim::topology::Machine;

fn main() {
    let opts = Opts::parse();
    bench::header("simcheck", "determinism fingerprints + conservation audits");
    println!(
        "replay configs: {}   fuzz cases: {}   base seed: {}",
        opts.runs, opts.fuzz, opts.seed
    );

    let replay = replay_pass(&opts);
    let sweep = sweep_pass();
    let fuzz = fuzz_pass(&opts);

    let ok = replay.divergences.is_empty() && sweep.stable && fuzz.failures.is_empty();
    let report = Json::obj()
        .field("runs", opts.runs)
        .field("fuzz_cases", opts.fuzz)
        .field("base_seed", opts.seed)
        .field("replay", replay.to_json())
        .field("sweep", sweep.to_json())
        .field("fuzz", fuzz.to_json())
        .field("ok", ok);
    bench::write_artifact(&opts.out, &report);

    if ok {
        println!(
            "simcheck: OK ({} replays, {} fuzz cases, sweep stable)",
            opts.runs, opts.fuzz
        );
    } else {
        println!(
            "simcheck: FAILED ({} replay divergences, sweep stable: {}, {} fuzz failures)",
            replay.divergences.len(),
            sweep.stable,
            fuzz.failures.len()
        );
        std::process::exit(1);
    }
}

struct Opts {
    runs: usize,
    fuzz: usize,
    seed: u64,
    out: String,
}

impl Opts {
    fn parse() -> Self {
        let mut args = bench::Args::parse("simcheck [--runs N] [--fuzz N] [--seed S] [--out PATH]");
        let runs = args.parsed("--runs").unwrap_or(64);
        let opts = Opts {
            runs,
            // Default fuzz effort scales with the replay sample: `--runs 64`
            // fuzzes a few hundred combos, the CI smoke run stays quick.
            fuzz: args.parsed("--fuzz").unwrap_or(runs * 4),
            seed: args.parsed("--seed").unwrap_or(0xC0FFEE),
            out: args
                .value("--out")
                .unwrap_or_else(|| "results/simcheck.json".to_string()),
        };
        // `--check` is accepted too: audits are always on here.
        args.done();
        opts
    }
}

fn label(cfg: &RunConfig) -> String {
    format!(
        "{} {} {} cores={} rate={:.0} seed={}",
        cfg.machine.name,
        cfg.listen.label(),
        cfg.server.label(),
        cfg.cores,
        cfg.conn_rate,
        cfg.seed
    )
}

/// The deterministic config sample the replay pass walks: the cross
/// product of machines, listen kinds, servers, and load levels, each at a
/// distinct seed.
fn sample_configs(n: usize, base_seed: u64) -> Vec<RunConfig> {
    let machines = [Machine::amd48(), Machine::intel80()];
    let listens = [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity];
    let servers = [ServerKind::apache(), ServerKind::lighttpd()];
    // Per-core offered rates from idle to overload.
    let rates_per_core = [500.0, 2_000.0, 8_000.0];
    let cores = [1usize, 2, 4, 8];
    let mut out = Vec::with_capacity(n);
    let mut i = 0u64;
    'outer: loop {
        for &rate_pc in &rates_per_core {
            for &listen in &listens {
                for machine in &machines {
                    for &server in &servers {
                        for &c in &cores {
                            if out.len() >= n {
                                break 'outer;
                            }
                            out.push(quick_config(
                                machine.clone(),
                                c,
                                listen,
                                server,
                                rate_pc * c as f64,
                                base_seed.wrapping_add(i),
                            ));
                            i += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- replay

struct ReplayReport {
    configs: usize,
    divergences: Vec<String>,
}

impl ReplayReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("configs", self.configs)
            .field(
                "divergences",
                Json::Arr(
                    self.divergences
                        .iter()
                        .map(|d| Json::Str(d.clone()))
                        .collect(),
                ),
            )
            .field("ok", self.divergences.is_empty())
    }
}

fn replay_pass(opts: &Opts) -> ReplayReport {
    println!("\n[1/3] replay: {} configs x 2 runs", opts.runs);
    let configs = sample_configs(opts.runs, opts.seed);
    // Interleave the two copies A1 B1 ... A2 B2 ... so the two runs of a
    // config land on different worker threads.
    let mut jobs = configs.clone();
    jobs.extend(configs.iter().cloned());
    let results = bench::sweep_fixed_workers(jobs, bench::default_workers());
    let (first, second) = results.split_at(opts.runs);
    let mut divergences = Vec::new();
    for ((cfg, a), b) in configs.iter().zip(first).zip(second) {
        if let Some(why) = diverges(a, b) {
            divergences.push(format!("[{}] {}", label(cfg), why));
        }
        for v in a.audit.violations() {
            divergences.push(format!("[{}] audit: {}", label(cfg), v));
        }
    }
    for d in &divergences {
        println!("  DIVERGED {d}");
    }
    println!(
        "  {} configs replayed, {} divergences",
        opts.runs,
        divergences.len()
    );
    ReplayReport {
        configs: opts.runs,
        divergences,
    }
}

fn diverges(a: &RunResult, b: &RunResult) -> Option<String> {
    if a.fingerprint != b.fingerprint {
        return Some(format!(
            "fingerprint {:#018x} != {:#018x}",
            a.fingerprint, b.fingerprint
        ));
    }
    let pairs = [
        ("served", a.served, b.served),
        ("drops_overflow", a.drops_overflow, b.drops_overflow),
        ("drops_nic", a.drops_nic, b.drops_nic),
        ("timeouts", a.timeouts, b.timeouts),
        ("migrations", a.migrations, b.migrations),
        ("conns_completed", a.conns_completed, b.conns_completed),
    ];
    for (name, x, y) in pairs {
        if x != y {
            return Some(format!("{name} {x} != {y}"));
        }
    }
    if a.audit != b.audit {
        return Some("audit counters differ".to_string());
    }
    None
}

// ----------------------------------------------------------------- sweep

struct SweepReport {
    configs: usize,
    worker_counts: Vec<usize>,
    stable: bool,
    mismatches: Vec<String>,
}

impl SweepReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("configs", self.configs)
            .field(
                "worker_counts",
                Json::Arr(
                    self.worker_counts
                        .iter()
                        .map(|w| Json::U64(*w as u64))
                        .collect(),
                ),
            )
            .field(
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|m| Json::Str(m.clone()))
                        .collect(),
                ),
            )
            .field("ok", self.stable)
    }
}

fn sweep_pass() -> SweepReport {
    let worker_counts = {
        let mut w = vec![1, 2, bench::default_workers()];
        w.sort_unstable();
        w.dedup();
        w
    };
    println!("\n[2/3] sweep stability: workers {worker_counts:?}");
    // One config per (listen, load) corner; seeds offset so the batch is
    // heterogeneous.
    let configs: Vec<RunConfig> = [
        (ListenKind::Stock, 2, 1_000.0),
        (ListenKind::Stock, 4, 30_000.0),
        (ListenKind::Fine, 2, 1_000.0),
        (ListenKind::Fine, 4, 30_000.0),
        (ListenKind::Affinity, 2, 1_000.0),
        (ListenKind::Affinity, 4, 30_000.0),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(listen, cores, rate))| {
        quick_config(
            Machine::amd48(),
            cores,
            listen,
            ServerKind::apache(),
            rate,
            1000 + i as u64,
        )
    })
    .collect();

    let baseline = bench::sweep_fixed_workers(configs.clone(), worker_counts[0]);
    let mut mismatches = Vec::new();
    for &w in &worker_counts[1..] {
        let rs = bench::sweep_fixed_workers(configs.clone(), w);
        for ((cfg, a), b) in configs.iter().zip(&baseline).zip(&rs) {
            if let Some(why) = diverges(a, b) {
                mismatches.push(format!("[{} @ {w} workers] {}", label(cfg), why));
            }
        }
    }
    for m in &mismatches {
        println!("  UNSTABLE {m}");
    }
    let stable = mismatches.is_empty();
    println!(
        "  {} configs x {:?} workers: {}",
        configs.len(),
        worker_counts,
        if stable { "stable" } else { "UNSTABLE" }
    );
    SweepReport {
        configs: configs.len(),
        worker_counts,
        stable,
        mismatches,
    }
}

// ------------------------------------------------------------------ fuzz

struct FuzzFailure {
    label: String,
    problems: Vec<String>,
    repro: String,
}

struct FuzzReport {
    cases: usize,
    failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("cases", self.cases)
            .field(
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj()
                                .field("config", f.label.clone())
                                .field(
                                    "problems",
                                    Json::Arr(
                                        f.problems.iter().map(|p| Json::Str(p.clone())).collect(),
                                    ),
                                )
                                .field("repro", f.repro.clone())
                        })
                        .collect(),
                ),
            )
            .field("ok", self.failures.is_empty())
    }
}

/// Draws one randomized configuration. Dimensions mirror what the figure
/// binaries sweep, plus the perturbing knobs (lockstat, batch job,
/// stealing/migration toggles).
fn random_config(rng: &mut SimRng) -> RunConfig {
    let machine = if rng.chance(0.5) {
        Machine::amd48()
    } else {
        Machine::intel80()
    };
    let listen = match rng.below(3) {
        0 => ListenKind::Stock,
        1 => ListenKind::Fine,
        _ => ListenKind::Affinity,
    };
    let server = if rng.chance(0.5) {
        ServerKind::apache()
    } else {
        ServerKind::lighttpd()
    };
    let cores = [1usize, 2, 3, 4, 6, 8][rng.index(6)];
    let rate_per_core = [200.0, 1_000.0, 4_000.0, 12_000.0][rng.index(4)];
    let mut cfg = quick_config(
        machine,
        cores,
        listen,
        server,
        rate_per_core * cores as f64,
        rng.next_u64(),
    );
    cfg.workload = match rng.below(3) {
        0 => Workload::base(),
        1 => Workload::with_requests_per_conn([1, 2, 6, 24][rng.index(4)]),
        _ => Workload::with_think(ms(rng.range(0, 120))),
    };
    cfg.lockstat = rng.chance(0.15);
    cfg.steal_enabled = rng.chance(0.8);
    cfg.migrate_enabled = rng.chance(0.8);
    if rng.chance(0.15) && cores >= 2 {
        cfg.hog_work = Some(ms(rng.range(20, 150)));
    }
    cfg
}

/// Runs one config with audits enabled; returns the problem list (audit
/// violations, or the panic message if the runner panicked).
fn problems_of(cfg: &RunConfig) -> Vec<String> {
    let cfg = cfg.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || Runner::new(cfg).run())) {
        Ok(r) => r.audit.violations(),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            vec![format!("panic: {msg}")]
        }
    }
}

fn fuzz_pass(opts: &Opts) -> FuzzReport {
    println!(
        "\n[3/3] fuzz: {} randomized configs, audits enforced",
        opts.fuzz
    );
    let mut rng = SimRng::new(opts.seed ^ 0x0F75_5A5A_F0F0_1234);
    let configs: Vec<RunConfig> = (0..opts.fuzz).map(|_| random_config(&mut rng)).collect();

    // Parallel first pass; shrinking (rare) is sequential.
    let jobs = configs.clone();
    let results = bench::par_map(jobs, bench::default_workers(), |cfg| problems_of(&cfg));
    let mut failures = Vec::new();
    for (cfg, problems) in configs.iter().zip(results) {
        if problems.is_empty() {
            continue;
        }
        println!("  FUZZ FAILURE [{}]:", label(cfg));
        for p in &problems {
            println!("    {p}");
        }
        let minimal = shrink(cfg.clone());
        let repro = repro_test(&minimal, &problems);
        println!("  minimal repro:\n{repro}");
        failures.push(FuzzFailure {
            label: label(&minimal),
            problems,
            repro,
        });
    }
    println!("  {} cases, {} failures", opts.fuzz, failures.len());
    FuzzReport {
        cases: opts.fuzz,
        failures,
    }
}

/// Greedy shrink: repeatedly tries simplifying transformations and keeps
/// any that still fail, until a fixpoint.
fn shrink(mut cfg: RunConfig) -> RunConfig {
    let still_fails = |c: &RunConfig| !problems_of(c).is_empty();
    if !still_fails(&cfg) {
        // Flaky under replay — itself a determinism bug; report as-is.
        return cfg;
    }
    loop {
        let mut shrunk = false;
        let mut candidates: Vec<RunConfig> = Vec::new();
        if cfg.cores > 1 {
            let mut c = cfg.clone();
            c.cores /= 2;
            c.max_backlog = 128 * c.cores;
            candidates.push(c);
        }
        if cfg.conn_rate > 100.0 {
            let mut c = cfg.clone();
            c.conn_rate /= 2.0;
            candidates.push(c);
        }
        if cfg.hog_work.is_some() {
            let mut c = cfg.clone();
            c.hog_work = None;
            candidates.push(c);
        }
        if cfg.lockstat {
            let mut c = cfg.clone();
            c.lockstat = false;
            candidates.push(c);
        }
        if cfg.measure > ms(40) {
            let mut c = cfg.clone();
            c.measure /= 2;
            candidates.push(c);
        }
        if cfg.warmup > ms(40) {
            let mut c = cfg.clone();
            c.warmup /= 2;
            candidates.push(c);
        }
        for cand in candidates {
            if still_fails(&cand) {
                cfg = cand;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return cfg;
        }
    }
}

/// Formats a minimal failing config as a ready-to-paste regression test.
fn repro_test(cfg: &RunConfig, problems: &[String]) -> String {
    let machine = if cfg.machine.name.contains("amd") || cfg.machine.n_cores == 48 {
        "Machine::amd48()"
    } else {
        "Machine::intel80()"
    };
    let listen = match cfg.listen {
        ListenKind::Stock => "ListenKind::Stock",
        ListenKind::Fine => "ListenKind::Fine",
        ListenKind::Affinity => "ListenKind::Affinity",
        ListenKind::Twenty => "ListenKind::Twenty",
        ListenKind::BusyPoll => "ListenKind::BusyPoll",
    };
    let server = if cfg.server.poll_based() {
        "ServerKind::lighttpd()"
    } else {
        "ServerKind::apache()"
    };
    let mut knobs = String::new();
    if cfg.lockstat {
        knobs.push_str("    cfg.lockstat = true;\n");
    }
    if !cfg.steal_enabled {
        knobs.push_str("    cfg.steal_enabled = false;\n");
    }
    if !cfg.migrate_enabled {
        knobs.push_str("    cfg.migrate_enabled = false;\n");
    }
    if let Some(w) = cfg.hog_work {
        knobs.push_str(&format!("    cfg.hog_work = Some({w});\n"));
    }
    format!(
        "\
#[test]
fn simcheck_repro() {{
    // simcheck found: {}
    let mut cfg = RunConfig::new(
        {machine},
        {},
        {listen},
        {server},
        Workload::base(),
        {:.1},
    );
    cfg.warmup = {};
    cfg.measure = {};
    cfg.seed = {};
    cfg.tracked_files = {};
{knobs}    let r = Runner::new(cfg).run();
    assert!(r.audit.is_ok(), \"{{:?}}\", r.audit.violations());
}}",
        problems.join("; "),
        cfg.cores,
        cfg.conn_rate,
        cfg.warmup,
        cfg.measure,
        cfg.seed,
        cfg.tracked_files,
    )
}
