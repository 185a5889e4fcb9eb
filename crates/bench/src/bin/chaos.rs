//! `chaos` — the fault-injection differential harness.
//!
//! Where `simcheck` establishes that clean runs are deterministic and
//! conservative, `chaos` establishes the same under adversity. Two
//! passes, and an optional sweep:
//!
//! 1. **Fuzz + replay**: randomized `(config, FaultPlan, OverloadConfig,
//!    hotplug schedule)` tuples across all five [`ListenKind`]s, each run
//!    twice. Both runs must produce bit-identical fingerprints and equal
//!    audits (the fault schedule is part of the audit, so replay equality
//!    covers the faults actually injected), and every conservation audit
//!    must hold — in particular the client lifecycle law: every
//!    connection ever opened completed, timed out, hit the SYN-retry
//!    cap, or is still live. Any failure is shrunk (config, plan,
//!    overload, and hotplug knobs — including individual stall windows)
//!    to a minimal repro, like `simcheck`.
//! 2. **Ordering**: at saturating load with moderate packet loss,
//!    SYN-overflow drops, and client retransmission, the paper's ranking
//!    `Affinity >= Fine >= Stock` must survive (with a small slack for
//!    noise) — faults must not invert the result the repo exists to
//!    reproduce.
//! 3. **Loss sweep** (`--loss-sweep`): served throughput and connection
//!    outcomes per listen kind across drop rates 0..10%; the source of
//!    EXPERIMENTS.md's fault-tolerance table. Off by default.
//!
//! Writes `results/chaos.json` and exits nonzero on any failure.
//!
//! Usage: `chaos [--cases N] [--seed S] [--smoke] [--loss-sweep] [--out PATH]`

use app::{ListenKind, RunConfig, RunResult, Runner, ServerKind, Workload};
use bench::quick_config;
use metrics::json::Json;
use sim::fault::{FaultPlan, RetransPolicy, StallWindow};
use sim::overload::{HotplugEvent, OverloadConfig, ReapPolicy, WatchdogPolicy};
use sim::rng::SimRng;
use sim::time::{ms, us};
use sim::topology::Machine;

fn main() {
    let opts = Opts::parse();
    bench::header("chaos", "fault-injection fuzzing + differential checks");
    println!(
        "fuzz cases: {}   base seed: {}   loss sweep: {}",
        opts.cases,
        opts.seed,
        if opts.loss_sweep { "on" } else { "off" }
    );

    let fuzz = fuzz_pass(&opts);
    let ordering = ordering_pass(&opts);
    let sweep = opts.loss_sweep.then(loss_sweep);

    let ok = fuzz.failures.is_empty() && ordering.ok;
    let mut report = Json::obj()
        .field("cases", opts.cases)
        .field("base_seed", opts.seed)
        .field("fuzz", fuzz.to_json())
        .field("ordering", ordering.to_json());
    if let Some(sweep) = &sweep {
        report = report.field("loss_sweep", sweep.clone());
    }
    let report = report.field("ok", ok);
    bench::write_artifact(&opts.out, &report);

    if ok {
        println!(
            "chaos: OK ({} fuzz cases replayed, ordering holds under loss)",
            opts.cases
        );
    } else {
        println!(
            "chaos: FAILED ({} fuzz failures, ordering ok: {})",
            fuzz.failures.len(),
            ordering.ok
        );
        std::process::exit(1);
    }
}

struct Opts {
    cases: usize,
    seed: u64,
    out: String,
    loss_sweep: bool,
}

impl Opts {
    fn parse() -> Self {
        let mut args = bench::Args::parse(
            "chaos [--cases N] [--seed S] [--smoke] [--loss-sweep] [--out PATH]",
        );
        let smoke = args.flag("--smoke");
        let opts = Opts {
            cases: args
                .parsed("--cases")
                .unwrap_or(if smoke { 12 } else { 48 }),
            seed: args.parsed("--seed").unwrap_or(0xC4A05),
            out: args
                .value("--out")
                .unwrap_or_else(|| "results/chaos.json".to_string()),
            loss_sweep: args.flag("--loss-sweep"),
        };
        args.done();
        opts
    }
}

fn label(cfg: &RunConfig) -> String {
    let p = &cfg.fault;
    let o = &cfg.overload;
    format!(
        "{} {} {} cores={} rate={:.0} seed={} | drop={} dup={} reorder={} mask={:#x} syn_of={} retrans={} stalls={} | cookies={} reap={} wd={} hotplug={}",
        cfg.machine.name,
        cfg.listen.label(),
        cfg.server.label(),
        cfg.cores,
        cfg.conn_rate,
        cfg.seed,
        p.drop_p,
        p.dup_p,
        p.reorder_p,
        p.ring_mask,
        p.syn_overflow_drop,
        p.retrans.is_some(),
        p.stalls.len(),
        o.syn_cookies,
        o.reap.is_some(),
        o.watchdog.is_some(),
        cfg.hotplug.len()
    )
}

// ------------------------------------------------------------------ fuzz

/// Draws one randomized fault plan. Probabilities come from bounded
/// discrete sets: duplication and reordering compound (a duplicate can be
/// duplicated again), so rates near 1.0 would melt the event queue
/// without testing anything new; stall windows stay well inside the
/// audit's busy-overhang allowance.
fn random_plan(rng: &mut SimRng, cores: usize) -> FaultPlan {
    let mut p = FaultPlan::none();
    if rng.chance(0.2) {
        // Every fifth case runs the disabled plan, so the neutral path
        // (no extra events, no RNG draws) stays fuzzed too.
        return p;
    }
    p.drop_p = [0.0, 0.0, 0.01, 0.02, 0.05, 0.1][rng.index(6)];
    p.dup_p = [0.0, 0.0, 0.01, 0.05, 0.15][rng.index(5)];
    p.reorder_p = [0.0, 0.0, 0.05, 0.2, 0.4][rng.index(5)];
    p.reorder_delay = [us(5), us(50), ms(1)][rng.index(3)];
    if rng.chance(0.15) {
        // Restrict packet faults to a random subset of rings; bit 0 is
        // forced so at least one ring can fault.
        p.ring_mask = rng.next_u64() | 1;
    }
    p.syn_overflow_drop = rng.chance(0.4);
    if rng.chance(0.7) {
        p.retrans = Some(RetransPolicy {
            rto: [ms(20), ms(50)][rng.index(2)],
            max_attempts: rng.range(2, 6) as u32,
        });
    }
    for _ in 0..rng.below(3) {
        p.stalls.push(StallWindow {
            core: rng.below(cores as u64) as u16,
            at: ms(10) + rng.below(ms(250)),
            dur: us(rng.range(50, 2_000)),
        });
    }
    p
}

/// Draws one randomized overload plane. Disabled ~40% of the time so the
/// neutral path (no cookie checks, no reap timers, no watchdog events)
/// stays fuzzed against the fingerprint-neutrality guarantee.
fn random_overload(rng: &mut SimRng) -> OverloadConfig {
    let mut o = OverloadConfig::none();
    if rng.chance(0.4) {
        return o;
    }
    o.syn_cookies = rng.chance(0.6);
    if rng.chance(0.5) {
        o.reap = Some(ReapPolicy {
            ttl: [ms(5), ms(20), ms(50)][rng.index(3)],
            synack_retries: rng.range(0, 3) as u32,
        });
    }
    if rng.chance(0.4) {
        o.watchdog = Some(WatchdogPolicy {
            interval: [ms(5), ms(10)][rng.index(2)],
            dead_after: [ms(20), ms(50)][rng.index(2)],
        });
    }
    if rng.chance(0.3) {
        o.half_open_cap = Some(rng.range(8, 256) as usize);
    }
    o
}

/// Draws a random hotplug schedule: ~30% of multi-core cases get one or
/// two core deaths, most followed by a revival, all inside the run
/// window so both transitions actually dispatch.
fn random_hotplug(rng: &mut SimRng, cores: usize) -> Vec<HotplugEvent> {
    let mut h = Vec::new();
    if cores < 2 || !rng.chance(0.3) {
        return h;
    }
    for _ in 0..rng.range(1, 2) {
        let core = rng.below(cores as u64) as u16;
        let down_at = ms(10) + rng.below(ms(200));
        h.push(HotplugEvent {
            core,
            at: down_at,
            up: false,
        });
        if rng.chance(0.7) {
            h.push(HotplugEvent {
                core,
                at: down_at + ms(rng.range(10, 120)),
                up: true,
            });
        }
    }
    h
}

/// Draws one randomized configuration across all five listen kinds, then
/// attaches a random fault plan, overload plane, and hotplug schedule.
fn random_case(rng: &mut SimRng) -> RunConfig {
    let machine = if rng.chance(0.5) {
        Machine::amd48()
    } else {
        Machine::intel80()
    };
    let listen = ListenKind::ALL[rng.index(ListenKind::ALL.len())];
    let server = if rng.chance(0.5) {
        ServerKind::apache()
    } else {
        ServerKind::lighttpd()
    };
    let cores = [1usize, 2, 4, 8][rng.index(4)];
    let rate_per_core = [500.0, 2_000.0, 8_000.0][rng.index(3)];
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
    cfg.steal_enabled = rng.chance(0.8);
    cfg.migrate_enabled = rng.chance(0.8);
    cfg.fault = random_plan(rng, cores);
    cfg.overload = random_overload(rng);
    cfg.hotplug = random_hotplug(rng, cores);
    cfg
}

/// Runs one `(config, plan)` case twice; returns every problem found:
/// audit violations on the first run, replay divergences between the two,
/// or a panic message if the runner blew up.
fn problems_of(cfg: &RunConfig) -> Vec<String> {
    let c1 = cfg.clone();
    let c2 = cfg.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let a = Runner::new(c1).run();
        let b = Runner::new(c2).run();
        let mut problems: Vec<String> = a
            .audit
            .violations()
            .into_iter()
            .map(|v| format!("audit: {v}"))
            .collect();
        if let Some(why) = diverges(&a, &b) {
            problems.push(format!("replay: {why}"));
        }
        problems
    }));
    match outcome {
        Ok(problems) => problems,
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
        ("conns_completed", a.conns_completed, b.conns_completed),
        ("fault.dropped", a.fault.dropped, b.fault.dropped),
        ("fault.duplicated", a.fault.duplicated, b.fault.duplicated),
        ("fault.reordered", a.fault.reordered, b.fault.reordered),
        (
            "fault.syn_backlog_drops",
            a.fault.syn_backlog_drops,
            b.fault.syn_backlog_drops,
        ),
        (
            "fault.retrans_sent",
            a.fault.retrans_sent,
            b.fault.retrans_sent,
        ),
        (
            "fault.retry_capped",
            a.fault.retry_capped,
            b.fault.retry_capped,
        ),
        ("fault.stalls_run", a.fault.stalls_run, b.fault.stalls_run),
        (
            "overload.cookies_issued",
            a.overload.cookies_issued,
            b.overload.cookies_issued,
        ),
        (
            "overload.cookies_validated",
            a.overload.cookies_validated,
            b.overload.cookies_validated,
        ),
        ("overload.reaped", a.overload.reaped, b.overload.reaped),
        (
            "overload.synack_retrans",
            a.overload.synack_retrans,
            b.overload.synack_retrans,
        ),
        (
            "overload.rehome_ops",
            a.overload.rehome_ops,
            b.overload.rehome_ops,
        ),
        (
            "overload.core_downs",
            a.overload.core_downs,
            b.overload.core_downs,
        ),
        ("overload.shed_on", a.overload.shed_on, b.overload.shed_on),
        (
            "overload.watchdog_marks",
            a.overload.watchdog_marks,
            b.overload.watchdog_marks,
        ),
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

fn fuzz_pass(opts: &Opts) -> FuzzReport {
    println!(
        "\n[1/2] fuzz: {} randomized (config, plan) cases x 2 runs, audits enforced",
        opts.cases
    );
    let mut rng = SimRng::new(opts.seed ^ 0xC4A0_5C4A_05C4_A05C);
    let configs: Vec<RunConfig> = (0..opts.cases).map(|_| random_case(&mut rng)).collect();
    let jobs = configs.clone();
    let results = bench::par_map(jobs, bench::default_workers(), |cfg| problems_of(&cfg));
    let mut failures = Vec::new();
    for (cfg, problems) in configs.iter().zip(results) {
        if problems.is_empty() {
            continue;
        }
        println!("  CHAOS FAILURE [{}]:", label(cfg));
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
    println!("  {} cases, {} failures", opts.cases, failures.len());
    FuzzReport {
        cases: opts.cases,
        failures,
    }
}

/// Greedy shrink over config *and* plan knobs: repeatedly tries
/// simplifying one knob and keeps any change that still fails, until a
/// fixpoint.
fn shrink(mut cfg: RunConfig) -> RunConfig {
    let still_fails = |c: &RunConfig| !problems_of(c).is_empty();
    if !still_fails(&cfg) {
        // Flaky under replay — itself a determinism bug; report as-is.
        return cfg;
    }
    loop {
        let mut candidates: Vec<RunConfig> = Vec::new();
        // Plan knobs first: a repro with fewer active faults localizes
        // the broken interaction fastest.
        for zero in [
            |p: &mut FaultPlan| p.drop_p = 0.0,
            |p: &mut FaultPlan| p.dup_p = 0.0,
            |p: &mut FaultPlan| p.reorder_p = 0.0,
            |p: &mut FaultPlan| p.syn_overflow_drop = false,
            |p: &mut FaultPlan| p.retrans = None,
            |p: &mut FaultPlan| p.stalls.clear(),
            |p: &mut FaultPlan| p.ring_mask = u64::MAX,
        ] {
            let mut c = cfg.clone();
            zero(&mut c.fault);
            if c.fault != cfg.fault {
                candidates.push(c);
            }
        }
        // Individual stall windows: drop each one in turn, and halve the
        // duration of any still-long window, so the surviving repro pins
        // the exact window (and length) that matters.
        for i in 0..cfg.fault.stalls.len() {
            let mut c = cfg.clone();
            c.fault.stalls.remove(i);
            candidates.push(c);
        }
        for (i, w) in cfg.fault.stalls.iter().enumerate() {
            if w.dur > us(100) {
                let mut c = cfg.clone();
                c.fault.stalls[i].dur = w.dur / 2;
                candidates.push(c);
            }
        }
        // Overload-plane knobs, most drastic first.
        for simplify in [
            |o: &mut OverloadConfig| *o = OverloadConfig::none(),
            |o: &mut OverloadConfig| o.syn_cookies = false,
            |o: &mut OverloadConfig| o.reap = None,
            |o: &mut OverloadConfig| o.watchdog = None,
            |o: &mut OverloadConfig| o.half_open_cap = None,
        ] {
            let mut c = cfg.clone();
            simplify(&mut c.overload);
            if c.overload != cfg.overload {
                candidates.push(c);
            }
        }
        // Hotplug schedule: clear it, then drop one event at a time.
        if !cfg.hotplug.is_empty() {
            let mut c = cfg.clone();
            c.hotplug.clear();
            candidates.push(c);
            for i in 0..cfg.hotplug.len() {
                let mut c = cfg.clone();
                c.hotplug.remove(i);
                candidates.push(c);
            }
        }
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
        let Some(next) = candidates.into_iter().find(|c| still_fails(c)) else {
            return cfg;
        };
        cfg = next;
    }
}

/// Formats a minimal failing case as a ready-to-paste regression test.
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
    let p = &cfg.fault;
    let mut plan = String::new();
    if p.drop_p > 0.0 {
        plan.push_str(&format!("    cfg.fault.drop_p = {:?};\n", p.drop_p));
    }
    if p.dup_p > 0.0 {
        plan.push_str(&format!("    cfg.fault.dup_p = {:?};\n", p.dup_p));
    }
    if p.reorder_p > 0.0 {
        plan.push_str(&format!(
            "    cfg.fault.reorder_p = {:?};\n    cfg.fault.reorder_delay = {};\n",
            p.reorder_p, p.reorder_delay
        ));
    }
    if p.ring_mask != u64::MAX {
        plan.push_str(&format!("    cfg.fault.ring_mask = {:#x};\n", p.ring_mask));
    }
    if p.syn_overflow_drop {
        plan.push_str("    cfg.fault.syn_overflow_drop = true;\n");
    }
    if let Some(rp) = p.retrans {
        plan.push_str(&format!(
            "    cfg.fault.retrans = Some(RetransPolicy {{ rto: {}, max_attempts: {} }});\n",
            rp.rto, rp.max_attempts
        ));
    }
    for w in &p.stalls {
        plan.push_str(&format!(
            "    cfg.fault.stalls.push(StallWindow {{ core: {}, at: {}, dur: {} }});\n",
            w.core, w.at, w.dur
        ));
    }
    let o = &cfg.overload;
    if o.syn_cookies {
        plan.push_str("    cfg.overload.syn_cookies = true;\n");
    }
    if let Some(rp) = o.reap {
        plan.push_str(&format!(
            "    cfg.overload.reap = Some(ReapPolicy {{ ttl: {}, synack_retries: {} }});\n",
            rp.ttl, rp.synack_retries
        ));
    }
    if let Some(w) = o.watchdog {
        plan.push_str(&format!(
            "    cfg.overload.watchdog = Some(WatchdogPolicy {{ interval: {}, dead_after: {} }});\n",
            w.interval, w.dead_after
        ));
    }
    if let Some(cap) = o.half_open_cap {
        plan.push_str(&format!("    cfg.overload.half_open_cap = Some({cap});\n"));
    }
    for h in &cfg.hotplug {
        plan.push_str(&format!(
            "    cfg.hotplug.push(HotplugEvent {{ core: {}, at: {}, up: {} }});\n",
            h.core, h.at, h.up
        ));
    }
    let mut knobs = String::new();
    if !cfg.steal_enabled {
        knobs.push_str("    cfg.steal_enabled = false;\n");
    }
    if !cfg.migrate_enabled {
        knobs.push_str("    cfg.migrate_enabled = false;\n");
    }
    format!(
        "\
#[test]
fn chaos_repro() {{
    // chaos found: {}
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
{knobs}{plan}    let a = Runner::new(cfg.clone()).run();
    let b = Runner::new(cfg).run();
    assert!(a.audit.is_ok(), \"{{:?}}\", a.audit.violations());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.audit, b.audit);
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

// -------------------------------------------------------------- ordering

/// Slack on the `Affinity >= Fine >= Stock` ranking: faults add noise, so
/// a ranking only counts as inverted when the lower kind wins by more
/// than this factor.
const ORDER_SLACK: f64 = 0.97;

struct OrderingReport {
    served: Vec<(String, u64)>,
    ok: bool,
    problems: Vec<String>,
}

impl OrderingReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "served",
                Json::Obj(
                    self.served
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            )
            .field(
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            )
            .field("ok", self.ok)
    }
}

/// The moderate-loss plan the differential passes use: 2% drops, SYN
/// drops at a full backlog, Linux-flavoured client retransmission.
fn lossy_plan() -> FaultPlan {
    let mut p = FaultPlan::none();
    p.drop_p = 0.02;
    p.syn_overflow_drop = true;
    p.retrans = Some(RetransPolicy::default_policy());
    p
}

fn ordering_pass(opts: &Opts) -> OrderingReport {
    println!("\n[2/2] ordering: Affinity >= Fine >= Stock at saturation, 2% loss");
    // 24 cores: past the point where stock's accept lock dominates
    // (160k/24 ~ 6.7k/core vs fine's 8.7k and affinity's 9.8k), offered
    // load above everyone's capacity so served == capacity.
    let cores = 24;
    let configs: Vec<RunConfig> = bench::IMPLS
        .iter()
        .map(|&listen| {
            let mut cfg = quick_config(
                Machine::amd48(),
                cores,
                listen,
                ServerKind::apache(),
                12_000.0 * cores as f64,
                opts.seed,
            );
            cfg.fault = lossy_plan();
            cfg
        })
        .collect();
    let results = bench::sweep_fixed_workers(configs.clone(), bench::default_workers());
    let served: Vec<(String, u64)> = configs
        .iter()
        .zip(&results)
        .map(|(cfg, r)| (cfg.listen.label().to_string(), r.served))
        .collect();
    let mut problems = Vec::new();
    for (cfg, r) in configs.iter().zip(&results) {
        for v in r.audit.violations() {
            problems.push(format!("[{}] audit: {v}", label(cfg)));
        }
    }
    let get = |kind: ListenKind| {
        results[bench::IMPLS
            .iter()
            .position(|&k| k == kind)
            .expect("in IMPLS")]
        .served as f64
    };
    let (stock, fine, affinity) = (
        get(ListenKind::Stock),
        get(ListenKind::Fine),
        get(ListenKind::Affinity),
    );
    if affinity < fine * ORDER_SLACK {
        problems.push(format!(
            "ordering inverted under loss: affinity served {affinity} < fine {fine}"
        ));
    }
    if fine < stock * ORDER_SLACK {
        problems.push(format!(
            "ordering inverted under loss: fine served {fine} < stock {stock}"
        ));
    }
    for (k, s) in &served {
        println!("  {k:>8}: served {s}");
    }
    for p in &problems {
        println!("  ORDERING {p}");
    }
    let ok = problems.is_empty();
    println!(
        "  ordering under 2% loss: {}",
        if ok { "holds" } else { "VIOLATED" }
    );
    OrderingReport {
        served,
        ok,
        problems,
    }
}

// ------------------------------------------------------------ loss sweep

/// Drop rates the sweep walks (EXPERIMENTS.md "Fault tolerance").
const LOSS_RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.1];

fn loss_sweep() -> Json {
    println!("\n[extra] loss sweep: drop rates {LOSS_RATES:?} x all listen kinds");
    // Sustainable load so the table shows what loss costs, not what
    // overload costs: 1.5k conns/s/core x 2 requests = 3k rps/core,
    // under every kind's capacity. Short connections (no think time) and
    // a client timeout shorter than the run let most connections reach a
    // terminal state inside the measurement, making the completion and
    // timeout columns meaningful.
    let cores = 8;
    let mut configs = Vec::new();
    for &drop_p in &LOSS_RATES {
        for &listen in &ListenKind::ALL {
            let mut cfg = quick_config(
                Machine::amd48(),
                cores,
                listen,
                ServerKind::apache(),
                1_500.0 * cores as f64,
                7,
            );
            cfg.workload = Workload::with_requests_per_conn(2);
            cfg.workload.timeout = ms(120);
            cfg.fault = lossy_plan();
            cfg.fault.drop_p = drop_p;
            configs.push(cfg);
        }
    }
    let results = bench::sweep_fixed_workers(configs.clone(), bench::default_workers());
    let mut t = metrics::table::Table::new(&[
        "drop_p",
        "kind",
        "served",
        "completed%",
        "timeout",
        "retry_cap",
        "retrans",
    ]);
    let mut rows = Vec::new();
    for (cfg, r) in configs.iter().zip(&results) {
        let c = &r.audit.client;
        let done_pct = 100.0 * c.completed as f64 / c.started.max(1) as f64;
        t.row_owned(vec![
            format!("{:.2}", cfg.fault.drop_p),
            cfg.listen.label().to_string(),
            r.served.to_string(),
            format!("{done_pct:.1}"),
            c.timed_out.to_string(),
            c.retry_capped.to_string(),
            r.fault.retrans_sent.to_string(),
        ]);
        for v in r.audit.violations() {
            println!("  LOSS-SWEEP AUDIT [{}]: {v}", label(cfg));
        }
        rows.push(
            Json::obj()
                .field("drop_p", cfg.fault.drop_p)
                .field("kind", cfg.listen.label())
                .field("served", r.served)
                .field("completed", c.completed)
                .field("timed_out", c.timed_out)
                .field("retry_capped", c.retry_capped)
                .field("retrans_sent", r.fault.retrans_sent),
        );
    }
    print!("{}", t.render());
    Json::Arr(rows)
}
