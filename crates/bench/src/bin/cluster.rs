//! `cluster` — the cluster fault-domain resilience harness.
//!
//! Three scenarios, each a table in EXPERIMENTS.md ("Cluster
//! resilience") and a gate this binary enforces:
//!
//! 1. **Kill one of 8 hosts**: under every LB policy the cluster runs
//!    once cleanly and once with host 7 crashing a quarter into the
//!    measurement window. Gates: cluster goodput retained ≥ 85%
//!    (7/8 capacity minus slack), the LB evicts the corpse within the
//!    health-check detection bound, stranded connections recover
//!    through the cross-host retry path, the cluster conservation
//!    audit stays clean, and a replay is bit-identical.
//! 2. **Rolling restart**: all 8 hosts drain, restart, and re-admit
//!    through slow-start in a staggered wave. Gates: every host
//!    restarts exactly once, every drain quiesces (zero stranded
//!    connections), zero dead-owner timeouts, audits clean.
//! 3. **Flash crowd during restart**: a 4-host cluster takes a 2.5×
//!    arrival surge while a rolling restart is in flight, once with
//!    stock listen sockets and once with Affinity-Accept. Gate: the
//!    affinity kind does not collapse below stock.
//!
//! Writes `results/cluster.json` (schema `cluster-v1`) and exits
//! nonzero on any gate failure.
//!
//! Usage: `cluster [--smoke] [--out PATH]`

use app::{
    ClusterConfig, ClusterResult, ClusterRunner, FlashCrowd, LbPolicy, ListenKind, RunConfig,
    ServerKind, Workload,
};
use metrics::json::Json;
use sim::fabric::{rolling_restart, HostEvent, HostEventKind};
use sim::time::{ms, Cycles};
use sim::topology::Machine;

/// Cluster goodput the kill scenario must retain: one of eight hosts is
/// 12.5% of capacity; 2.5% slack covers the eviction window.
const GOODPUT_GATE: f64 = 0.85;
/// Bound on the timeline-measured time-to-recover after the crash.
const TTR_BOUND: Cycles = ms(120);
/// Served-timeline bucket width.
const BUCKET: Cycles = ms(10);
/// Flash-crowd arrival multiplier.
const FLASH_MULTIPLIER: f64 = 2.5;
/// Affinity-vs-stock floor under the flash crowd.
const FLASH_FLOOR: f64 = 0.9;

fn main() {
    let opts = Opts::parse();
    bench::header("cluster", "multi-host fault-domain resilience gates");
    let kill = kill_pass(&opts);
    let rolling = rolling_pass(&opts);
    let flash = flash_pass(&opts);
    let ok = kill.ok && rolling.ok && flash.ok;

    let report = Json::obj()
        .field("schema", "cluster-v1")
        .field("smoke", opts.smoke)
        .field("kill", kill.json)
        .field("rolling", rolling.json)
        .field("flash", flash.json)
        .field("ok", ok);
    bench::write_artifact(&opts.out, &report);

    if ok {
        println!("cluster: OK (kill-one-host, rolling-restart, and flash-crowd gates hold)");
    } else {
        println!(
            "cluster: FAILED (kill ok: {}, rolling ok: {}, flash ok: {})",
            kill.ok, rolling.ok, flash.ok
        );
        std::process::exit(1);
    }
}

struct Opts {
    smoke: bool,
    out: String,
}

impl Opts {
    fn parse() -> Self {
        let mut args = bench::Args::parse("cluster [--smoke] [--out PATH]");
        let opts = Opts {
            smoke: args.flag("--smoke"),
            out: args
                .value("--out")
                .unwrap_or_else(|| "results/cluster.json".to_string()),
        };
        args.finish();
        opts
    }
}

struct PassReport {
    ok: bool,
    json: Json,
}

/// Short-session workload for the cluster scenarios: connections
/// complete in a few milliseconds, so drains quiesce inside their
/// deadline and stranded-connection recovery is observable inside the
/// window. The single-host figures keep the paper's 100 ms-think
/// workload; this harness measures the fault-domain plane, not SpecWeb.
fn cluster_workload() -> Workload {
    Workload {
        batches: vec![1, 2],
        think: ms(2),
        ..Workload::base()
    }
}

/// Per-host template: `cores` cores at 60% of the listen kind's
/// saturating rate guess, so the surviving hosts have headroom to
/// absorb a dead peer's share.
fn host_template(cores: usize, listen: ListenKind, warmup: Cycles, measure: Cycles) -> RunConfig {
    let rate = 0.6 * bench::rate_guess(listen, ServerKind::apache(), cores);
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        cores,
        listen,
        ServerKind::apache(),
        cluster_workload(),
        rate,
    );
    cfg.warmup = warmup;
    cfg.measure = measure;
    cfg.tracked_files = 200;
    cfg.timeline_bucket = BUCKET;
    cfg.seed = 17;
    cfg
}

fn violations_of(name: &str, r: &ClusterResult, problems: &mut Vec<String>) {
    for v in r.audit.violations() {
        problems.push(format!("{name} audit: {v}"));
    }
}

// ---------------------------------------------------------------- kill

fn kill_pass(opts: &Opts) -> PassReport {
    let hosts = 8;
    let (warmup, measure) = if opts.smoke {
        (ms(100), ms(240))
    } else {
        (ms(150), ms(400))
    };
    let kill_host = (hosts - 1) as u16;
    let kill_at = warmup + measure / 4;
    println!(
        "\n[1/3] kill one of {hosts} hosts: host {kill_host} crashes at {} ms",
        kill_at / ms(1)
    );

    // Per policy: baseline, kill, kill replayed — the last is the
    // determinism gate.
    let mut configs = Vec::new();
    for &policy in &LbPolicy::ALL {
        let base = host_template(2, ListenKind::Affinity, warmup, measure);
        let mut cfg = ClusterConfig::new(hosts, base);
        cfg.lb = policy;
        let mut kill = cfg.clone();
        kill.host_events = vec![HostEvent {
            host: kill_host,
            at: kill_at,
            kind: HostEventKind::Crash,
        }];
        configs.push(cfg);
        configs.push(kill.clone());
        configs.push(kill);
    }
    let results = bench::par_map(configs, bench::default_workers(), |cfg| {
        ClusterRunner::new(cfg).run()
    });

    let detection_bound =
        ClusterConfig::new(1, host_template(2, ListenKind::Affinity, warmup, measure))
            .health
            .detection_bound();
    let mut t = metrics::table::Table::new(&[
        "policy",
        "baseline",
        "killed",
        "retained%",
        "evict_ms",
        "ttr_ms",
        "stranded",
        "recovered",
        "amp",
        "gate",
    ]);
    let mut rows = Vec::new();
    let mut ok = true;
    for (i, &policy) in LbPolicy::ALL.iter().enumerate() {
        let baseline = &results[3 * i];
        let kill = &results[3 * i + 1];
        let replay = &results[3 * i + 2];
        let mut problems = Vec::new();
        violations_of("baseline", baseline, &mut problems);
        violations_of("kill", kill, &mut problems);
        let goodput = kill.served as f64 / (baseline.served as f64).max(1.0);
        if goodput < GOODPUT_GATE {
            problems.push(format!(
                "goodput retained {goodput:.3} < {GOODPUT_GATE} after killing one of {hosts} hosts"
            ));
        }
        let evict_ms = match kill.evictions.as_slice() {
            [(h, delay)] => {
                if *h != kill_host {
                    problems.push(format!("evicted host {h}, expected {kill_host}"));
                }
                if *delay > detection_bound {
                    problems.push(format!(
                        "time-to-evict {} ms exceeds the {} ms detection bound",
                        delay / ms(1),
                        detection_bound / ms(1)
                    ));
                }
                Some(delay / ms(1))
            }
            other => {
                problems.push(format!(
                    "expected exactly one eviction, saw {}",
                    other.len()
                ));
                None
            }
        };
        if kill.stranded == 0 {
            problems.push("the crash stranded nothing — scenario is vacuous".to_string());
        }
        if kill.recovered == 0 {
            problems.push("no stranded connection recovered via cross-host retry".to_string());
        }
        let (recovered_in_time, ttr) = time_to_recover(kill, warmup, kill_at, warmup + measure);
        if !recovered_in_time {
            problems.push("cluster goodput never returned to 85% of pre-kill".to_string());
        } else if ttr > TTR_BOUND {
            problems.push(format!(
                "time-to-recover {} ms exceeds the {} ms bound",
                ttr / ms(1),
                TTR_BOUND / ms(1)
            ));
        }
        let replay_identical = kill.fingerprint == replay.fingerprint
            && kill.stats == replay.stats
            && kill.served == replay.served;
        if !replay_identical {
            problems.push("replay diverged: cluster run is not deterministic".to_string());
        }
        t.row_owned(vec![
            policy.label().to_string(),
            baseline.served.to_string(),
            kill.served.to_string(),
            format!("{:.1}", 100.0 * goodput),
            evict_ms.map_or_else(|| "-".to_string(), |v| v.to_string()),
            if recovered_in_time {
                (ttr / ms(1)).to_string()
            } else {
                "never".to_string()
            },
            kill.stranded.to_string(),
            kill.recovered.to_string(),
            format!("{:.2}", kill.retry_amplification),
            if problems.is_empty() { "ok" } else { "FAIL" }.to_string(),
        ]);
        for p in &problems {
            println!("  KILL [{:>10}] {p}", policy.label());
        }
        ok &= problems.is_empty();
        rows.push(
            Json::obj()
                .field("policy", policy.label())
                .field("baseline_served", baseline.served)
                .field("kill_served", kill.served)
                .field("goodput_retained", goodput)
                .field("time_to_evict_ms", evict_ms.map_or(Json::Null, Json::U64))
                .field("recovered_in_time", recovered_in_time)
                .field(
                    "time_to_recover_ms",
                    if recovered_in_time {
                        Json::U64(ttr / ms(1))
                    } else {
                        Json::Null
                    },
                )
                .field("stranded", kill.stranded)
                .field("recovered", kill.recovered)
                .field("misroutes", kill.stats.misroutes)
                .field("retries_scheduled", kill.stats.retries_scheduled)
                .field("retry_amplification", kill.retry_amplification)
                .field("replay_identical", replay_identical)
                .field(
                    "timeline",
                    Json::Arr(kill.timeline.iter().map(|&v| Json::U64(v)).collect()),
                )
                .field(
                    "problems",
                    Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
                )
                .field("ok", problems.is_empty()),
        );
    }
    print!("{}", t.render());
    println!(
        "  kill-one-host gates: {}",
        if ok { "hold" } else { "VIOLATED" }
    );

    let json = Json::obj()
        .field("hosts", hosts as u64)
        .field("kill_host", u64::from(kill_host))
        .field("kill_at_ms", kill_at / ms(1))
        .field("bucket_ms", BUCKET / ms(1))
        .field("detection_bound_ms", detection_bound / ms(1))
        .field("policies", Json::Arr(rows))
        .field("ok", ok);
    PassReport { ok, json }
}

/// Reads the recovery time off the cluster's summed timeline: the first
/// post-crash bucket whose served count returns to ≥ 85% of the
/// pre-crash per-bucket average (the 7/8-capacity steady state clears
/// that), measured from the crash to that bucket's end.
fn time_to_recover(
    r: &ClusterResult,
    warmup: Cycles,
    kill_at: Cycles,
    end_at: Cycles,
) -> (bool, Cycles) {
    let b = |t: Cycles| (t / BUCKET) as usize;
    let bucket = |i: usize| r.timeline.get(i).copied().unwrap_or(0);
    let (pre_lo, pre_hi) = (b(warmup) + 1, b(kill_at));
    if pre_hi <= pre_lo {
        return (false, 0);
    }
    let pre: u64 = (pre_lo..pre_hi).map(bucket).sum();
    let pre_rate = pre as f64 / (pre_hi - pre_lo) as f64;
    let threshold = GOODPUT_GATE * pre_rate;
    for i in b(kill_at) + 1..b(end_at) {
        if bucket(i) as f64 >= threshold {
            let recovered_at = (i as u64 + 1) * BUCKET;
            return (true, recovered_at.saturating_sub(kill_at));
        }
    }
    (false, 0)
}

// ------------------------------------------------------------- rolling

fn rolling_pass(opts: &Opts) -> PassReport {
    let hosts = 8u16;
    let (warmup, measure, stagger) = if opts.smoke {
        (ms(100), ms(240), ms(25))
    } else {
        (ms(150), ms(400), ms(40))
    };
    let drain_timeout = ms(30);
    let downtime = ms(2);
    println!(
        "\n[2/3] rolling restart: {hosts} hosts, {} ms stagger, {} ms drain deadline",
        stagger / ms(1),
        drain_timeout / ms(1)
    );

    let mut configs = Vec::new();
    for &policy in &LbPolicy::ALL {
        let base = host_template(2, ListenKind::Affinity, warmup, measure);
        let mut cfg = ClusterConfig::new(usize::from(hosts), base);
        cfg.lb = policy;
        cfg.drain_timeout = drain_timeout;
        cfg.host_events = rolling_restart(hosts, warmup, stagger, drain_timeout, downtime);
        configs.push(cfg);
    }
    let results = bench::par_map(configs, bench::default_workers(), |cfg| {
        ClusterRunner::new(cfg).run()
    });

    let mut t = metrics::table::Table::new(&[
        "policy",
        "served",
        "restarts",
        "drained",
        "forced",
        "stranded",
        "dead_owner",
        "gate",
    ]);
    let mut rows = Vec::new();
    let mut ok = true;
    for (policy, r) in LbPolicy::ALL.iter().zip(&results) {
        let mut problems = Vec::new();
        violations_of("rolling", r, &mut problems);
        if r.stats.restarts != u64::from(hosts) {
            problems.push(format!("{} of {hosts} hosts restarted", r.stats.restarts));
        }
        if r.stats.drain_done != u64::from(hosts) {
            problems.push(format!(
                "{} of {hosts} drains completed",
                r.stats.drain_done
            ));
        }
        if r.stranded > 0 {
            problems.push(format!(
                "rolling restart stranded {} connections (drains should quiesce)",
                r.stranded
            ));
        }
        if r.timeouts_dead_owner > 0 {
            problems.push(format!(
                "{} dead-owner timeouts during rolling restart",
                r.timeouts_dead_owner
            ));
        }
        if r.stats.crashes > 0 {
            problems.push("a drain turned into a crash".to_string());
        }
        if let Some(h) = r.per_host.iter().position(|h| h.instances != 2) {
            problems.push(format!(
                "host {h} ran {} instances, expected 2",
                r.per_host[h].instances
            ));
        }
        if r.served == 0 {
            problems.push("cluster served nothing through the wave".to_string());
        }
        t.row_owned(vec![
            policy.label().to_string(),
            r.served.to_string(),
            r.stats.restarts.to_string(),
            r.stats.drain_done.to_string(),
            r.stats.drain_forced.to_string(),
            r.stranded.to_string(),
            r.timeouts_dead_owner.to_string(),
            if problems.is_empty() { "ok" } else { "FAIL" }.to_string(),
        ]);
        for p in &problems {
            println!("  ROLL [{:>10}] {p}", policy.label());
        }
        ok &= problems.is_empty();
        rows.push(
            Json::obj()
                .field("policy", policy.label())
                .field("served", r.served)
                .field("restarts", r.stats.restarts)
                .field("drains", r.stats.drains)
                .field("drain_done", r.stats.drain_done)
                .field("drain_forced", r.stats.drain_forced)
                .field("stranded", r.stranded)
                .field("timeouts_dead_owner", r.timeouts_dead_owner)
                .field("retry_amplification", r.retry_amplification)
                .field(
                    "problems",
                    Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
                )
                .field("ok", problems.is_empty()),
        );
    }
    print!("{}", t.render());
    println!(
        "  rolling-restart gates: {}",
        if ok { "hold" } else { "VIOLATED" }
    );

    let json = Json::obj()
        .field("hosts", u64::from(hosts))
        .field("stagger_ms", stagger / ms(1))
        .field("drain_timeout_ms", drain_timeout / ms(1))
        .field("policies", Json::Arr(rows))
        .field("ok", ok);
    PassReport { ok, json }
}

// --------------------------------------------------------------- flash

fn flash_pass(opts: &Opts) -> PassReport {
    let hosts = 4u16;
    let (warmup, measure, stagger) = if opts.smoke {
        (ms(100), ms(200), ms(30))
    } else {
        (ms(150), ms(300), ms(45))
    };
    let drain_timeout = ms(30);
    println!(
        "\n[3/3] flash crowd during restart: {FLASH_MULTIPLIER}x surge over a {hosts}-host wave"
    );

    let kinds = [ListenKind::Stock, ListenKind::Affinity];
    let mut configs = Vec::new();
    for &listen in &kinds {
        // Both kinds take the same offered rate (the affinity template's)
        // so the gate compares goodput at equal load, not rate guesses.
        let mut base = host_template(2, ListenKind::Affinity, warmup, measure);
        base.listen = listen;
        let mut cfg = ClusterConfig::new(usize::from(hosts), base);
        cfg.lb = LbPolicy::AffinityAware;
        cfg.drain_timeout = drain_timeout;
        cfg.host_events = rolling_restart(hosts, warmup, stagger, drain_timeout, ms(2));
        cfg.flash = Some(FlashCrowd {
            at: warmup + stagger,
            until: warmup + measure * 3 / 4,
            multiplier: FLASH_MULTIPLIER,
        });
        configs.push(cfg);
    }
    let results = bench::par_map(configs, bench::default_workers(), |cfg| {
        ClusterRunner::new(cfg).run()
    });

    let mut problems = Vec::new();
    for (kind, r) in kinds.iter().zip(&results) {
        violations_of(kind.label(), r, &mut problems);
        if r.served == 0 {
            problems.push(format!("{} served nothing under the surge", kind.label()));
        }
    }
    let stock = &results[0];
    let affinity = &results[1];
    let ratio = affinity.served as f64 / (stock.served as f64).max(1.0);
    if ratio < FLASH_FLOOR {
        problems.push(format!(
            "affinity collapsed under the flash crowd: {:.3}x of stock < {FLASH_FLOOR}",
            ratio
        ));
    }

    let mut t = metrics::table::Table::new(&["kind", "served", "timeouts", "stranded", "amp"]);
    for (kind, r) in kinds.iter().zip(&results) {
        t.row_owned(vec![
            kind.label().to_string(),
            r.served.to_string(),
            r.timeouts.to_string(),
            r.stranded.to_string(),
            format!("{:.2}", r.retry_amplification),
        ]);
    }
    print!("{}", t.render());
    for p in &problems {
        println!("  FLASH {p}");
    }
    let ok = problems.is_empty();
    println!(
        "  flash-crowd gate: affinity/stock = {ratio:.3} — {}",
        if ok { "holds" } else { "VIOLATED" }
    );

    let json = Json::obj()
        .field("hosts", u64::from(hosts))
        .field("multiplier", FLASH_MULTIPLIER)
        .field(
            "kinds",
            Json::Arr(
                kinds
                    .iter()
                    .zip(&results)
                    .map(|(kind, r)| {
                        Json::obj()
                            .field("kind", kind.label())
                            .field("served", r.served)
                            .field("timeouts", r.timeouts)
                            .field("stranded", r.stranded)
                            .field("retry_amplification", r.retry_amplification)
                    })
                    .collect(),
            ),
        )
        .field("affinity_vs_stock", ratio)
        .field(
            "problems",
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        )
        .field("ok", ok);
    PassReport { ok, json }
}
