//! `wallclock` — the simulator's wall-clock performance baseline.
//!
//! Unlike the figure binaries (which measure *simulated* metrics), this one
//! measures the simulator itself: how fast the event loop retires events on
//! the host machine. It runs the Figure-6 48-core lighttpd configuration,
//! best of `--repeats` runs per `ListenKind`, every repeat checked to
//! reproduce the same fingerprint and event count. Built with
//! `--features fast` the instrumentation planes are compiled out and the
//! report carries `"instrumentation": "fast"` — the fast lane of the
//! events/sec comparison. (Raw event-queue push/pop cost is timed by the
//! standalone `simbench` package's `sim.events` probes.)
//!
//! Each kind first runs once untimed, so the timed repeats start with the
//! thread's queue pool and allocator warm, as in the committed baselines.
//! After the timed repeats it runs once more, untimed, with the dprof-v2
//! cache-line ledger recording (instrumented builds only): every run must
//! reproduce the warm-up's fingerprint exactly — the ledger is an
//! observer — and the ledger's wasted-bytes-per-request / fetch volume /
//! eviction-reuse figures land in the per-kind `cacheline` block of the
//! report.
//!
//! Writes `results/BENCH_sim.json`. With `--baseline PATH` the run fails
//! (exit 1) if its aggregate events/sec drops more than 30% below the
//! `total_events_per_sec` recorded in the baseline file, **or** if any
//! single kind drops more than 30% below that kind's recorded
//! `events_per_sec` — a per-kind regression can hide inside a flat
//! aggregate when another kind got faster. When both sides carry
//! `cacheline` blocks, the *bytes-per-request* lane gates too: a kind's
//! wasted-bytes-per-request may not rise more than 30% above the
//! baseline's figure (the metric is simulated and deterministic, so a
//! trip always means a code change regressed cache behaviour, never host
//! noise). Set `WALLCLOCK_NO_GATE=1` to bypass the gates (e.g. on a host
//! known to be slower than the one that produced the committed baseline).
//!
//! Usage: `wallclock [--smoke] [--repeats N] [--baseline PATH] [--out PATH]`

use app::{ListenKind, RunConfig, RunResult, Runner, ServerKind, Workload};
use metrics::json::Json;
use sim::time::ms;
use sim::topology::Machine;
use std::time::Instant;

/// Seed-scheduler wall-clock per `ListenKind` on the fig6 configuration,
/// measured on the reference host at the commit preceding the timer-wheel
/// scheduler (binary-heap queue, no hot-path slimming, no LTO). Only
/// meaningful for full (non-smoke) windows; used to report `speedup_vs_seed`.
const SEED_WALL_S: [(ListenKind, f64); 3] = [
    (ListenKind::Stock, 1.029),
    (ListenKind::Fine, 6.077),
    (ListenKind::Affinity, 4.585),
];

fn main() {
    let opts = Opts::parse();
    bench::header("wallclock", "simulator events/sec baseline");
    println!(
        "mode: {}   repeats: {}   instrumentation: {}",
        if opts.smoke { "smoke" } else { "full" },
        opts.repeats,
        instrumentation(),
    );

    let mut kinds = Vec::new();
    let mut total_events: u64 = 0;
    let mut total_wall = 0.0f64;
    for listen in [ListenKind::Stock, ListenKind::Fine, ListenKind::Affinity] {
        let row = run_kind(listen, &opts);
        total_events += row.events;
        total_wall += row.wall;
        kinds.push(row);
    }

    let total_eps = total_events as f64 / total_wall;
    let seed_total: f64 = SEED_WALL_S.iter().map(|(_, w)| w).sum();
    println!("\n== totals ==");
    println!("events={total_events}  wall={total_wall:.3}s  events/sec={total_eps:.0}");
    if !opts.smoke {
        println!(
            "vs seed scheduler: {:.2}x events/sec (seed total wall {seed_total:.3}s)",
            seed_total / total_wall
        );
    }

    let report = report_json(&opts, &kinds, total_events, total_wall);
    if let Some(parent) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&opts.out, report.render() + "\n").expect("write report");
    println!("report: {}", opts.out);

    if let Some(path) = &opts.baseline {
        gate(path, total_eps, &kinds);
    }
}

// ----------------------------------------------------------------- options

struct Opts {
    smoke: bool,
    repeats: usize,
    baseline: Option<String>,
    out: String,
}

/// Which instrumentation planes this binary was compiled with.
fn instrumentation() -> &'static str {
    if cfg!(feature = "fast") {
        "fast"
    } else {
        "full"
    }
}

impl Opts {
    fn parse() -> Self {
        let mut opts = Opts {
            smoke: false,
            repeats: 0,
            baseline: None,
            out: "results/BENCH_sim.json".to_string(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--repeats" => opts.repeats = value("--repeats").parse().expect("--repeats N"),
                "--baseline" => opts.baseline = Some(value("--baseline")),
                "--out" => opts.out = value("--out"),
                other => panic!(
                    "unknown argument {other} \
                     (usage: wallclock [--smoke] [--repeats N] [--baseline PATH] \
                     [--out PATH])"
                ),
            }
        }
        if opts.repeats == 0 {
            // Wall-clock on a shared host is noisy; best-of-N full runs give
            // a stable figure. Smoke keeps CI fast with a single pass.
            opts.repeats = if opts.smoke { 1 } else { 3 };
        }
        opts
    }
}

// ------------------------------------------------------------- fig6 runs

/// The Figure-6 configuration: Intel 48 cores, lighttpd, near-saturation
/// offered load per `ListenKind`. Smoke mode shrinks the warmup/measure
/// windows (~1/3 of the events) but keeps the shape.
fn fig6_config(listen: ListenKind, smoke: bool) -> RunConfig {
    let cores = 48;
    let rate = bench::rate_guess(listen, ServerKind::lighttpd(), cores);
    let mut cfg = RunConfig::new(
        Machine::intel80(),
        cores,
        listen,
        ServerKind::lighttpd(),
        Workload::base(),
        rate,
    );
    cfg.app_cycles = cfg.server.app_cycles();
    if smoke {
        cfg.warmup = ms(150);
        cfg.measure = ms(100);
    } else {
        cfg.warmup = ms(450);
        cfg.measure = ms(300);
    }
    cfg
}

struct KindRow {
    listen: ListenKind,
    events: u64,
    fingerprint: u64,
    /// Best wall over the repeats.
    wall: f64,
    /// Cache-line waste from the untimed dprof-v2 ledger run; `None`
    /// under `fast` instrumentation (the ledger is compiled out).
    cacheline: Option<CacheWaste>,
}

/// The figures the per-kind `cacheline` report block carries.
struct CacheWaste {
    wasted_per_req: f64,
    fetched_per_req: f64,
    reuse_per_eviction: f64,
}

/// Best-of-`repeats` wall after one untimed warm-up run, then one more
/// untimed run with the dprof-v2 ledger on. Every run must reproduce the
/// warm-up's fingerprint and event count: a timed repeat that differs is
/// not deterministic, and a ledger run that differs means the ledger (an
/// observer) moved the schedule. The ledger run goes last because a
/// timed run right after it measured slower.
fn run_kind(listen: ListenKind, opts: &Opts) -> KindRow {
    let run = |dprof_v2: bool| {
        let mut cfg = fig6_config(listen, opts.smoke);
        cfg.dprof_v2 = dprof_v2;
        let t0 = Instant::now();
        let r = Runner::new(cfg).run();
        (r, t0.elapsed().as_secs_f64())
    };
    let (warm, _) = run(false);
    let (fingerprint, events) = (warm.fingerprint, warm.events_executed);
    let check = |r: &RunResult, what: &str| {
        assert_eq!(
            (r.fingerprint, r.events_executed),
            (fingerprint, events),
            "{}: {what} diverged from the warm-up run (fingerprint, events)",
            listen.label()
        );
    };
    let mut wall = f64::INFINITY;
    for _ in 0..opts.repeats {
        let (r, dt) = run(false);
        check(&r, "timed repeat");
        wall = wall.min(dt);
    }
    let eps = events as f64 / wall;
    println!(
        "{:8} events={events:8}  {wall:.3}s ({eps:.0} ev/s, {:.0} ns/ev)  fp={fingerprint:#018x}",
        listen.label(),
        1e9 / eps,
    );
    // The ledger is compiled out under `fast`: nothing to report.
    let cacheline = (!cfg!(feature = "fast")).then(|| {
        let (r, _) = run(true);
        check(&r, "dprof-v2 ledger run");
        let t = r.cacheline.totals();
        let served = r.served.max(1) as f64;
        let waste = CacheWaste {
            wasted_per_req: r.cacheline.wasted_bytes_per_request(r.served),
            fetched_per_req: t.bytes_fetched as f64 / served,
            reuse_per_eviction: t.reuse_per_eviction(),
        };
        println!(
            "{:8} cacheline: wasted/req={:.1}B  fetched/req={:.1}B  reuse/evict={:.2}",
            "", waste.wasted_per_req, waste.fetched_per_req, waste.reuse_per_eviction
        );
        waste
    });
    KindRow {
        listen,
        events,
        fingerprint,
        wall,
        cacheline,
    }
}

// ---------------------------------------------------------------- report

fn report_json(opts: &Opts, kinds: &[KindRow], total_events: u64, total_wall: f64) -> Json {
    let seed_total: f64 = SEED_WALL_S.iter().map(|(_, w)| w).sum();
    let kind_rows: Vec<Json> = kinds
        .iter()
        .map(|row| {
            let eps = row.events as f64 / row.wall;
            let mut j = Json::obj()
                .field("listen", row.listen.label())
                .field("events", row.events)
                .field("fingerprint", format!("{:#018x}", row.fingerprint))
                .field("wheel_wall_s", row.wall)
                .field("events_per_sec", eps)
                .field("ns_per_event", 1e9 / eps);
            if !opts.smoke {
                let seed = SEED_WALL_S
                    .iter()
                    .find(|(k, _)| *k == row.listen)
                    .map(|(_, w)| *w)
                    .expect("seed wall for kind");
                j = j
                    .field("seed_wall_s", seed)
                    .field("speedup_vs_seed", seed / row.wall);
            }
            if let Some(c) = &row.cacheline {
                j = j.field(
                    "cacheline",
                    Json::obj()
                        .field("wasted_bytes_per_request", c.wasted_per_req)
                        .field("bytes_fetched_per_request", c.fetched_per_req)
                        .field("reuse_per_eviction", c.reuse_per_eviction),
                );
            }
            j
        })
        .collect();
    let mut report = Json::obj()
        .field("schema", "bench_sim/v1")
        .field("mode", if opts.smoke { "smoke" } else { "full" })
        .field("instrumentation", instrumentation())
        .field("machine", "intel80")
        .field("cores", 48u64)
        .field("server", "lighttpd")
        .field("repeats", opts.repeats as u64)
        .field("kinds", Json::Arr(kind_rows))
        .field("total_events", total_events)
        .field("total_wheel_wall_s", total_wall)
        .field("total_events_per_sec", total_events as f64 / total_wall);
    if !opts.smoke {
        report = report.field("speedup_vs_seed_total", seed_total / total_wall);
    }
    report
}

// ------------------------------------------------------------------ gate

/// Fails the run if aggregate events/sec fell more than 30% below the
/// baseline file's `total_events_per_sec`, or any kind fell more than 30%
/// below its own recorded `events_per_sec`. The per-kind floors exist
/// because the aggregate is dominated by the slowest kind: a 2x regression
/// in stock (the fastest, fewest-events kind) moves the total by a few
/// percent and would sail through an aggregate-only gate.
fn gate(path: &str, total_eps: f64, kinds: &[KindRow]) {
    if std::env::var_os("WALLCLOCK_NO_GATE").is_some() {
        println!("gate: skipped (WALLCLOCK_NO_GATE set)");
        return;
    }
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    let baseline =
        Json::parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not JSON: {e}"));
    let baseline_eps = number(&baseline, "total_events_per_sec")
        .unwrap_or_else(|| panic!("no total_events_per_sec in {path}"));
    let mut failed = false;
    let floor = baseline_eps * 0.7;
    let verdict = if total_eps >= floor { "ok" } else { "FAIL" };
    failed |= total_eps < floor;
    println!(
        "gate: {total_eps:.0} ev/s vs baseline {baseline_eps:.0} (floor {floor:.0}): {verdict}"
    );
    for row in kinds {
        let Some(base_eps) = baseline_kind_eps(&baseline, row.listen.label()) else {
            println!(
                "gate: {:8} no per-kind baseline, skipped",
                row.listen.label()
            );
            continue;
        };
        let eps = row.events as f64 / row.wall;
        let floor = base_eps * 0.7;
        let verdict = if eps >= floor { "ok" } else { "FAIL" };
        failed |= eps < floor;
        println!(
            "gate: {:8} {eps:.0} ev/s vs baseline {base_eps:.0} (floor {floor:.0}): {verdict}",
            row.listen.label()
        );
    }
    for row in kinds {
        let Some(c) = &row.cacheline else {
            continue; // fast instrumentation: the ledger is compiled out
        };
        let Some(base) = baseline_kind_waste(&baseline, row.listen.label()) else {
            println!(
                "gate: {:8} no cacheline baseline, skipped",
                row.listen.label()
            );
            continue;
        };
        let ceiling = base * 1.3;
        let verdict = if c.wasted_per_req <= ceiling {
            "ok"
        } else {
            "FAIL"
        };
        failed |= c.wasted_per_req > ceiling;
        println!(
            "gate: {:8} wasted {:.1} B/req vs baseline {base:.1} (ceiling {ceiling:.1}): {verdict}",
            row.listen.label(),
            c.wasted_per_req
        );
    }
    if failed {
        println!(
            "wallclock: events/sec or wasted-bytes/request regressed more than 30% \
             vs {path}; set WALLCLOCK_NO_GATE=1 to bypass on a slower host"
        );
        std::process::exit(1);
    }
}

/// A numeric field of a JSON object, whichever exact variant holds it.
fn number(j: &Json, key: &str) -> Option<f64> {
    match j.get(key)? {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// The `events_per_sec` recorded for one listen kind in a baseline report.
fn baseline_kind_eps(baseline: &Json, label: &str) -> Option<f64> {
    let Json::Arr(rows) = baseline.get("kinds")? else {
        return None;
    };
    rows.iter()
        .find(|row| matches!(row.get("listen"), Some(Json::Str(l)) if l == label))
        .and_then(|row| number(row, "events_per_sec"))
}

/// The `cacheline.wasted_bytes_per_request` recorded for one listen kind
/// in a baseline report. `None` when the baseline predates the dprof-v2
/// ledger or was produced under `fast` instrumentation.
fn baseline_kind_waste(baseline: &Json, label: &str) -> Option<f64> {
    let Json::Arr(rows) = baseline.get("kinds")? else {
        return None;
    };
    rows.iter()
        .find(|row| matches!(row.get("listen"), Some(Json::Str(l)) if l == label))
        .and_then(|row| row.get("cacheline"))
        .and_then(|c| number(c, "wasted_bytes_per_request"))
}

#[cfg(test)]
mod tests {
    use super::{baseline_kind_eps, baseline_kind_waste, number, Json};

    #[test]
    fn reads_numbers_whatever_the_variant() {
        let doc = Json::parse(r#"{"a": 1, "b": 123456.75, "c": -2, "d": "x"}"#).unwrap();
        assert_eq!(number(&doc, "a"), Some(1.0));
        assert_eq!(number(&doc, "b"), Some(123456.75));
        assert_eq!(number(&doc, "c"), Some(-2.0));
        assert_eq!(number(&doc, "d"), None);
        assert_eq!(number(&doc, "missing"), None);
    }

    #[test]
    fn finds_per_kind_baselines() {
        let doc = Json::parse(
            r#"{"kinds": [{"listen": "stock", "events_per_sec": 100.0},
                          {"listen": "fine", "events_per_sec": 50.5}]}"#,
        )
        .unwrap();
        assert_eq!(baseline_kind_eps(&doc, "stock"), Some(100.0));
        assert_eq!(baseline_kind_eps(&doc, "fine"), Some(50.5));
        assert_eq!(baseline_kind_eps(&doc, "affinity"), None);
        assert_eq!(baseline_kind_eps(&Json::obj(), "stock"), None);
    }

    #[test]
    fn finds_per_kind_cacheline_baselines() {
        let doc = Json::parse(
            r#"{"kinds": [
                 {"listen": "stock",
                  "cacheline": {"wasted_bytes_per_request": 9973.2}},
                 {"listen": "fine"}]}"#,
        )
        .unwrap();
        assert_eq!(baseline_kind_waste(&doc, "stock"), Some(9973.2));
        // A kind without the block (e.g. a pre-ledger baseline): skipped.
        assert_eq!(baseline_kind_waste(&doc, "fine"), None);
        assert_eq!(baseline_kind_waste(&doc, "affinity"), None);
        assert_eq!(baseline_kind_waste(&Json::obj(), "stock"), None);
    }
}
