//! The three benchmark workloads and the one code path that runs them.
//!
//! Every configuration is written out here with literal rates and
//! windows, built only from the public configuration types of `app`,
//! `sim` and `nic`, so the harness crates can change without shifting a
//! workload. [`execute`] runs a workload once. Every host run is built
//! and then stepped through [`SLICES`] equal slices of simulated time
//! with `Runner::run_until`, and each construction and slice is timed on
//! its own: repeats of one `(workload, seed)` do the same work part by
//! part, so a run can take each part at its fastest (see `stats.rs`).
//! With a [`Tracer`] the dprof-v2 ledger is on and every part is a span.

use crate::trace::Tracer;
use app::search::{search_rates, Observation};
use app::{ListenKind, RunConfig, RunResult, Runner, ServerKind, Workload as ClientWorkload};
use mem::LineAgg;
use metrics::PerfCounters;
use sim::time::{ms, Cycles};
use sim::topology::Machine;

/// Slices of simulated time a host run is stepped through.
const SLICES: u64 = 20;
/// Constructions timed per fixed-rate pass (the search's probes are
/// built once each).
const SETUP_REPEATS: usize = 5;
/// Probe budget of the saturation search.
const SEARCH_MAX_PROBES: usize = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6Fine,
    Fig6Affinity,
    Search16c,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig6Fine,
        Workload::Fig6Affinity,
        Workload::Search16c,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Fine => "fig6_fine",
            Workload::Fig6Affinity => "fig6_affinity",
            Workload::Search16c => "search_16c",
        }
    }

    /// Why the workload is in the benchmark (one line; `BENCHMARK.json`
    /// carries the same text).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig6Fine => {
                "48-core Fine-Accept: most coherence traffic per request, so the cache model and TCP ops dominate"
            }
            Workload::Fig6Affinity => {
                "48-core Affinity-Accept: local packets, per-core queues, stealing and the client fleet do the work"
            }
            Workload::Search16c => {
                "saturation search, Stock and Twenty: overloaded probes, Apache futex path and per-flow NIC steering"
            }
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Figure-6 configuration at a fixed offered rate: Intel 80-core
/// model, 48 cores, lighttpd, the paper's client workload.
fn fig6_config(listen: ListenKind, conn_rate: f64, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(
        Machine::intel80(),
        48,
        listen,
        ServerKind::lighttpd(),
        ClientWorkload::base(),
        conn_rate,
    );
    cfg.warmup = ms(150);
    cfg.measure = ms(100);
    cfg.seed = seed;
    cfg
}

/// The initial probe of the saturation search: AMD model, 16 cores,
/// Apache, `listen` (Stock or Twenty).
fn search_config(listen: ListenKind, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        16,
        listen,
        ServerKind::apache(),
        ClientWorkload::base(),
        26_667.0,
    );
    cfg.warmup = ms(150);
    cfg.measure = ms(100);
    cfg.seed = seed;
    cfg
}

/// The layer-relevant record of one finished host run. The `RunResult`
/// itself (which owns the whole simulated kernel) is dropped as soon as
/// this is extracted.
#[derive(Debug, Clone)]
pub struct Sample {
    pub cfg: RunConfig,
    /// Host seconds of each construction.
    pub setup_s: Vec<f64>,
    /// Host seconds of each slice of simulated time.
    pub slices: Vec<f64>,
    /// Host seconds of the final `Runner::run` past the last slice.
    pub finalize_s: f64,
    pub events: u64,
    /// Requests served in the measurement window.
    pub served: u64,
    /// Requests served over the whole run (traced runs only; 0 otherwise).
    pub served_total: u64,
    pub fingerprint: u64,
    pub violations: Vec<String>,
    pub perf: PerfCounters,
    /// dprof-v2 ledger totals over the whole run (zero when untraced).
    pub lines: LineAgg,
    pub accepts_local: u64,
    pub accepts_stolen: u64,
    pub migrations: u64,
    pub drops_overflow: u64,
    pub drops_nic: u64,
    pub timeouts: u64,
    pub affinity_frac: f64,
    pub idle_frac: f64,
    /// Whole-run counts the layer shares multiply by.
    pub conns_created: u64,
    pub syns: u64,
    pub enqueued: u64,
    pub accepts: u64,
    pub clients_started: u64,
    pub packets_offered: u64,
    pub events_pending: u64,
    /// Population at the end of the run, which shapes the probes.
    pub live_conns: usize,
    pub clients_live: usize,
}

impl Sample {
    fn new(cfg: RunConfig, r: &RunResult) -> Self {
        let a = &r.audit;
        Self {
            cfg,
            setup_s: Vec::new(),
            slices: Vec::new(),
            finalize_s: 0.0,
            events: r.events_executed,
            served: r.served,
            served_total: r.timeline.iter().sum(),
            fingerprint: r.fingerprint,
            violations: a.violations(),
            perf: r.perf.clone(),
            lines: r.cacheline.totals(),
            accepts_local: r.listen_stats.accepts_local,
            accepts_stolen: r.listen_stats.accepts_stolen,
            migrations: r.migrations,
            drops_overflow: r.drops_overflow,
            drops_nic: r.drops_nic,
            timeouts: r.timeouts,
            affinity_frac: r.affinity_frac,
            idle_frac: r.idle_frac,
            conns_created: a.kernel.created,
            syns: a.reqs_created,
            enqueued: a.listen.enqueued,
            accepts: a.listen.accepts_local + a.listen.accepts_stolen,
            clients_started: a.client.started,
            packets_offered: a.packets.offered,
            events_pending: a.events_pending,
            live_conns: r.kernel.live_conns(),
            clients_live: 0,
        }
    }

    /// Host seconds of the run after set-up.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        self.slices.iter().sum::<f64>() + self.finalize_s
    }
}

/// One probe of the saturation search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub saturated: bool,
    pub setup_s: f64,
    pub run_s: f64,
}

/// What one pass of a workload produced. Everything except the host
/// times is simulated, so repeats of one `(workload, seed)` must agree.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds of each construction, in order.
    pub setups: Vec<f64>,
    /// Host seconds of each part of the runs after set-up, in order:
    /// every slice of each host run, then its finalize.
    pub parts: Vec<f64>,
    pub events: u64,
    pub served: u64,
    pub fingerprint: u64,
    /// The search's chosen rate per configuration (search only).
    pub rates: Vec<f64>,
    pub violations: Vec<String>,
}

impl Outcome {
    /// The timings and simulated totals of `samples`, in order.
    fn of(samples: &[Sample], fingerprint: u64, rates: Vec<f64>) -> Self {
        Self {
            setups: samples.iter().flat_map(|s| s.setup_s.clone()).collect(),
            parts: samples
                .iter()
                .flat_map(|s| s.slices.iter().copied().chain([s.finalize_s]))
                .collect(),
            events: samples.iter().map(|s| s.events).sum(),
            served: samples.iter().map(|s| s.served).sum(),
            fingerprint,
            rates,
            violations: samples.iter().flat_map(|s| s.violations.clone()).collect(),
        }
    }

    /// Host seconds of the runs after set-up.
    #[must_use]
    pub fn run_s(&self) -> f64 {
        self.parts.iter().sum()
    }
}

/// A pass with its per-host samples, for the traced pass's layer metrics.
pub struct Pass {
    pub outcome: Outcome,
    pub samples: Vec<Sample>,
    pub probes: Vec<Probe>,
}

/// Runs one host configuration: builds it `setups` times, each under a
/// span, then steps the last one built through the slices and finishes
/// it. `traced` turns the ledger and the served timeline on.
fn run_host(mut cfg: RunConfig, setups: usize, traced: bool, t: &mut Tracer) -> Sample {
    let span = cfg.warmup + cfg.measure;
    if traced {
        cfg.dprof_v2 = true;
        cfg.timeline_bucket = span / SLICES;
    }
    let run = t.begin(format!("run {} {}c", cfg.listen.label(), cfg.cores), "run");
    let mut setup_s = Vec::with_capacity(setups);
    let mut runner = None;
    for _ in 0..setups {
        drop(runner.take());
        let setup = t.begin("setup", "setup");
        runner = Some(Runner::new(cfg.clone()));
        t.end(setup);
        setup_s.push(t.seconds(setup));
    }
    let mut runner = runner.expect("at least one construction");
    let mut slices = Vec::with_capacity(SLICES as usize);
    for i in 0..SLICES {
        let s = t.begin(format!("slice {i}"), "slice");
        let bound: Cycles = cfg.start_at + span * (i + 1) / SLICES;
        runner.run_until(bound);
        t.end(s);
        t.arg(s, "sim_ms_end", sim::time::to_ms(bound));
        slices.push(t.seconds(s));
    }
    let clients_live = runner.clients_live();
    let fin = t.begin("finalize", "slice");
    let r = runner.run();
    t.end(fin);
    t.arg(run, "events", r.events_executed);
    t.arg(run, "served", r.served);
    t.end(run);
    Sample {
        setup_s,
        slices,
        finalize_s: t.seconds(fin),
        clients_live,
        ..Sample::new(cfg, &r)
    }
}

/// Mixes probe fingerprints into one order-sensitive value.
fn mix(acc: u64, x: u64) -> u64 {
    let mut z = acc.rotate_left(17) ^ x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The share of connection attempts dropped, as `app::search` steers by.
fn drop_frac(r: &Sample) -> f64 {
    let attempts = r.served + r.drops_overflow + r.drops_nic;
    if attempts == 0 {
        0.0
    } else {
        (r.drops_overflow + r.drops_nic) as f64 / attempts as f64
    }
}

/// The figure binaries' saturation search, with a probe closure that
/// times each probe: returns the chosen probe's sample and every probe.
pub fn search(
    cfg: &RunConfig,
    max_probes: usize,
    traced: bool,
    t: &mut Tracer,
) -> (Sample, Vec<(Sample, Probe)>) {
    let mut probes: Vec<(Sample, Probe)> = Vec::new();
    let best = search_rates(cfg.conn_rate, max_probes, |rate| {
        let mut c = cfg.clone();
        c.conn_rate = rate;
        let s = run_host(c, 1, traced, t);
        let obs = Observation {
            rps: s.served as f64 / sim::time::to_secs(s.cfg.measure),
            idle_frac: s.idle_frac,
            drop_frac: drop_frac(&s),
        };
        let saturated = obs.idle_frac < app::search::SATURATION_IDLE
            || obs.drop_frac > app::search::EXCESS_DROP_FRAC;
        let probe = Probe {
            saturated,
            setup_s: s.setup_s.iter().sum(),
            run_s: s.run_s(),
        };
        probes.push((s.clone(), probe));
        (s, obs)
    });
    (best, probes)
}

/// Runs workload `w` once at `seed`, its parts recorded as spans of `t`;
/// see the module docs for `traced`.
pub fn execute(w: Workload, seed: u64, traced: bool, t: &mut Tracer) -> Pass {
    match w {
        Workload::Fig6Fine => host_pass(fig6_config(ListenKind::Fine, 108_000.0, seed), traced, t),
        Workload::Fig6Affinity => host_pass(
            fig6_config(ListenKind::Affinity, 124_000.0, seed),
            traced,
            t,
        ),
        Workload::Search16c => search_pass(seed, traced, t),
    }
}

fn host_pass(cfg: RunConfig, traced: bool, t: &mut Tracer) -> Pass {
    let s = run_host(cfg, SETUP_REPEATS, traced, t);
    let samples = vec![s];
    Pass {
        outcome: Outcome::of(&samples, samples[0].fingerprint, Vec::new()),
        samples,
        probes: Vec::new(),
    }
}

/// The search over Stock, then Twenty. Its timings and simulated totals
/// cover every probe in order, and its fingerprint folds every probe's.
fn search_pass(seed: u64, traced: bool, t: &mut Tracer) -> Pass {
    let mut samples = Vec::new();
    let mut probes = Vec::new();
    let mut rates = Vec::new();
    for listen in [ListenKind::Stock, ListenKind::Twenty] {
        let (best, ps) = search(&search_config(listen, seed), SEARCH_MAX_PROBES, traced, t);
        rates.push(best.cfg.conn_rate);
        for (s, p) in ps {
            samples.push(s);
            probes.push(p);
        }
    }
    let fingerprint = samples.iter().fold(0, |acc, s| mix(acc, s.fingerprint));
    Pass {
        outcome: Outcome::of(&samples, fingerprint, rates),
        samples,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("fig6"), None);
    }

    #[test]
    fn search_closure_matches_find_saturation() {
        // The benchmark times each probe through its own closure; the
        // search it drives must still pick exactly what the figure
        // binaries' `find_saturation_budgeted` picks.
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            2,
            ListenKind::Affinity,
            ServerKind::apache(),
            ClientWorkload::base(),
            1_200.0,
        );
        cfg.warmup = ms(40);
        cfg.measure = ms(40);
        cfg.tracked_files = 100;
        let reference = app::find_saturation_budgeted(&cfg, 4);
        let (best, probes) = search(&cfg, 4, false, &mut Tracer::new());
        assert!(!probes.is_empty() && probes.len() <= 4);
        assert_eq!(best.fingerprint, reference.fingerprint);
        assert_eq!(best.served, reference.served);
        assert_eq!(best.events, reference.events_executed);
    }
}
