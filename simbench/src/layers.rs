//! The traced pass: one workload rerun with the ledger on and stepped
//! through slices, then the layer probes shaped by that run, combined
//! into the per-layer metrics of [`crate::catalog::LAYERS`].
//!
//! A layer's `share` (or `self_share`) is an exact whole-run count from
//! the traced run times the probe's nanoseconds per call, over the run's
//! host time. What no share covers, `app.runner.residual_share`, is the
//! dispatch loop and the observer planes.

use crate::probes::{self, Shape};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Outcome, Pass, Sample, Workload};
use app::ListenKind;
use mem::LineAgg;
use metrics::perf::KernelEntry;
use metrics::PerfCounters;
use std::collections::BTreeMap;

/// A traced pass's outcome (checked against the untraced one by the
/// caller) and its per-layer metrics in catalog order. `None` marks a
/// metric this build cannot measure (ledger-based under `fast`).
pub struct Traced {
    pub outcome: Outcome,
    pub metrics: Vec<(String, Option<f64>)>,
}

/// Whole-run totals over a pass's host runs.
#[derive(Default)]
struct Totals {
    run_s: f64,
    events: u64,
    served: u64,
    served_total: u64,
    perf: PerfCounters,
    lines: LineAgg,
    accepts_local: u64,
    accepts_stolen: u64,
    migrations: u64,
    drops_overflow: u64,
    drops_nic: u64,
    timeouts: u64,
    conns_created: u64,
    syns: u64,
    enqueued: u64,
    accepts: u64,
    clients_started: u64,
    packets_offered: u64,
    balance_ticks: u64,
    affinity_served: f64,
    idle: Vec<f64>,
    slices: Vec<f64>,
}

impl Totals {
    fn of(samples: &[Sample]) -> Self {
        let mut t = Totals::default();
        for s in samples {
            t.run_s += s.run_s();
            t.events += s.events;
            t.served += s.served;
            t.served_total += s.served_total;
            t.perf.merge(&s.perf);
            t.lines.merge(&s.lines);
            t.accepts_local += s.accepts_local;
            t.accepts_stolen += s.accepts_stolen;
            t.migrations += s.migrations;
            t.drops_overflow += s.drops_overflow;
            t.drops_nic += s.drops_nic;
            t.timeouts += s.timeouts;
            t.conns_created += s.conns_created;
            t.syns += s.syns;
            t.enqueued += s.enqueued;
            t.accepts += s.accepts;
            t.clients_started += s.clients_started;
            t.packets_offered += s.packets_offered;
            t.balance_ticks +=
                (s.cfg.warmup + s.cfg.measure) / s.cfg.migrate_interval.max(sim::time::ms(1));
            t.affinity_served += s.affinity_frac * s.served as f64;
            t.idle.push(s.idle_frac);
            t.slices.extend(&s.slices);
        }
        t
    }

    /// Share of the run's host time `count` calls of `ns` each take.
    fn share(&self, count: u64, ns: Option<f64>) -> Option<f64> {
        ns.map(|ns| count as f64 * ns / 1e9 / self.run_s)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_flow(s: &Sample) -> bool {
    s.cfg.twenty_policy || s.cfg.listen == ListenKind::Twenty
}

/// The probe inputs a run implies.
fn shape(s: &Sample, affinity_frac: f64) -> Shape {
    Shape {
        machine: s.cfg.machine.clone(),
        cores: s.cfg.cores,
        listen: s.cfg.listen,
        server: s.cfg.server,
        client: s.cfg.workload.clone(),
        tracked_files: s.cfg.tracked_files,
        app_cycles: s.cfg.app_cycles,
        per_flow: per_flow(s),
        live_conns: s.live_conns,
        clients_live: s.clients_live,
        queue_depth: s.events_pending as usize,
        remote_frac: 1.0 - affinity_frac,
        seed: s.cfg.seed,
    }
}

/// Runs the traced pass of `w` at `seed`; `untraced_run_s` is the run
/// time of an untraced pass, the base of the tracing overhead.
pub fn traced_pass(w: Workload, seed: u64, untraced_run_s: f64, t: &mut Tracer) -> Traced {
    let span = t.begin(format!("traced {}", w.name()), "workload");
    let pass = workloads::execute(w, seed, true, t);
    let tot = Totals::of(&pass.samples);
    let affinity_frac = ratio(tot.affinity_served, tot.served as f64);
    // Probes take their shape from the host run that did the most work.
    let primary = pass
        .samples
        .iter()
        .max_by_key(|s| s.events)
        .expect("every traced pass runs a host");
    let shape = shape(primary, affinity_frac);
    let probe_span = t.begin(format!("probes {}", w.name()), "probes");
    let (push_ns, pop_ns, peek_ns) = probes::event_queue(t, &shape);
    let probes::KernelNs {
        access: access_ns,
        request: request_ns,
        conn: conn_ns,
    } = probes::kernel_ops(t, &shape);
    let listen = probes::listen(t, &shape, access_ns);
    let (client_ns, client_conn_ns) = probes::client(t, &shape);
    let insert_ns = probes::fdir_insert(t, &shape);
    // Route lookups are probed per steering mode the pass used and
    // weighted by the packets each mode routed.
    let mut route_weighted = 0.0;
    for per_flow_mode in [false, true] {
        let offered: u64 = pass
            .samples
            .iter()
            .filter(|s| per_flow(s) == per_flow_mode)
            .map(|s| s.packets_offered)
            .sum();
        if offered > 0 {
            let mode = Shape {
                per_flow: per_flow_mode,
                ..shape.clone()
            };
            route_weighted += probes::route(t, &mode) * offered as f64;
        }
    }
    let route_ns = ratio(route_weighted, tot.packets_offered as f64);
    t.end(probe_span);

    let ledger = !cfg!(feature = "fast");
    let per_req = |x: u64| ratio(x as f64, tot.served_total as f64);
    let perf_req = |x: u64| ratio(x as f64, tot.perf.requests as f64);
    let calls: u64 = KernelEntry::ALL
        .iter()
        .map(|&e| tot.perf.entry(e).calls)
        .sum();
    let shares = [
        tot.share(tot.events, Some(push_ns + pop_ns + peek_ns)),
        tot.share(tot.lines.touches, access_ns.filter(|_| ledger)),
        tot.share(tot.served_total, request_ns)
            .zip(tot.share(tot.conns_created, conn_ns))
            .map(|(a, b)| a + b),
        [
            tot.share(tot.syns, listen.syn),
            tot.share(tot.enqueued, listen.ack),
            tot.share(tot.accepts, listen.accept),
            tot.share(tot.balance_ticks, listen.balance),
        ]
        .into_iter()
        .sum::<Option<f64>>(),
        tot.share(tot.packets_offered, Some(route_ns)),
        tot.share(tot.clients_started, Some(client_conn_ns)),
    ];
    let residual = shares.iter().copied().sum::<Option<f64>>().map(|s| 1.0 - s);
    let probe_setups: Vec<f64> = pass.probes.iter().map(|p| p.setup_s).collect();
    let probe_runs: Vec<f64> = pass.probes.iter().map(|p| p.run_s).collect();
    let median_or_0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };

    let mut m: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut set = |name: &str, v: Option<f64>| {
        m.insert(name.to_string(), v);
    };
    let ledger_val = |v: f64| ledger.then_some(v);
    set("sim.events.per_req", Some(per_req(tot.events)));
    set("sim.events.pop_ns", Some(pop_ns));
    set("sim.events.push_ns", Some(push_ns));
    set("sim.events.peek_before_ns", Some(peek_ns));
    set("sim.events.share", shares[0]);
    set(
        "mem.cache.touches_per_req",
        ledger_val(per_req(tot.lines.touches)),
    );
    set(
        "mem.cache.fills_per_req",
        ledger_val(per_req(tot.lines.fills)),
    );
    set(
        "mem.cache.useful_byte_frac",
        ledger_val(ratio(
            tot.lines.bytes_touched as f64,
            tot.lines.bytes_fetched as f64,
        )),
    );
    set("mem.cache.access_ns", access_ns.filter(|_| ledger));
    set("mem.cache.share", shares[1]);
    set("tcp.ops.calls_per_req", Some(perf_req(calls)));
    set(
        "tcp.ops.stack_cycles_per_req",
        Some(tot.perf.network_stack_cycles_per_request()),
    );
    set(
        "tcp.ops.l2_miss_per_req",
        Some(perf_req(tot.perf.total_l2_misses())),
    );
    set("tcp.ops.request_ns", request_ns);
    set("tcp.ops.conn_ns", conn_ns);
    set("tcp.ops.self_share", shares[2]);
    set(
        "core.listen.local_accept_frac",
        Some(ratio(
            tot.accepts_local as f64,
            (tot.accepts_local + tot.accepts_stolen) as f64,
        )),
    );
    set(
        "core.listen.stolen_per_kreq",
        Some(1000.0 * ratio(tot.accepts_stolen as f64, tot.served as f64)),
    );
    set("core.listen.migrations", Some(tot.migrations as f64));
    set(
        "core.listen.overflow_drops",
        Some(tot.drops_overflow as f64),
    );
    set("core.listen.syn_ns", listen.syn);
    set("core.listen.ack_ns", listen.ack);
    set("core.listen.accept_ns", listen.accept);
    set("core.listen.balance_ns", listen.balance);
    set("core.listen.self_share", shares[3]);
    set("nic.steering.route_ns", Some(route_ns));
    set("nic.steering.insert_ns", Some(insert_ns));
    set("nic.steering.drops", Some(tot.drops_nic as f64));
    set("nic.steering.share", shares[4]);
    set("app.client.packet_ns", Some(client_ns));
    set("app.client.timeouts", Some(tot.timeouts as f64));
    set("app.client.share", shares[5]);
    set("app.runner.slice_s", Some(median_or_0(&tot.slices)));
    set("app.runner.residual_share", residual);
    set("app.runner.affinity_frac", Some(affinity_frac));
    set("app.runner.idle_frac", Some(median_or_0(&tot.idle)));
    set(
        "app.runner.trace_overhead_frac",
        Some(pass.outcome.run_s() / untraced_run_s - 1.0),
    );
    set("app.search.probes", Some(pass.probes.len() as f64));
    set(
        "app.search.saturated_probes",
        Some(pass.probes.iter().filter(|p| p.saturated).count() as f64),
    );
    set("app.search.probe_setup_s", Some(median_or_0(&probe_setups)));
    set("app.search.probe_run_s", Some(median_or_0(&probe_runs)));
    t.end(span);

    let Pass { outcome, .. } = pass;
    let metrics = crate::catalog::per_layer()
        .map(|(name, _, _)| {
            let v = m
                .remove(&name)
                .unwrap_or_else(|| panic!("layer metric {name} is not computed"));
            (name, v)
        })
        .collect();
    assert!(
        m.is_empty(),
        "layer metrics missing from the catalog: {m:?}"
    );
    Traced { outcome, metrics }
}
