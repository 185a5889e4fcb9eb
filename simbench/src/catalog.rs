//! Every metric the benchmark reports, with its unit, direction, bound
//! and the end-to-end metric each layer should move. `--list` prints this
//! table and a unit test holds `BENCHMARK.json` to it.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.24,
        what: "host seconds for one pass in a fresh process, set-up included, every part at its fastest",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.24,
        what: "simulated events per host second of run time (set-up excluded), every slice at its fastest",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host seconds inside Runner::new: the fastest construction of the run",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        what: "peak resident memory (VmHWM) of the process that ran the pass",
    },
];

/// One layer: its metrics and the prediction of what it moves.
pub struct Layer {
    pub name: &'static str,
    /// `(metric, unit, better)`; reported as `<layer>.<metric>`.
    pub metrics: &'static [(&'static str, &'static str, Better)],
    /// End-to-end metric(s) a change in this layer should move.
    pub moves: &'static str,
    /// Workloads it should move them on.
    pub on: &'static str,
    /// Workloads where the prediction is no change.
    pub flat_on: &'static str,
}

use Better::{Higher, Lower};

pub const LAYERS: [Layer; 8] = [
    Layer {
        name: "sim.events",
        metrics: &[
            ("per_req", "events/req", Lower),
            ("pop_ns", "ns", Lower),
            ("push_ns", "ns", Lower),
            ("peek_before_ns", "ns", Lower),
            ("share", "frac", Lower),
        ],
        moves: "events_per_s",
        on: "fig6_fine",
        flat_on: "-",
    },
    Layer {
        name: "mem.cache",
        metrics: &[
            ("touches_per_req", "touches/req", Lower),
            ("fills_per_req", "fills/req", Lower),
            ("useful_byte_frac", "frac", Higher),
            ("access_ns", "ns", Lower),
            ("share", "frac", Lower),
        ],
        moves: "events_per_s",
        on: "fig6_fine",
        flat_on: "fig6_affinity",
    },
    Layer {
        name: "tcp.ops",
        metrics: &[
            ("calls_per_req", "calls/req", Lower),
            ("stack_cycles_per_req", "cycles/req", Lower),
            ("l2_miss_per_req", "misses/req", Lower),
            ("request_ns", "ns", Lower),
            ("conn_ns", "ns", Lower),
            ("self_share", "frac", Lower),
        ],
        moves: "events_per_s",
        on: "fig6_fine, fig6_affinity (by similar ratios)",
        flat_on: "-",
    },
    Layer {
        name: "core.listen",
        metrics: &[
            ("local_accept_frac", "frac", Higher),
            ("stolen_per_kreq", "1/kreq", Lower),
            ("migrations", "count", Lower),
            ("overflow_drops", "count", Lower),
            ("syn_ns", "ns", Lower),
            ("ack_ns", "ns", Lower),
            ("accept_ns", "ns", Lower),
            ("balance_ns", "ns", Lower),
            ("self_share", "frac", Lower),
        ],
        moves: "events_per_s; wall_s",
        on: "fig6_affinity; search_16c",
        flat_on: "fig6_fine (balance_ns)",
    },
    Layer {
        name: "nic.steering",
        metrics: &[
            ("route_ns", "ns", Lower),
            ("insert_ns", "ns", Lower),
            ("drops", "count", Lower),
            ("share", "frac", Lower),
        ],
        moves: "wall_s",
        on: "search_16c (Twenty probes)",
        flat_on: "search_16c (Stock probes), fig6_fine",
    },
    Layer {
        name: "app.client",
        metrics: &[
            ("packet_ns", "ns", Lower),
            ("timeouts", "count", Lower),
            ("share", "frac", Lower),
        ],
        moves: "events_per_s",
        on: "fig6_affinity",
        flat_on: "fig6_fine (smaller)",
    },
    Layer {
        name: "app.runner",
        metrics: &[
            ("slice_s", "s", Lower),
            ("residual_share", "frac", Lower),
            ("affinity_frac", "frac", Higher),
            ("idle_frac", "frac", Higher),
            ("trace_overhead_frac", "frac", Lower),
        ],
        moves: "events_per_s",
        on: "all",
        flat_on: "-",
    },
    Layer {
        name: "app.search",
        metrics: &[
            ("probes", "count", Lower),
            ("saturated_probes", "count", Lower),
            ("probe_setup_s", "s", Lower),
            ("probe_run_s", "s", Lower),
        ],
        moves: "wall_s, setup_s",
        on: "search_16c",
        flat_on: "others",
    },
];

/// Every per-layer metric as `(full name, unit, better)`, in table order.
pub fn per_layer() -> impl Iterator<Item = (String, &'static str, Better)> {
    LAYERS.iter().flat_map(|l| {
        l.metrics
            .iter()
            .map(move |&(m, unit, better)| (format!("{}.{m}", l.name), unit, better))
    })
}

/// The `--list` text.
#[must_use]
pub fn listing() -> String {
    let mut out = String::from("workloads:\n");
    for w in crate::workloads::Workload::ALL {
        out += &format!("  {:<14} {}\n", w.name(), w.why());
    }
    out += "end-to-end (tracing off; each part of a pass at its fastest over the run's repeats):\n";
    for m in &END_TO_END {
        out += &format!(
            "  {:<14} {:<9} {:<7} bound {:>4.0}%  {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.what
        );
    }
    out += "per-layer (traced pass; no bound):\n";
    for l in &LAYERS {
        out += &format!(
            "  {}  -> moves {} on {}; flat on {}\n",
            l.name, l.moves, l.on, l.flat_on
        );
        for &(m, unit, better) in l.metrics {
            out += &format!("    {:<22} {:<12} {}\n", m, unit, better.label());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use metrics::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn text<'a>(j: &'a Json, key: &str) -> &'a str {
        match j.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn table_agrees_with_benchmark_json() {
        let doc = benchmark_json();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.label());
            assert_eq!(j.get("bound"), Some(&Json::F64(m.bound)), "{}", m.name);
        }
        let layer = entries(&doc, "per_layer");
        let table: Vec<_> = per_layer().collect();
        assert_eq!(layer.len(), table.len());
        for (j, (name, unit, better)) in layer.iter().zip(&table) {
            assert_eq!(text(j, "name"), name);
            assert_eq!(text(j, "unit"), *unit);
            assert_eq!(text(j, "better"), better.label());
        }
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(j, "name"), w.name());
            assert_eq!(text(j, "why"), w.why());
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
