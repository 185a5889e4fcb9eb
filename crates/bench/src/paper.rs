//! The paper's evaluation (§6, §7.1's Twenty-Policy and an ablation) as
//! one program. Each committed `results/<id>.txt` is an [`Output`]: the
//! points it reads and the code that renders their runs. [`run`] makes
//! each distinct point once.
//!
//! A point is a [`RunConfig`] run once at its rate, or a saturation
//! search of a given budget from it (§6.2). DProf moves no event
//! (`tests/cacheline.rs` pins that), so a point with DProf and the same
//! point without it are one run, made with DProf on; lock_stat perturbs
//! the schedule, so Table 2's points are runs of their own. The searches
//! start from each figure's calibrated guess and report their best probe.

use crate::{audited, base_config, par_each, rate_guess, IMPLS};
use app::{ListenKind, RunConfig, RunResult, Runner, ServerKind, Workload};
use mem::{CacheModel, DataType};
use metrics::lockstat::LockClass;
use metrics::perf::KernelEntry;
use metrics::table::{fnum, kfmt, series, Table};
use sim::time::{ms, ms_f, secs, to_ms, to_us, Cycles};
use sim::topology::{CoreId, Machine};
use std::fmt::{self, Write};
use tcp::Kernel;

/// Every output: its id, also its file name, and the function that
/// builds it, in the order `paper` runs them. Figure 2 and the outputs
/// that share its 48-core DProf searches (~0.7 GB each) come last: the
/// worker heaps keep those pages after the runs are dropped, and run
/// first they raised the peak during Figure 8 from 1.5 to 1.8 GB.
#[rustfmt::skip]
pub const OUTPUTS: [(&str, Build); 17] = [
    ("fig3", fig3), ("fig5", fig5), ("fig6", fig6), ("fig7", fig7), ("fig8", fig8),
    ("fig9", fig9), ("fig10", fig10), ("table1", table1), ("table2", table2),
    ("table5", table5), ("lb_latency", lb_latency), ("lb_migration", lb_migration),
    ("ablation", ablation), ("fig2", fig2), ("fig4", fig4), ("table3", table3),
    ("table4", table4),
];

/// Core counts swept on the AMD machine (Figures 2, 3).
const AMD_CORES: [usize; 7] = [1, 8, 16, 24, 32, 40, 48];

/// Core counts swept on the Intel machine (Figures 5, 6).
pub const INTEL_CORES: [usize; 6] = [1, 16, 32, 48, 64, 80];

/// One run an output reads: `cfg` once at its rate when `budget` is
/// `None`, else [`app::find_saturation_budgeted`] from it with at most
/// `budget` probes.
#[derive(Clone)]
pub struct Point {
    cfg: RunConfig,
    budget: Option<usize>,
}

impl Point {
    /// Makes the run; any audit violation panics ([`audited`]). No output
    /// reads the kernel past DProf's tables, so an empty `Kernel` holding
    /// them takes its place here: at Figure 8's 1 s think time the run's
    /// own tracks ~390k connections.
    fn run(&self) -> RunResult {
        let r = match self.budget {
            None => Runner::new(self.cfg.clone()).run(),
            Some(n) => app::find_saturation_budgeted(&self.cfg, n),
        };
        let mut r = audited(&self.cfg, r);
        let dprof = std::mem::take(&mut r.kernel.cache.dprof);
        r.kernel = Kernel::new(r.kernel.machine.clone());
        r.kernel.cache.dprof = dprof;
        r
    }
}

/// Builds an output.
pub type Build = fn() -> Output;

/// Writes an output's text from its runs, one per point in order.
type Render = Box<dyn Fn(&mut String, &[&RunResult]) -> fmt::Result>;

/// One committed output, `results/<id>.txt`: the runs it reads, in the
/// order it renders them, and the code that renders them.
pub struct Output {
    /// The output id, also its file name.
    pub id: &'static str,
    title: &'static str,
    /// The runs the output reads.
    pub points: Vec<Point>,
    render: Render,
    /// Why its input did not load (Figure 6's scenario file).
    error: Option<String>,
}

impl Output {
    fn new(
        id: &'static str,
        title: &'static str,
        points: Vec<Point>,
        render: impl Fn(&mut String, &[&RunResult]) -> fmt::Result + 'static,
    ) -> Self {
        let (render, error) = (Box::new(render), None);
        Self {
            id,
            title,
            points,
            render,
            error,
        }
    }

    /// The output's text: the standard header, then `runs` (one per
    /// point, in order) rendered.
    #[must_use]
    pub fn text(&self, runs: &[&RunResult]) -> String {
        let mut out = crate::header(self.id, self.title);
        (self.render)(&mut out, runs).expect("formatting into a String cannot fail");
        out
    }

    /// Why `paper` refuses this output before any run: its input did not
    /// load, or it reads an observer plane that a `fast` build compiles
    /// out, so it would print zeros.
    #[must_use]
    pub fn refusal(&self) -> Option<String> {
        let reads = |f: fn(&RunConfig) -> bool| self.points.iter().any(|p| f(&p.cfg));
        let lockstat = reads(|c| c.lockstat).then_some("lock_stat");
        let plane = lockstat.or(reads(|c| c.dprof).then_some("DProf"));
        let fast = plane.filter(|_| cfg!(feature = "fast"));
        let fast =
            fast.map(|plane| format!("{} reads {plane}, which `fast` compiles out", self.id));
        self.error.clone().or(fast)
    }
}

/// Makes each distinct point of `outputs` once on `workers` threads, in
/// order of first reader, and hands each output's text to `done` as soon
/// as the last run it reads is in. A run is dropped once no output still
/// waiting reads it. Returns the number of saturation searches and of
/// fixed runs made.
pub fn run(outputs: &[Output], workers: usize, mut done: impl FnMut(&Output, &str)) -> [usize; 2] {
    let (runs, reads) = plan(outputs);
    let mut results: Vec<Option<RunResult>> = runs.iter().map(|_| None).collect();
    let mut waiting: Vec<usize> = (0..outputs.len()).collect();
    let mut settle = |results: &mut [Option<RunResult>]| {
        waiting.retain(|&o| {
            let rs: Option<Vec<_>> = reads[o].iter().map(|&i| results[i].as_ref()).collect();
            let Some(rs) = rs else { return true };
            done(&outputs[o], &outputs[o].text(&rs));
            false
        });
        for (i, r) in results.iter_mut().enumerate() {
            if !waiting.iter().any(|&o| reads[o].contains(&i)) {
                *r = None;
            }
        }
    };
    settle(&mut results);
    let sink = |i, r| {
        results[i] = Some(r);
        settle(&mut results);
    };
    par_each(runs.iter().collect(), workers, Point::run, sink);
    let searches = runs.iter().filter(|p| p.budget.is_some()).count();
    [searches, runs.len() - searches]
}

/// The distinct runs `outputs` read, in order of first reader, and which
/// of them each output reads. Two points are one run when their budgets
/// are equal and their configs are equal once DProf is cleared; the run
/// has DProf on if any of its readers asks for it.
fn plan(outputs: &[Output]) -> (Vec<Point>, Vec<Vec<usize>>) {
    let same = |a: &Point, b: &Point| {
        let mut cfg = b.cfg.clone();
        cfg.dprof = a.cfg.dprof;
        a.budget == b.budget && a.cfg == cfg
    };
    let mut runs: Vec<Point> = Vec::new();
    let mut read = |p: &Point| {
        let i = runs.iter().position(|r| same(r, p)).unwrap_or(runs.len());
        if i == runs.len() {
            runs.push(p.clone());
        }
        runs[i].cfg.dprof |= p.cfg.dprof;
        i
    };
    let reads: Vec<_> = outputs
        .iter()
        .map(|o| o.points.iter().map(&mut read).collect())
        .collect();
    (runs, reads)
}

/// Searches at the 48-core AMD Apache point, `tweak`ed, for each of
/// `kinds` (Figure 4, Tables 2–4).
fn amd48(kinds: &[ListenKind], tweak: fn(&mut RunConfig)) -> Vec<Point> {
    let point = |&l: &ListenKind| {
        let mut cfg = base_config(Machine::amd48(), 48, l, ServerKind::apache());
        tweak(&mut cfg);
        let budget = Some(5);
        Point { cfg, budget }
    };
    kinds.iter().map(point).collect()
}

/// Figures 7–10: searches for every `x`, and every kind at each `x`.
fn grid<X: Copy>(
    xs: &[X],
    kinds: &[ListenKind],
    budget: usize,
    cfg: fn(ListenKind, X) -> RunConfig,
) -> Vec<Point> {
    let budget = Some(budget);
    let cfgs = xs
        .iter()
        .flat_map(|&x| kinds.iter().map(move |&l| cfg(l, x)));
    cfgs.map(|cfg| Point { cfg, budget }).collect()
}

/// Figures 2, 3, 5 and 6: searches for every kind at every core count,
/// kinds outermost, rendered as one throughput-per-core series per kind,
/// each followed by what `note` says about its largest core count.
fn core_sweep(
    id: &'static str,
    title: &'static str,
    kinds: Vec<ListenKind>,
    xs: Vec<usize>,
    cfg: impl Fn(ListenKind, usize) -> RunConfig,
    note: fn(ListenKind, usize, &RunResult) -> Option<String>,
) -> Output {
    let (cfg, budget) = (&cfg, Some(5));
    let cfgs = kinds
        .iter()
        .flat_map(|&l| xs.iter().map(move |&c| cfg(l, c)));
    let points = cfgs.map(|cfg| Point { cfg, budget }).collect();
    Output::new(id, title, points, move |out, runs| {
        for (listen, rs) in kinds.iter().zip(runs.chunks(xs.len())) {
            let per_core = rs.iter().map(|r| r.rps_per_core);
            let pts: Vec<_> = xs.iter().map(|&c| c as f64).zip(per_core).collect();
            writeln!(out)?;
            out.push_str(&series(listen.label(), "cores", "requests/sec/core", &pts));
            if let Some(line) = rs.last().and_then(|r| note(*listen, xs[xs.len() - 1], r)) {
                writeln!(out, "{line}")?;
            }
        }
        Ok(())
    })
}

/// Figure 2: Apache throughput per core vs. active cores on the AMD
/// machine, for Stock-, Fine-, and Affinity-Accept.
///
/// Expected shape: Stock collapses as cores grow (total throughput goes
/// flat on the listen-socket lock); Fine ≈ 2.8× Stock at 48 cores;
/// Affinity beats Fine by ~24 % at 48 cores.
fn fig2() -> Output {
    let title = "Apache, AMD machine: requests/sec/core vs cores";
    let cfg = |l, c| base_config(Machine::amd48(), c, l, ServerKind::apache());
    core_sweep(
        "fig2",
        title,
        IMPLS.to_vec(),
        AMD_CORES.to_vec(),
        cfg,
        |listen, lastx, last| {
            Some(format!(
                "# {} at {} cores: total {:.0} req/s, idle {:.1}%, affinity {:.0}%",
                listen.label(),
                lastx,
                last.rps,
                last.idle_frac * 100.0,
                last.affinity_frac * 100.0
            ))
        },
    )
}

/// Figure 3: lighttpd throughput per core vs. active cores on the AMD
/// machine.
///
/// Expected shape: same ordering as Figure 2; lighttpd's higher absolute
/// rate saturates the NIC at high core counts, so Affinity-Accept's curve
/// slopes downward past its peak.
fn fig3() -> Output {
    let title = "lighttpd, AMD machine: requests/sec/core vs cores";
    let cfg = |l, c| base_config(Machine::amd48(), c, l, ServerKind::lighttpd());
    core_sweep(
        "fig3",
        title,
        IMPLS.to_vec(),
        AMD_CORES.to_vec(),
        cfg,
        |listen, _, last| {
            Some(format!(
                "# {} at 48 cores: wire utilization {:.0}%",
                listen.label(),
                last.wire_util * 100.0
            ))
        },
    )
}

/// Figure 4: CDF of memory-access latencies to the shared cache-line set
/// of Table 4, Fine-Accept vs Affinity-Accept.
///
/// Both runs instrument the same field set (the one shared under Fine);
/// expected shape: Affinity's accesses concentrate at local-cache
/// latencies while Fine shows a heavy tail at remote-cache latencies
/// (460+ cycles on the AMD machine).
fn fig4() -> Output {
    let title = "CDF of access latency to shared lines, Fine vs Affinity (48 cores)";
    let impls = [ListenKind::Fine, ListenKind::Affinity];
    let points = amd48(&impls, |c| c.dprof = true);
    Output::new("fig4", title, points, move |out, rs| {
        for (l, r) in impls.iter().zip(rs) {
            let cdf = r.kernel.cache.dprof.latency_cdf(&DataType::TABLE4);
            writeln!(out, "\n# {} ({} instrumented accesses)", l.label(), {
                let mut n = 0u64;
                for ty in DataType::TABLE4 {
                    if let Some(a) = r.kernel.cache.dprof.agg(ty) {
                        n += a.lat_hist.count();
                    }
                }
                n
            })?;
            let mut t = Table::new(&["latency (cycles)", "cumulative fraction"]);
            for (lat, frac) in &cdf {
                t.row_owned(vec![lat.to_string(), format!("{frac:.4}")]);
            }
            out.push_str(&t.render());
        }
        out.push_str("\npaper (Figure 4): Affinity reaches ~90% below 100 cycles;\n");
        out.push_str("  Fine has a long tail out to 460-700 cycles (remote accesses)\n");
        Ok(())
    })
}

/// Figure 5: Apache throughput per core vs. cores on the 80-core Intel
/// machine (two NIC ports provide a private DMA ring per core past 64).
///
/// Expected shape: same ordering as Figure 2, but Affinity's margin over
/// Fine is smaller — the Intel interconnect's remote accesses are much
/// cheaper (200 vs 460 cycles).
fn fig5() -> Output {
    let title = "Apache, Intel machine: requests/sec/core vs cores";
    let cfg = |l, c| base_config(Machine::intel80(), c, l, ServerKind::apache());
    core_sweep(
        "fig5",
        title,
        IMPLS.to_vec(),
        INTEL_CORES.to_vec(),
        cfg,
        |_, _, _| None,
    )
}

/// Figure 6: lighttpd throughput per core vs. cores on the 80-core Intel
/// machine.
///
/// The sweep's machine, core counts, kinds, windows and search mode all
/// come from `scenarios/fig6.json`, and `tests/scenarios.rs` proves the
/// derived configs are bit-identical to the `bench::base_config` ones.
fn fig6() -> Output {
    use crate::scenario::{catalog_path, load_file};
    let title = "lighttpd, Intel machine: requests/sec/core vs cores";
    let loaded = load_file(&catalog_path("scenarios/fig6.json"));
    let Ok(sc) = loaded else {
        let mut broken = Output::new("fig6", title, Vec::new(), |_, _| Ok(()));
        broken.error = loaded.err();
        return broken;
    };
    // Loading validated every sweep point.
    let sweep = sc.points().expect("a loaded scenario's points");
    let xs = sweep.iter().map(|p| p.cores).collect();
    let cfg = move |l, c| {
        sweep
            .iter()
            .find(|p| p.cores == c)
            .expect("a swept count")
            .config(l)
    };
    core_sweep("fig6", title, sc.kinds, xs, cfg, |listen, _, last| {
        Some(format!(
            "# {} at 80 cores: wire utilization {:.0}%",
            listen.label(),
            last.wire_util * 100.0
        ))
    })
}

/// Requests-per-connection values Figures 7 and 10 sweep.
const REUSE: [u32; 6] = [1, 6, 20, 100, 500, 1000];

/// One point of the connection-reuse sweep (Figures 7 and 10).
fn reuse_config(listen: ListenKind, n: u32) -> RunConfig {
    let mut cfg = base_config(Machine::amd48(), 48, listen, ServerKind::apache());
    cfg.workload = Workload::with_requests_per_conn(n);
    // Per-request cost shrinks as per-connection overhead amortizes; the
    // guess accounts for that so the search converges quickly.
    let per_req = match listen {
        ListenKind::Stock => 240_000.0 + 1_300_000.0 / f64::from(n),
        ListenKind::Twenty => 230_000.0 + 1_300_000.0 / f64::from(n),
        ListenKind::Fine => 210_000.0 + 380_000.0 / f64::from(n),
        ListenKind::Affinity | ListenKind::BusyPoll => 175_000.0 + 330_000.0 / f64::from(n),
    };
    let rps = 48.0 * 2.4e9 / per_req;
    cfg.conn_rate = rps / f64::from(n);
    cfg
}

/// Figure 7: the effect of TCP connection reuse (requests per connection)
/// on Apache throughput (AMD, 48 cores).
///
/// Expected shape: all implementations improve with reuse (less
/// setup/teardown); Affinity > Fine at every point; Stock converges to
/// Fine at very high reuse, where the listen lock is no longer touched
/// often enough to matter.
fn fig7() -> Output {
    let title = "Apache throughput vs requests per connection (AMD, 48 cores)";
    let points = grid(&REUSE, &IMPLS, 4, reuse_config);
    Output::new("fig7", title, points, |out, runs| {
        let mut t = Table::new(&["req/conn", "stock", "fine", "affinity"]);
        for (n, rs) in REUSE.into_iter().zip(runs.chunks(IMPLS.len())) {
            let mut row = vec![n.to_string()];
            for r in rs {
                row.push(format!("{:.0}", r.rps_per_core));
            }
            t.row_owned(row);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Figure 7): affinity above fine everywhere; stock matches\n");
        out.push_str("  fine above ~5000 req/conn; all rise with reuse\n");
        Ok(())
    })
}

/// Figure 8: the effect of client think time on Apache throughput (AMD,
/// 48 cores), with connection reuse held constant at 6 requests.
///
/// Longer thinks mean more concurrently active connections the server
/// must track (the paper reaches >300,000 at 1 s). Expected shape:
/// Affinity and Fine sustain roughly constant throughput across think
/// times with Affinity ahead; Stock stays collapsed throughout.
fn fig8() -> Output {
    /// Think times swept, in milliseconds.
    const THINKS_MS: [f64; 5] = [0.1, 1.0, 10.0, 100.0, 1000.0];

    fn config_for(listen: ListenKind, think_ms: f64) -> RunConfig {
        let think: Cycles = ms_f(think_ms);
        let wl = Workload::with_think(think);
        // Session duration: 5 thinks plus service time.
        let lifetime = 5 * think + ms(60);
        let guess = rate_guess(listen, ServerKind::apache(), 48);
        // Apache needs one worker per concurrently active connection.
        let concurrency_per_core =
            (guess * 6.0 / 48.0 * sim::time::to_secs(lifetime) * 1.4).max(1024.0) as usize;
        let server = ServerKind::ApacheWorker {
            workers_per_core: concurrency_per_core,
        };
        let mut cfg = RunConfig::new(Machine::amd48(), 48, listen, server, wl, guess);
        cfg.warmup = lifetime + ms(300);
        cfg.measure = ms(300);
        cfg
    }

    let title = "Apache throughput vs client think time (AMD, 48 cores, 6 req/conn)";
    let points = grid(&THINKS_MS, &IMPLS, 3, config_for);
    Output::new("fig8", title, points, |out, runs| {
        let mut t = Table::new(&[
            "think (ms)",
            "stock",
            "fine",
            "affinity",
            "live conns (affinity)",
        ]);
        for (think_ms, rs) in THINKS_MS.into_iter().zip(runs.chunks(IMPLS.len())) {
            let mut row = vec![format!("{think_ms}")];
            let mut live = 0;
            for (listen, r) in IMPLS.into_iter().zip(rs) {
                row.push(format!("{:.0}", r.rps_per_core));
                if listen == ListenKind::Affinity {
                    live = r.audit.kernel.live;
                }
            }
            row.push(live.to_string());
            t.row_owned(row);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Figure 8): fine and affinity flat across think times,\n");
        out.push_str("  affinity ahead; >50k active connections at 100ms, >300k at 1s\n");
        Ok(())
    })
}

/// Figure 9: the effect of average served file size on Apache throughput
/// (AMD, 48 cores). All file sizes scale proportionally.
///
/// Expected shape: above ~1 KB average file size the NIC's 10 Gb/s link
/// saturates for Fine and Affinity and their request rates fall together;
/// Stock stays lock-bound (CPU-limited) until much larger files.
fn fig9() -> Output {
    /// Average file sizes swept (bytes); the base mix averages ~700.
    const AVG_SIZES: [f64; 6] = [10.0, 100.0, 700.0, 1_000.0, 3_000.0, 10_000.0];

    fn config_for(listen: ListenKind, avg: f64) -> RunConfig {
        let scale = avg / 700.0;
        let mut cfg = base_config(Machine::amd48(), 48, listen, ServerKind::apache());
        cfg.workload = Workload::with_file_scale(scale);
        // Wire-capacity-aware guess: ~1.25 GB/s over ~ (request + response +
        // framing) bytes per request.
        let per_req_bytes = 300.0 + 250.0 + avg + 4.0 * 78.0;
        let wire_rps = 1.25e9 / per_req_bytes;
        let cpu_rps = rate_guess(listen, ServerKind::apache(), 48) * 6.0;
        cfg.conn_rate = cpu_rps.min(wire_rps) / 6.0;
        cfg
    }

    let title = "Apache throughput vs average file size (AMD, 48 cores)";
    let points = grid(&AVG_SIZES, &IMPLS, 4, config_for);
    Output::new("fig9", title, points, |out, runs| {
        let mut t = Table::new(&[
            "avg file (B)",
            "stock",
            "fine",
            "affinity",
            "wire util (affinity)",
        ]);
        for (avg, rs) in AVG_SIZES.into_iter().zip(runs.chunks(IMPLS.len())) {
            let mut row = vec![format!("{avg:.0}")];
            let mut wire = 0.0;
            for (listen, r) in IMPLS.into_iter().zip(rs) {
                row.push(format!("{:.0}", r.rps_per_core));
                if listen == ListenKind::Affinity {
                    wire = r.wire_util;
                }
            }
            row.push(format!("{:.0}%", wire * 100.0));
            t.row_owned(row);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Figure 9): NIC saturates fine+affinity above ~1KB; stock\n");
        out.push_str("  too slow to saturate it until ~10KB\n");
        Ok(())
    })
}

/// Figure 10: Figure 7 plus "Twenty-Policy" — stock Linux with hardware
/// per-flow steering, the IXGBE driver's FDir update on every 20th
/// transmitted packet (§7.1). The first three columns are Figure 7's
/// runs.
///
/// Expected shape: at low connection reuse Twenty-Policy tracks Stock
/// (short flows never reach 20 packets and the lock dominates anyway); at
/// moderate reuse FDir table maintenance (10k-cycle inserts, stall-the-
/// card flushes) holds it below Affinity; only at very high reuse does it
/// approach Affinity-Accept.
fn fig10() -> Output {
    let title = "connection reuse sweep incl. hardware flow steering (Twenty-Policy)";
    let kinds = [IMPLS[0], IMPLS[1], IMPLS[2], ListenKind::Twenty];
    let points = grid(&REUSE, &kinds, 4, reuse_config);
    Output::new("fig10", title, points, move |out, runs| {
        let mut t = Table::new(&["req/conn", "stock", "fine", "affinity", "twenty-policy"]);
        for (n, rs) in REUSE.into_iter().zip(runs.chunks(kinds.len())) {
            let mut row = vec![n.to_string()];
            for r in rs {
                row.push(format!("{:.0}", r.rps_per_core));
            }
            t.row_owned(row);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Figure 10): Twenty-Policy only matches Affinity near 1000\n");
        out.push_str("  req/conn; table maintenance hurts at ~500; lock contention below 100\n");
        Ok(())
    })
}

/// Table 1: access times to different levels of the memory hierarchy.
///
/// Prints the configured latency profiles and then *measures* them back
/// out of the coherence model by staging the corresponding access
/// patterns, verifying the model serves each level at the configured cost.
fn table1() -> Output {
    /// Measures the six service levels by construction.
    fn measure(machine: &Machine) -> [u64; 6] {
        let mut m = CacheModel::new(machine.clone());
        let local = CoreId(0);
        let same_chip = CoreId(1);
        let remote = CoreId((machine.cores_per_chip * (machine.n_chips() - 1)) as u16);

        // L1: immediate re-access.
        let o = m.alloc(DataType::TcpRequestSock, local);
        m.access_field(local, o, 0, true);
        let l1 = m.access_field(local, o, 0, false).latency;
        // L2: this core holds a copy but another core touched it last
        // (read-shared within the chip).
        m.access_field(same_chip, o, 0, false);
        let l2 = m.access_field(local, o, 0, false).latency;
        // L3: a same-chip core holds it modified.
        let o2 = m.alloc(DataType::TcpRequestSock, same_chip);
        m.access_field(same_chip, o2, 0, true);
        let l3 = m.access_field(local, o2, 0, false).latency;
        // RAM: first touch of a cold local object.
        let o3 = m.alloc(DataType::TcpRequestSock, local);
        let ram = m.access_field(local, o3, 0, false).latency;
        // Remote L3: a cross-chip core holds it modified.
        let o4 = m.alloc(DataType::TcpRequestSock, remote);
        m.access_field(remote, o4, 0, true);
        let rl3 = m.access_field(local, o4, 0, false).latency;
        // Remote RAM: cold object homed on the farthest chip (warm+evicted).
        let o5 = m.alloc(DataType::TcpRequestSock, remote);
        m.access_field(remote, o5, 0, true);
        m.access_field(remote, o5, 0, false);
        // Invalidate the remote copy by writing locally, then drop our copy by
        // writing remotely again, read from a third chip — clean remote home.
        let third = CoreId(machine.cores_per_chip as u16 * 2);
        m.access_field(third, o5, 0, false);
        let o6 = m.alloc(DataType::TcpRequestSock, remote);
        m.access_field(remote, o6, 0, true);
        m.access_field(third, o6, 0, false); // downgrade to shared
        let rram = m.access_field(local, o6, 0, false).latency;
        [l1, l2, l3, ram, rl3, rram]
    }

    let title = "memory hierarchy access times (cycles)";
    Output::new("table1", title, Vec::new(), |out, _| {
        let mut t = Table::new(&[
            "machine",
            "L1",
            "L2",
            "L3",
            "RAM",
            "remote L3",
            "remote RAM",
        ]);
        for machine in [Machine::amd48(), Machine::intel80()] {
            let lat = machine.lat;
            t.row_owned(vec![
                format!("{} (configured)", machine.name),
                lat.l1.to_string(),
                lat.l2.to_string(),
                lat.l3.to_string(),
                lat.ram.to_string(),
                lat.remote_l3.to_string(),
                lat.remote_ram.to_string(),
            ]);
            let m = measure(&machine);
            t.row_owned(vec![
                format!("{} (measured)", machine.name),
                m[0].to_string(),
                m[1].to_string(),
                m[2].to_string(),
                m[3].to_string(),
                m[4].to_string(),
                m[5].to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Table 1): AMD 3/14/28/120/460/500, Intel 4/12/24/90/200/280\n");
        Ok(())
    })
}

/// Table 2: composition of the time to process a single request with
/// Apache at 48 cores, measured under the `lock_stat` profiler.
///
/// Columns mirror the paper: throughput (depressed by lock_stat's
/// accounting overhead), total per-request time across all cores, idle
/// time (which includes mutex-mode waits for the listen-socket lock),
/// spin-mode wait, hold time, and the remainder.
///
/// Expected shape: Stock spends most of each request waiting for the
/// listen-socket lock (~70 % idle+wait); Fine and Affinity have
/// negligible listen-lock time, with Affinity ahead on throughput.
fn table2() -> Output {
    let title = "per-request time breakdown under lock_stat (Apache, AMD, 48 cores)";
    let points = amd48(&IMPLS, |c| c.lockstat = true);
    Output::new("table2", title, points, |out, rs| {
        let mut t = Table::new(&[
            "listen socket",
            "req/s/core",
            "total (us)",
            "idle (us)",
            "lock wait spin (us)",
            "lock hold (us)",
            "other (us)",
        ]);
        for (l, r) in IMPLS.iter().zip(rs) {
            let served = r.served.max(1) as f64;
            // Total wall-clock across all cores, per request.
            let total_cyc = 48.0 * sim::time::ms(300) as f64 / served;
            let idle_cyc = r.idle_frac * total_cyc;
            // Listen-socket lock accounting. Mutex-mode waits already show up
            // as idle time (the task sleeps); spin waits burn CPU.
            let ls = r.lockstat.class(LockClass::ListenSocket);
            let spin_cyc = ls.wait_spin_cycles as f64 / served;
            let hold_cyc = ls.hold_cycles as f64 / served;
            let other_cyc = (total_cyc - idle_cyc - spin_cyc - hold_cyc).max(0.0);
            t.row_owned(vec![
                l.label().into(),
                format!("{:.0}", r.rps_per_core),
                fnum(to_us(total_cyc as u64), 0),
                fnum(to_us(idle_cyc as u64), 0),
                fnum(to_us(spin_cyc as u64), 1),
                fnum(to_us(hold_cyc as u64), 1),
                fnum(to_us(other_cyc as u64), 0),
            ]);
        }
        out.push_str(&t.render());
        writeln!(out)?;
        for (l, r) in IMPLS.iter().zip(rs) {
            let ls = r.lockstat.class(LockClass::ListenSocket);
            writeln!(
                out,
                "# {}: listen lock acquisitions {}, contended {}, mutex-mode wait {:.0} us/req",
                l.label(),
                ls.acquisitions,
                ls.contended,
                to_us(ls.wait_mutex_cycles / r.served.max(1)),
            )?;
        }
        out.push_str("\npaper (Table 2): stock 1700 req/s/core, 590us total, 320us idle,\n");
        out.push_str("  82us spin, 25us hold; fine 5700, 178us, 8us, 0, 30us;\n");
        out.push_str("  affinity 7000, 144us, 4us, 0, 17us\n");
        Ok(())
    })
}

/// Table 3: performance counters by kernel entry point, Fine-Accept vs
/// Affinity-Accept (Apache, AMD machine, 48 cores).
///
/// Expected shape: both implementations execute approximately the same
/// number of instructions; Fine incurs roughly double the L2 misses and
/// ~30–40 % more cycles in `softirq net rx`, with the summed network-stack
/// cycles about 1.3× Affinity's.
fn table3() -> Output {
    let title = "perf counters per kernel entry, Fine vs Affinity (48 cores)";
    let points = amd48(&[ListenKind::Fine, ListenKind::Affinity], |_| {});
    Output::new("table3", title, points, |out, rs| {
        let (fine, aff) = (rs[0], rs[1]);

        let mut t = Table::new(&[
            "kernel entry",
            "cycles (F/A)",
            "cyc delta",
            "instr (F/A)",
            "instr delta",
            "l2 miss (F/A)",
            "miss delta",
        ]);
        for e in KernelEntry::ALL {
            let (fc, fi, fm) = fine.perf.per_request(e);
            let (ac, ai, am) = aff.perf.per_request(e);
            if fc == 0.0 && ac == 0.0 {
                continue;
            }
            t.row_owned(vec![
                e.label().into(),
                format!("{} / {}", kfmt(fc), kfmt(ac)),
                kfmt(fc - ac),
                format!("{} / {}", kfmt(fi), kfmt(ai)),
                format!("{:.0}", fi - ai),
                format!("{fm:.0} / {am:.0}"),
                format!("{:.0}", fm - am),
            ]);
        }
        out.push_str(&t.render());
        let f_stack = fine.perf.network_stack_cycles_per_request();
        let a_stack = aff.perf.network_stack_cycles_per_request();
        writeln!(out)?;
        writeln!(
            out,
            "network-stack cycles/request: fine {} vs affinity {}  ({:.0}% reduction; paper: 30%)",
            kfmt(f_stack),
            kfmt(a_stack),
            100.0 * (f_stack - a_stack) / f_stack,
        )?;
        writeln!(
            out,
            "total L2 misses/request: fine {:.0} vs affinity {:.0} (paper: roughly 2x)",
            fine.perf.total_l2_misses() as f64 / fine.served.max(1) as f64,
            aff.perf.total_l2_misses() as f64 / aff.served.max(1) as f64,
        )?;
        writeln!(
            out,
            "throughput: fine {:.0} vs affinity {:.0} req/s/core ({:.0}% improvement; paper: 24%)",
            fine.rps_per_core,
            aff.rps_per_core,
            100.0 * (aff.rps - fine.rps) / fine.rps,
        )
    })
}

/// Table 4: DProf data-structure sharing profile, Fine-Accept vs
/// Affinity-Accept (Apache, AMD, 48 cores).
///
/// For each tracked kernel data type: percent of its cache lines shared
/// between cores, percent of bytes shared, percent shared read-write, and
/// cycles per request spent accessing the instrumented (shared-under-Fine)
/// bytes.
///
/// Expected shape: connection-path objects (`tcp_sock`, `sk_buff`,
/// `tcp_request_sock`, small slabs) heavily shared under Fine and almost
/// private under Affinity; `file` objects equally shared under both
/// (global reference counts).
fn table4() -> Output {
    let title = "DProf sharing profile per data type, Fine / Affinity (48 cores)";
    let points = amd48(&[ListenKind::Fine, ListenKind::Affinity], |c| {
        c.dprof = true
    });
    Output::new("table4", title, points, |out, rs| {
        let (fine, aff) = (rs[0], rs[1]);

        let mut t = Table::new(&[
            "data type",
            "size (B)",
            "% lines shared (F/A)",
            "% bytes shared (F/A)",
            "% bytes RW (F/A)",
            "cyc on shared/req (F/A)",
        ]);
        for ty in DataType::TABLE4 {
            let fr = fine.kernel.cache.dprof.table4_row(ty, fine.served);
            let ar = aff.kernel.cache.dprof.table4_row(ty, aff.served);
            t.row_owned(vec![
                ty.label().into(),
                ty.size().to_string(),
                format!("{:.0} / {:.0}", fr.lines_shared_pct, ar.lines_shared_pct),
                format!("{:.0} / {:.0}", fr.bytes_shared_pct, ar.bytes_shared_pct),
                format!(
                    "{:.0} / {:.0}",
                    fr.bytes_shared_rw_pct, ar.bytes_shared_rw_pct
                ),
                format!(
                    "{} / {}",
                    kfmt(fr.cycles_per_request),
                    kfmt(ar.cycles_per_request)
                ),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (Table 4, fine/affinity): tcp_sock 85/12 lines, 30/2 bytes,\n");
        out.push_str("  22/2 RW, 54974/30584 cyc; sk_buff 75/25, 20/2, 17/2, 17586/9882;\n");
        out.push_str("  tcp_request_sock 100/0, 22/0, 12/0, 5174/3278; file 100/100, 8/8, 8/8\n");
        Ok(())
    })
}

/// Table 5: features of contemporary 10 Gb NICs, plus the simulated
/// card's behaviour at the limits the table documents.
fn table5() -> Output {
    use nic::catalog::CATALOG;
    use nic::packet::RingId;
    use nic::steering::{PerFlowTable, RssTable, FDIR_INSERT_CYCLES};

    let title = "NIC feature comparison and modelled limits";
    Output::new("table5", title, Vec::new(), |out, _| {
        let mut t = Table::new(&[
            "NIC",
            "HW DMA rings",
            "RSS DMA rings",
            "flow steering (conns)",
        ]);
        for n in CATALOG {
            t.row_owned(vec![
                n.name.into(),
                n.hw_dma_rings.into(),
                n.rss_dma_rings.into(),
                n.flow_steering_entries.unwrap_or("-").into(),
            ]);
        }
        out.push_str(&t.render());

        // Demonstrate the modelled limits for the 82599.
        let rss = RssTable::new(64);
        writeln!(
            out,
            "\n82599 model: RSS with 64 rings addresses {} distinct rings",
            rss.distinct_rings()
        )?;
        let mut fdir = PerFlowTable::new(64, 32 * 1024);
        let mut flushes = 0;
        for h in 0..40_000u64 {
            fdir.insert(h * 1000, h, RingId((h % 64) as u16));
            flushes = fdir.flushes;
        }
        writeln!(
            out,
            "82599 model: 40,000 per-flow inserts at {} cycles each caused {} full-table flush(es)",
            FDIR_INSERT_CYCLES, flushes
        )?;
        writeln!(
            out,
            "82599 model: flow-group mode needs only {} entries for any number of connections",
            nic::steering::DEFAULT_FLOW_GROUPS
        )
    })
}

/// §6.5, first experiment: client-perceived connection latency when half
/// the cores suddenly lose capacity to a parallel `make`, with and
/// without the connection load balancer.
///
/// The web server is offered ~50 % of machine capacity; a kernel-compile
/// batch job occupies the upper 24 cores. Expected shape: without
/// stealing, connections landing on make cores time out (median latency
/// jumps to the client timeout); with the load balancer the median
/// returns to ~230 ms (the two 100 ms think times plus service under
/// full utilization of the remaining cores).
///
/// The client timeout is scaled from the paper's 10 s to 2.5 s to keep
/// the simulation window tractable; the effect (median = timeout without
/// balancing) is unchanged.
fn lb_latency() -> Output {
    fn config(hog: bool, stealing: bool, migration: bool) -> RunConfig {
        let mut wl = Workload::base();
        wl.timeout = ms(2_500);
        // ~50% of the measured Affinity capacity at 48 cores.
        let rate = 0.5 * 10_300.0 * 48.0 / 6.0;
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            48,
            ListenKind::Affinity,
            ServerKind::lighttpd(),
            wl,
            rate,
        );
        cfg.warmup = ms(800);
        cfg.measure = secs(3);
        cfg.hog_work = hog.then_some(secs(40)); // still running at window end
        cfg.steal_enabled = stealing;
        cfg.migrate_enabled = migration;
        cfg
    }

    let cases = [
        ("web server alone", config(false, true, true)),
        ("make, no balancer", config(true, false, false)),
        ("make, stealing only", config(true, true, false)),
        ("make, full balancer", config(true, true, true)),
    ];
    let title = "connection latency under a background make on half the cores (§6.5)";
    let names = cases.each_ref().map(|(name, _)| *name);
    let points = cases.map(|(_, cfg)| Point { cfg, budget: None }).to_vec();
    Output::new("lb_latency", title, points, move |out, rs| {
        let mut t = Table::new(&[
            "configuration",
            "median (ms)",
            "90th pct (ms)",
            "timeouts",
            "completed",
            "stolen",
            "migrations",
        ]);
        for (name, r) in names.iter().zip(rs) {
            t.row_owned(vec![
                (*name).into(),
                format!("{:.0}", to_ms(r.latency.median())),
                format!("{:.0}", to_ms(r.latency.percentile(90.0))),
                r.timeouts.to_string(),
                r.conns_completed.to_string(),
                r.listen_stats.accepts_stolen.to_string(),
                r.migrations.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (§6.5): alone 200ms median/90th; make without balancer\n");
        out.push_str("  10s median+90th (timeouts); with balancer 230ms median, 480ms 90th\n");
        Ok(())
    })
}

/// §6.5, second experiment: flow-group migration returns CPU to a
/// co-located batch job.
///
/// The paper: a kernel compile on 24 of the 48 cores takes 125 s alone;
/// adding the web server (stealing on, migration off) stretches it to
/// 168 s; enabling flow-group migration recovers it to 130 s, because
/// packet processing for the web server's flow groups moves off the make
/// cores (twice — the compile's serial phase lets groups drift back).
///
/// The job is scaled down ~100× so the simulation completes quickly;
/// compare the runtime *ratios*.
fn lb_migration() -> Output {
    let title = "batch-job runtime with and without flow-group migration (§6.5)";
    // The full (config, seed) set is pinned in `bench::lb` so the
    // recorded table in EXPERIMENTS.md regenerates exactly.
    let cases = crate::lb::lb_migration_cases();
    let names = cases.each_ref().map(|(name, _)| *name);
    let points = cases.map(|(_, cfg)| Point { cfg, budget: None }).to_vec();
    Output::new("lb_migration", title, points, move |out, rs| {
        let mut t = Table::new(&[
            "configuration",
            "make runtime (ms)",
            "vs alone",
            "migrations",
        ]);
        let mut base = None;
        for (name, r) in names.iter().zip(rs) {
            let rt = r.batch_runtime.expect("job ran");
            if base.is_none() {
                base = Some(rt as f64);
            }
            t.row_owned(vec![
                (*name).into(),
                format!("{:.0}", to_ms(rt)),
                format!("{:.2}x", rt as f64 / base.unwrap()),
                r.migrations.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\npaper (§6.5): 125s alone -> 168s with web (1.34x) -> 130s with\n");
        out.push_str("  migration (1.04x); shapes, not absolute times, are comparable\n");
        Ok(())
    })
}

/// Ablation study of Affinity-Accept's design choices (not a paper
/// figure; DESIGN.md calls these out):
///
/// * the 5:1 local:stolen proportional share (§3.3.1: "ratios that are too
///   low start to prefer remote connections…; too high do not steal
///   enough"),
/// * the number of flow groups (§3.1: "achieving good load balance
///   requires having many more flow groups than cores"),
/// * the per-core backlog (§3.3.1: 64–256 per core "works well"),
/// * stealing and migration switched off entirely.
///
/// Each variant runs the §6.5-style interference scenario (web server at
/// ~60 % capacity, batch job on half the cores) and reports throughput,
/// median latency, and timeouts.
fn ablation() -> Output {
    /// Steal ratios (local:stolen) of the sensitivity table.
    const RATIOS: [u32; 3] = [1, 5, 20];
    /// Per-core accept backlogs of the sensitivity table.
    const BACKLOGS: [usize; 4] = [16, 64, 128, 256];

    fn base() -> RunConfig {
        let mut wl = Workload::base();
        wl.timeout = ms(2_000);
        let mut cfg = RunConfig::new(
            Machine::amd48(),
            16,
            ListenKind::Affinity,
            ServerKind::lighttpd(),
            wl,
            0.55 * 14_000.0 * 16.0 / 6.0,
        );
        cfg.warmup = ms(500);
        cfg.measure = secs(2);
        cfg.hog_work = Some(secs(20));
        cfg.migrate_interval = ms(20);
        cfg
    }

    let variants = [
        ("paper defaults", base()),
        ("no stealing, no migration", {
            let mut c = base();
            c.steal_enabled = false;
            c.migrate_enabled = false;
            c
        }),
        ("stealing only", {
            let mut c = base();
            c.migrate_enabled = false;
            c
        }),
        ("fine-accept (no affinity)", {
            let mut c = base();
            c.listen = ListenKind::Fine;
            c
        }),
    ];
    // Steal-ratio sensitivity (§3.3.1: overall performance insensitive in
    // a broad band). This knob lives in the listen config; we sweep it by
    // running the whole stack with modified ratios.
    let ratios = RATIOS.map(|ratio| {
        let mut cfg = base();
        cfg.steal_ratio_local = ratio;
        cfg
    });
    let backlogs = BACKLOGS.map(|per_core| {
        let mut cfg = base();
        cfg.max_backlog = per_core * cfg.cores;
        cfg
    });
    let title = "Affinity-Accept design knobs under interference (16 cores, half hogged)";
    let names = variants.each_ref().map(|(name, _)| *name);
    let cfgs = variants.map(|(_, cfg)| cfg).into_iter();
    let cfgs = cfgs.chain(ratios).chain(backlogs);
    let points = cfgs.map(|cfg| Point { cfg, budget: None }).collect();
    Output::new("ablation", title, points, move |out, rs| {
        let (rs, rest) = rs.split_at(names.len());
        let (ratio_runs, backlog_runs) = rest.split_at(RATIOS.len());
        let mut t = Table::new(&[
            "variant",
            "req/s/core",
            "median (ms)",
            "p90 (ms)",
            "timeouts",
            "stolen",
            "migrations",
        ]);
        for (name, r) in names.iter().zip(rs) {
            t.row_owned(vec![
                (*name).into(),
                format!("{:.0}", r.rps_per_core),
                format!("{:.0}", to_ms(r.latency.median())),
                format!("{:.0}", to_ms(r.latency.percentile(90.0))),
                r.timeouts.to_string(),
                r.listen_stats.accepts_stolen.to_string(),
                r.migrations.to_string(),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\nsteal-ratio sensitivity (local:stolen):\n");
        let mut t = Table::new(&["ratio", "req/s/core", "median (ms)", "timeouts"]);
        for (ratio, r) in RATIOS.iter().zip(ratio_runs) {
            t.row_owned(vec![
                format!("{ratio}:1"),
                format!("{:.0}", r.rps_per_core),
                format!("{:.0}", to_ms(r.latency.median())),
                r.timeouts.to_string(),
            ]);
        }
        out.push_str(&t.render());

        out.push_str("\nbacklog sensitivity (per-core accept queue):\n");
        let mut t = Table::new(&[
            "backlog/core",
            "req/s/core",
            "median (ms)",
            "drops",
            "timeouts",
        ]);
        for (per_core, r) in BACKLOGS.iter().zip(backlog_runs) {
            t.row_owned(vec![
                per_core.to_string(),
                format!("{:.0}", r.rps_per_core),
                format!("{:.0}", to_ms(r.latency.median())),
                r.drops_overflow.to_string(),
                r.timeouts.to_string(),
            ]);
        }
        out.push_str(&t.render());
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two outputs that read one point share one run, made with DProf on
    /// because one of them asks for it, and both render from it; the same
    /// point under lock_stat is a run of its own.
    #[test]
    fn a_shared_point_runs_once_with_dprof_when_either_asks() {
        let mut cfg = base_config(Machine::amd48(), 2, IMPLS[2], ServerKind::apache());
        (cfg.warmup, cfg.measure, cfg.conn_rate, cfg.tracked_files) = (ms(20), ms(40), 500.0, 50);
        let (mut profiled, mut locked) = (cfg.clone(), cfg.clone());
        (profiled.dprof, locked.lockstat) = (true, true);
        let show = |out: &mut String, rs: &[&RunResult]| {
            for r in rs {
                let (dprof, lockstat) =
                    (r.kernel.cache.dprof.is_enabled(), r.lockstat.is_enabled());
                writeln!(out, "{:#x} {} {dprof} {lockstat}", r.fingerprint, r.served)?;
            }
            Ok(())
        };
        let point = |cfg| Point { cfg, budget: None };
        let outputs = [
            Output::new("plain", "", vec![point(cfg)], show),
            Output::new("both", "", vec![point(profiled), point(locked)], show),
        ];
        let mut texts = std::collections::BTreeMap::new();
        let made = run(&outputs, 2, |o, text| {
            texts.insert(o.id, text.to_owned());
        });
        assert_eq!(made, [0, 2], "{texts:?}");
        let body = |id| texts[id].lines().skip(5).collect::<Vec<_>>();
        let (plain, both) = (body("plain"), body("both"));
        assert_eq!(plain, both[..1], "both render the shared run");
        // A `fast` build compiles DProf out, so no run records with it.
        let dprof = cfg!(not(feature = "fast"));
        assert!(plain[0].ends_with(&format!(" {dprof} false")), "{plain:?}");
        assert!(both[1].ends_with(" false true"), "{both:?}");
    }

    /// Every output builds under its own id, its input loaded, and the
    /// whole evaluation makes 138 searches and 16 fixed runs: Tables 3
    /// and 4 and Figure 4 read Figure 2's 48-core runs, Figure 10's first
    /// three columns are Figure 7's, and the ablation's defaults, 5:1
    /// ratio and 128 backlog are one run.
    #[test]
    fn the_evaluation_shares_its_points() {
        let build = |&(id, build): &(&str, Build)| {
            let o = build();
            assert_eq!((o.id, &o.error), (id, &None));
            o
        };
        let (runs, _) = plan(&OUTPUTS.iter().map(build).collect::<Vec<_>>());
        let searches = runs.iter().filter(|p| p.budget.is_some()).count();
        assert_eq!([searches, runs.len() - searches], [138, 16]);
    }
}
