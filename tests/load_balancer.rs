//! Integration tests for the §6.5 load-balancer behaviour: connection
//! stealing rescues tail latency under partial-machine interference, and
//! flow-group migration returns CPU to the batch job.

use affinity_accept_repro::prelude::*;
use sim::time::{ms, secs, to_ms};
use std::sync::OnceLock;

fn lb_config(hog: bool, stealing: bool, migration: bool) -> RunConfig {
    let mut wl = Workload::base();
    wl.timeout = ms(1_500);
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        8,
        ListenKind::Affinity,
        ServerKind::lighttpd(),
        wl,
        // ~50% of 8-core lighttpd capacity.
        0.5 * 16_000.0 * 8.0 / 6.0,
    );
    cfg.warmup = ms(500);
    cfg.measure = secs(2);
    cfg.hog_work = hog.then_some(secs(20));
    cfg.steal_enabled = stealing;
    cfg.migrate_enabled = migration;
    cfg
}

/// The hogged run with stealing and migration on, its served requests
/// also counted per 100 ms. Three tests read it, so the binary runs it
/// once.
fn full_balancer() -> &'static RunResult {
    static RUN: OnceLock<RunResult> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut cfg = lb_config(true, true, true);
        cfg.timeline_bucket = ms(100);
        Runner::new(cfg).run()
    })
}

/// The job outlives the window, and the run goes on until it finishes,
/// but the rates it reports are the window's: `served` is the timeline's
/// count from the window's start (500 ms) to its end (2.5 s), not the
/// run's.
#[test]
fn a_job_run_reports_only_its_window() {
    let r = full_balancer();
    let window: u64 = r.timeline[5..25].iter().sum();
    assert_eq!(r.served, window, "served past the window");
    assert!(r.timeline.len() > 25, "the job ran past the window");
    assert!(r.batch_runtime.is_some(), "the job ran");
}

#[test]
fn stealing_rescues_latency_under_interference() {
    let baseline = Runner::new(lb_config(false, true, true)).run();
    let without = Runner::new(lb_config(true, false, false)).run();
    let with = full_balancer();

    let base_med = baseline.latency.median();
    let without_med = without.latency.median();
    let with_med = with.latency.median();
    // The base workload contains 200ms of think time.
    assert!(
        (180.0..400.0).contains(&to_ms(base_med)),
        "baseline median {} ms",
        to_ms(base_med)
    );
    // Without the balancer, connections on hogged cores crawl or die.
    assert!(
        without_med > 2 * base_med || without.timeouts > 20,
        "no-balancer median {} ms, timeouts {}",
        to_ms(without_med),
        without.timeouts
    );
    // The balancer restores service.
    assert!(
        with_med < without_med,
        "balancer median {} vs {} ms",
        to_ms(with_med),
        to_ms(without_med)
    );
    assert!(with.listen_stats.accepts_stolen > 0, "stealing happened");
}

#[test]
fn migration_moves_flow_groups_and_reduces_stealing() {
    let steal_only = Runner::new(lb_config(true, true, false)).run();
    let with_migration = full_balancer();
    assert_eq!(steal_only.migrations, 0);
    assert!(with_migration.migrations > 0, "groups migrated");
    // Once groups move, connections arrive on non-hogged cores directly.
    assert!(
        with_migration.listen_stats.accepts_stolen < steal_only.listen_stats.accepts_stolen,
        "migration reduces stealing: {} vs {}",
        with_migration.listen_stats.accepts_stolen,
        steal_only.listen_stats.accepts_stolen
    );
}

#[test]
fn batch_job_finishes_faster_with_migration() {
    let mut alone = lb_config(false, true, true);
    alone.conn_rate = 1.0;
    alone.hog_work = Some(secs(2));
    let mut no_mig = lb_config(true, true, false);
    no_mig.hog_work = Some(secs(2));
    let mut mig = lb_config(true, true, true);
    mig.hog_work = Some(secs(2));

    let t_alone = Runner::new(alone).run().batch_runtime.expect("ran");
    let t_no_mig = Runner::new(no_mig).run().batch_runtime.expect("ran");
    let t_mig = Runner::new(mig).run().batch_runtime.expect("ran");
    assert!(
        t_no_mig > t_alone,
        "web interference slows make: {} vs {} ms",
        to_ms(t_no_mig),
        to_ms(t_alone)
    );
    assert!(
        t_mig < t_no_mig,
        "migration recovers make time: {} vs {} ms",
        to_ms(t_mig),
        to_ms(t_no_mig)
    );
}
