//! Pinned configuration for the §6.5-B experiment (`lb_migration`).
//!
//! EXPERIMENTS.md quotes the batch-job runtimes of one *recorded* run;
//! because the simulator is deterministic, that table is exactly
//! reproducible from the `(config, seed)` here — there is no
//! "representative run" hand-waving. The knob test below pins every
//! input, and the `#[ignore]`d regeneration test in `tests/` re-runs the
//! three cases and checks the recorded numbers bit-for-bit.

use app::{ListenKind, RunConfig, ServerKind, Workload};
use sim::time::{ms, secs, Cycles};
use sim::topology::Machine;

/// RNG seed of the recorded §6.5-B run.
pub const LB_MIGRATION_SEED: u64 = 1;

/// Undisturbed wall-clock target for the make job: the paper's 125 s
/// scaled down 100×.
pub const LB_MAKE_WORK: Cycles = secs(5) / 4;

/// Make runtimes (ms, rounded as the table prints them) of the recorded
/// run, in case order: make alone, make + web without migration, make +
/// web with migration.
pub const LB_MIGRATION_RECORDED_MS: [u64; 3] = [1251, 1452, 1340];

/// The three cases of the §6.5-B table, in recorded order.
#[must_use]
pub fn lb_migration_cases() -> [(&'static str, RunConfig); 3] {
    [
        ("make alone", lb_migration_config(false, true)),
        ("make + web, no migration", lb_migration_config(true, false)),
        ("make + web, migration", lb_migration_config(true, true)),
    ]
}

/// One §6.5-B configuration: 48-core AMD, Affinity-Accept, lighttpd,
/// kernel-make hog on the upper cores, client timeout scaled to 2.5 s.
#[must_use]
pub fn lb_migration_config(web: bool, migration: bool) -> RunConfig {
    let mut wl = Workload::base();
    wl.timeout = ms(2_500);
    // Web at ~50% of lighttpd's 48-core capacity; rate is connections/s
    // (10.3k req/s/core over 6 requests per connection).
    let rate = if web {
        0.5 * 10_300.0 * 48.0 / 6.0
    } else {
        1.0
    };
    let mut cfg = RunConfig::new(
        Machine::amd48(),
        48,
        ListenKind::Affinity,
        ServerKind::lighttpd(),
        wl,
        rate,
    );
    cfg.app_cycles = cfg.server.app_cycles();
    cfg.warmup = ms(600);
    cfg.measure = ms(400);
    cfg.hog_work = Some(LB_MAKE_WORK);
    cfg.steal_enabled = true;
    cfg.migrate_enabled = migration;
    // The job is time-compressed 100x; scale the 100 ms migration cadence
    // with it so the balancer moves the same share of flow groups per
    // job-second as in the paper.
    cfg.migrate_interval = ms(2);
    cfg.seed = LB_MIGRATION_SEED;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input of the recorded §6.5-B table, pinned. If any of these
    /// assertions fires, the recorded numbers in EXPERIMENTS.md and
    /// `results/lb_migration.txt` no longer describe what `lb_migration`
    /// runs, and the table must be regenerated.
    #[test]
    fn recorded_run_knobs_are_pinned() {
        for (name, cfg) in lb_migration_cases() {
            let web = name.contains("web");
            assert_eq!(cfg.seed, LB_MIGRATION_SEED, "{name}");
            assert_eq!(cfg.cores, 48, "{name}");
            assert_eq!(cfg.machine.name, Machine::amd48().name, "{name}");
            assert_eq!(cfg.listen, ListenKind::Affinity, "{name}");
            assert!(cfg.server.poll_based(), "{name}: lighttpd");
            assert_eq!(cfg.hog_work, Some(LB_MAKE_WORK), "{name}");
            assert_eq!(cfg.warmup, ms(600), "{name}");
            assert_eq!(cfg.measure, ms(400), "{name}");
            assert_eq!(cfg.migrate_interval, ms(2), "{name}");
            assert_eq!(cfg.workload.timeout, ms(2_500), "{name}");
            assert!(cfg.steal_enabled, "{name}");
            assert_eq!(
                cfg.migrate_enabled,
                name != "make + web, no migration",
                "{name}"
            );
            let expect_rate = if web {
                0.5 * 10_300.0 * 48.0 / 6.0
            } else {
                1.0
            };
            assert!((cfg.conn_rate - expect_rate).abs() < 1e-9, "{name}");
        }
    }
}
