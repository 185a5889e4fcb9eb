//! Cluster fault-domain plane: N per-host simulations behind an L4
//! load-balancer tier.
//!
//! The paper measures one machine; production front-ends run fleets of
//! them behind a load balancer, and the interesting robustness questions
//! — what a whole-host crash strands, how fast the LB evicts a corpse,
//! whether a rolling restart conserves every connection — live at that
//! layer. This module composes the existing single-host [`Runner`] into
//! a multi-host topology:
//!
//! * an **LB tier** with pluggable policies ([`LbPolicy`]): consistent
//!   hashing over a 32-vnode ring, least-connections, and an
//!   affinity-aware sticky table that keeps a client key on its last
//!   host while it stays routable (the cluster-level analogue of the
//!   paper's connection affinity);
//! * a **fabric model** ([`FabricConfig`]) delaying (and optionally
//!   losing) each routed connection between the LB and its host;
//! * a **fault-domain schedule** ([`HostEvent`]): whole-host crash
//!   (every core dies, in-flight connections are lost, the LB keeps
//!   routing to the corpse until health checks evict it), drain
//!   (connection-preserving shutdown with a deadline), and restart
//!   (fresh instance re-admitted through a slow-start ramp);
//! * **client-side cross-host retry** with exponential backoff and a
//!   retry budget, counted entirely separately from same-host SYN
//!   retransmission;
//! * **conservation audits** ([`ClusterAudit`]) closing every connection
//!   ledger across crashes: laws A–K below tie LB attempts, injections,
//!   strandings, and retries together so a lost connection is a loud
//!   test failure, not a silent statistic.
//!
//! ## Determinism
//!
//! The cluster loop is a single discrete-event loop sharing one clock
//! with its hosts. Before dispatching a cluster event at time `t`, every
//! live host is advanced to `t` (`Runner::run_until`, strict `<` bound)
//! in fixed host-index order; interleaved advances execute exactly the
//! event sequence a straight run would, so host fingerprints are
//! unchanged by cluster pacing. The cluster draws from two dedicated RNG
//! streams (arrival/key draws and fabric jitter/loss) so a zero fabric
//! draws nothing, and folds its own event stream — routing decisions,
//! crashes, evictions, retries, and each finished instance's fingerprint
//! — into an order-sensitive cluster fingerprint. Two runs of the same
//! `(config, seed)` are bit-identical.

use crate::runner::{ClientLedger, CrashReport, RunConfig, RunResult, Runner};
use sim::fabric::{FabricConfig, HealthCheck, HostEvent, HostEventKind, RetryPolicy};
use sim::fingerprint::ActiveFingerprint;
use sim::rng::SimRng;
use sim::time::{ms, per_sec, secs, us, Cycles};
use sim::{EventQueue, FastMap};

/// Cluster RNG stream salt (arrival pacing, client keys, stranded-retry
/// keys). Distinct from the per-host and fault-plane streams.
const CLUSTER_RNG_SALT: u64 = 0xC1A5_7E1C_0DE5_EED1;
/// Fabric RNG stream salt (jitter, loss). Separate from the cluster
/// stream so a zero fabric ([`FabricConfig::none`]) draws nothing and a
/// lossy one perturbs no arrival timing.
const FABRIC_RNG_SALT: u64 = 0xFAB2_1C5A_17ED_5EED;
/// Instance-seed mixing salt: host `h` instance `i` runs with
/// `mix(seed ^ salt ^ h ^ i)` so restarts never replay the dead
/// instance's stream.
const INSTANCE_SEED_SALT: u64 = 0x1057_A27E_5EED_0001;
/// Ring vnode hashing salt.
const RING_SALT: u64 = 0x21B6_0C0D_E5A1_7F00;
/// Vnodes per host on the consistent-hash ring.
const RING_VNODES: u64 = 32;
/// Drain quiescence poll period.
const DRAIN_POLL: Cycles = ms(1);

// Cluster fingerprint event kinds (disjoint from the per-host runner's
// 0–28 range so a host stream can never alias a cluster stream).
const FOLD_ROUTE: u64 = 30;
const FOLD_MISROUTE: u64 = 31;
const FOLD_NO_ROUTE: u64 = 32;
const FOLD_FABRIC_LOST: u64 = 33;
const FOLD_RETRY_SCHED: u64 = 34;
const FOLD_RETRY_EXHAUSTED: u64 = 35;
const FOLD_BUDGET_DENIED: u64 = 36;
const FOLD_CRASH: u64 = 37;
const FOLD_EVICT: u64 = 38;
const FOLD_RESTART: u64 = 39;
const FOLD_DRAIN_START: u64 = 40;
const FOLD_DRAIN_DONE: u64 = 41;
const FOLD_HEALTH: u64 = 42;
const FOLD_HOST_FP: u64 = 43;

/// splitmix64 finalizer — deterministic, well-mixed 64-bit hashing for
/// ring vnodes, slow-start admission, and instance seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Load-balancer routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Consistent hashing: client key → 32-vnode ring, walk to the first
    /// routable host. Minimal churn on membership change.
    ConsistentHash,
    /// Least-connections: route to the routable host with the fewest
    /// open (live + not-yet-delivered) connections.
    LeastConn,
    /// Affinity-aware: a sticky table pins each client key to its last
    /// host while that host stays routable, falling back to the ring on
    /// eviction — the cluster-level analogue of connection affinity.
    AffinityAware,
}

impl LbPolicy {
    /// All policies, for sweeps.
    pub const ALL: [LbPolicy; 3] = [
        LbPolicy::ConsistentHash,
        LbPolicy::LeastConn,
        LbPolicy::AffinityAware,
    ];

    /// Harness label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LbPolicy::ConsistentHash => "hash",
            LbPolicy::LeastConn => "least_conn",
            LbPolicy::AffinityAware => "affinity",
        }
    }

    /// Parses a harness label.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// A flash crowd: between `at` and `until` the cluster's offered
/// connection rate is multiplied by `multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Surge start (absolute).
    pub at: Cycles,
    /// Surge end (absolute, exclusive).
    pub until: Cycles,
    /// Rate multiplier while the surge is active.
    pub multiplier: f64,
}

/// Configuration of a multi-host cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of simulated server hosts (1–64).
    pub hosts: usize,
    /// Per-host template. `conn_rate` is the per-host rate: the cluster
    /// offers `conn_rate * hosts` connections/second through the LB.
    /// Must keep `start_at == 0`, `external_arrivals == false` (the
    /// cluster sets the real values per instance) and no batch job.
    pub base: RunConfig,
    /// LB routing policy.
    pub lb: LbPolicy,
    /// Client↔LB↔host fabric model.
    pub fabric: FabricConfig,
    /// LB health-check policy (crash detection / eviction).
    pub health: HealthCheck,
    /// Client-side cross-host retry policy.
    pub retry: RetryPolicy,
    /// Whole-host fault schedule.
    pub host_events: Vec<HostEvent>,
    /// Slow-start ramp: a re-admitted host receives a hash-sliced,
    /// linearly growing share of admissions for this long (0 = instant
    /// full admission).
    pub slow_start: Cycles,
    /// Drain deadline: a draining host still holding connections this
    /// long after `DrainStart` is shut down anyway (stranding them onto
    /// the retry path).
    pub drain_timeout: Cycles,
    /// Size of the finite client-key population the LB routes on.
    pub client_keys: u64,
    /// Optional flash crowd.
    pub flash: Option<FlashCrowd>,
}

impl ClusterConfig {
    /// A cluster of `hosts` copies of `base` with LAN fabric, fast
    /// health checks, the default retry policy, and no faults. Enables
    /// per-host timelines (5 ms buckets) when the template left them
    /// off, so cluster goodput timelines always exist.
    #[must_use]
    pub fn new(hosts: usize, mut base: RunConfig) -> Self {
        if base.timeline_bucket == 0 {
            base.timeline_bucket = ms(5);
        }
        Self {
            hosts,
            base,
            lb: LbPolicy::ConsistentHash,
            fabric: FabricConfig::lan(),
            health: HealthCheck::fast(),
            retry: RetryPolicy::default_policy(),
            host_events: Vec::new(),
            slow_start: ms(20),
            drain_timeout: ms(50),
            client_keys: 4096,
            flash: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.hosts == 0 || self.hosts > 64 {
            return Err(format!("hosts must be 1..=64, got {}", self.hosts));
        }
        if self.base.start_at != 0 {
            return Err(
                "base.start_at must be 0 (the cluster sets per-instance boot times)".into(),
            );
        }
        if self.base.external_arrivals {
            return Err(
                "base.external_arrivals must be false (the cluster drives arrivals)".into(),
            );
        }
        if self.base.hog_work.is_some() {
            return Err(
                "the batch job is a single-host experiment; base.hog_work must be None".into(),
            );
        }
        if self.base.measure == 0 {
            return Err("base.measure must be nonzero".into());
        }
        if self.health.interval == 0 {
            return Err("health.interval must be nonzero".into());
        }
        if self.retry.max_attempts == 0 {
            return Err("retry.max_attempts must be at least 1".into());
        }
        if self.retry.budget.is_nan() || self.retry.budget < 0.0 {
            return Err(format!(
                "retry.budget must be >= 0, got {}",
                self.retry.budget
            ));
        }
        if !(0.0..1.0).contains(&self.fabric.loss_p) {
            return Err(format!(
                "fabric.loss_p must be in [0, 1), got {}",
                self.fabric.loss_p
            ));
        }
        if self.client_keys == 0 {
            return Err("client_keys must be nonzero".into());
        }
        for ev in &self.host_events {
            if usize::from(ev.host) >= self.hosts {
                return Err(format!(
                    "host event {} targets host {} of {}",
                    ev.kind.label(),
                    ev.host,
                    self.hosts
                ));
            }
        }
        if let Some(f) = &self.flash {
            if f.until <= f.at {
                return Err("flash.until must be after flash.at".into());
            }
            if f.multiplier.is_nan() || f.multiplier <= 0.0 {
                return Err(format!(
                    "flash.multiplier must be positive, got {}",
                    f.multiplier
                ));
            }
        }
        Ok(())
    }
}

/// Cluster-level event counters. Every counter is exercised by a
/// conservation law in [`ClusterAudit::violations`] and a corrupting
/// negative test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Fresh client connections offered through the LB.
    pub arrivals: u64,
    /// LB resolution attempts (arrivals + replayed retries).
    pub attempts: u64,
    /// Attempts delivered to a live host.
    pub injections: u64,
    /// Retry-tagged subset of `injections`.
    pub retry_injections: u64,
    /// Attempts routed to a crashed host the LB had not yet evicted.
    pub misroutes: u64,
    /// Attempts with no routable host at all.
    pub no_route: u64,
    /// Attempts lost in the fabric.
    pub fabric_lost: u64,
    /// Connections stranded by a crash or a forced drain (live on the
    /// host, or delivered but not yet fired, when it went down).
    pub stranded: u64,
    /// Retry-tagged subset of `stranded`.
    pub stranded_retry: u64,
    /// Cross-host retries scheduled.
    pub retries_scheduled: u64,
    /// Scheduled retries that fired (replayed through the LB).
    pub retries_sent: u64,
    /// Failures dropped at the attempt cap.
    pub retry_exhausted: u64,
    /// Failures dropped by the retry budget.
    pub retry_budget_denied: u64,
    /// Whole-host crashes.
    pub crashes: u64,
    /// Health-check evictions.
    pub evictions: u64,
    /// Crashes never evicted: the host restarted first, or the run ended
    /// before detection.
    pub crash_undetected: u64,
    /// Host instances booted after time 0.
    pub restarts: u64,
    /// Drains started.
    pub drains: u64,
    /// Drains completed (quiesced or forced).
    pub drain_done: u64,
    /// Drains cut short by a crash or the end of the run.
    pub drain_aborted: u64,
    /// Completed drains that hit the deadline with connections still
    /// open (subset of `drain_done`; the leftovers count as stranded).
    pub drain_forced: u64,
}

/// End-of-run cluster conservation audit: the LB/retry counters plus the
/// client ledgers of every host instance (finalized, crashed, and
/// mid-run-drained), aggregated so the laws in [`Self::violations`] can
/// close every connection's ledger across host deaths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterAudit {
    /// LB/retry/fault counters.
    pub stats: ClusterStats,
    /// Connections started, over all shut-down instances.
    pub fin_started: u64,
    /// Connections completed, over all shut-down instances.
    pub fin_completed: u64,
    /// Client-timeout abandons, over all shut-down instances.
    pub fin_timeouts: u64,
    /// SYN-retry-cap abandons, over all shut-down instances.
    pub fin_retry_capped: u64,
    /// Live connections at shutdown, over all shut-down instances.
    pub fin_live: u64,
    /// Undelivered injections at shutdown, over all shut-down instances.
    pub fin_pending: u64,
    /// Retry-tagged subset of `fin_completed` — the cluster's
    /// "recovered" count.
    pub fin_completed_retry: u64,
    /// Retry-tagged subset of `fin_timeouts`.
    pub fin_timeouts_retry: u64,
    /// Retry-tagged subset of `fin_retry_capped`.
    pub fin_retry_capped_retry: u64,
    /// Retry-tagged subset of `fin_live`.
    pub fin_live_retry: u64,
    /// Retry-tagged subset of `fin_pending`.
    pub fin_pending_retry: u64,
    /// `fin_live` subset from instances shut down mid-run (forced
    /// drains) — these count as stranded; end-of-run live ones do not.
    pub mid_live: u64,
    /// `fin_pending` subset from mid-run shutdowns.
    pub mid_pending: u64,
    /// Retry-tagged subset of `mid_live`.
    pub mid_live_retry: u64,
    /// Retry-tagged subset of `mid_pending`.
    pub mid_pending_retry: u64,
    /// Connections started, over all crashed instances.
    pub crash_started: u64,
    /// Connections completed before the crash.
    pub crash_completed: u64,
    /// Client-timeout abandons before the crash.
    pub crash_timeouts: u64,
    /// SYN-retry-cap abandons before the crash.
    pub crash_retry_capped: u64,
    /// Live connections lost to crashes.
    pub crash_stranded: u64,
    /// Undelivered injections lost to crashes.
    pub crash_pending: u64,
    /// Retry-tagged subset of `crash_completed`.
    pub crash_completed_retry: u64,
    /// Retry-tagged subset of `crash_timeouts`.
    pub crash_timeouts_retry: u64,
    /// Retry-tagged subset of `crash_retry_capped`.
    pub crash_retry_capped_retry: u64,
    /// Retry-tagged subset of `crash_stranded`.
    pub crash_stranded_retry: u64,
    /// Retry-tagged subset of `crash_pending`.
    pub crash_pending_retry: u64,
    /// Retries scheduled but not yet fired when the run ended.
    pub pending_retries_end: u64,
    /// Per-instance single-host audit violations, summed.
    pub host_violations: u64,
}

impl ClusterAudit {
    /// Checks the cluster conservation laws, returning one message per
    /// violated law. Unlike the single-host audit these are pure counter
    /// arithmetic, so they hold — and are checked — under `fast` too.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                v.push(msg);
            }
        };
        let s = &self.stats;

        // A: every delivered injection either started on its host or was
        // still pending when the instance went away.
        check(
            s.injections
                == self.fin_started + self.crash_started + self.fin_pending + self.crash_pending,
            format!(
                "injection conservation: injections {} != started {}+{} + pending {}+{}",
                s.injections,
                self.fin_started,
                self.crash_started,
                self.fin_pending,
                self.crash_pending
            ),
        );
        // B: every LB attempt is a fresh arrival or a replayed retry.
        check(
            s.attempts == s.arrivals + s.retries_sent,
            format!(
                "attempt provenance: attempts {} != arrivals {} + retries_sent {}",
                s.attempts, s.arrivals, s.retries_sent
            ),
        );
        // C: every attempt is delivered or fails in exactly one way.
        check(
            s.attempts == s.injections + s.misroutes + s.no_route + s.fabric_lost,
            format!(
                "attempt disposition: attempts {} != injections {} + misroutes {} + no_route {} + fabric_lost {}",
                s.attempts, s.injections, s.misroutes, s.no_route, s.fabric_lost
            ),
        );
        // D: every failure and every stranding takes the retry path
        // exactly once — scheduled, exhausted, or budget-denied.
        check(
            s.misroutes + s.no_route + s.fabric_lost + s.stranded
                == s.retries_scheduled + s.retry_exhausted + s.retry_budget_denied,
            format!(
                "retry conservation: failures {}+{}+{}+{} != scheduled {} + exhausted {} + denied {}",
                s.misroutes, s.no_route, s.fabric_lost, s.stranded,
                s.retries_scheduled, s.retry_exhausted, s.retry_budget_denied
            ),
        );
        // E: every scheduled retry fired or was still queued at the end.
        check(
            s.retries_scheduled == s.retries_sent + self.pending_retries_end,
            format!(
                "retry delivery: scheduled {} != sent {} + pending_at_end {}",
                s.retries_scheduled, s.retries_sent, self.pending_retries_end
            ),
        );
        // F: every retry-tagged injection is accounted for in some
        // instance's retry-tagged ledger.
        check(
            s.retry_injections
                == self.fin_completed_retry
                    + self.fin_timeouts_retry
                    + self.fin_retry_capped_retry
                    + self.fin_live_retry
                    + self.fin_pending_retry
                    + self.crash_completed_retry
                    + self.crash_timeouts_retry
                    + self.crash_retry_capped_retry
                    + self.crash_stranded_retry
                    + self.crash_pending_retry,
            format!(
                "retry-tag conservation: retry_injections {} not closed by tagged ledgers",
                s.retry_injections
            ),
        );
        // G: per-ledger client conservation, aggregated.
        check(
            self.fin_started == self.fin_completed + self.fin_timeouts + self.fin_retry_capped + self.fin_live,
            format!(
                "finalized-ledger conservation: started {} != completed {} + timeouts {} + capped {} + live {}",
                self.fin_started, self.fin_completed, self.fin_timeouts, self.fin_retry_capped, self.fin_live
            ),
        );
        check(
            self.crash_started
                == self.crash_completed + self.crash_timeouts + self.crash_retry_capped + self.crash_stranded,
            format!(
                "crashed-ledger conservation: started {} != completed {} + timeouts {} + capped {} + stranded {}",
                self.crash_started, self.crash_completed, self.crash_timeouts,
                self.crash_retry_capped, self.crash_stranded
            ),
        );
        // H: stranded connections are exactly the crash casualties plus
        // forced-drain leftovers.
        check(
            s.stranded
                == self.crash_stranded + self.crash_pending + self.mid_live + self.mid_pending,
            format!(
                "stranding conservation: stranded {} != crash {}+{} + forced-drain {}+{}",
                s.stranded,
                self.crash_stranded,
                self.crash_pending,
                self.mid_live,
                self.mid_pending
            ),
        );
        check(
            s.stranded_retry
                == self.crash_stranded_retry + self.crash_pending_retry
                    + self.mid_live_retry + self.mid_pending_retry,
            format!(
                "stranding conservation (retry-tagged): stranded_retry {} != crash {}+{} + forced-drain {}+{}",
                s.stranded_retry, self.crash_stranded_retry, self.crash_pending_retry,
                self.mid_live_retry, self.mid_pending_retry
            ),
        );
        // I: every crash is eventually evicted, restarted first, or
        // still undetected when the run ended.
        check(
            s.crashes == s.evictions + s.crash_undetected,
            format!(
                "crash disposition: crashes {} != evictions {} + undetected {}",
                s.crashes, s.evictions, s.crash_undetected
            ),
        );
        // J: every drain completes or is aborted.
        check(
            s.drains == s.drain_done + s.drain_aborted,
            format!(
                "drain disposition: drains {} != done {} + aborted {}",
                s.drains, s.drain_done, s.drain_aborted
            ),
        );
        // K: no per-instance single-host audit violated its own laws.
        check(
            self.host_violations == 0,
            format!("host audits reported {} violations", self.host_violations),
        );
        v
    }
}

/// Per-host aggregate over all of the host's instances (including
/// crashed ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostReport {
    /// Requests served in the measurement window.
    pub served: u64,
    /// Client connections completed.
    pub completed: u64,
    /// Client-timeout abandons.
    pub timeouts: u64,
    /// Connections stranded by this host's crashes and forced drains.
    pub stranded: u64,
    /// Instances booted (1 = never restarted).
    pub instances: u64,
    /// Crashes suffered.
    pub crashes: u64,
    /// Served-requests timeline (cluster-aligned absolute buckets).
    pub timeline: Vec<u64>,
}

/// What a cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// Requests served across the cluster in the measurement window.
    pub served: u64,
    /// Cluster goodput: served requests per second of measurement.
    pub goodput: f64,
    /// Client connections completed across all instances.
    pub completed: u64,
    /// Client-timeout abandons across all instances.
    pub timeouts: u64,
    /// Stranded connections whose cross-host retry completed — the
    /// recovery the fault-domain plane exists to measure.
    pub recovered: u64,
    /// Connections stranded by crashes and forced drains.
    pub stranded: u64,
    /// LB attempts per offered arrival (1.0 = no retry traffic).
    pub retry_amplification: f64,
    /// Cluster-level event counters.
    pub stats: ClusterStats,
    /// The conservation audit (see [`ClusterAudit::violations`]).
    pub audit: ClusterAudit,
    /// Order-sensitive hash of the cluster event stream with every
    /// instance fingerprint folded in; bit-identical across reruns.
    pub fingerprint: u64,
    /// Events dispatched: cluster loop plus every host instance.
    pub events_executed: u64,
    /// Cluster goodput timeline (bucket-wise sum of host timelines).
    pub timeline: Vec<u64>,
    /// Per-host aggregates and timelines.
    pub per_host: Vec<HostReport>,
    /// `(host, crash→evict delay)` for every health-check eviction.
    pub evictions: Vec<(u16, Cycles)>,
    /// Whole-run abandons owned by a live core, summed over instances.
    pub timeouts_live_owner: u64,
    /// Whole-run abandons owned by a down core, summed over instances.
    pub timeouts_dead_owner: u64,
}

/// LB view of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LbState {
    /// Routable, fully admitted.
    InService,
    /// Routable, ramping admission since the wrapped instant.
    SlowStart(Cycles),
    /// Connection-preserving shutdown in progress: no new routes.
    Draining,
    /// Not routable (evicted or shut down).
    Out,
}

/// One finished (shut-down) host instance, stripped to what the cluster
/// aggregates — the `RunResult`'s kernel is dropped immediately.
struct InstanceOutcome {
    ledger: ClientLedger,
    served: u64,
    timeline: Vec<u64>,
    fingerprint: u64,
    events: u64,
    violations: u64,
    timeouts_live_owner: u64,
    timeouts_dead_owner: u64,
    /// Shut down before the end of the run (forced drain): its live and
    /// pending connections were stranded, unlike an end-of-run ledger's.
    mid_run: bool,
}

impl InstanceOutcome {
    fn from_run(ledger: ClientLedger, res: RunResult, mid_run: bool) -> Self {
        Self {
            ledger,
            served: res.served,
            timeline: res.timeline,
            fingerprint: res.fingerprint,
            events: res.events_executed,
            violations: res.audit.violations().len() as u64,
            timeouts_live_owner: res.timeouts_live_owner,
            timeouts_dead_owner: res.timeouts_dead_owner,
            mid_run,
        }
    }
}

/// One host slot: the live instance (if any) plus everything its
/// predecessors left behind.
struct HostSlot {
    runner: Option<Box<Runner>>,
    outcomes: Vec<InstanceOutcome>,
    crashes: Vec<CrashReport>,
    lb: LbState,
    health_fails: u32,
    /// Set at crash, cleared at eviction or restart — whichever first.
    crashed_at: Option<Cycles>,
    /// Instances booted so far minus one (seed mixing).
    instance: u64,
    /// LB estimate of open connections (live + undelivered), refreshed
    /// at every host advance; the least-connections policy routes on it.
    open_est: u64,
    /// Drain deadline while a drain is in progress.
    draining_deadline: Option<Cycles>,
}

/// Cluster-loop events.
enum CEv {
    /// One fresh client connection resolves through the LB.
    Arrival,
    /// A scheduled cross-host retry replays through the LB.
    Retry { key: u64, attempt: u32 },
    /// A scheduled [`HostEvent`] (index into `cfg.host_events`).
    Fault(u32),
    /// Periodic LB health probe of every host.
    HealthTick,
    /// Drain quiescence poll for one host.
    DrainCheck(u16),
}

/// The cluster discrete-event loop. See the module docs for the
/// determinism contract.
pub struct ClusterRunner {
    cfg: ClusterConfig,
    q: EventQueue<CEv>,
    now: Cycles,
    end_at: Cycles,
    rng: SimRng,
    fabric_rng: SimRng,
    hosts: Vec<HostSlot>,
    ring: Vec<(u64, u16)>,
    sticky: FastMap<u64, u16>,
    stats: ClusterStats,
    fp: ActiveFingerprint,
    events_executed: u64,
    evict_times: Vec<(u16, Cycles)>,
    pending_retries: u64,
}

impl ClusterRunner {
    /// Builds the cluster: boots `cfg.hosts` instances at time 0 and
    /// seeds the arrival, health-check, and fault schedules.
    ///
    /// # Panics
    ///
    /// Panics if [`ClusterConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(cfg: ClusterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid cluster config: {e}");
        }
        let end_at = cfg.base.warmup + cfg.base.measure;
        let mut ring = Vec::with_capacity(cfg.hosts * RING_VNODES as usize);
        for h in 0..cfg.hosts as u16 {
            for v in 0..RING_VNODES {
                ring.push((mix(RING_SALT ^ (u64::from(h) << 32) ^ v), h));
            }
        }
        ring.sort_unstable();
        let hosts = (0..cfg.hosts as u16)
            .map(|h| HostSlot {
                runner: Some(Box::new(Runner::new(Self::host_config(
                    &cfg, end_at, h, 0, 0,
                )))),
                outcomes: Vec::new(),
                crashes: Vec::new(),
                lb: LbState::InService,
                health_fails: 0,
                crashed_at: None,
                instance: 0,
                open_est: 0,
                draining_deadline: None,
            })
            .collect();
        let mut q = EventQueue::new();
        q.push(0, CEv::Arrival);
        q.push(cfg.health.interval, CEv::HealthTick);
        for (i, ev) in cfg.host_events.iter().enumerate() {
            q.push(ev.at, CEv::Fault(i as u32));
        }
        let seed = cfg.base.seed;
        Self {
            cfg,
            q,
            now: 0,
            end_at,
            rng: SimRng::new(seed ^ CLUSTER_RNG_SALT),
            fabric_rng: SimRng::new(seed ^ FABRIC_RNG_SALT),
            hosts,
            ring,
            sticky: FastMap::default(),
            stats: ClusterStats::default(),
            fp: ActiveFingerprint::new(),
            events_executed: 0,
            evict_times: Vec::new(),
            pending_retries: 0,
        }
    }

    /// Derives the config of host `h`'s instance number `instance`
    /// booting at `start_at`. Instance 0 boots at 0 and shares the
    /// cluster's warmup; a restarted instance measures immediately and
    /// runs to the cluster's end on a freshly mixed seed.
    fn host_config(
        cfg: &ClusterConfig,
        end_at: Cycles,
        h: u16,
        instance: u64,
        start_at: Cycles,
    ) -> RunConfig {
        let mut rc = cfg.base.clone();
        rc.external_arrivals = true;
        rc.start_at = start_at;
        if start_at > 0 {
            rc.warmup = 0;
            rc.measure = end_at - start_at;
        }
        rc.seed = mix(cfg.base.seed ^ INSTANCE_SEED_SALT ^ (u64::from(h) << 40) ^ instance);
        rc
    }

    fn fold(&mut self, kind: u64, payload: u64) {
        self.fp.fold_event(self.now, kind, payload);
    }

    /// Advances every live host to `t` (strictly) in host-index order —
    /// the epoch protocol that keeps interleaved advances bit-identical
    /// to a straight run — and refreshes the LB's open-connection
    /// estimates.
    fn advance_hosts(&mut self, t: Cycles) {
        for slot in &mut self.hosts {
            if let Some(r) = slot.runner.as_mut() {
                r.run_until(t);
                let led = r.client_ledger();
                slot.open_est = led.live + led.pending_inject;
            }
        }
    }

    /// Mean interarrival gap at `now`, honoring a flash crowd.
    fn arrival_interval(&self, now: Cycles) -> f64 {
        let mut rate = self.cfg.base.conn_rate * self.cfg.hosts as f64;
        if let Some(f) = &self.cfg.flash {
            if now >= f.at && now < f.until {
                rate *= f.multiplier;
            }
        }
        secs(1) as f64 / rate
    }

    fn routable(&self, h: u16) -> bool {
        matches!(
            self.hosts[usize::from(h)].lb,
            LbState::InService | LbState::SlowStart(_)
        )
    }

    /// Slow-start admission: a re-admitted host accepts a linearly
    /// growing hash-slice of traffic. Stateless and RNG-free so routing
    /// never perturbs the arrival stream.
    fn admitted(&self, h: u16, key: u64) -> bool {
        match self.hosts[usize::from(h)].lb {
            LbState::InService => true,
            LbState::SlowStart(since) => {
                let ramp = self.cfg.slow_start;
                if ramp == 0 {
                    return true;
                }
                let elapsed = self.now.saturating_sub(since);
                if elapsed >= ramp {
                    return true;
                }
                mix(key ^ self.stats.attempts ^ (u64::from(h) << 56)) % 256 < elapsed * 256 / ramp
            }
            LbState::Draining | LbState::Out => false,
        }
    }

    /// Consistent-hash ring walk: first routable-and-admitted host from
    /// the key's vnode, falling back to any routable host if the ramp
    /// rejects everywhere.
    fn ring_route(&self, key: u64) -> Option<u16> {
        let kh = mix(key);
        let start = self.ring.partition_point(|&(v, _)| v < kh);
        let n = self.ring.len();
        for pass in 0..2 {
            for i in 0..n {
                let (_, h) = self.ring[(start + i) % n];
                if self.routable(h) && (pass == 1 || self.admitted(h, key)) {
                    return Some(h);
                }
            }
        }
        None
    }

    fn least_conn_route(&self, key: u64) -> Option<u16> {
        let mut best: Option<(u64, u16)> = None;
        for pass in 0..2 {
            for h in 0..self.cfg.hosts as u16 {
                if self.routable(h) && (pass == 1 || self.admitted(h, key)) {
                    let oe = self.hosts[usize::from(h)].open_est;
                    if best.is_none_or(|(b, _)| oe < b) {
                        best = Some((oe, h));
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        best.map(|(_, h)| h)
    }

    /// Resolves a client key to a host under the configured policy.
    fn route(&mut self, key: u64) -> Option<u16> {
        match self.cfg.lb {
            LbPolicy::ConsistentHash => self.ring_route(key),
            LbPolicy::LeastConn => self.least_conn_route(key),
            LbPolicy::AffinityAware => {
                if let Some(&h) = self.sticky.get(&key) {
                    if self.routable(h) && self.admitted(h, key) {
                        return Some(h);
                    }
                }
                let h = self.ring_route(key)?;
                self.sticky.insert(key, h);
                Some(h)
            }
        }
    }

    /// One LB resolution attempt (attempt `n`, 1-based). Ends in exactly
    /// one of: injection, misroute, no-route, or fabric loss — and every
    /// failure takes the retry path exactly once.
    fn attempt(&mut self, key: u64, n: u32) {
        self.stats.attempts += 1;
        if n > 1 {
            self.stats.retries_sent += 1;
        }
        let Some(h) = self.route(key) else {
            self.stats.no_route += 1;
            self.fold(FOLD_NO_ROUTE, key);
            self.schedule_retry(key, n, 0);
            return;
        };
        let hi = usize::from(h);
        if self.hosts[hi].runner.is_none() {
            // The LB still believes in a crashed host: health checks
            // have not evicted it yet. The connection bounces.
            self.stats.misroutes += 1;
            self.fold(FOLD_MISROUTE, key ^ (u64::from(h) << 48));
            self.schedule_retry(key, n, 0);
            return;
        }
        let fabric = self.cfg.fabric;
        if fabric.loss_p > 0.0 && self.fabric_rng.chance(fabric.loss_p) {
            self.stats.fabric_lost += 1;
            self.fold(FOLD_FABRIC_LOST, key ^ (u64::from(h) << 48));
            self.schedule_retry(key, n, 0);
            return;
        }
        let mut delay = fabric.latency;
        if fabric.jitter > 0 {
            delay += self.fabric_rng.below(fabric.jitter + 1);
        }
        let retry = n > 1;
        self.stats.injections += 1;
        if retry {
            self.stats.retry_injections += 1;
        }
        let at = self.now + delay;
        let slot = &mut self.hosts[hi];
        slot.open_est += 1;
        slot.runner
            .as_mut()
            .expect("liveness checked above")
            .inject_conn(at, retry);
        self.fold(
            FOLD_ROUTE,
            key ^ (u64::from(h) << 48) ^ (u64::from(n) << 32),
        );
    }

    /// Routes a failed attempt onto the retry path: schedules attempt
    /// `failed + 1` after exponential backoff (plus a small
    /// `stagger`-indexed spread for crash herds), or drops it at the
    /// attempt cap / retry budget. Exactly one counter moves.
    fn schedule_retry(&mut self, key: u64, failed: u32, stagger: u64) {
        let next = failed + 1;
        if next > self.cfg.retry.max_attempts {
            self.stats.retry_exhausted += 1;
            self.fold(FOLD_RETRY_EXHAUSTED, key);
            return;
        }
        let over_budget = (self.stats.retries_scheduled + 1) as f64
            > self.cfg.retry.budget * (self.stats.arrivals + 1) as f64;
        if over_budget {
            self.stats.retry_budget_denied += 1;
            self.fold(FOLD_BUDGET_DENIED, key);
            return;
        }
        self.stats.retries_scheduled += 1;
        self.pending_retries += 1;
        let delay = self.cfg.retry.backoff_for(next - 1) + (stagger % 256) * us(20);
        self.q
            .push(self.now + delay.max(1), CEv::Retry { key, attempt: next });
        self.fold(FOLD_RETRY_SCHED, key ^ (u64::from(next) << 32));
    }

    /// Whole-host crash: the instance dies with everything in flight.
    /// The LB keeps routing to the corpse until health checks evict it;
    /// every stranded connection re-enters through the retry path under
    /// a fresh client key.
    fn host_crash(&mut self, h: u16) {
        let hi = usize::from(h);
        let Some(r) = self.hosts[hi].runner.take() else {
            return; // already down
        };
        let report = (*r).crash();
        if self.hosts[hi].draining_deadline.take().is_some() {
            self.stats.drain_aborted += 1;
        }
        let stranded = report.stranded_live + report.pending_inject;
        let stranded_retry = report.stranded_live_retry + report.pending_inject_retry;
        let fp = report.fingerprint;
        self.stats.crashes += 1;
        self.stats.stranded += stranded;
        self.stats.stranded_retry += stranded_retry;
        let slot = &mut self.hosts[hi];
        slot.crashed_at = Some(self.now);
        slot.health_fails = 0;
        slot.open_est = 0;
        slot.crashes.push(report);
        self.fold(FOLD_CRASH, u64::from(h));
        self.fold(FOLD_HOST_FP, fp);
        for i in 0..stranded {
            let key = self.rng.below(self.cfg.client_keys);
            self.schedule_retry(key, 1, i);
        }
    }

    fn host_drain_start(&mut self, h: u16) {
        let hi = usize::from(h);
        if self.hosts[hi].runner.is_none()
            || matches!(self.hosts[hi].lb, LbState::Draining | LbState::Out)
        {
            return;
        }
        self.hosts[hi].lb = LbState::Draining;
        self.hosts[hi].draining_deadline = Some(self.now + self.cfg.drain_timeout);
        self.stats.drains += 1;
        self.fold(FOLD_DRAIN_START, u64::from(h));
        self.q.push(self.now + DRAIN_POLL, CEv::DrainCheck(h));
    }

    /// Completes a drain: shuts the instance down, stranding (and
    /// retrying) whatever a forced cut leaves open.
    fn finish_drain(&mut self, h: u16) {
        let hi = usize::from(h);
        self.hosts[hi].draining_deadline = None;
        let Some(r) = self.hosts[hi].runner.take() else {
            return;
        };
        let ledger = r.client_ledger();
        let res = (*r).shutdown();
        let leftover = ledger.live + ledger.pending_inject;
        let leftover_retry = ledger.live_retry + ledger.pending_inject_retry;
        if leftover > 0 {
            self.stats.drain_forced += 1;
            self.stats.stranded += leftover;
            self.stats.stranded_retry += leftover_retry;
        }
        self.stats.drain_done += 1;
        let out = InstanceOutcome::from_run(ledger, res, true);
        let fp = out.fingerprint;
        let slot = &mut self.hosts[hi];
        slot.lb = LbState::Out;
        slot.open_est = 0;
        slot.outcomes.push(out);
        self.fold(FOLD_DRAIN_DONE, u64::from(h) ^ (leftover << 16));
        self.fold(FOLD_HOST_FP, fp);
        for i in 0..leftover {
            let key = self.rng.below(self.cfg.client_keys);
            self.schedule_retry(key, 1, i);
        }
    }

    /// Boots a fresh instance and re-admits the host through slow-start.
    fn host_restart(&mut self, h: u16) {
        let hi = usize::from(h);
        if self.hosts[hi].runner.is_some() || self.now >= self.end_at {
            return;
        }
        let instance = self.hosts[hi].instance + 1;
        let rc = Self::host_config(&self.cfg, self.end_at, h, instance, self.now);
        let runner = Box::new(Runner::new(rc));
        let slot = &mut self.hosts[hi];
        slot.instance = instance;
        slot.runner = Some(runner);
        slot.open_est = 0;
        slot.health_fails = 0;
        slot.lb = LbState::SlowStart(self.now);
        let undetected = slot.crashed_at.take().is_some();
        if undetected {
            // Restarted before the health checks noticed the crash.
            self.stats.crash_undetected += 1;
        }
        self.stats.restarts += 1;
        self.fold(FOLD_RESTART, u64::from(h) ^ (instance << 16));
    }

    fn health_tick(&mut self) {
        let mut down_mask = 0u64;
        for hi in 0..self.hosts.len() {
            if self.hosts[hi].runner.is_some() {
                self.hosts[hi].health_fails = 0;
                if let LbState::SlowStart(since) = self.hosts[hi].lb {
                    if self.now.saturating_sub(since) >= self.cfg.slow_start {
                        self.hosts[hi].lb = LbState::InService;
                    }
                }
                continue;
            }
            down_mask |= 1 << hi;
            if self.hosts[hi].lb == LbState::Out {
                continue;
            }
            self.hosts[hi].health_fails += 1;
            if self.hosts[hi].health_fails >= self.cfg.health.fails {
                self.hosts[hi].lb = LbState::Out;
                self.stats.evictions += 1;
                if let Some(c) = self.hosts[hi].crashed_at.take() {
                    self.evict_times.push((hi as u16, self.now - c));
                }
                self.fold(FOLD_EVICT, hi as u64);
            }
        }
        self.fold(FOLD_HEALTH, down_mask);
        let next = self.now + self.cfg.health.interval;
        if next < self.end_at {
            self.q.push(next, CEv::HealthTick);
        }
    }

    fn handle(&mut self, ev: CEv) {
        match ev {
            CEv::Arrival => {
                self.stats.arrivals += 1;
                let key = self.rng.below(self.cfg.client_keys);
                self.attempt(key, 1);
                let gap = self.rng.exp(self.arrival_interval(self.now));
                let next = self.now + (gap as Cycles).max(1);
                if next < self.end_at {
                    self.q.push(next, CEv::Arrival);
                }
            }
            CEv::Retry { key, attempt } => {
                self.pending_retries -= 1;
                self.attempt(key, attempt);
            }
            CEv::Fault(i) => {
                let ev = self.cfg.host_events[i as usize];
                match ev.kind {
                    HostEventKind::Crash => self.host_crash(ev.host),
                    HostEventKind::Restart => self.host_restart(ev.host),
                    HostEventKind::DrainStart => self.host_drain_start(ev.host),
                    HostEventKind::DrainDone => {
                        if self.hosts[usize::from(ev.host)].draining_deadline.is_some() {
                            self.finish_drain(ev.host);
                        }
                    }
                }
            }
            CEv::HealthTick => self.health_tick(),
            CEv::DrainCheck(h) => {
                let hi = usize::from(h);
                let Some(deadline) = self.hosts[hi].draining_deadline else {
                    return; // drain already resolved (finished or crash-aborted)
                };
                let Some(r) = self.hosts[hi].runner.as_ref() else {
                    return;
                };
                let led = r.client_ledger();
                if led.live + led.pending_inject == 0 || self.now >= deadline {
                    self.finish_drain(h);
                } else {
                    self.q.push(self.now + DRAIN_POLL, CEv::DrainCheck(h));
                }
            }
        }
    }

    /// Runs the cluster to the end of the measurement window and
    /// aggregates the result.
    #[must_use]
    pub fn run(mut self) -> ClusterResult {
        while let Some((t, ev)) = self.q.pop() {
            if t >= self.end_at {
                break;
            }
            self.advance_hosts(t);
            self.now = t;
            self.events_executed += 1;
            self.handle(ev);
        }
        self.finalize()
    }

    fn finalize(mut self) -> ClusterResult {
        self.now = self.end_at;
        for hi in 0..self.hosts.len() {
            if self.hosts[hi].draining_deadline.take().is_some() {
                // The run ended mid-drain; the instance finalizes like
                // any other end-of-run host (its live connections are
                // not stranded — the window closed, not the host).
                self.stats.drain_aborted += 1;
            }
            if let Some(mut r) = self.hosts[hi].runner.take() {
                r.run_until(self.end_at);
                let ledger = r.client_ledger();
                let res = (*r).shutdown();
                let out = InstanceOutcome::from_run(ledger, res, false);
                let fp = out.fingerprint;
                self.hosts[hi].outcomes.push(out);
                self.fold(FOLD_HOST_FP, fp);
            }
            if self.hosts[hi].crashed_at.take().is_some() {
                // Crashed too close to the end for detection.
                self.stats.crash_undetected += 1;
            }
        }

        let mut audit = ClusterAudit {
            stats: self.stats,
            pending_retries_end: self.pending_retries,
            ..ClusterAudit::default()
        };
        let mut served = 0u64;
        let mut events = self.events_executed;
        let mut timeline: Vec<u64> = Vec::new();
        let mut per_host = Vec::with_capacity(self.hosts.len());
        let mut tl_live = 0u64;
        let mut tl_dead = 0u64;
        let add_tl = |into: &mut Vec<u64>, from: &[u64]| {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += *b;
            }
        };
        for slot in &self.hosts {
            let mut hr = HostReport {
                instances: slot.instance + 1,
                crashes: slot.crashes.len() as u64,
                ..HostReport::default()
            };
            for o in &slot.outcomes {
                let l = &o.ledger;
                audit.fin_started += l.started;
                audit.fin_completed += l.completed;
                audit.fin_timeouts += l.timeouts;
                audit.fin_retry_capped += l.retry_capped;
                audit.fin_live += l.live;
                audit.fin_pending += l.pending_inject;
                audit.fin_completed_retry += l.completed_retry;
                audit.fin_timeouts_retry += l.timeouts_retry;
                audit.fin_retry_capped_retry += l.retry_capped_retry;
                audit.fin_live_retry += l.live_retry;
                audit.fin_pending_retry += l.pending_inject_retry;
                if o.mid_run {
                    audit.mid_live += l.live;
                    audit.mid_pending += l.pending_inject;
                    audit.mid_live_retry += l.live_retry;
                    audit.mid_pending_retry += l.pending_inject_retry;
                    hr.stranded += l.live + l.pending_inject;
                }
                audit.host_violations += o.violations;
                served += o.served;
                events += o.events;
                tl_live += o.timeouts_live_owner;
                tl_dead += o.timeouts_dead_owner;
                hr.served += o.served;
                hr.completed += l.completed;
                hr.timeouts += l.timeouts;
                add_tl(&mut hr.timeline, &o.timeline);
            }
            for c in &slot.crashes {
                audit.crash_started += c.started;
                audit.crash_completed += c.completed;
                audit.crash_timeouts += c.timeouts;
                audit.crash_retry_capped += c.retry_capped;
                audit.crash_stranded += c.stranded_live;
                audit.crash_pending += c.pending_inject;
                audit.crash_completed_retry += c.completed_retry;
                audit.crash_timeouts_retry += c.timeouts_retry;
                audit.crash_retry_capped_retry += c.retry_capped_retry;
                audit.crash_stranded_retry += c.stranded_live_retry;
                audit.crash_pending_retry += c.pending_inject_retry;
                served += c.served;
                events += c.events_executed;
                hr.served += c.served;
                hr.completed += c.completed;
                hr.timeouts += c.timeouts;
                hr.stranded += c.stranded_live + c.pending_inject;
                add_tl(&mut hr.timeline, &c.timeline);
            }
            add_tl(&mut timeline, &hr.timeline);
            per_host.push(hr);
        }

        ClusterResult {
            served,
            goodput: per_sec(served, self.cfg.base.measure),
            completed: audit.fin_completed + audit.crash_completed,
            timeouts: audit.fin_timeouts + audit.crash_timeouts,
            recovered: audit.fin_completed_retry + audit.crash_completed_retry,
            stranded: self.stats.stranded,
            retry_amplification: self.stats.attempts as f64 / self.stats.arrivals.max(1) as f64,
            stats: self.stats,
            audit,
            fingerprint: self.fp.value(),
            events_executed: events,
            timeline,
            per_host,
            evictions: self.evict_times,
            timeouts_live_owner: tl_live,
            timeouts_dead_owner: tl_dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ListenKind;
    use crate::server::ServerKind;
    use crate::workload::Workload;
    use sim::fabric::rolling_restart;
    use sim::topology::Machine;

    /// Short-session workload: connections complete in a few
    /// milliseconds so recovery (retry completion) is observable inside
    /// a quick test window.
    fn quick_workload() -> Workload {
        Workload {
            batches: vec![1, 1],
            think: ms(1),
            ..Workload::base()
        }
    }

    fn quick_base(rate: f64) -> RunConfig {
        let mut c = RunConfig::new(
            Machine::amd48(),
            2,
            ListenKind::Affinity,
            ServerKind::apache(),
            quick_workload(),
            rate,
        );
        c.warmup = ms(30);
        c.measure = ms(90);
        c.tracked_files = 200;
        c
    }

    fn quick_cluster(hosts: usize, rate: f64) -> ClusterConfig {
        ClusterConfig::new(hosts, quick_base(rate))
    }

    #[test]
    fn no_fault_cluster_conserves_and_repeats() {
        let cfg = quick_cluster(2, 2_000.0);
        let a = ClusterRunner::new(cfg.clone()).run();
        let b = ClusterRunner::new(cfg).run();
        assert!(a.served > 0, "cluster served nothing");
        assert_eq!(a.stats.stranded, 0);
        assert_eq!(a.stats.crashes, 0);
        assert_eq!(a.audit.violations(), Vec::<String>::new());
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "cluster run not deterministic"
        );
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.served, b.served);
    }

    #[test]
    fn kill_one_host_strands_evicts_and_recovers() {
        let mut cfg = quick_cluster(2, 2_000.0);
        cfg.host_events = vec![HostEvent {
            host: 1,
            at: ms(50),
            kind: HostEventKind::Crash,
        }];
        let r = ClusterRunner::new(cfg).run();
        assert_eq!(r.stats.crashes, 1);
        assert_eq!(
            r.stats.evictions, 1,
            "health checks never evicted the corpse"
        );
        assert!(
            r.stranded > 0,
            "a loaded host crashed with nothing in flight"
        );
        assert!(
            r.stats.misroutes > 0,
            "no attempt hit the corpse before eviction"
        );
        assert!(
            r.recovered > 0,
            "no stranded connection recovered via retry"
        );
        assert_eq!(r.evictions.len(), 1);
        let (host, delay) = r.evictions[0];
        assert_eq!(host, 1);
        assert!(
            delay <= HealthCheck::fast().detection_bound(),
            "eviction took {delay} > bound {}",
            HealthCheck::fast().detection_bound()
        );
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn crash_then_restart_readmits_through_slow_start() {
        let mut cfg = quick_cluster(2, 2_000.0);
        cfg.host_events = vec![
            HostEvent {
                host: 0,
                at: ms(45),
                kind: HostEventKind::Crash,
            },
            HostEvent {
                host: 0,
                at: ms(75),
                kind: HostEventKind::Restart,
            },
        ];
        let r = ClusterRunner::new(cfg).run();
        assert_eq!(r.stats.crashes, 1);
        assert_eq!(r.stats.restarts, 1);
        // The restarted instance serves again.
        assert!(r.per_host[0].instances == 2);
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn rolling_restart_conserves_every_connection() {
        let mut cfg = quick_cluster(2, 2_000.0);
        cfg.drain_timeout = ms(20);
        cfg.host_events = rolling_restart(2, ms(35), ms(30), ms(20), ms(2));
        let r = ClusterRunner::new(cfg).run();
        assert_eq!(r.stats.drains, 2);
        assert_eq!(r.stats.drain_done, 2);
        assert_eq!(r.stats.restarts, 2);
        assert_eq!(r.stats.crashes, 0);
        assert_eq!(r.timeouts_dead_owner, 0);
        assert_eq!(r.audit.violations(), Vec::<String>::new());
        assert!(r.served > 0);
    }

    #[test]
    fn keepalive_sessions_spanning_a_crash_strand_then_retry() {
        // Long-lived sessions: many batches with real think time, so
        // sessions pinned to the dead host are mid-flight at the crash.
        let mut base = quick_base(1_500.0);
        base.workload = Workload {
            batches: vec![1, 1, 1, 1, 1],
            think: ms(6),
            ..Workload::base()
        };
        let mut cfg = ClusterConfig::new(2, base);
        cfg.host_events = vec![HostEvent {
            host: 1,
            at: ms(50),
            kind: HostEventKind::Crash,
        }];
        let r = ClusterRunner::new(cfg).run();
        assert!(
            r.audit.crash_stranded > 0,
            "no keepalive session was live on the crashed host"
        );
        // Stranded sessions are counted and retried — not silently
        // conserved: the retry path saw them, and some recovered.
        assert!(
            r.stats.retries_scheduled
                >= r.stranded.min(
                    r.stats.retries_scheduled
                        + r.stats.retry_exhausted
                        + r.stats.retry_budget_denied
                )
        );
        assert!(r.recovered > 0, "no stranded keepalive session recovered");
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn every_lb_policy_is_deterministic_and_conserving() {
        for policy in LbPolicy::ALL {
            let mut cfg = quick_cluster(3, 1_500.0);
            cfg.lb = policy;
            cfg.host_events = vec![HostEvent {
                host: 2,
                at: ms(55),
                kind: HostEventKind::Crash,
            }];
            let a = ClusterRunner::new(cfg.clone()).run();
            let b = ClusterRunner::new(cfg).run();
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} policy not deterministic",
                policy.label()
            );
            assert!(a.served > 0, "{} served nothing", policy.label());
            assert_eq!(
                a.audit.violations(),
                Vec::<String>::new(),
                "{} violated conservation",
                policy.label()
            );
        }
    }

    #[test]
    fn lossy_fabric_retries_and_conserves() {
        let mut cfg = quick_cluster(2, 1_500.0);
        cfg.fabric.loss_p = 0.05;
        let r = ClusterRunner::new(cfg).run();
        assert!(r.stats.fabric_lost > 0, "5% loss lost nothing");
        assert!(r.stats.retries_scheduled > 0);
        assert!(r.recovered > 0, "no fabric-lost connection recovered");
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn zero_retry_budget_denies_everything() {
        let mut cfg = quick_cluster(2, 1_500.0);
        cfg.retry.budget = 0.0;
        cfg.host_events = vec![HostEvent {
            host: 0,
            at: ms(50),
            kind: HostEventKind::Crash,
        }];
        let r = ClusterRunner::new(cfg).run();
        assert!(r.stats.retry_budget_denied > 0);
        assert_eq!(r.stats.retries_scheduled, 0);
        assert_eq!(r.recovered, 0);
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn flash_crowd_raises_offered_rate() {
        let mut cfg = quick_cluster(2, 1_500.0);
        let quiet = ClusterRunner::new(cfg.clone()).run();
        cfg.flash = Some(FlashCrowd {
            at: ms(40),
            until: ms(80),
            multiplier: 3.0,
        });
        let surged = ClusterRunner::new(cfg).run();
        assert!(
            surged.stats.arrivals > quiet.stats.arrivals * 3 / 2,
            "flash crowd did not raise arrivals: {} vs {}",
            surged.stats.arrivals,
            quiet.stats.arrivals
        );
        assert_eq!(surged.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn single_host_cluster_is_valid_and_conserves() {
        let r = ClusterRunner::new(quick_cluster(1, 2_000.0)).run();
        assert!(r.served > 0);
        assert_eq!(r.audit.violations(), Vec::<String>::new());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let good = quick_cluster(2, 1_000.0);
        assert!(good.validate().is_ok());
        let mut c = good.clone();
        c.hosts = 0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.hosts = 65;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.base.start_at = 1;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.base.external_arrivals = true;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.base.hog_work = Some(ms(1));
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.health.interval = 0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.retry.max_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.fabric.loss_p = 1.0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.client_keys = 0;
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.host_events = vec![HostEvent {
            host: 2,
            at: 0,
            kind: HostEventKind::Crash,
        }];
        assert!(c.validate().is_err());
        let mut c = good.clone();
        c.flash = Some(FlashCrowd {
            at: ms(10),
            until: ms(5),
            multiplier: 2.0,
        });
        assert!(c.validate().is_err());
        let mut c = good;
        c.flash = Some(FlashCrowd {
            at: ms(10),
            until: ms(20),
            multiplier: 0.0,
        });
        assert!(c.validate().is_err());
    }

    /// Satellite: every cluster audit counter has a corrupting negative
    /// test — nudging it must trip at least one conservation law.
    #[test]
    fn corrupting_any_cluster_counter_trips_the_audit() {
        let mut cfg = quick_cluster(2, 2_000.0);
        cfg.fabric.loss_p = 0.02;
        cfg.host_events = vec![
            HostEvent {
                host: 1,
                at: ms(45),
                kind: HostEventKind::Crash,
            },
            HostEvent {
                host: 0,
                at: ms(60),
                kind: HostEventKind::DrainStart,
            },
        ];
        let r = ClusterRunner::new(cfg).run();
        let audit = r.audit;
        assert_eq!(audit.violations(), Vec::<String>::new());

        type Corruption = Box<dyn Fn(&mut ClusterAudit)>;
        let corruptions: Vec<(&str, Corruption)> = vec![
            ("arrivals", Box::new(|a| a.stats.arrivals += 1)),
            ("attempts", Box::new(|a| a.stats.attempts += 1)),
            ("injections", Box::new(|a| a.stats.injections += 1)),
            (
                "retry_injections",
                Box::new(|a| a.stats.retry_injections += 1),
            ),
            ("misroutes", Box::new(|a| a.stats.misroutes += 1)),
            ("no_route", Box::new(|a| a.stats.no_route += 1)),
            ("fabric_lost", Box::new(|a| a.stats.fabric_lost += 1)),
            ("stranded", Box::new(|a| a.stats.stranded += 1)),
            ("stranded_retry", Box::new(|a| a.stats.stranded_retry += 1)),
            (
                "retries_scheduled",
                Box::new(|a| a.stats.retries_scheduled += 1),
            ),
            ("retries_sent", Box::new(|a| a.stats.retries_sent += 1)),
            (
                "retry_exhausted",
                Box::new(|a| a.stats.retry_exhausted += 1),
            ),
            (
                "retry_budget_denied",
                Box::new(|a| a.stats.retry_budget_denied += 1),
            ),
            ("crashes", Box::new(|a| a.stats.crashes += 1)),
            ("evictions", Box::new(|a| a.stats.evictions += 1)),
            (
                "crash_undetected",
                Box::new(|a| a.stats.crash_undetected += 1),
            ),
            ("drains", Box::new(|a| a.stats.drains += 1)),
            ("drain_done", Box::new(|a| a.stats.drain_done += 1)),
            ("drain_aborted", Box::new(|a| a.stats.drain_aborted += 1)),
            ("fin_started", Box::new(|a| a.fin_started += 1)),
            ("fin_completed", Box::new(|a| a.fin_completed += 1)),
            (
                "fin_completed_retry (recovered)",
                Box::new(|a| a.fin_completed_retry += 1),
            ),
            ("fin_live", Box::new(|a| a.fin_live += 1)),
            ("fin_pending", Box::new(|a| a.fin_pending += 1)),
            ("mid_live", Box::new(|a| a.mid_live += 1)),
            ("crash_started", Box::new(|a| a.crash_started += 1)),
            ("crash_stranded", Box::new(|a| a.crash_stranded += 1)),
            ("crash_pending", Box::new(|a| a.crash_pending += 1)),
            (
                "crash_completed_retry",
                Box::new(|a| a.crash_completed_retry += 1),
            ),
            (
                "pending_retries_end",
                Box::new(|a| a.pending_retries_end += 1),
            ),
            ("host_violations", Box::new(|a| a.host_violations += 1)),
        ];
        for (name, corrupt) in corruptions {
            let mut bad = audit.clone();
            corrupt(&mut bad);
            assert!(
                !bad.violations().is_empty(),
                "corrupting {name} tripped no conservation law"
            );
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in LbPolicy::ALL {
            assert_eq!(LbPolicy::from_label(p.label()), Some(p));
        }
        assert_eq!(LbPolicy::from_label("nope"), None);
    }
}
