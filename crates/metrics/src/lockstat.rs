//! A model of `lock_stat`, the Linux kernel lock profiler (Table 2).
//!
//! The paper uses `lock_stat` to attribute request-processing time to the
//! listen-socket lock: time spent *waiting* to acquire it in spinlock mode,
//! time spent *holding* it, and (bounded from above) time sleeping on it in
//! mutex mode. `lock_stat` itself "incurs substantial overhead due to
//! accounting on each lock operation", which is why Table 2's throughput
//! numbers are lower than the other experiments — the model reproduces that
//! perturbation via [`LockStat::accounting_overhead_cycles`].

use serde::{Deserialize, Serialize};

/// Lock classes the simulated kernel distinguishes, mirroring the lock
/// classes relevant to the paper's connection-processing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum LockClass {
    /// The single per-port listen socket lock (Stock-Accept's bottleneck).
    ListenSocket,
    /// A per-core cloned accept queue lock (Fine/Affinity-Accept).
    AcceptQueue,
    /// A per-bucket request hash table lock (§5.2).
    RequestBucket,
    /// A per-bucket established-connections hash table lock.
    EstablishedBucket,
    /// A per-connection (`tcp_sock`) lock.
    Connection,
    /// The per-core packet-buffer slab pool lock.
    SlabPool,
    /// Run-queue locks taken by the scheduler and load balancer.
    RunQueue,
    /// NIC administrative lock guarding FDir table updates.
    NicAdmin,
}

impl LockClass {
    /// Number of lock classes.
    pub const COUNT: usize = 8;

    /// Every class, in declaration (and reporting) order.
    pub const ALL: [LockClass; LockClass::COUNT] = [
        LockClass::ListenSocket,
        LockClass::AcceptQueue,
        LockClass::RequestBucket,
        LockClass::EstablishedBucket,
        LockClass::Connection,
        LockClass::SlabPool,
        LockClass::RunQueue,
        LockClass::NicAdmin,
    ];

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LockClass::ListenSocket => "listen_socket",
            LockClass::AcceptQueue => "accept_queue",
            LockClass::RequestBucket => "request_bucket",
            LockClass::EstablishedBucket => "established_bucket",
            LockClass::Connection => "connection",
            LockClass::SlabPool => "slab_pool",
            LockClass::RunQueue => "run_queue",
            LockClass::NicAdmin => "nic_admin",
        }
    }
}

/// Accumulated statistics for one lock class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockClassStats {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait (contended).
    pub contended: u64,
    /// Cycles spent busy-waiting (spinlock mode).
    pub wait_spin_cycles: u64,
    /// Cycles spent sleeping while the lock was held (mutex mode); the
    /// paper counts these as idle time.
    pub wait_mutex_cycles: u64,
    /// Cycles the lock was held.
    pub hold_cycles: u64,
}

/// The lock profiler.
///
/// When disabled ([`LockStat::disabled`]) recording is a no-op and lock
/// operations carry no accounting overhead, matching an unprofiled kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LockStat {
    enabled: bool,
    /// Extra cycles charged to each lock acquire+release pair when the
    /// profiler is enabled.
    pub accounting_overhead_cycles: u64,
    /// Indexed by `LockClass` discriminant: `record` runs on every lock
    /// operation in the simulated kernel, so the table is a flat array
    /// rather than a map (no hashing, no tree walk).
    stats: [LockClassStats; LockClass::COUNT],
}

/// Whether [`LockStat::record`] records: `false` under the `fast` feature,
/// which compiles the recording out (the [`LockStat::op_overhead`]
/// perturbation stays). Tests that read the counters check this.
pub const ENABLED: bool = cfg!(not(feature = "fast"));

/// Default per-operation accounting cost. `lock_stat` takes timestamps and
/// updates a global table on every acquire and release; a few hundred cycles
/// per pair is consistent with the paper's observed throughput drop.
pub const DEFAULT_LOCKSTAT_OVERHEAD_CYCLES: u64 = 400;

impl Default for LockStat {
    fn default() -> Self {
        Self::disabled()
    }
}

impl LockStat {
    /// Creates an enabled profiler with the default accounting overhead.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            accounting_overhead_cycles: DEFAULT_LOCKSTAT_OVERHEAD_CYCLES,
            stats: [LockClassStats::default(); LockClass::COUNT],
        }
    }

    /// Creates a disabled (zero-overhead, non-recording) profiler.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            accounting_overhead_cycles: 0,
            stats: [LockClassStats::default(); LockClass::COUNT],
        }
    }

    /// Whether the profiler records and perturbs.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Extra cycles a lock operation should charge for accounting, zero when
    /// disabled.
    #[must_use]
    pub fn op_overhead(&self) -> u64 {
        if self.enabled {
            self.accounting_overhead_cycles
        } else {
            0
        }
    }

    /// Records one acquisition: `wait_spin`/`wait_mutex` cycles spent before
    /// entry and `hold` cycles of critical-section length.
    ///
    /// Under the `fast` feature the body compiles to a no-op. The
    /// *semantic* side of an enabled profiler — the [`Self::op_overhead`]
    /// cycles that perturb the simulated timeline (Table 2) — is
    /// deliberately untouched, so fast and instrumented builds walk
    /// identical schedules and only the recorded statistics differ.
    pub fn record(&mut self, class: LockClass, wait_spin: u64, wait_mutex: u64, hold: u64) {
        if !ENABLED || !self.enabled {
            return;
        }
        let s = &mut self.stats[class as usize];
        s.acquisitions += 1;
        if wait_spin > 0 || wait_mutex > 0 {
            s.contended += 1;
        }
        s.wait_spin_cycles += wait_spin;
        s.wait_mutex_cycles += wait_mutex;
        s.hold_cycles += hold;
    }

    /// Statistics for one class (zeroes if never recorded).
    #[must_use]
    pub fn class(&self, class: LockClass) -> LockClassStats {
        self.stats[class as usize]
    }

    /// Iterates over all classes with recorded activity, in declaration
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (LockClass, &LockClassStats)> {
        LockClass::ALL
            .iter()
            .map(|c| (*c, &self.stats[*c as usize]))
            .filter(|(_, s)| s.acquisitions > 0)
    }

    /// Merges another profiler's records into this one.
    pub fn merge(&mut self, other: &LockStat) {
        for (dst, s) in self.stats.iter_mut().zip(other.stats.iter()) {
            dst.acquisitions += s.acquisitions;
            dst.contended += s.contended;
            dst.wait_spin_cycles += s.wait_spin_cycles;
            dst.wait_mutex_cycles += s.wait_mutex_cycles;
            dst.hold_cycles += s.hold_cycles;
        }
    }

    /// Clears all recorded statistics.
    pub fn clear(&mut self) {
        self.stats = [LockClassStats::default(); LockClass::COUNT];
    }
}

// Recording behavior only exists in instrumented builds (lock_stat recording is compiled out under `fast`).
#[cfg(all(test, not(feature = "fast")))]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing_and_costs_nothing() {
        let mut ls = LockStat::disabled();
        ls.record(LockClass::ListenSocket, 100, 0, 50);
        assert_eq!(ls.class(LockClass::ListenSocket).acquisitions, 0);
        assert_eq!(ls.op_overhead(), 0);
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let mut ls = LockStat::enabled();
        ls.record(LockClass::ListenSocket, 100, 20, 50);
        ls.record(LockClass::ListenSocket, 0, 0, 30);
        let s = ls.class(LockClass::ListenSocket);
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.wait_spin_cycles, 100);
        assert_eq!(s.wait_mutex_cycles, 20);
        assert_eq!(s.hold_cycles, 80);
        assert!(ls.op_overhead() > 0);
    }

    #[test]
    fn merge_combines_classes() {
        let mut a = LockStat::enabled();
        let mut b = LockStat::enabled();
        a.record(LockClass::AcceptQueue, 1, 0, 2);
        b.record(LockClass::AcceptQueue, 3, 0, 4);
        b.record(LockClass::SlabPool, 0, 0, 9);
        a.merge(&b);
        assert_eq!(a.class(LockClass::AcceptQueue).wait_spin_cycles, 4);
        assert_eq!(a.class(LockClass::SlabPool).hold_cycles, 9);
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = LockClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LockClass::ALL.len());
    }

    #[test]
    fn iter_skips_idle_classes_in_declaration_order() {
        let mut ls = LockStat::enabled();
        ls.record(LockClass::RunQueue, 0, 0, 1);
        ls.record(LockClass::ListenSocket, 0, 0, 1);
        let classes: Vec<LockClass> = ls.iter().map(|(c, _)| c).collect();
        assert_eq!(classes, vec![LockClass::ListenSocket, LockClass::RunQueue]);
        ls.clear();
        assert_eq!(ls.iter().count(), 0);
    }
}
