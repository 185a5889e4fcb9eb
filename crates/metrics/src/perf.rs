//! Per-kernel-entry performance counters (Table 3).
//!
//! The paper instruments the kernel to record clock cycles, instruction
//! counts, and L2 misses for each system call and softirq entry point, then
//! compares Fine-Accept against Affinity-Accept. This module provides the
//! counter registry the simulated kernel charges into.

use serde::{Deserialize, Serialize};

/// Kernel entry points instrumented in Table 3 of the paper.
///
/// System call entry points begin with `Sys`, softirq entry points with
/// `Softirq`; `Schedule` is the in-kernel context switch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum KernelEntry {
    SoftirqNetRx,
    SysRead,
    Schedule,
    SysAccept4,
    SysWritev,
    SysPoll,
    SysShutdown,
    SysFutex,
    SysClose,
    SoftirqRcu,
    SysFcntl,
    SysGetsockname,
    SysEpollWait,
}

impl KernelEntry {
    /// All entries, in the order Table 3 lists them.
    pub const ALL: [KernelEntry; 13] = [
        KernelEntry::SoftirqNetRx,
        KernelEntry::SysRead,
        KernelEntry::Schedule,
        KernelEntry::SysAccept4,
        KernelEntry::SysWritev,
        KernelEntry::SysPoll,
        KernelEntry::SysShutdown,
        KernelEntry::SysFutex,
        KernelEntry::SysClose,
        KernelEntry::SoftirqRcu,
        KernelEntry::SysFcntl,
        KernelEntry::SysGetsockname,
        KernelEntry::SysEpollWait,
    ];

    /// The label the paper prints for this entry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelEntry::SoftirqNetRx => "softirq net rx",
            KernelEntry::SysRead => "sys read",
            KernelEntry::Schedule => "schedule",
            KernelEntry::SysAccept4 => "sys accept4",
            KernelEntry::SysWritev => "sys writev",
            KernelEntry::SysPoll => "sys poll",
            KernelEntry::SysShutdown => "sys shutdown",
            KernelEntry::SysFutex => "sys futex",
            KernelEntry::SysClose => "sys close",
            KernelEntry::SoftirqRcu => "softirq rcu",
            KernelEntry::SysFcntl => "sys fcntl",
            KernelEntry::SysGetsockname => "sys getsockname",
            KernelEntry::SysEpollWait => "sys epoll wait",
        }
    }

    /// Whether this entry is part of the network-stack path the paper sums
    /// when reporting the "30% less time in the TCP stack" result.
    #[must_use]
    pub fn is_network_stack(self) -> bool {
        !matches!(
            self,
            KernelEntry::SysFutex | KernelEntry::SysFcntl | KernelEntry::SysEpollWait
        )
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|e| *e == self)
            .expect("entry in ALL")
    }
}

/// Counters accumulated for one kernel entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryCounters {
    /// Clock cycles spent inside the entry.
    pub cycles: u64,
    /// Instructions retired inside the entry.
    pub instructions: u64,
    /// L2 cache misses incurred inside the entry.
    pub l2_misses: u64,
    /// Number of invocations.
    pub calls: u64,
}

impl EntryCounters {
    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &EntryCounters) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.l2_misses += other.l2_misses;
        self.calls += other.calls;
    }
}

/// The full per-entry counter set for one run (one row group of Table 3).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfCounters {
    entries: [EntryCounters; KernelEntry::ALL.len()],
    /// Completed HTTP requests, used to normalize counters per request.
    pub requests: u64,
}

impl PerfCounters {
    /// Creates a zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one invocation of `entry`.
    pub fn charge(&mut self, entry: KernelEntry, cycles: u64, instructions: u64, l2: u64) {
        let e = &mut self.entries[entry.index()];
        e.cycles += cycles;
        e.instructions += instructions;
        e.l2_misses += l2;
        e.calls += 1;
    }

    /// Raw counters for one entry.
    #[must_use]
    pub fn entry(&self, entry: KernelEntry) -> EntryCounters {
        self.entries[entry.index()]
    }

    /// Per-HTTP-request counters for one entry (what Table 3 reports).
    #[must_use]
    pub fn per_request(&self, entry: KernelEntry) -> (f64, f64, f64) {
        if self.requests == 0 {
            return (0.0, 0.0, 0.0);
        }
        let e = self.entry(entry);
        let n = self.requests as f64;
        (
            e.cycles as f64 / n,
            e.instructions as f64 / n,
            e.l2_misses as f64 / n,
        )
    }

    /// Sums per-request cycles over the network-stack entries — the quantity
    /// behind the paper's "30% reduction in TCP stack time".
    #[must_use]
    pub fn network_stack_cycles_per_request(&self) -> f64 {
        KernelEntry::ALL
            .iter()
            .filter(|e| e.is_network_stack())
            .map(|e| self.per_request(*e).0)
            .sum()
    }

    /// Total L2 misses across all entries.
    #[must_use]
    pub fn total_l2_misses(&self) -> u64 {
        self.entries.iter().map(|e| e.l2_misses).sum()
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PerfCounters) {
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            a.merge(b);
        }
        self.requests += other.requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut p = PerfCounters::new();
        p.charge(KernelEntry::SoftirqNetRx, 100, 50, 2);
        p.charge(KernelEntry::SoftirqNetRx, 100, 50, 2);
        let e = p.entry(KernelEntry::SoftirqNetRx);
        assert_eq!(e.cycles, 200);
        assert_eq!(e.instructions, 100);
        assert_eq!(e.l2_misses, 4);
        assert_eq!(e.calls, 2);
    }

    #[test]
    fn per_request_normalizes() {
        let mut p = PerfCounters::new();
        p.charge(KernelEntry::SysRead, 1000, 400, 10);
        p.requests = 4;
        let (c, i, m) = p.per_request(KernelEntry::SysRead);
        assert_eq!(c, 250.0);
        assert_eq!(i, 100.0);
        assert_eq!(m, 2.5);
    }

    #[test]
    fn per_request_zero_requests_is_zero() {
        let p = PerfCounters::new();
        assert_eq!(p.per_request(KernelEntry::SysRead), (0.0, 0.0, 0.0));
    }

    #[test]
    fn network_stack_excludes_futex_fcntl_epoll() {
        assert!(!KernelEntry::SysFutex.is_network_stack());
        assert!(!KernelEntry::SysFcntl.is_network_stack());
        assert!(!KernelEntry::SysEpollWait.is_network_stack());
        assert!(KernelEntry::SoftirqNetRx.is_network_stack());
        assert!(KernelEntry::SysAccept4.is_network_stack());
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = PerfCounters::new();
        let mut b = PerfCounters::new();
        a.charge(KernelEntry::SysPoll, 10, 5, 1);
        b.charge(KernelEntry::SysPoll, 30, 15, 3);
        b.requests = 2;
        a.merge(&b);
        assert_eq!(a.entry(KernelEntry::SysPoll).cycles, 40);
        assert_eq!(a.requests, 2);
    }

    #[test]
    fn all_labels_unique() {
        let mut labels: Vec<_> = KernelEntry::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), KernelEntry::ALL.len());
    }
}
