//! A model of DProf, the data-structure profiler the paper uses for
//! Table 4 and Figure 4 (Pesterev, Zeldovich, Morris: *Locating cache
//! performance bottlenecks using data profiling*, EuroSys 2010).
//!
//! For every tracked data type, DProf reports:
//!
//! * what fraction of the object's **cache lines** are touched by more than
//!   one core,
//! * what fraction of its **bytes** are shared, and how much of that is
//!   **read-write** shared,
//! * and the **cycles spent accessing shared bytes** per HTTP request.
//!
//! The latency column and the Figure 4 CDF instrument the *instruction set
//! identified as shared under Fine-Accept* in both runs — so an
//! Affinity-Accept run records latencies for the same (formerly shared)
//! fields even once they are no longer shared. This module mirrors that:
//! [`DProf::record_shared_access`] is called for every access to a field
//! whose tag is in the shared-under-Fine set, regardless of the listen
//! socket implementation in use.

use crate::layout;
use crate::types::{DataType, CACHE_LINE};
use metrics::Histogram;
use std::collections::BTreeMap;

/// The dprof-v2 ledger's run total (DESIGN.md §13). A line's
/// *generation* runs from a fill (an access by a core holding no copy of
/// the line, which pulls in all 64 bytes) to the line's next fill, or to
/// the fold at the object's recycle or at the end of the run.
///
/// Byte counters settle when a generation closes, so once every
/// generation has folded `bytes_touched + bytes_wasted == bytes_fetched`
/// and `bytes_fetched == 64 * fills` hold by construction; the run audit
/// enforces both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineAgg {
    /// Generations opened by a fill.
    pub fills: u64,
    /// Bytes pulled into cache: 64 per settled generation.
    pub bytes_fetched: u64,
    /// Distinct bytes touched between a fill and its generation's close.
    pub bytes_touched: u64,
    /// `bytes_fetched - bytes_touched`: fetched and never used.
    pub bytes_wasted: u64,
    /// Line touches recorded, inside a filled generation or not.
    pub touches: u64,
}

impl LineAgg {
    /// Accumulates another aggregate.
    pub fn merge(&mut self, o: &LineAgg) {
        self.fills += o.fills;
        self.bytes_fetched += o.bytes_fetched;
        self.bytes_touched += o.bytes_touched;
        self.bytes_wasted += o.bytes_wasted;
        self.touches += o.touches;
    }

    /// Whether every counter is zero (the inert-plane audit law).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == LineAgg::default()
    }

    /// Records one touch of `mask`'s bytes on a line whose ledger is
    /// `line`: the bytes touched since the line's last fill, 0 when no
    /// filled generation is open. `filled` means the touching core held no
    /// copy, so the access fetched the line. A touch outside a filled
    /// generation counts only as a touch.
    pub(crate) fn touch(&mut self, line: &mut u64, filled: bool, mask: u64) {
        // A never-empty mask is what lets 0 stand for "no generation".
        debug_assert_ne!(mask, 0, "a field run covers a byte of each line");
        self.touches += 1;
        if filled {
            self.settle(line);
            self.fills += 1;
            *line = mask;
        } else if *line != 0 {
            *line |= mask;
        }
    }

    /// Closes the generation open on a line, if any, settling its 64
    /// fetched bytes into touched and wasted.
    pub(crate) fn settle(&mut self, line: &mut u64) {
        if *line != 0 {
            let touched = u64::from(line.count_ones());
            self.bytes_fetched += CACHE_LINE as u64;
            self.bytes_touched += touched;
            self.bytes_wasted += CACHE_LINE as u64 - touched;
            *line = 0;
        }
    }
}

/// The dprof-v2 cacheline report carried by `RunResult`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachelineStats {
    /// Whether the ledger was recording (false in disabled/`fast` runs;
    /// every counter is then zero).
    pub enabled: bool,
    totals: LineAgg,
}

impl CachelineStats {
    /// The run's ledger totals.
    #[must_use]
    pub fn totals(&self) -> LineAgg {
        self.totals
    }
}

/// Aggregated sharing profile of one data type.
#[derive(Debug, Clone, Default)]
pub struct TypeAgg {
    /// Object instances folded in.
    pub instances: u64,
    /// Sum over instances of lines touched by ≥ 2 cores.
    pub shared_lines: u64,
    /// Sum over instances of bytes in fields touched by ≥ 2 cores.
    pub shared_bytes: u64,
    /// Subset of `shared_bytes` with at least one writer.
    pub shared_rw_bytes: u64,
    /// Total cycles spent in accesses to the instrumented (shared-under-
    /// Fine) field set.
    pub cycles_on_shared: u64,
    /// Latency distribution of those accesses (Figure 4).
    pub lat_hist: Histogram,
}

/// One row of Table 4, computed for a finished run.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The data type.
    pub ty: DataType,
    /// Object size in bytes.
    pub size: usize,
    /// Percent of the object's cache lines shared.
    pub lines_shared_pct: f64,
    /// Percent of the object's bytes shared.
    pub bytes_shared_pct: f64,
    /// Percent of the object's bytes shared read-write.
    pub bytes_shared_rw_pct: f64,
    /// Cycles accessing the instrumented shared bytes, per HTTP request.
    pub cycles_per_request: f64,
}

/// The profiler. Construct with [`DProf::enabled`] before a measured run;
/// the default is disabled (no recording, no overhead).
#[derive(Debug, Clone, Default)]
pub struct DProf {
    enabled: bool,
    per_type: BTreeMap<DataType, TypeAgg>,
    v2: bool,
    lines: LineAgg,
}

impl DProf {
    /// A profiler that records.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Turns on the dprof-v2 cacheline ledger (independent of the Table 4
    /// plane; both may record in the same run).
    pub fn enable_v2(&mut self) {
        self.v2 = true;
    }

    /// Whether the cacheline ledger is recording. Same discipline as
    /// [`DProf::is_enabled`]: always `false` under the `fast` feature, and
    /// ledger recording never alters charged latencies, schedules events,
    /// or draws randomness — toggling it is fingerprint-neutral.
    #[must_use]
    pub fn is_v2_enabled(&self) -> bool {
        cfg!(not(feature = "fast")) && self.v2
    }

    /// Adds a ledger delta to the run total.
    pub(crate) fn v2_fold(&mut self, delta: &LineAgg) {
        self.lines.merge(delta);
    }

    /// Snapshot of the cacheline ledger for `RunResult`.
    #[must_use]
    pub fn cacheline_stats(&self) -> CachelineStats {
        CachelineStats {
            enabled: self.is_v2_enabled(),
            totals: self.lines,
        }
    }

    /// A profiler that ignores all input.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether recording is active. Always `false` under the `fast`
    /// feature: DProf recording never alters charged access latencies,
    /// so compiling the whole collection plane out (the cache model
    /// checks this before building reader/writer masks) changes no
    /// simulated outcome — only host-side work and Table 3/4 content.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        cfg!(not(feature = "fast")) && self.enabled
    }

    /// Records the latency of one access to an instrumented field.
    pub fn record_shared_access(&mut self, ty: DataType, latency: u64) {
        if !self.is_enabled() {
            return;
        }
        let agg = self.per_type.entry(ty).or_default();
        agg.cycles_on_shared += latency;
        agg.lat_hist.record(latency);
    }

    /// Folds one finished object instance's per-field reader/writer core
    /// masks into the type aggregate. Untouched instances are skipped.
    pub fn fold_instance(&mut self, ty: DataType, readers: &[u128], writers: &[u128]) {
        if !self.is_enabled() {
            return;
        }
        let fields = layout::fields(ty);
        debug_assert_eq!(fields.len(), readers.len());
        let mut touched = false;
        let mut shared_bytes = 0u64;
        let mut shared_rw = 0u64;
        let mut line_touchers: Vec<u128> = vec![0; ty.lines()];
        for (i, f) in fields.iter().enumerate() {
            let all = readers[i] | writers[i];
            if all == 0 {
                continue;
            }
            touched = true;
            for line in f.lines() {
                line_touchers[line] |= all;
            }
            if all.count_ones() >= 2 {
                shared_bytes += f.len as u64;
                if writers[i] != 0 {
                    shared_rw += f.len as u64;
                }
            }
        }
        if !touched {
            return;
        }
        let shared_lines = line_touchers.iter().filter(|m| m.count_ones() >= 2).count() as u64;
        let agg = self.per_type.entry(ty).or_default();
        agg.instances += 1;
        agg.shared_lines += shared_lines;
        agg.shared_bytes += shared_bytes;
        agg.shared_rw_bytes += shared_rw;
    }

    /// The raw aggregate for one type, if any instances were folded or
    /// accesses recorded.
    #[must_use]
    pub fn agg(&self, ty: DataType) -> Option<&TypeAgg> {
        self.per_type.get(&ty)
    }

    /// Produces one Table 4 row; `requests` normalizes the cycles column.
    #[must_use]
    pub fn table4_row(&self, ty: DataType, requests: u64) -> Table4Row {
        let agg = self.per_type.get(&ty).cloned().unwrap_or_default();
        let inst = agg.instances.max(1) as f64;
        Table4Row {
            ty,
            size: ty.size(),
            lines_shared_pct: 100.0 * agg.shared_lines as f64 / (inst * ty.lines() as f64),
            bytes_shared_pct: 100.0 * agg.shared_bytes as f64 / (inst * ty.size() as f64),
            bytes_shared_rw_pct: 100.0 * agg.shared_rw_bytes as f64 / (inst * ty.size() as f64),
            cycles_per_request: agg.cycles_on_shared as f64 / requests.max(1) as f64,
        }
    }

    /// Merged latency CDF across the given types (Figure 4 plots the
    /// union of the instrumented accesses).
    #[must_use]
    pub fn latency_cdf(&self, types: &[DataType]) -> Vec<(u64, f64)> {
        let mut merged = Histogram::new();
        for ty in types {
            if let Some(agg) = self.per_type.get(ty) {
                merged.merge(&agg.lat_hist);
            }
        }
        merged.cdf()
    }
}

// Recording behavior only exists in instrumented builds (the DProf collection plane is compiled out under `fast`).
#[cfg(all(test, not(feature = "fast")))]
mod tests {
    use super::*;
    use crate::layout::FieldTag;

    #[test]
    fn disabled_records_nothing() {
        let mut d = DProf::disabled();
        d.record_shared_access(DataType::TcpSock, 500);
        d.fold_instance(DataType::TcpSock, &[1; 47], &[0; 47]);
        assert!(d.agg(DataType::TcpSock).is_none());
    }

    #[test]
    fn single_core_instance_has_no_sharing() {
        let mut d = DProf::enabled();
        let nf = layout::fields(DataType::TcpRequestSock).len();
        let readers = vec![0b1u128; nf];
        let writers = vec![0b1u128; nf];
        d.fold_instance(DataType::TcpRequestSock, &readers, &writers);
        let row = d.table4_row(DataType::TcpRequestSock, 1);
        assert_eq!(row.lines_shared_pct, 0.0);
        assert_eq!(row.bytes_shared_pct, 0.0);
    }

    #[test]
    fn two_core_instance_shares_touched_fields() {
        let mut d = DProf::enabled();
        let fields = layout::fields(DataType::TcpRequestSock);
        let nf = fields.len();
        // Core 0 writes everything, core 5 reads everything.
        let readers = vec![0b10_0000u128; nf];
        let writers = vec![0b1u128; nf];
        d.fold_instance(DataType::TcpRequestSock, &readers, &writers);
        let row = d.table4_row(DataType::TcpRequestSock, 1);
        assert_eq!(row.lines_shared_pct, 100.0);
        assert!(row.bytes_shared_pct > 90.0);
        assert!(row.bytes_shared_rw_pct > 90.0);
    }

    #[test]
    fn read_only_sharing_not_counted_as_rw() {
        let mut d = DProf::enabled();
        let nf = layout::fields(DataType::TcpRequestSock).len();
        let readers = vec![0b11u128; nf]; // two readers, no writers
        let writers = vec![0u128; nf];
        d.fold_instance(DataType::TcpRequestSock, &readers, &writers);
        let row = d.table4_row(DataType::TcpRequestSock, 1);
        assert!(row.bytes_shared_pct > 90.0);
        assert_eq!(row.bytes_shared_rw_pct, 0.0);
    }

    #[test]
    fn untouched_instances_skipped() {
        let mut d = DProf::enabled();
        let nf = layout::fields(DataType::SkBuff).len();
        d.fold_instance(DataType::SkBuff, &vec![0; nf], &vec![0; nf]);
        assert!(d.agg(DataType::SkBuff).is_none());
    }

    #[test]
    fn averaging_over_instances() {
        let mut d = DProf::enabled();
        let nf = layout::fields(DataType::TcpRequestSock).len();
        // One fully shared instance, one local instance.
        d.fold_instance(
            DataType::TcpRequestSock,
            &vec![0b11u128; nf],
            &vec![0b01u128; nf],
        );
        d.fold_instance(DataType::TcpRequestSock, &vec![1u128; nf], &vec![1u128; nf]);
        let row = d.table4_row(DataType::TcpRequestSock, 1);
        assert!((row.lines_shared_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_normalized_per_request() {
        let mut d = DProf::enabled();
        d.record_shared_access(DataType::TcpSock, 460);
        d.record_shared_access(DataType::TcpSock, 460);
        let row = d.table4_row(DataType::TcpSock, 2);
        assert!((row.cycles_per_request - 460.0).abs() < 1e-9);
    }

    #[test]
    fn latency_cdf_merges_types() {
        let mut d = DProf::enabled();
        d.record_shared_access(DataType::TcpSock, 100);
        d.record_shared_access(DataType::SkBuff, 500);
        let cdf = d.latency_cdf(&[DataType::TcpSock, DataType::SkBuff]);
        assert_eq!(cdf.len(), 2);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_under_fine_covers_globalnode() {
        assert!(FieldTag::GlobalNode.shared_under_fine());
        assert!(!FieldTag::RxOnly.shared_under_fine());
    }

    #[test]
    fn v2_disabled_by_default_and_folds_when_enabled() {
        let mut d = DProf::disabled();
        assert!(!d.is_v2_enabled());
        d.enable_v2();
        assert!(d.is_v2_enabled());
        let delta = LineAgg {
            fills: 2,
            bytes_fetched: 128,
            bytes_touched: 40,
            bytes_wasted: 88,
            touches: 5,
        };
        d.v2_fold(&delta);
        d.v2_fold(&delta);
        let stats = d.cacheline_stats();
        assert!(stats.enabled);
        let t = stats.totals();
        assert_eq!((t.fills, t.touches), (4, 10));
        assert_eq!((t.bytes_fetched, t.bytes_wasted), (256, 176));
        assert_eq!(t.bytes_touched + t.bytes_wasted, t.bytes_fetched);
        assert!(LineAgg::default().is_zero());
    }

    #[test]
    fn a_generation_settles_at_the_next_fill_or_the_fold() {
        let mut t = LineAgg::default();
        let mut line = 0;
        // A touch outside a filled generation is only a touch.
        t.touch(&mut line, false, 0xff);
        assert_eq!((line, t.fills, t.touches), (0, 0, 1));
        t.touch(&mut line, true, 0x0f);
        t.touch(&mut line, false, 0xf0);
        assert_eq!((line, t.fills, t.bytes_fetched), (0xff, 1, 0));
        // The next fill settles 8 touched bytes and opens a generation.
        t.touch(&mut line, true, 0x1);
        assert_eq!((line, t.bytes_touched, t.bytes_wasted), (0x1, 8, 56));
        t.settle(&mut line);
        t.settle(&mut line);
        assert_eq!(
            t,
            LineAgg {
                fills: 2,
                bytes_fetched: 128,
                bytes_touched: 9,
                bytes_wasted: 119,
                touches: 4,
            }
        );
        assert_eq!(line, 0);
    }
}
