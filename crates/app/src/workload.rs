//! Workload parameters — the knobs §6.2 fixes and §6.6 sweeps.

use crate::files::FileSet;
use serde::{Deserialize, Serialize};
use sim::time::{ms, secs, Cycles};

/// Bytes of an HTTP GET request on the wire.
pub const REQUEST_BYTES: u32 = 300;
/// Bytes of HTTP response headers preceding the file body.
pub const RESPONSE_HEADER_BYTES: u32 = 250;

/// The client workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Requests issued per batch; client thinks between batches.
    /// The paper's base pattern is `[1, 2, 3]` (§6.2).
    pub batches: Vec<u32>,
    /// Client think time between batches (base: 100 ms).
    pub think: Cycles,
    /// Proportional file-size scale (Figure 9).
    pub file_scale: f64,
    /// Client gives up on an unresponsive connection after this (§6.5).
    pub timeout: Cycles,
}

impl Default for Workload {
    fn default() -> Self {
        Self::base()
    }
}

impl Workload {
    /// The paper's base workload: 6 requests per connection in batches of
    /// 1, 2, 3 with 100 ms thinks; 30,000 files averaging ~700 bytes;
    /// 10-second client timeout.
    #[must_use]
    pub fn base() -> Self {
        Self {
            batches: vec![1, 2, 3],
            think: ms(100),
            file_scale: 1.0,
            timeout: secs(10),
        }
    }

    /// Figure 7 / Figure 10 variant: `n` requests per connection,
    /// back-to-back (connection reuse sweep).
    #[must_use]
    pub fn with_requests_per_conn(n: u32) -> Self {
        Self {
            batches: vec![n.max(1)],
            think: 0,
            ..Self::base()
        }
    }

    /// Figure 8 variant: base 6 requests with the given think time
    /// between consecutive requests (modelled as 6 single-request batches
    /// separated by thinks, holding connection reuse constant).
    #[must_use]
    pub fn with_think(think: Cycles) -> Self {
        Self {
            batches: vec![1; 6],
            think,
            ..Self::base()
        }
    }

    /// Figure 9 variant: base pattern with proportionally scaled files.
    #[must_use]
    pub fn with_file_scale(scale: f64) -> Self {
        Self {
            file_scale: scale,
            ..Self::base()
        }
    }

    /// Total requests per connection.
    #[must_use]
    pub fn requests_per_conn(&self) -> u32 {
        self.batches.iter().sum()
    }

    /// Builds the file set this workload serves.
    #[must_use]
    pub fn file_set(&self) -> FileSet {
        FileSet::new(crate::files::DEFAULT_N_FILES, self.file_scale)
    }

    /// Response bytes for a given file size.
    #[must_use]
    pub fn response_bytes(file_size: u32) -> u32 {
        RESPONSE_HEADER_BYTES + file_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_six_requests_in_three_batches() {
        let w = Workload::base();
        assert_eq!(w.batches, vec![1, 2, 3]);
        assert_eq!(w.requests_per_conn(), 6);
        assert_eq!(w.think, ms(100));
    }

    #[test]
    fn reuse_sweep_variant() {
        let w = Workload::with_requests_per_conn(1000);
        assert_eq!(w.requests_per_conn(), 1000);
        assert_eq!(w.think, 0);
        let w1 = Workload::with_requests_per_conn(0);
        assert_eq!(w1.requests_per_conn(), 1);
    }

    #[test]
    fn think_sweep_keeps_reuse_constant() {
        let w = Workload::with_think(ms(500));
        assert_eq!(w.requests_per_conn(), 6);
        assert_eq!(w.think, ms(500));
    }

    #[test]
    fn file_scale_variant() {
        let w = Workload::with_file_scale(10.0);
        let f = w.file_set();
        assert!((f.mean() - 7000.0).abs() < 600.0, "mean {}", f.mean());
    }

    #[test]
    fn response_includes_header() {
        assert_eq!(Workload::response_bytes(700), 950);
    }
}
