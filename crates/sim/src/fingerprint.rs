//! Order-sensitive run fingerprints.
//!
//! Every number the reproduction reports comes out of the deterministic
//! event loop, so the cheapest complete witness of "this run executed the
//! same way" is a hash folded over the executed event stream. The runner
//! folds one [`Fingerprint::fold_event`] per dispatched event — the
//! `(time, kind, payload)` triple — and carries the final 64-bit value in
//! its result. Two runs of the same `(config, seed)` must produce equal
//! fingerprints; any divergence (a reordered tie, a non-deterministic
//! iteration order, a changed cost model) changes the value with high
//! probability.
//!
//! The hash is FNV-1a over the little-endian bytes of each folded word:
//! no dependencies, a few ALU ops per event (well under the ≤5% overhead
//! budget of a run that simulates thousands of cycles per event), and
//! order-sensitive by construction.
//!
//! # The `fast` feature
//!
//! Under `--features fast` [`ENABLED`] is `false`, and the runner gates
//! each fold, payload construction included, on it, so the folding plane
//! const-folds away. A fast run reports a fingerprint of 0 and is verified
//! against the instrumented build by end-state metric equality instead
//! (`tests/feature_matrix.rs`) — the instrumented serial build stays the
//! ground-truth oracle.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An order-sensitive accumulator over `u64` words (FNV-1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// An empty fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds one word into the running hash.
    #[inline]
    pub fn fold(&mut self, word: u64) {
        let mut h = self.state;
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Folds one executed event: its dispatch time, an event-kind
    /// discriminant, and a kind-specific payload word (ring id, task id,
    /// connection id, flow hash, …).
    #[inline]
    pub fn fold_event(&mut self, time: u64, kind: u64, payload: u64) {
        self.fold(time);
        self.fold(kind << 32 | (payload >> 32 ^ payload & 0xffff_ffff));
    }

    /// The current hash value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.state
    }
}

/// Whether fingerprint folding is compiled in. `false` under the `fast`
/// feature, letting hot paths skip even the payload construction:
/// `if sim::fingerprint::ENABLED { ... }` const-folds away.
pub const ENABLED: bool = cfg!(not(feature = "fast"));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fingerprints_agree() {
        assert_eq!(Fingerprint::new().value(), Fingerprint::default().value());
    }

    #[test]
    fn same_stream_same_value() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for i in 0..1_000 {
            a.fold_event(i, i % 7, i * 3);
            b.fold_event(i, i % 7, i * 3);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn order_matters() {
        let mut a = Fingerprint::new();
        a.fold(1);
        a.fold(2);
        let mut b = Fingerprint::new();
        b.fold(2);
        b.fold(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn single_bit_changes_value() {
        let mut base = Fingerprint::new();
        base.fold_event(100, 3, 42);
        for (t, k, p) in [(101, 3, 42), (100, 4, 42), (100, 3, 43)] {
            let mut m = Fingerprint::new();
            m.fold_event(t, k, p);
            assert_ne!(m.value(), base.value(), "({t}, {k}, {p})");
        }
    }

    #[test]
    fn known_vector() {
        // FNV-1a of eight zero bytes, fixed forever: a changed constant
        // or folding order breaks this test before it breaks every golden
        // fingerprint downstream.
        let mut f = Fingerprint::new();
        f.fold(0);
        assert_eq!(f.value(), 0xa8c7_f832_281a_39c5);
    }
}
