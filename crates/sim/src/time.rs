//! The simulated clock.
//!
//! Both of the paper's machines run 2.4 GHz cores (AMD Opteron 8431 and
//! Intel Xeon E7 8870), so the simulation uses CPU cycles as its time unit
//! and a single global frequency for wall-clock conversions.

/// Simulated time and durations, in CPU cycles.
pub type Cycles = u64;

/// Core clock frequency of both evaluation machines, in Hz.
pub const CPU_HZ: u64 = 2_400_000_000;

/// Cycles per microsecond at [`CPU_HZ`].
pub const CYCLES_PER_US: u64 = CPU_HZ / 1_000_000;

/// Cycles per millisecond at [`CPU_HZ`].
pub const CYCLES_PER_MS: u64 = CPU_HZ / 1_000;

/// Cycles per second at [`CPU_HZ`].
pub const CYCLES_PER_SEC: u64 = CPU_HZ;

/// Converts microseconds to cycles.
#[must_use]
pub const fn us(n: u64) -> Cycles {
    n * CYCLES_PER_US
}

/// Converts milliseconds to cycles.
#[must_use]
pub const fn ms(n: u64) -> Cycles {
    n * CYCLES_PER_MS
}

/// Converts whole seconds to cycles.
#[must_use]
pub const fn secs(n: u64) -> Cycles {
    n * CYCLES_PER_SEC
}

/// Converts fractional milliseconds to cycles (rounding down).
#[must_use]
pub fn ms_f(n: f64) -> Cycles {
    (n * CYCLES_PER_MS as f64) as Cycles
}

/// Converts cycles to fractional milliseconds.
#[must_use]
pub fn to_ms(c: Cycles) -> f64 {
    c as f64 / CYCLES_PER_MS as f64
}

/// Converts cycles to fractional microseconds.
#[must_use]
pub fn to_us(c: Cycles) -> f64 {
    c as f64 / CYCLES_PER_US as f64
}

/// Converts cycles to fractional seconds.
#[must_use]
pub fn to_secs(c: Cycles) -> f64 {
    c as f64 / CYCLES_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(ms(1), 2_400_000);
        assert_eq!(us(1000), ms(1));
        assert_eq!(secs(1), ms(1000));
        assert!((to_ms(ms(7)) - 7.0).abs() < 1e-12);
        assert!((to_us(us(3)) - 3.0).abs() < 1e-12);
        assert!((to_secs(secs(2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_ms() {
        assert_eq!(ms_f(0.5), 1_200_000);
        assert_eq!(ms_f(100.0), ms(100));
    }
}
