//! Order statistics for repeated host-time measurements, and the
//! part-by-part minimum the end-to-end metrics are built from.

/// Median, quartiles and range of one metric over a run's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (at least one). Quartiles use the exclusive
    /// method of Python's `statistics.quantiles(values, n=4)`, so the
    /// spreads this benchmark reports match the ones a reader recomputes
    /// from the raw values.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of no values");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = if v.len() < 2 {
            (v[0], v[0])
        } else {
            (quantile_excl(&v, 1), quantile_excl(&v, 3))
        };
        Self {
            n: v.len(),
            min: v[0],
            q1,
            median: median_sorted(&v),
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sorted, nonempty slice.
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of any nonempty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Each part at the fastest any repeat ran it: element `i` is the
/// minimum of element `i` over `repeats`, which must all have as many
/// parts.
///
/// Repeats of one `(workload, seed)` do the same work in each part (one
/// construction, one slice of simulated time), so their host times differ
/// only by how much the rest of the machine got in the way. On a shared
/// host that interference comes and goes within a pass and only ever adds
/// time, so the fastest of each part is a much steadier estimate of the
/// program's own speed than any statistic of whole passes.
///
/// # Errors
///
/// When there are no repeats or their part counts differ.
pub fn fastest_parts<'a>(repeats: impl IntoIterator<Item = &'a [f64]>) -> Result<Vec<f64>, String> {
    let mut it = repeats.into_iter();
    let mut best = it.next().ok_or("no repeats to take parts from")?.to_vec();
    for parts in it {
        if parts.len() != best.len() {
            return Err(format!(
                "a repeat has {} timed parts, another {}",
                parts.len(),
                best.len()
            ));
        }
        for (b, &p) in best.iter_mut().zip(parts) {
            *b = b.min(p);
        }
    }
    Ok(best)
}

/// The `i`-th of the three cut points of `statistics.quantiles(v, n=4)`
/// with the default exclusive method, for sorted `v` with `len >= 2`.
fn quantile_excl(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_median_and_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn even_count_median_and_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6], n=4) == [1.75, 3.5, 5.25]
        let s = Summary::of(&[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 5.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn fastest_parts_take_each_minimum() {
        let a = [0.5, 0.25, 1.0];
        let b = [0.75, 0.125, 1.0];
        assert_eq!(fastest_parts([&a[..], &b[..]]), Ok(vec![0.5, 0.125, 1.0]));
        assert!(fastest_parts([&a[..], &b[..2]]).is_err());
        assert!(fastest_parts(std::iter::empty::<&[f64]>()).is_err());
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = Summary::of(&[0.25]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (0.25, 0.25, 0.25, 0.25, 0.25)
        );
        assert_eq!(s.spread(), 0.0);
    }
}
