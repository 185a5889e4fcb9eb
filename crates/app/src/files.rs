//! The served static file set.
//!
//! §6.2: "The files served range from 30 bytes to 5,670 bytes. The web
//! server serves 30,000 distinct files, and a client chooses a file to
//! request uniformly over all files." §6.6 adds that the average file size
//! of the base mix is around 700 bytes, and Figure 9 scales all files
//! proportionally.

/// Smallest file in the base mix.
pub const MIN_FILE: u32 = 30;
/// Largest file in the base mix.
pub const MAX_FILE: u32 = 5670;
/// Number of distinct files.
pub const DEFAULT_N_FILES: usize = 30_000;
/// Target mean of the base mix (§6.6: "around 700 bytes").
pub const TARGET_MEAN: f64 = 700.0;
/// Largest scale whose largest response, headers included, still fits the
/// `u32` that response sizes travel in (about 757,000).
pub const MAX_SCALE: f64 =
    (u32::MAX - crate::workload::RESPONSE_HEADER_BYTES) as f64 / MAX_FILE as f64;

/// The file set: deterministic sizes, SpecWeb-like skew (many small files,
/// a long tail of larger ones), optionally scaled.
#[derive(Debug, Clone)]
pub struct FileSet {
    sizes: Vec<u32>,
}

impl FileSet {
    /// Builds `n` files spanning [`MIN_FILE`], [`MAX_FILE`] with mean near
    /// [`TARGET_MEAN`], scaled by `scale` (Figure 9 sweeps this).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `scale` is not in `(0, MAX_SCALE]`.
    #[must_use]
    pub fn new(n: usize, scale: f64) -> Self {
        assert!(n > 0, "need at least one file");
        assert!(scale > 0.0, "scale must be positive");
        assert!(scale <= MAX_SCALE, "scale {scale} overflows a u32 response");
        // size(x) = MIN + (MAX-MIN) · x^p for x uniform in [0,1]:
        // mean = MIN + (MAX-MIN)/(p+1); p ≈ 7.4 gives a ~700-byte mean.
        let p = (f64::from(MAX_FILE - MIN_FILE)) / (TARGET_MEAN - f64::from(MIN_FILE)) - 1.0;
        let sizes = (0..n)
            .map(|i| {
                let x = (i as f64 + 0.5) / n as f64;
                let base = f64::from(MIN_FILE) + f64::from(MAX_FILE - MIN_FILE) * x.powf(p);
                (base * scale).round().max(1.0) as u32
            })
            .collect();
        Self { sizes }
    }

    /// The base mix (30,000 files, unscaled).
    #[must_use]
    pub fn base() -> Self {
        Self::new(DEFAULT_N_FILES, 1.0)
    }

    /// Number of files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the set is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size in bytes of file `idx`.
    #[must_use]
    pub fn size(&self, idx: usize) -> u32 {
        self.sizes[idx % self.sizes.len()]
    }

    /// Mean file size of the set.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.sizes.iter().map(|s| f64::from(*s)).sum::<f64>() / self.sizes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_set_matches_paper_parameters() {
        let f = FileSet::base();
        assert_eq!(f.len(), 30_000);
        let min = (0..f.len()).map(|i| f.size(i)).min().unwrap();
        let max = (0..f.len()).map(|i| f.size(i)).max().unwrap();
        assert!(min >= MIN_FILE, "min {min}");
        assert!(max <= MAX_FILE, "max {max}");
        let mean = f.mean();
        assert!((mean - 700.0).abs() < 60.0, "mean {mean}");
    }

    #[test]
    fn scaling_is_proportional() {
        let f1 = FileSet::new(1000, 1.0);
        let f4 = FileSet::new(1000, 4.0);
        assert!((f4.mean() / f1.mean() - 4.0).abs() < 0.05);
    }

    #[test]
    fn tiny_scale_clamps_to_one_byte() {
        let f = FileSet::new(100, 0.0001);
        assert!((0..100).all(|i| f.size(i) >= 1));
    }

    #[test]
    fn largest_scale_fits_the_largest_response() {
        let f = FileSet::new(1000, MAX_SCALE);
        let max = (0..f.len()).map(|i| f.size(i)).max().unwrap();
        assert!(max
            .checked_add(crate::workload::RESPONSE_HEADER_BYTES)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "overflows a u32 response")]
    fn oversized_scale_panics() {
        let _ = FileSet::new(10, 1e6);
    }

    #[test]
    fn deterministic() {
        let a = FileSet::new(500, 1.0);
        let b = FileSet::new(500, 1.0);
        assert!((0..500).all(|i| a.size(i) == b.size(i)));
    }

    #[test]
    fn index_wraps() {
        let f = FileSet::new(10, 1.0);
        assert_eq!(f.size(3), f.size(13));
    }
}
