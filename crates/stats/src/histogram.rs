//! Fixed-bin histograms, 1-D and 2-D.
//!
//! Figure 2's margins are 1-D histograms of performance and robustness;
//! Figures 3 and 4 are 2-D frequency maps ("darker squares represent high
//! 'partner value' frequency for a particular Performance interval"), i.e.
//! a histogram over (partner count, measure interval) normalized per
//! measure row.

/// A 1-D histogram over `[lo, hi)` with equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Observations outside `[lo, hi)` (hi itself is folded into the last
    /// bin so a [0,1] measure with value exactly 1.0 is not "out of range").
    out_of_range: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram needs hi > lo");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            out_of_range: 0,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        match self.bin_of(x) {
            Some(b) => self.counts[b] += 1,
            None => self.out_of_range += 1,
        }
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// The bin index for a value, or `None` if out of range. The upper
    /// boundary `hi` maps to the last bin.
    #[must_use]
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        if x.is_nan() || x < self.lo || x > self.hi {
            return None;
        }
        if x == self.hi {
            return Some(self.counts.len() - 1);
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        Some(((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1))
    }

    /// Raw bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations that fell outside the range.
    #[must_use]
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Total in-range observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `(lo, hi)` edges of bin `b`.
    #[must_use]
    pub fn bin_edges(&self, b: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + b as f64 * w, self.lo + (b + 1) as f64 * w)
    }

    /// Relative frequencies (empty histogram yields zeros).
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }
}

/// A 2-D histogram: categorical x-axis (e.g. partner count 0..=9) against a
/// binned continuous y-axis (e.g. performance in \[0,1\]).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2d {
    categories: usize,
    y_lo: f64,
    y_hi: f64,
    y_bins: usize,
    /// counts[y_bin][category]
    counts: Vec<Vec<u64>>,
}

impl Histogram2d {
    /// Creates an empty 2-D histogram.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is empty.
    #[must_use]
    pub fn new(categories: usize, y_lo: f64, y_hi: f64, y_bins: usize) -> Self {
        assert!(categories > 0 && y_bins > 0, "empty histogram2d");
        assert!(y_hi > y_lo);
        Self {
            categories,
            y_lo,
            y_hi,
            y_bins,
            counts: vec![vec![0; categories]; y_bins],
        }
    }

    /// Adds an observation with category `cat` and value `y`.
    /// Silently ignores out-of-range observations.
    pub fn add(&mut self, cat: usize, y: f64) {
        if cat >= self.categories || y.is_nan() || y < self.y_lo || y > self.y_hi {
            return;
        }
        let frac = (y - self.y_lo) / (self.y_hi - self.y_lo);
        let b = ((frac * self.y_bins as f64) as usize).min(self.y_bins - 1);
        self.counts[b][cat] += 1;
    }

    /// Raw counts, indexed `[y_bin][category]`. Row 0 is the lowest y bin.
    #[must_use]
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Per-row relative frequencies — the paper's Figures 3–4 shading:
    /// within each measure interval (row), how often each partner count
    /// appears. Rows with no observations are all zero.
    #[must_use]
    pub fn row_frequencies(&self) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .map(|row| {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    vec![0.0; self.categories]
                } else {
                    row.iter().map(|&c| c as f64 / total as f64).collect()
                }
            })
            .collect()
    }

    /// The `(lo, hi)` edges of y bin `b`.
    #[must_use]
    pub fn y_edges(&self, b: usize) -> (f64, f64) {
        let w = (self.y_hi - self.y_lo) / self.y_bins as f64;
        (self.y_lo + b as f64 * w, self.y_lo + (b + 1) as f64 * w)
    }

    /// Number of categories (x-axis).
    #[must_use]
    pub fn categories(&self) -> usize {
        self.categories
    }

    /// Number of y bins.
    #[must_use]
    pub fn y_bins(&self) -> usize {
        self.y_bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_values() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.extend(&[0.05, 0.15, 0.15, 0.95, 1.0]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 2); // 0.95 and the folded 1.0
        assert_eq!(h.total(), 5);
        assert_eq!(h.out_of_range(), 0);
    }

    #[test]
    fn histogram_out_of_range_and_nan() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1);
        h.add(1.1);
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
        assert_eq!(h.out_of_range(), 3);
    }

    #[test]
    fn histogram_edges() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_edges(0), (0.0, 0.25));
        assert_eq!(h.bin_edges(3), (0.75, 1.0));
    }

    #[test]
    fn histogram_frequencies_sum_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend(&[1.0, 3.0, 5.0, 7.0, 9.0, 9.5]);
        let f = h.frequencies();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_frequencies_are_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.frequencies(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn histogram2d_rows_and_categories() {
        let mut h = Histogram2d::new(10, 0.0, 1.0, 10);
        // Three protocols with 1 partner performing ~0.95; one with 9
        // partners performing ~0.15.
        h.add(1, 0.95);
        h.add(1, 0.96);
        h.add(1, 0.94);
        h.add(9, 0.15);
        let rows = h.row_frequencies();
        assert_eq!(rows[9][1], 1.0); // top row dominated by 1-partner
        assert_eq!(rows[1][9], 1.0);
        assert_eq!(rows[5], vec![0.0; 10]); // untouched row
    }

    #[test]
    fn histogram2d_ignores_out_of_range() {
        let mut h = Histogram2d::new(3, 0.0, 1.0, 2);
        h.add(5, 0.5); // bad category
        h.add(1, 2.0); // bad value
        h.add(1, f64::NAN);
        assert!(h.counts().iter().flatten().all(|&c| c == 0));
    }

    #[test]
    fn histogram2d_upper_edge_folds() {
        let mut h = Histogram2d::new(2, 0.0, 1.0, 4);
        h.add(0, 1.0);
        assert_eq!(h.counts()[3][0], 1);
    }

    #[test]
    fn histogram2d_edges() {
        let h = Histogram2d::new(2, 0.0, 1.0, 4);
        assert_eq!(h.y_edges(0), (0.0, 0.25));
        assert_eq!(h.y_edges(3), (0.75, 1.0));
        assert_eq!(h.categories(), 2);
        assert_eq!(h.y_bins(), 4);
    }
}
