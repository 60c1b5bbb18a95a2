//! Equal-width summary histograms and the `P(p produces v)` estimate.
//!
//! "The histogram part of the summary message captures the distribution of
//! sensor readings on that node over its recent history. It consists of
//! nBins fixed-width bins (in our implementation, nBins is 10). The value in
//! bin n is the number of readings between min + n((max − min + 1)/nBins) and
//! min + (n + 1)((max − min + 1)/nBins), where min and max are the smallest
//! and largest values the attribute has taken on..." (Section 5.2)
//!
//! The probability model follows the paper's pseudo-code exactly, assuming a
//! uniform distribution of values within a bin:
//!
//! ```text
//! P(p → v) {
//!     binWidth = (max − min + 1) / nBins
//!     bin      = (v − min) / binWidth
//!     P(v|bin) = 1 / binWidth
//!     P(bin)   = height(bin) / Σ heights
//!     return P(v|bin) · P(bin)
//! }
//! ```

use scoop_types::Value;
use serde::{Deserialize, Serialize};

/// A fixed-width histogram over a node's recent readings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryHistogram {
    /// Smallest value observed in the window.
    min: Value,
    /// Largest value observed in the window.
    max: Value,
    /// Bin counts, lowest bin first.
    bins: Vec<u32>,
}

impl SummaryHistogram {
    /// Builds a histogram with `n_bins` equal-width bins over `values`.
    /// Returns `None` if `values` is empty (a node with no readings sends no
    /// histogram).
    pub fn build(values: &[Value], n_bins: usize) -> Option<Self> {
        if values.is_empty() || n_bins == 0 {
            return None;
        }
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let mut bins = vec![0u32; n_bins];
        let width = Self::bin_width_for(min, max, n_bins);
        for &v in values {
            let idx = (((v - min) as f64) / width).floor() as usize;
            let idx = idx.min(n_bins - 1);
            bins[idx] += 1;
        }
        Some(SummaryHistogram { min, max, bins })
    }

    fn bin_width_for(min: Value, max: Value, n_bins: usize) -> f64 {
        ((max - min + 1) as f64 / n_bins as f64).max(f64::MIN_POSITIVE)
    }

    /// The smallest value covered.
    pub fn min(&self) -> Value {
        self.min
    }

    /// The largest value covered.
    pub fn max(&self) -> Value {
        self.max
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// The bin counts.
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Total number of readings summarized.
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|&b| b as u64).sum()
    }

    /// Width of each bin in value units.
    pub fn bin_width(&self) -> f64 {
        Self::bin_width_for(self.min, self.max, self.bins.len())
    }

    /// The paper's `P(p → v)`: the probability that this node's next reading
    /// is exactly `v`, assuming values are uniform within each bin. Values
    /// outside `[min, max]` have probability zero.
    pub fn probability_of(&self, v: Value) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let width = self.bin_width();
        let bin = (((v - self.min) as f64) / width).floor() as usize;
        let bin = bin.min(self.bins.len() - 1);
        let p_bin = self.bins[bin] as f64 / total as f64;
        let p_v_given_bin = 1.0 / width.max(1.0);
        p_v_given_bin * p_bin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_histogram() {
        assert!(SummaryHistogram::build(&[], 10).is_none());
        assert!(SummaryHistogram::build(&[1, 2, 3], 0).is_none());
    }

    #[test]
    fn paper_worked_example() {
        // "if min = 1, max = 100, and nBins = 10 and a node produced 8
        // readings between 50 and 60, the value of the 6th bin (n = 5) in the
        // histogram would be 8."
        let mut values = vec![1, 100]; // pin the min and max
        values.extend([51, 52, 53, 54, 55, 56, 57, 58]); // 8 readings in bin 5
        let h = SummaryHistogram::build(&values, 10).unwrap();
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.bin_width(), 10.0);
        assert_eq!(h.bins()[5], 8);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn single_value_histogram() {
        let h = SummaryHistogram::build(&[42; 30], 10).unwrap();
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.total(), 30);
        // All mass on one value, bin width (max-min+1)/10 = 0.1.
        let p = h.probability_of(42);
        assert!(p > 0.99, "p = {p}");
        assert_eq!(h.probability_of(43), 0.0);
    }

    #[test]
    fn probabilities_sum_to_at_most_one_over_domain() {
        let values: Vec<Value> = (0..30).map(|i| (i * 7) % 100).collect();
        let h = SummaryHistogram::build(&values, 10).unwrap();
        let sum: f64 = (h.min()..=h.max()).map(|v| h.probability_of(v)).sum();
        assert!(
            (sum - 1.0).abs() < 0.05,
            "probabilities over the support should sum to ~1, got {sum}"
        );
    }

    #[test]
    fn out_of_range_values_have_zero_probability() {
        let h = SummaryHistogram::build(&[10, 20, 30], 10).unwrap();
        assert_eq!(h.probability_of(9), 0.0);
        assert_eq!(h.probability_of(31), 0.0);
        assert!(h.probability_of(20) > 0.0);
    }

    #[test]
    fn heavier_bins_have_higher_probability() {
        let mut values = vec![50; 20];
        values.extend([0, 99]);
        let h = SummaryHistogram::build(&values, 10).unwrap();
        assert!(h.probability_of(50) > h.probability_of(0));
        assert!(h.probability_of(50) > h.probability_of(99));
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let values: Vec<Value> = (1..=100).collect();
        let h = SummaryHistogram::build(&values, 10).unwrap();
        assert_eq!(h.bins().iter().sum::<u32>(), 100);
        assert_eq!(h.bins()[9], 10, "values 91..=100 fall in the last bin");
        assert!(h.probability_of(100) > 0.0);
    }
}
