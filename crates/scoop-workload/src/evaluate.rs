//! The naive reference evaluator: exact answers by full scan.
//!
//! Every query semantics the simulation answers in-network — range scans and
//! the aggregate operators — is re-implemented here as the obvious
//! linear-scan program over a god's-eye list of readings. The property-based
//! suites compare the protocol's answers (partial aggregates merged up the
//! routing tree, q-digest quantiles) against this evaluator; it is the
//! specification the distributed path must honor, so keep it boring.

use scoop_types::{AggregateOp, Reading, SimTime, Value, ValueRange};

/// The readings matching a value range and time window, by full scan.
/// Preserves input order; the caller sorts if it needs a canonical order.
pub fn scan<'a>(
    readings: &'a [Reading],
    values: &ValueRange,
    time_lo: SimTime,
    time_hi: SimTime,
) -> Vec<&'a Reading> {
    readings
        .iter()
        .filter(|r| values.contains(r.value) && r.timestamp >= time_lo && r.timestamp <= time_hi)
        .collect()
}

/// An exact aggregate over a set of values: the ground truth the in-network
/// partial aggregates (and their q-digest quantiles) are checked against.
#[derive(Clone, Debug, PartialEq)]
pub struct ExactAggregate {
    /// Number of values aggregated.
    pub count: u64,
    /// Smallest value (`None` when empty).
    pub min: Option<Value>,
    /// Largest value (`None` when empty).
    pub max: Option<Value>,
    /// Sum of values.
    pub sum: i64,
    /// All values, sorted ascending — the exact quantile reference.
    pub sorted: Vec<Value>,
}

impl ExactAggregate {
    /// Aggregates `values` by scan and sort.
    pub fn over(values: impl IntoIterator<Item = Value>) -> Self {
        let mut sorted: Vec<Value> = values.into_iter().collect();
        sorted.sort_unstable();
        ExactAggregate {
            count: sorted.len() as u64,
            min: sorted.first().copied(),
            max: sorted.last().copied(),
            sum: sorted.iter().map(|&v| v as i64).sum(),
            sorted,
        }
    }

    /// The mean (`None` when empty).
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The exact `q`-quantile: the value at rank `ceil(q * n)` (1-based,
    /// clamped to `[1, n]`). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Value> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The exact scalar answer for `op` (`None` when empty).
    pub fn answer(&self, op: AggregateOp) -> Option<f64> {
        match op {
            AggregateOp::Min => self.min.map(|v| v as f64),
            AggregateOp::Max => self.max.map(|v| v as f64),
            AggregateOp::Avg => self.avg(),
            AggregateOp::Quantile(q) => self.quantile(q).map(|v| v as f64),
        }
    }

    /// The rank interval `[lo, hi]` (1-based, inclusive) that `v` occupies in
    /// the sorted reference: `lo` = 1 + count of strictly smaller values,
    /// `hi` = count of values `<= v`. A sketch answer for target rank `r`
    /// with error budget `slack` is correct iff this interval intersects
    /// `[r - slack, r + slack]`.
    pub fn rank_interval(&self, v: Value) -> (u64, u64) {
        let below = self.sorted.partition_point(|&x| x < v) as u64;
        let at_most = self.sorted.partition_point(|&x| x <= v) as u64;
        (below + 1, at_most)
    }

    /// Whether `got` is an acceptable `q`-quantile answer within rank error
    /// `epsilon * n` (the q-digest contract). Exact on the empty set: only
    /// `None` is acceptable there.
    pub fn quantile_within(&self, q: f64, epsilon: f64, got: Option<Value>) -> bool {
        let Some(got) = got else {
            return self.sorted.is_empty();
        };
        let n = self.count;
        if n == 0 {
            return false;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let slack = (epsilon * n as f64).ceil() as u64;
        let (lo, hi) = self.rank_interval(got);
        lo <= rank + slack && hi + slack >= rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_types::{Attribute, NodeId};

    fn reading(node: u16, v: Value, secs: u64) -> Reading {
        Reading::new(NodeId(node), Attribute::Light, v, SimTime::from_secs(secs))
    }

    #[test]
    fn scan_filters_by_value_and_time() {
        let rs = vec![
            reading(1, 10, 100),
            reading(2, 20, 200),
            reading(3, 30, 300),
            reading(4, 20, 400),
        ];
        let hits = scan(
            &rs,
            &ValueRange::new(15, 25),
            SimTime::from_secs(150),
            SimTime::from_secs(350),
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, 20);
        // Window edges are inclusive.
        let hits = scan(
            &rs,
            &ValueRange::new(0, 149),
            SimTime::from_secs(100),
            SimTime::from_secs(400),
        );
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn exact_aggregate_basics() {
        let agg = ExactAggregate::over([5, 1, 9, 5]);
        assert_eq!(agg.count, 4);
        assert_eq!(agg.min, Some(1));
        assert_eq!(agg.max, Some(9));
        assert_eq!(agg.sum, 20);
        assert_eq!(agg.avg(), Some(5.0));
        assert_eq!(agg.quantile(0.5), Some(5));
        assert_eq!(agg.quantile(0.0), Some(1));
        assert_eq!(agg.quantile(1.0), Some(9));
        assert_eq!(agg.answer(AggregateOp::Min), Some(1.0));
        assert_eq!(agg.answer(AggregateOp::Quantile(0.5)), Some(5.0));

        let empty = ExactAggregate::over([]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.avg(), None);
        assert_eq!(empty.quantile(0.5), None);
        for op in [AggregateOp::Min, AggregateOp::Max, AggregateOp::Avg] {
            assert_eq!(empty.answer(op), None);
        }
    }

    #[test]
    fn rank_interval_handles_duplicates() {
        let agg = ExactAggregate::over([3, 3, 3, 7]);
        assert_eq!(agg.rank_interval(3), (1, 3));
        assert_eq!(agg.rank_interval(7), (4, 4));
        assert_eq!(agg.rank_interval(5), (4, 3)); // absent: lo > hi
    }

    #[test]
    fn quantile_within_accepts_exact_and_rejects_far() {
        let agg = ExactAggregate::over((0..100).collect::<Vec<_>>());
        assert!(agg.quantile_within(0.5, 0.05, Some(49)));
        assert!(agg.quantile_within(0.5, 0.05, Some(53)));
        assert!(!agg.quantile_within(0.5, 0.05, Some(70)));
        assert!(!agg.quantile_within(0.5, 0.05, None));
        let empty = ExactAggregate::over([]);
        assert!(empty.quantile_within(0.5, 0.05, None));
        assert!(!empty.quantile_within(0.5, 0.05, Some(0)));
    }
}
