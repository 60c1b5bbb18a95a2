//! Order statistics and the digest the harness compares outputs with.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` of the sample at or below it. `None` on an empty
/// sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of `p` in a sample of `n >= 1`. The small epsilon
/// keeps `0.99 * 1000` at rank 990 whichever way the product rounds.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A tail percentile is reported only where at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// [`percentile`], but `None` unless at least [`MIN_SAMPLES_BEYOND`] samples
/// lie strictly beyond the returned rank — so a p99 needs 1,000 samples and
/// a p50 needs 20.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || sorted.len() < nearest_rank(sorted.len(), p) + MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Sorts a sample ascending; timings are finite by construction.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Median (nearest rank) of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5).unwrap_or(0.0)
}

/// Running FNV-1a 64, rendered `fnv1a:<16 hex>` like the repository's other
/// digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` in.
    pub fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64` in.
    pub fn fold_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    /// `fnv1a:<16 hex>`.
    pub fn render(&self) -> String {
        format!("fnv1a:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1,000 samples is rank 990: exactly ten lie beyond it.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(990.0));
        // One sample fewer leaves nine beyond rank 990 — not reported.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        // A median needs 20 samples.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.fold(b"ab");
        let mut b = Digest::new();
        b.fold(b"ba");
        assert_ne!(a, b);
        assert_eq!(Digest::new().render(), "fnv1a:cbf29ce484222325");
        let mut c = Digest::new();
        c.fold(b"a");
        // FNV-1a 64 test vector for "a".
        assert_eq!(c.render(), "fnv1a:af63dc4c8601ec8c");
    }
}
