//! Exact order statistics over raw samples.
//!
//! Every quantile the benchmark reports is one observed sample, chosen by
//! the nearest-rank rule — never an interpolated histogram bucket edge —
//! and is reported with the sample count it was taken from.

/// A quantile taken from `n` raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The observed sample at the quantile's rank.
    pub value: f64,
    /// Samples the quantile was taken from.
    pub n: usize,
    /// Samples strictly after the quantile's rank (the tail it rests on).
    pub beyond: usize,
}

/// Nearest-rank quantile `q` (in `[0, 1]`) of `samples`: the smallest
/// sample with at least `q·n` samples at or below it. `None` when empty.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `samples` (the lower middle sample for even counts, so the
/// value is always one that was observed). `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_observed_samples_by_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = quantile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(quantile(&samples, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&samples, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond() {
        let samples: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.5).collect();
        let p99 = quantile(&samples, 0.99).unwrap();
        assert_eq!(p99.value, 494.5);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn skewed_inputs_are_not_bucketed() {
        // A histogram with half-decade edges would report 10000 or 31623
        // here; the order statistic reports what was observed.
        let samples = [12_345.0, 12_346.0, 12_347.0, 98_765.0];
        assert_eq!(median(&samples), Some(12_346.0));
        assert_eq!(quantile(&samples, 0.95).unwrap().value, 98_765.0);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        let one = quantile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.n, one.beyond), (7.0, 1, 0));
    }
}
