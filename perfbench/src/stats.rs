//! Summary statistics for timing samples: the median and the tail rule.

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// How many samples a tail percentile must leave beyond it to count as
/// resolved.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution at a fixed percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile.
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
    /// Samples beyond the one reported; fewer than [`TAIL_BEYOND`] means the
    /// tail is not resolved.
    pub beyond: usize,
}

/// The nearest-rank sample at `tenths` tenths of a percent (rank
/// `ceil(p · n / 100)` of `n` sorted samples), with the count of samples
/// beyond it.
pub fn tail(samples: &[f64], tenths: usize) -> Tail {
    let n = samples.len();
    let percentile = tenths as f64 / 10.0;
    if n == 0 {
        return Tail { percentile, value: 0.0, samples: 0, beyond: 0 };
    }
    let rank = (tenths * n).div_ceil(1000).clamp(1, n);
    Tail { percentile, value: sorted(samples)[rank - 1], samples: n, beyond: n - rank }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_nearest_rank_sample() {
        // 1..=100 shuffled: p90 is rank 90 with exactly ten beyond.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&samples, 900);
        assert_eq!((t.percentile, t.value, t.samples, t.beyond), (90.0, 90.0, 100, TAIL_BEYOND));
        assert_eq!(samples.iter().filter(|&&x| x > t.value).count(), t.beyond);

        // 1000 samples: p99 is rank 990; p99.9 leaves one beyond.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples, 990).value, 990.0);
        assert_eq!(tail(&samples, 999).beyond, 1);
        // 110 samples: p90 is rank ceil(99) = 99, leaving eleven.
        let samples: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!((tail(&samples, 900).value, tail(&samples, 900).beyond), (99.0, 11));
    }

    #[test]
    fn tail_of_few_samples() {
        assert_eq!(tail(&[0.3, 0.1, 0.2], 990).value, 0.3);
        assert_eq!(tail(&[0.3, 0.1, 0.2], 990).beyond, 0);
        assert_eq!(tail(&[], 500), Tail { percentile: 50.0, value: 0.0, samples: 0, beyond: 0 });
    }
}
