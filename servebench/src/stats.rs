//! Order statistics the benchmark reports: medians, the block-median
//! completion rate, and the highest percentile with enough samples
//! beyond it to mean something.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The timed phase cut into consecutive blocks of `block` operations
/// (a trailing partial block is dropped): each block's completion rate
/// is `block / (sum of its operation times)`, and the result is the
/// median of those rates, in operations per second. A burst of CPU
/// steal slows the blocks it lands in, not the whole run.
pub fn block_median_rate(op_times: &[Duration], block: usize) -> Option<f64> {
    if block == 0 {
        return None;
    }
    let rates: Vec<f64> = op_times
        .chunks_exact(block)
        .map(|c| block as f64 / c.iter().map(Duration::as_secs_f64).sum::<f64>())
        .collect();
    median(&rates)
}

/// The percentiles a tail figure may be reported at, highest first.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail reference figure: the highest ladder percentile with at
/// least ten samples strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `99.0`).
    pub percentile: f64,
    /// Its value, in the unit of the samples.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
    /// How many samples lie above it.
    pub beyond: usize,
}

/// The highest percentile of `values` that has at least ten samples
/// beyond it. With fewer than forty samples no percentile above the
/// median is a tail, so `None` is returned and only the median should
/// be reported.
pub fn tail_percentile(values: &[f64]) -> Option<Tail> {
    if values.len() < 40 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in LADDER {
        // Nearest-rank percentile: the smallest value with at least
        // p% of the samples at or below it.
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let value = v[rank - 1];
        let beyond = v.iter().filter(|&&x| x > value).count();
        if beyond >= 10 {
            return Some(Tail {
                percentile: p,
                value,
                samples: n,
                beyond,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn block_median_rate_ignores_one_slow_block() {
        // Four blocks of two ops: three at 10 ms per op (100/s), one
        // stalled at 100 ms per op (10/s). The median rate stays 100/s.
        let times = ms(&[10, 10, 10, 10, 100, 100, 10, 10]);
        assert_eq!(block_median_rate(&times, 2), Some(100.0));
        // A trailing partial block is dropped, not counted as a block.
        let times = ms(&[10, 10, 20, 20, 999]);
        assert_eq!(block_median_rate(&times, 2), Some((100.0 + 50.0) / 2.0));
        assert_eq!(block_median_rate(&times[..1], 2), None);
        assert_eq!(block_median_rate(&times, 0), None);
    }

    #[test]
    fn tail_needs_forty_samples() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1..=100: p90 = 90 has exactly ten samples (91..=100) beyond
        // it; p95 has only five.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&v).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!((t.samples, t.beyond), (100, 10));
        // 1..=1000: p99 = 990 with ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // Forty samples: only p75 (30) has ten beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail_percentile(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // Fifty equal samples: nothing lies beyond any percentile.
        assert_eq!(tail_percentile(&[7.0; 50]), None);
    }
}
