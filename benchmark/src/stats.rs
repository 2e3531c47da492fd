//! The statistic rules every reported number goes through: a timing is
//! the median over passes (or segments) with its quartiles and sample
//! count; a latency percentile is taken per segment by nearest rank and
//! then the median over segments is reported.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summary of `values`; all-zero for an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median,
            q1,
            q3,
        }
    }

    /// A single observation (or an exact count): no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so
/// the numbers printed here are the ones the acceptance procedure
/// computes. Fewer than two values have no spread: all three cut points
/// are the value itself (0 for none).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of one segment's samples:
/// the smallest sample with at least `p` % of the samples at or below
/// it. With 10 000 samples the 99th percentile has 100 samples beyond
/// it; with a handful it is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    rank(&sorted(values), p)
}

/// The median and the 99th percentile of one segment (one sort).
pub fn p50_p99(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    (rank(&v, 50.0), rank(&v, 99.0))
}

fn rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `part` over `whole`, 0 when there is no whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7, 2, 8], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(
            quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]),
            (2.0, 5.0, 8.0)
        );
    }

    #[test]
    fn degenerate_inputs_have_no_spread() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // A handful of samples: the tail percentile is the maximum.
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 99.0), 9.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0], 50.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(p50_p99(&v), (50.0, 99.0));
        assert_eq!(p50_p99(&[]), (0.0, 0.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(ratio(3, 0), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
    }
}
