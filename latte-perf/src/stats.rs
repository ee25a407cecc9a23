//! Order statistics over host-time samples.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Whether percentile `p` of `n` samples leaves ten of them beyond it
/// (integer arithmetic: `n * (100 - p) / 100 >= 10`).
pub fn leaves_ten_beyond(n: usize, p: usize) -> bool {
    n * (100 - p) >= TAIL_MIN_BEYOND * 100
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it; the median when `n` is too small for any.
pub fn tail_percentile(n: usize) -> f64 {
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| leaves_ten_beyond(n, p))
        .unwrap_or(50);
    p as f64
}

/// Linearly interpolated percentile `p` (0..=100) of `samples`; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `samples`; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile `p` (0..=100) of `samples`, smoothed: the mean of the
/// sorted samples weighted by a normal curve centred on the percentile,
/// as wide as the standard error of a sample percentile,
/// √(p(1 − p) / (n + 2)) in rank fraction (the normal approximation of
/// the Harrell–Davis estimator's weights). Per-simulation times cluster
/// by benchmark, and a single order statistic at the edge of two
/// clusters reads the most extreme sample of one benchmark; this reads
/// the samples around it. 0 when there are none.
pub fn smoothed_percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let q = p / 100.0;
    let width = (q * (1.0 - q) / (n + 2.0)).sqrt();
    if sorted.len() < 2 || width == 0.0 {
        return percentile(&sorted, p);
    }
    let (mut sum, mut weights) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let z = ((i as f64 + 0.5) / n - q) / width;
        let w = (-0.5 * z * z).exp();
        sum += w * x;
        weights += w;
    }
    sum / weights
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones the acceptance rule computes.
/// With fewer than two samples both quartiles are the single value.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let ld = x.len();
    if ld < 2 {
        let v = x.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(24), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in [20, 40, 100, 200, 1000, 5000] {
            let p = tail_percentile(n);
            assert!(leaves_ten_beyond(n, p as usize), "p{p} of {n}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&[4.0, 2.0], 50.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn smoothed_percentiles_read_around_a_gap() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((smoothed_percentile(&v, 50.0) - 6.0).abs() < 1e-9);
        assert_eq!(smoothed_percentile(&[3.0], 90.0), 3.0);
        assert_eq!(smoothed_percentile(&[], 50.0), 0.0);
        // Two benchmarks, nine samples each, with a wide gap between them:
        // the plain median is set by the fastest sample of the slow one and
        // the slowest of the fast one; the smoothed one by all of them.
        let fast = [78.0, 77.0, 79.0, 76.0, 78.5, 77.5, 78.0, 77.0, 78.0];
        let slow = [
            127.0, 126.0, 128.0, 125.0, 127.5, 126.5, 127.0, 126.0, 127.0,
        ];
        let both = |fast_edge: f64, slow_edge: f64| {
            let mut v: Vec<f64> = fast.iter().chain(&slow).copied().collect();
            v.extend([fast_edge, slow_edge]);
            v
        };
        let (calm, outliers) = (both(78.0, 127.0), both(90.0, 127.0));
        let moved = |f: fn(&[f64], f64) -> f64| (f(&outliers, 50.0) - f(&calm, 50.0)).abs();
        assert!(moved(smoothed_percentile) < moved(percentile));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }
}
