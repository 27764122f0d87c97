//! Exact-sample statistics. Every timing the benchmark reports is computed
//! here from the raw per-call samples of one repetition, never from
//! histogram buckets, and then reduced across repetitions by the median.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// Samples strictly beyond percentile `pct` among `n`.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile, at most 99 and at least 50, that still has
/// [`MIN_BEYOND`] samples beyond it; 50 when even the median has fewer.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Median of unordered values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spread printed here is the one the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

/// Median and tail latency of one metric across repetitions.
///
/// Each repetition's samples give one p50. Where every repetition has
/// enough samples for a p99 with [`MIN_BEYOND`] beyond it, each also gives
/// one p99 and the tail is their median; otherwise the repetitions are
/// pooled and the tail is the highest percentile the pool supports.
pub struct Latency {
    /// Median across repetitions of the per-repetition median, ns.
    pub p50_ns: f64,
    /// Per-repetition medians, ns.
    pub p50_reps: Vec<f64>,
    /// Tail latency, ns.
    pub tail_ns: f64,
    /// Per-repetition tails (empty when pooled), ns.
    pub tail_reps: Vec<f64>,
    /// The percentile `tail_ns` is taken at.
    pub tail_pct: u32,
    /// Samples across all repetitions.
    pub samples: usize,
}

impl Latency {
    /// Reduce per-repetition samples (each sorted in place).
    pub fn of(reps: &mut [Vec<u64>]) -> Option<Latency> {
        let samples: usize = reps.iter().map(Vec::len).sum();
        if reps.is_empty() || reps.iter().any(Vec::is_empty) {
            return None;
        }
        for r in reps.iter_mut() {
            r.sort_unstable();
        }
        let p50_reps: Vec<f64> = reps.iter().map(|r| percentile(r, 50) as f64).collect();
        let per_rep = reps
            .iter()
            .all(|r| samples_beyond(r.len(), 99) >= MIN_BEYOND);
        let (tail_ns, tail_reps, tail_pct) = if per_rep {
            let tails: Vec<f64> = reps.iter().map(|r| percentile(r, 99) as f64).collect();
            (median(&tails), tails, 99)
        } else {
            let mut pool: Vec<u64> = reps.iter().flatten().copied().collect();
            pool.sort_unstable();
            let pct = tail_percentile(pool.len());
            (percentile(&pool, pct) as f64, Vec::new(), pct)
        };
        Some(Latency {
            p50_ns: median(&p50_reps),
            p50_reps,
            tail_ns,
            tail_reps,
            tail_pct,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_exact_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50), 50);
        assert_eq!(percentile(&s, 99), 99);
        assert_eq!(percentile(&s, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        // Not bucketed: a value between two decade bounds comes back as is.
        assert_eq!(percentile(&[123_456, 234_567, 345_678], 50), 234_567);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(400), 97);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(12), 50);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One slow repetition does not move it.
        assert_eq!(median(&[10.0, 11.0, 10.5, 90.0, 10.2]), 10.5);
    }

    #[test]
    fn two_point_distribution_keeps_p50_and_p99_apart() {
        // 95% fast probes at 100us, 5% heavy queries at 5ms: the mix the
        // decade-bucket histogram reported as one number.
        let mut rep: Vec<u64> = (0..2000)
            .map(|i| if i % 20 == 0 { 5_000_000 } else { 100_000 })
            .collect();
        rep.sort_unstable();
        assert_eq!(percentile(&rep, 50), 100_000);
        assert_eq!(percentile(&rep, 99), 5_000_000);
        let lat = Latency::of(&mut [rep.clone(), rep]).unwrap();
        assert_ne!(lat.p50_ns, lat.tail_ns);
        assert_eq!(lat.tail_pct, 99);
        assert_eq!(lat.samples, 4000);
    }

    #[test]
    fn short_repetitions_pool_for_the_tail() {
        let rep: Vec<u64> = (1..=200).collect();
        let lat = Latency::of(&mut [rep.clone(), rep.clone(), rep]).unwrap();
        // 600 pooled samples support p98 (12 beyond), not p99 (6 beyond).
        assert_eq!(lat.tail_pct, 98);
        assert!(lat.tail_reps.is_empty());
        assert_eq!(lat.p50_ns, 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
        let (q1, q3) = quartiles(&[13.0, 10.0, 11.0]);
        assert_eq!((q1, q3), (10.0, 13.0));
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
