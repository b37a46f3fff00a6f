//! Order statistics over raw samples. Every timing the benchmark reports
//! is computed from the samples themselves, never from buckets.

/// The `q`-quantile (nearest rank) of `samples`, or `None` when empty.
/// Selection, not a sort; a self-test compares it with an exact sort.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    let (_, nth, _) = v.select_nth_unstable(rank);
    Some(*nth)
}

/// The median of `values` (mean of the middle two for an even count).
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

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses for
/// its spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the data; past
        // the clamp the line through the two end values is extended, as
        // Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it among `n`, as `(label, q)`.
pub fn tail_percentile(n: usize) -> (&'static str, f64) {
    // (label, quantile, samples beyond it per ten thousand)
    const LADDER: [(&str, f64, usize); 5] = [
        ("p50", 0.50, 5000),
        ("p90", 0.90, 1000),
        ("p99", 0.99, 100),
        ("p99.9", 0.999, 10),
        ("p99.99", 0.9999, 1),
    ];
    let mut best = LADDER[0];
    for step in LADDER {
        if n * step.2 >= 10 * 10_000 {
            best = step;
        }
    }
    (best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Drbg;

    #[test]
    fn quantile_agrees_with_an_exact_sort() {
        let mut rng = Drbg::new(b"quantiles");
        for n in [1usize, 2, 7, 100, 1001] {
            let v: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                assert_eq!(quantile(&v, q), Some(sorted[rank]), "n={n} q={q}");
            }
        }
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19).0, "p50");
        assert_eq!(tail_percentile(20).0, "p50");
        assert_eq!(tail_percentile(100).0, "p90");
        assert_eq!(tail_percentile(999).0, "p90");
        assert_eq!(tail_percentile(1_000).0, "p99");
        assert_eq!(tail_percentile(20_000).0, "p99.9");
        assert_eq!(tail_percentile(100_000).0, "p99.99");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), Some((1.5, 7.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
    }
}
