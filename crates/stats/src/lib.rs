//! # tsr-stats
//!
//! The statistics the paper's evaluation uses — percentiles and trimmed
//! means (all timing tables), Spearman rank correlation with p-values
//! (Table 4) — plus the HDR-style [`Histogram`] behind the `tsr-obs`
//! latency series (fixed log-scaled buckets, O(1) record, bounded-error
//! quantiles up to p99.9 and beyond).

#![warn(missing_docs)]

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `p`-th percentile (0–100) with linear interpolation.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Convenience: several percentiles at once.
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    ps.iter().map(|&p| percentile(xs, p)).collect()
}

/// `frac`-trimmed mean (e.g. `0.2` drops the lowest and highest 20%),
/// the paper's "20% trimmed mean" aggregation.
///
/// # Panics
///
/// Panics if `xs` is empty or `frac >= 0.5`.
pub fn trimmed_mean(xs: &[f64], frac: f64) -> f64 {
    assert!(!xs.is_empty(), "trimmed mean of empty sample");
    assert!((0.0..0.5).contains(&frac), "trim fraction out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let k = (sorted.len() as f64 * frac).floor() as usize;
    let kept = &sorted[k..sorted.len() - k];
    mean(kept)
}

/// Average ranks (1-based) with ties sharing their mean rank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Positions i..=j are tied; average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Spearman rank correlation coefficient ρ (ties handled via mean ranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn phi(z: f64) -> f64 {
    // erf approximation 7.1.26, |error| < 1.5e-7.
    let t = 1.0 / (1.0 + 0.3275911 * z.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-z * z / 2.0).exp();
    if z >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Two-tailed p-value for a Spearman ρ over `n` samples
/// (large-sample normal approximation `z = ρ·√(n−1)`).
pub fn spearman_p_value(rho: f64, n: usize) -> f64 {
    if n < 3 {
        return 1.0;
    }
    let z = rho.abs() * ((n - 1) as f64).sqrt();
    (2.0 * (1.0 - phi(z))).clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Latency histogram (HDR-style)
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per power of two.
const SUB_BUCKET_BITS: u32 = 6;
/// Number of sub-buckets per octave.
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
/// Octaves above the exact range (values with MSB 6..=63).
const OCTAVES: usize = 58;
/// Total bucket count: 64 exact buckets + 64 per octave.
const BUCKET_COUNT: usize = SUB_BUCKETS as usize + OCTAVES * SUB_BUCKETS as usize;

/// An HDR-style fixed-bucket latency histogram over `u64` values
/// (typically microseconds).
///
/// Values below 64 are recorded **exactly**; larger values land in
/// logarithmic buckets with 64 sub-buckets per power of two, bounding the
/// relative quantile error below `1/64` (≈1.6%) across the full `u64`
/// range. Recording is O(1) and the memory footprint is fixed (~30 KB).
///
/// # Examples
///
/// ```
/// use tsr_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) >= 200 && h.quantile(0.5) <= 305);
/// assert_eq!(h.quantile(1.0), 10_000);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// The bucket index a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let octave = msb - u64::from(SUB_BUCKET_BITS) + 1;
        let sub = (v >> (msb - u64::from(SUB_BUCKET_BITS))) & (SUB_BUCKETS - 1);
        (octave * SUB_BUCKETS + sub) as usize
    }
}

/// The smallest value recorded into bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        i as u64
    } else {
        let octave = (i as u64) >> SUB_BUCKET_BITS;
        let sub = i as u64 & (SUB_BUCKETS - 1);
        (SUB_BUCKETS + sub) << (octave - 1)
    }
}

/// The largest value recorded into bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        i as u64
    } else {
        let octave = (i as u64) >> SUB_BUCKET_BITS;
        // Parenthesized so the top bucket (hi == u64::MAX) cannot overflow.
        bucket_lo(i) + ((1u64 << (octave - 1)) - 1)
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// The exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the target rank, clamped to the exact recorded min/max.
    /// Monotone in `q`; exact for values below 64, within `1/64` relative
    /// error above. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_hi(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) — see [`Self::quantile`].
    pub fn percentile(&self, p: f64) -> u64 {
        self.quantile(p / 100.0)
    }

    /// The exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Number of recorded values at or below `bound`, to bucket
    /// resolution: the bucket containing `bound` is counted entirely, so
    /// the result can over-count by values in that one bucket that
    /// exceed `bound` (≤ 1/64 relative error, same bound as
    /// [`Self::quantile`]). Monotone in `bound`;
    /// `count_le(u64::MAX) == count()`. Cumulative-bucket exports (e.g.
    /// Prometheus `_bucket` series) are built from this.
    pub fn count_le(&self, bound: u64) -> u64 {
        self.counts[..=bucket_index(bound)].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&[5.0], 50.0), 5.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let xs = [1.0, 2.0, 3.0, 4.0, 1000.0];
        let tm = trimmed_mean(&xs, 0.2);
        assert_eq!(tm, 3.0); // drops 1.0 and 1000.0
        assert_eq!(trimmed_mean(&[7.0], 0.2), 7.0);
    }

    #[test]
    fn ranks_with_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 100.0, 1000.0, 10000.0, 100000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((spearman(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_uncorrelated_near_zero() {
        // Deterministic pseudo-random pairs.
        let xs: Vec<f64> = (0..200).map(|i| ((i * 97) % 101) as f64).collect();
        let ys: Vec<f64> = (0..200).map(|i| ((i * 61) % 103) as f64).collect();
        assert!(spearman(&xs, &ys).abs() < 0.2);
    }

    #[test]
    fn spearman_robust_to_outliers_vs_pearson() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 2.0, 3.0, 4.0, 1_000_000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p_value_behaviour() {
        // Strong correlation over many samples → tiny p.
        assert!(spearman_p_value(0.9, 100) < 0.001);
        // Weak correlation over few samples → large p.
        assert!(spearman_p_value(0.1, 10) > 0.5);
        assert_eq!(spearman_p_value(0.5, 2), 1.0);
    }

    #[test]
    fn phi_sanity() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.96) - 0.975).abs() < 1e-3);
        assert!((phi(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn latency_histogram_exact_below_64() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 63);
        // Every small value is its own bucket.
        for v in 0..64 {
            assert_eq!(bucket_lo(bucket_index(v)), v);
            assert_eq!(bucket_hi(bucket_index(v)), v);
        }
    }

    #[test]
    fn latency_histogram_bucket_bounds_contain_value() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "v={v} i={i}");
        }
    }

    #[test]
    fn latency_histogram_quantile_error_bounded() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let q = h.quantile(0.5) as f64;
        assert!((q - 1_000_000.0).abs() / 1_000_000.0 <= 1.0 / 64.0);
        // min/max are exact regardless of bucketing.
        assert_eq!(h.min(), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn latency_histogram_empty_is_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }
}
