//! Property-based tests for the HDR-style latency [`Histogram`]:
//! quantiles must be monotone in `q`, and bucket boundaries must be exact
//! below the linear threshold and within the documented 1/64 relative
//! error above it.
//!
//! Each property is a plain function of a `u64` seed (expanded through an
//! `HmacDrbg`), called both from `proptest!` with random seeds and from
//! plain tests replaying [`REGRESSION_SEEDS`] — the checked-in seeds that
//! pin previously interesting cases so they re-run forever on every
//! machine, independent of the proptest shim's name-derived RNG.

use proptest::prelude::*;
use tsr_crypto::drbg::HmacDrbg;
use tsr_stats::Histogram;

/// Seeds that exercised interesting shapes (empty histograms, single
/// values, duplicates straddling an octave boundary, huge magnitudes) —
/// kept forever as regressions.
const REGRESSION_SEEDS: &[u64] = &[0, 1, 7, 42, 63, 64, 0xdead_beef, 0x5eed_0006, 9_876_543_210];

/// Draws a value with a magnitude spread over the full `u64` range, so
/// every octave of the histogram gets exercised.
fn value_from(rng: &mut HmacDrbg) -> u64 {
    let bits = rng.gen_range(64);
    let base = rng.next_u64();
    if bits == 63 {
        base
    } else {
        base & ((1u64 << (bits + 1)) - 1)
    }
}

fn histogram_from(rng: &mut HmacDrbg, max_len: u64) -> (Histogram, Vec<u64>) {
    let n = rng.gen_range(max_len) as usize;
    let mut h = Histogram::new();
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let v = value_from(rng);
        h.record(v);
        values.push(v);
    }
    (h, values)
}

/// Property 1: quantiles are monotone non-decreasing in `q`, bounded by
/// the exact min/max, and `quantile(0.0)`/`quantile(1.0)` hit them.
fn quantile_monotonicity_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    let (h, values) = histogram_from(&mut rng, 200);
    if values.is_empty() {
        assert_eq!(h.quantile(0.5), 0, "seed {seed}: empty quantile");
        return;
    }
    let mut prev = 0u64;
    for i in 0..=100 {
        let q = f64::from(i) / 100.0;
        let v = h.quantile(q);
        assert!(v >= prev, "seed {seed}: quantile({q}) = {v} < {prev}");
        prev = v;
    }
    let lo = *values.iter().min().unwrap();
    let hi = *values.iter().max().unwrap();
    assert_eq!(h.min(), lo, "seed {seed}: min");
    assert_eq!(h.max(), hi, "seed {seed}: max");
    assert_eq!(h.quantile(0.0), lo, "seed {seed}: q0");
    assert_eq!(h.quantile(1.0), hi, "seed {seed}: q1");
}

/// Property 2: values below the linear threshold (64) are stored exactly;
/// larger values come back from `quantile` with relative error ≤ 1/64.
fn bucket_boundary_case(seed: u64) {
    let mut rng = HmacDrbg::new(&seed.to_be_bytes());
    for _ in 0..32 {
        let v = value_from(&mut rng);
        let mut h = Histogram::new();
        h.record(v);
        let q = h.quantile(0.5);
        if v < 64 {
            assert_eq!(q, v, "seed {seed}: small value {v} not exact");
        } else {
            let err = (q as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= 1.0 / 64.0,
                "seed {seed}: value {v} came back {q} (rel err {err})"
            );
            // The reported quantile never exceeds the recorded maximum.
            assert!(q <= v, "seed {seed}: quantile {q} above recorded max {v}");
        }
        // min/max are always stored exactly, independent of bucket width.
        assert_eq!(h.min(), v, "seed {seed}");
        assert_eq!(h.max(), v, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantile_monotonicity(seed in any::<u64>()) {
        quantile_monotonicity_case(seed);
    }

    #[test]
    fn bucket_boundary_exactness(seed in any::<u64>()) {
        bucket_boundary_case(seed);
    }
}

#[test]
fn quantile_monotonicity_regressions() {
    for &seed in REGRESSION_SEEDS {
        quantile_monotonicity_case(seed);
    }
}

#[test]
fn bucket_boundary_regressions() {
    for &seed in REGRESSION_SEEDS {
        bucket_boundary_case(seed);
    }
}
