//! # tsr-net
//!
//! A deterministic wide-area latency model.
//!
//! The paper's quorum experiment (§6.3, Figure 13) measures how long TSR
//! takes to read the metadata index from official Alpine mirrors on three
//! continents, with TSR deployed in Europe. This crate substitutes the real
//! internet with a continent-level RTT matrix calibrated to the paper's
//! figures (≈26.4 ms average to a same-continent mirror) plus deterministic
//! jitter, so experiments are reproducible bit-for-bit.

use std::time::Duration;

use tsr_crypto::drbg::HmacDrbg;

/// Coarse mirror locations used by the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Continent {
    /// Europe (where the paper deploys TSR).
    Europe,
    /// North America.
    NorthAmerica,
    /// Asia.
    Asia,
}

impl Continent {
    /// All continents, in declaration order.
    pub const ALL: [Continent; 3] = [Continent::Europe, Continent::NorthAmerica, Continent::Asia];
}

impl std::fmt::Display for Continent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Asia => "Asia",
        };
        f.write_str(s)
    }
}

/// Continent-level network latency model.
///
/// # Examples
///
/// ```
/// use tsr_net::{Continent, LatencyModel};
///
/// let model = LatencyModel::default();
/// let mut rng = tsr_crypto::drbg::HmacDrbg::new(b"exp");
/// let rtt = model.sample_rtt(Continent::Europe, Continent::Asia, &mut rng);
/// assert!(rtt > model.sample_rtt(Continent::Europe, Continent::Europe, &mut rng));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Base one-way-pair RTTs in milliseconds, symmetric.
    same_continent_ms: f64,
    eu_na_ms: f64,
    eu_asia_ms: f64,
    na_asia_ms: f64,
    /// Jitter as a fraction of the base RTT (uniform in ±frac).
    jitter_frac: f64,
    /// Sustained single-stream WAN throughput in bytes/second.
    wan_bytes_per_sec: f64,
    /// Continents cut off from cross-continent traffic (fault injection):
    /// any cross-continent path with an isolated endpoint is down;
    /// same-continent traffic always flows.
    isolated: Vec<Continent>,
    /// Global congestion multiplier on RTTs and transfer times
    /// (fault injection; 1.0 = nominal).
    latency_factor: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Calibration: the paper reports a 26.4 ms average to a mirror on
        // the same continent; cross-continent figures use typical public
        // RTTs of the era.
        LatencyModel {
            same_continent_ms: 26.4,
            eu_na_ms: 95.0,
            eu_asia_ms: 175.0,
            na_asia_ms: 140.0,
            jitter_frac: 0.25,
            // The paper downloads ~3 GB from public mirrors in ~17 min,
            // i.e. ~2.9 MB/s sustained — the calibration used here.
            wan_bytes_per_sec: 2.94e6,
            isolated: Vec::new(),
            latency_factor: 1.0,
        }
    }
}

impl LatencyModel {
    /// Base RTT between two continents (no jitter).
    pub fn base_rtt(&self, a: Continent, b: Continent) -> Duration {
        use Continent::*;
        let ms = match (a.min(b), a.max(b)) {
            (x, y) if x == y => self.same_continent_ms,
            (Europe, NorthAmerica) => self.eu_na_ms,
            (Europe, Asia) => self.eu_asia_ms,
            (NorthAmerica, Asia) => self.na_asia_ms,
            _ => unreachable!("pairs are normalized"),
        };
        Duration::from_secs_f64(ms / 1000.0)
    }

    /// Samples an RTT with deterministic jitter from `rng`, scaled by the
    /// congestion factor.
    pub fn sample_rtt(&self, a: Continent, b: Continent, rng: &mut HmacDrbg) -> Duration {
        let base = self.base_rtt(a, b).as_secs_f64();
        // Uniform in [1-j, 1+j].
        let u = rng.gen_range(1_000_000) as f64 / 1_000_000.0;
        let factor = 1.0 - self.jitter_frac + 2.0 * self.jitter_frac * u;
        Duration::from_secs_f64(base * factor * self.latency_factor)
    }

    /// Time to transfer `bytes` at the modeled WAN bandwidth, plus one RTT.
    /// Congestion slows the bandwidth term by the same factor as RTTs.
    pub fn transfer_time(
        &self,
        a: Continent,
        b: Continent,
        bytes: usize,
        rng: &mut HmacDrbg,
    ) -> Duration {
        let rtt = self.sample_rtt(a, b, rng);
        rtt + Duration::from_secs_f64(bytes as f64 / self.wan_bytes_per_sec * self.latency_factor)
    }

    /// Whether traffic between `a` and `b` currently flows: same-continent
    /// paths always do, cross-continent paths are down when either endpoint
    /// is isolated by a partition.
    pub fn reachable(&self, a: Continent, b: Continent) -> bool {
        a == b || (!self.isolated.contains(&a) && !self.isolated.contains(&b))
    }

    /// Isolates a set of continents (continent-level network partition):
    /// cross-continent traffic to or from them is dropped until healed
    /// with an empty set. Same-continent traffic is unaffected.
    pub fn with_isolated(mut self, continents: Vec<Continent>) -> Self {
        self.isolated = continents;
        self
    }

    /// The currently isolated continents.
    pub fn isolated(&self) -> &[Continent] {
        &self.isolated
    }

    /// Sets the global congestion multiplier (latency-spike injection).
    /// Values below nominal are clamped to 1.0.
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        self.latency_factor = factor.max(1.0);
        self
    }

    /// The current congestion multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Overrides the jitter fraction (0 disables jitter).
    pub fn with_jitter(mut self, frac: f64) -> Self {
        self.jitter_frac = frac;
        self
    }
}

/// Simulated local-disk read latency, used by the cache experiments
/// (Figure 10): seek + transfer at SSD-like throughput.
pub fn disk_read_time(bytes: usize) -> Duration {
    let seek = Duration::from_micros(80);
    let throughput = 500_000_000.0; // 500 MB/s
    seek + Duration::from_secs_f64(bytes as f64 / throughput)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_rtt_symmetric() {
        let m = LatencyModel::default();
        for a in Continent::ALL {
            for b in Continent::ALL {
                assert_eq!(m.base_rtt(a, b), m.base_rtt(b, a));
            }
        }
    }

    #[test]
    fn same_continent_cheapest() {
        let m = LatencyModel::default();
        let same = m.base_rtt(Continent::Europe, Continent::Europe);
        assert!(same < m.base_rtt(Continent::Europe, Continent::NorthAmerica));
        assert!(same < m.base_rtt(Continent::Europe, Continent::Asia));
        assert!((same.as_secs_f64() - 0.0264).abs() < 1e-9);
    }

    #[test]
    fn jitter_bounded() {
        let m = LatencyModel::default();
        let mut rng = HmacDrbg::new(b"jitter");
        let base = m.base_rtt(Continent::Asia, Continent::Asia).as_secs_f64();
        for _ in 0..100 {
            let s = m
                .sample_rtt(Continent::Asia, Continent::Asia, &mut rng)
                .as_secs_f64();
            assert!(s >= base * 0.749 && s <= base * 1.251, "{s} vs {base}");
        }
    }

    #[test]
    fn sampling_deterministic_per_seed() {
        let m = LatencyModel::default();
        let mut r1 = HmacDrbg::new(b"s");
        let mut r2 = HmacDrbg::new(b"s");
        for _ in 0..10 {
            assert_eq!(
                m.sample_rtt(Continent::Europe, Continent::Asia, &mut r1),
                m.sample_rtt(Continent::Europe, Continent::Asia, &mut r2)
            );
        }
    }

    #[test]
    fn zero_jitter() {
        let m = LatencyModel::default().with_jitter(0.0);
        let mut rng = HmacDrbg::new(b"z");
        assert_eq!(
            m.sample_rtt(Continent::Europe, Continent::Europe, &mut rng),
            m.base_rtt(Continent::Europe, Continent::Europe)
        );
    }

    #[test]
    fn transfer_time_grows_with_size() {
        let m = LatencyModel::default().with_jitter(0.0);
        let mut rng = HmacDrbg::new(b"t");
        let small = m.transfer_time(Continent::Europe, Continent::Europe, 1_000, &mut rng);
        let large = m.transfer_time(Continent::Europe, Continent::Europe, 10_000_000, &mut rng);
        assert!(large > small);
    }

    #[test]
    fn disk_faster_than_network_for_packages() {
        let m = LatencyModel::default().with_jitter(0.0);
        let mut rng = HmacDrbg::new(b"d");
        let net = m.transfer_time(Continent::Europe, Continent::Europe, 100_000, &mut rng);
        assert!(disk_read_time(100_000) < net);
    }

    #[test]
    fn display_names() {
        assert_eq!(Continent::NorthAmerica.to_string(), "North America");
    }

    #[test]
    fn partition_cuts_cross_continent_only() {
        let m = LatencyModel::default().with_isolated(vec![Continent::Europe]);
        assert!(m.reachable(Continent::Europe, Continent::Europe));
        assert!(m.reachable(Continent::Asia, Continent::NorthAmerica));
        assert!(!m.reachable(Continent::Europe, Continent::Asia));
        assert!(!m.reachable(Continent::NorthAmerica, Continent::Europe));
        let healed = m.with_isolated(Vec::new());
        assert!(healed.reachable(Continent::Europe, Continent::Asia));
    }

    #[test]
    fn latency_factor_scales_rtt_and_transfer() {
        let base = LatencyModel::default().with_jitter(0.0);
        let spiked = base.clone().with_latency_factor(10.0);
        let mut r1 = HmacDrbg::new(b"f");
        let mut r2 = HmacDrbg::new(b"f");
        let a = base.sample_rtt(Continent::Europe, Continent::Asia, &mut r1);
        let b = spiked.sample_rtt(Continent::Europe, Continent::Asia, &mut r2);
        assert!((b.as_secs_f64() / a.as_secs_f64() - 10.0).abs() < 1e-9);
        let ta = base.transfer_time(Continent::Europe, Continent::Europe, 1_000_000, &mut r1);
        let tb = spiked.transfer_time(Continent::Europe, Continent::Europe, 1_000_000, &mut r2);
        assert!(tb > ta.mul_f64(9.0));
    }

    #[test]
    fn latency_factor_clamped_to_nominal() {
        let m = LatencyModel::default().with_latency_factor(0.1);
        assert!((m.latency_factor() - 1.0).abs() < 1e-12);
    }
}
