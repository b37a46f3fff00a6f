//! # tsr-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§6), plus ablation studies. See the workspace `README.md`
//! for the experiment index and `ARCHITECTURE.md` for the pipeline the
//! experiments instrument.
//!
//! Scale knobs (environment variables):
//!
//! - `TSR_SCALE` — census scale factor (default `0.02` ≈ 232 packages;
//!   `1.0` regenerates the full 11,581-package census),
//! - `TSR_KEY_BITS` — TSR signing key size (default `2048`, the paper's
//!   256-byte signatures; use `1024` for quicker runs).

use std::time::Duration;

use tsr_core::{InitConfigFile, MirrorRef, Policy, RefreshReport, TsrRepository};
use tsr_crypto::drbg::HmacDrbg;
use tsr_mirror::{publish_to_all, Mirror};
use tsr_net::{Continent, LatencyModel};
use tsr_sgx::{Cpu, EpcModel};
use tsr_tpm::Tpm;
use tsr_workload::{Census, GeneratedRepo, WorkloadConfig};

/// Enclave code identity used across the harness.
pub const ENCLAVE_CODE: &[u8] = b"tsr-bench-enclave";

/// Census scale factor from `TSR_SCALE` (default 0.02).
pub fn scale() -> f64 {
    std::env::var("TSR_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02)
}

/// TSR key size from `TSR_KEY_BITS` (default 2048).
pub fn key_bits() -> usize {
    std::env::var("TSR_KEY_BITS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048)
}

/// Worker count from a `--workers N` command-line argument, falling back
/// to [`tsr_core::default_workers`] (which honours `TSR_WORKERS`).
pub fn workers_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(tsr_core::default_workers)
}

/// The standard workload configuration at a given scale.
pub fn workload_config(scale: f64, seed: &[u8]) -> WorkloadConfig {
    WorkloadConfig {
        seed: seed.to_vec(),
        census: Census::default().scaled(scale),
        size_scale: 1.0,
        median_files: 4.0,
        files_sigma: 1.2,
        median_pkg_bytes: 120_000.0,
        pkg_bytes_sigma: 1.5,
        include_cve_pattern: true,
    }
}

/// The standard initial configuration files.
pub fn initial_configs() -> Vec<InitConfigFile> {
    vec![
        InitConfigFile {
            path: "/etc/passwd".into(),
            content: "root:x:0:0:root:/root:/bin/ash\ndaemon:x:2:2:daemon:/sbin:/sbin/nologin"
                .into(),
        },
        InitConfigFile {
            path: "/etc/group".into(),
            content: "root:x:0:\ndaemon:x:2:".into(),
        },
        InitConfigFile {
            path: "/etc/shadow".into(),
            content: "root:!::0:::::\ndaemon:!::0:::::".into(),
        },
    ]
}

/// A fully wired experiment world: upstream repo, mirror fleet, TSR.
pub struct BenchWorld {
    /// The synthetic upstream repository.
    pub upstream: GeneratedRepo,
    /// Mirror fleet (3 European mirrors by default).
    pub mirrors: Vec<Mirror>,
    /// The simulated SGX CPU.
    pub cpu: Cpu,
    /// The TSR host's TPM.
    pub tpm: Tpm,
    /// The latency model.
    pub model: LatencyModel,
    /// Experiment RNG.
    pub rng: HmacDrbg,
    /// The TSR repository under test.
    pub repo: TsrRepository,
}

impl BenchWorld {
    /// Builds the standard world at `scale`.
    pub fn new(scale: f64, seed: &[u8]) -> Self {
        let upstream = GeneratedRepo::generate(workload_config(scale, seed));
        let mut mirrors: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("mirror-{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut mirrors, &upstream.snapshot());

        let policy = Policy {
            mirrors: mirrors
                .iter()
                .map(|m| MirrorRef {
                    hostname: m.name.clone(),
                    continent: m.continent,
                })
                .collect(),
            signers_keys: vec![upstream.signing_key.public_key().clone()],
            init_config_files: initial_configs(),
            f: 1,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };
        let cpu = Cpu::new(&[b"bench-cpu:", seed].concat());
        let mut tpm = Tpm::new(&[b"bench-tpm:", seed].concat());
        let enclave = cpu.load_enclave(ENCLAVE_CODE);
        let repo = TsrRepository::init("bench", policy, &enclave, &mut tpm, key_bits());
        BenchWorld {
            upstream,
            mirrors,
            cpu,
            tpm,
            model: LatencyModel::default(),
            rng: HmacDrbg::new(&[b"bench-rng:", seed].concat()),
            repo,
        }
    }

    /// Refreshes the TSR repository from the mirrors, with the
    /// download/sanitize phases fanned out over `workers` threads, then
    /// seals it.
    ///
    /// # Panics
    ///
    /// Panics when the refresh fails — benches require a healthy world.
    pub fn refresh(&mut self, workers: usize) -> RefreshReport {
        let report = self
            .repo
            .refresh_unsealed(&self.mirrors, &self.model, &mut self.rng, workers)
            .expect("bench refresh");
        self.repo
            .persist(&self.cpu.load_enclave(ENCLAVE_CODE), &mut self.tpm)
            .expect("bench seal");
        report
    }

    /// An EPC model scaled to the synthetic workload: the real 128 MB EPC
    /// never saturates with kilobyte packages, so the EPC size is shrunk in
    /// proportion (documented substitution — keeps the Figure 12 inflection
    /// visible at the same *percentile* of the package population).
    pub fn scaled_epc(&self) -> EpcModel {
        // Place the EPC boundary at roughly the 95th percentile of package
        // working sets, as in the paper ("top 5 percentiles … exceed EPC").
        let mut sizes: Vec<usize> = self
            .upstream
            .blobs
            .values()
            .map(|b| b.len() * 3) // uncompressed working set approximation
            .collect();
        sizes.sort_unstable();
        let idx = ((sizes.len() as f64 * 0.95) as usize).min(sizes.len() - 1);
        EpcModel {
            epc_bytes: sizes[idx],
            ..EpcModel::default()
        }
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 60 {
        format!("{:.1} min", d.as_secs_f64() / 60.0)
    } else if d.as_secs() >= 1 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2} ms", d.as_secs_f64() * 1000.0)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

/// Prints a header for an experiment binary.
pub fn banner(experiment: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("paper: {paper_claim}");
    println!(
        "scale: TSR_SCALE={} (census scale), TSR_KEY_BITS={}",
        scale(),
        key_bits()
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_world_builds_and_refreshes() {
        // Tiny scale so the test is quick even with 2048-bit default keys.
        std::env::set_var("TSR_KEY_BITS", "1024");
        let mut w = BenchWorld::new(0.002, b"test-world");
        let report = w.refresh(1);
        assert!(!report.sanitized.is_empty());
        assert!(w.repo.sanitized_index().is_some());
        std::env::remove_var("TSR_KEY_BITS");
    }

    #[test]
    fn fmt_dur_units() {
        assert!(fmt_dur(Duration::from_secs(120)).contains("min"));
        assert!(fmt_dur(Duration::from_secs(2)).contains(" s"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_micros(5)).contains("µs"));
    }
}
