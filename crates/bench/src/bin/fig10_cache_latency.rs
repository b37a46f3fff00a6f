//! Figure 10 — package download latency under three cache states.
//!
//! Paper: with the sanitized package cached, responses are ~129× faster
//! than with no cache; with only the original cached, ~2.7× faster.
//! Latency here = simulated I/O time (disk/network model) + measured
//! compute time (sanitization, verification).

use std::time::Duration;

use tsr_bench::{banner, fmt_dur, scale, BenchWorld};
use tsr_net::{disk_read_time, Continent};
use tsr_stats::{mean, percentile};

fn main() {
    banner(
        "Figure 10 — download latency by cache state",
        "Sanitized cache ≈129× faster than None; Original cache ≈2.7× faster",
    );
    let mut world = BenchWorld::new(scale(), b"fig10");
    world.refresh(1);
    let names: Vec<String> = world
        .repo
        .sanitized_index()
        .expect("refreshed")
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let signers = world.repo.policy().signer_keys_named();

    let mut lat_none: Vec<f64> = Vec::new();
    let mut lat_original: Vec<f64> = Vec::new();
    let mut lat_sanitized: Vec<f64> = Vec::new();

    let upstream = world.repo.upstream_index().expect("refreshed");
    for name in &names {
        let hash = &upstream.get(name).expect("upstream entry").content_hash;
        let original = world
            .repo
            .cache()
            .get(hash)
            .cloned()
            .expect("cached original");

        // Scenario "None": fetch from a same-continent mirror (simulated
        // network) + sanitize now (measured).
        let net = world.model.transfer_time(
            Continent::Europe,
            Continent::Europe,
            original.len(),
            &mut world.rng,
        );
        let t = std::time::Instant::now();
        let sanitizer = world.repo.sanitizer().expect("refreshed");
        let _ = sanitizer.sanitize(&original, &signers).expect("sanitize");
        let sanitize_time = t.elapsed();
        lat_none.push((net + sanitize_time).as_secs_f64() * 1000.0);

        // Scenario "Original": read original from disk + sanitize.
        let disk = disk_read_time(original.len());
        lat_original.push((disk + sanitize_time).as_secs_f64() * 1000.0);

        // Scenario "Sanitized": read sanitized from disk + verify hash.
        let t = std::time::Instant::now();
        let blob = world.repo.serve_package(name).expect("serve");
        let verify_time = t.elapsed();
        let disk = disk_read_time(blob.len());
        lat_sanitized.push((disk + verify_time).as_secs_f64() * 1000.0);
    }

    let report = |name: &str, xs: &[f64]| {
        println!(
            "  {:<12} mean={:>10}  P50={:>10}  P95={:>10}",
            name,
            fmt_dur(Duration::from_secs_f64(mean(xs) / 1000.0)),
            fmt_dur(Duration::from_secs_f64(percentile(xs, 50.0) / 1000.0)),
            fmt_dur(Duration::from_secs_f64(percentile(xs, 95.0) / 1000.0)),
        );
    };
    println!("download latency over {} packages:", names.len());
    report("None", &lat_none);
    report("Original", &lat_original);
    report("Sanitized", &lat_sanitized);

    let m_none = mean(&lat_none);
    let m_orig = mean(&lat_original);
    let m_san = mean(&lat_sanitized);
    println!("\nspeedups (mean):");
    println!(
        "  Sanitized vs None: {:>6.1}×   (paper ≈ 129×)",
        m_none / m_san.max(1e-9)
    );
    println!(
        "  Original  vs None: {:>6.1}×   (paper ≈ 2.7×)",
        m_none / m_orig.max(1e-9)
    );
}
