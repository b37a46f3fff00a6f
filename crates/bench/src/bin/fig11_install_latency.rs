//! Figure 11 — end-to-end latency of installing software updates: TSR
//! (sanitized packages, signature installation) vs. a plain Alpine mirror.
//!
//! Paper: 141 ms average with TSR vs. 110 ms with a plain mirror — the
//! extra cost is installing the digital signatures into the filesystem.
//! Methodology follows the paper: install each package, mark it outdated
//! in the package database, re-install (the measured "update"), uninstall.

use tsr_bench::{banner, initial_configs, scale, BenchWorld};
use tsr_pkgmgr::TrustedOs;
use tsr_stats::{mean, percentile};

fn main() {
    banner(
        "Figure 11 — end-to-end update installation latency",
        "TSR ≈141 ms vs plain mirror ≈110 ms (≈1.3×), gap = signature installation",
    );
    let mut world = BenchWorld::new(scale(), b"fig11");
    world.refresh(1);

    let configs: Vec<(String, String)> = initial_configs()
        .into_iter()
        .map(|c| (c.path, c.content))
        .collect();

    // OS A updates from TSR (sanitized packages).
    let mut os_tsr = TrustedOs::boot(b"fig11-tsr-os", &configs);
    os_tsr.trust_key(
        world.repo.signer_name().to_string(),
        world.repo.public_key().clone(),
    );
    // OS B updates from a plain mirror (original packages).
    let mut os_plain = TrustedOs::boot(b"fig11-plain-os", &configs);
    os_plain.trust_key(
        world.upstream.signer_name.clone(),
        world.upstream.signing_key.public_key().clone(),
    );

    let names: Vec<String> = world
        .repo
        .sanitized_index()
        .expect("refreshed")
        .iter()
        .map(|e| e.name.clone())
        .collect();

    let mut tsr_ms = Vec::new();
    let mut plain_ms = Vec::new();
    for name in &names {
        // TSR-sanitized package.
        let blob = world.repo.serve_package(name).expect("serve");
        if let Ok(t0) = os_tsr.install(&blob) {
            let _ = t0; // first install warms the fs; measure the update
            os_tsr.force_outdated(name);
            if let Ok(t) = os_tsr.install(&blob) {
                tsr_ms.push(t.total().as_secs_f64() * 1000.0);
            }
            let _ = os_tsr.uninstall(name);
        }
        // Original package from the plain mirror.
        let blob = world.upstream.blobs[name].clone();
        if let Ok(t0) = os_plain.install(&blob) {
            let _ = t0;
            os_plain.force_outdated(name);
            if let Ok(t) = os_plain.install(&blob) {
                plain_ms.push(t.total().as_secs_f64() * 1000.0);
            }
            let _ = os_plain.uninstall(name);
        }
    }

    println!(
        "updates measured: {} via TSR, {} via plain mirror",
        tsr_ms.len(),
        plain_ms.len()
    );
    println!(
        "  TSR:          mean={:.3} ms  P50={:.3} ms  P95={:.3} ms",
        mean(&tsr_ms),
        percentile(&tsr_ms, 50.0),
        percentile(&tsr_ms, 95.0)
    );
    println!(
        "  plain mirror: mean={:.3} ms  P50={:.3} ms  P95={:.3} ms",
        mean(&plain_ms),
        percentile(&plain_ms, 50.0),
        percentile(&plain_ms, 95.0)
    );
    println!(
        "\nTSR/plain mean ratio: {:.2}× (paper 141/110 ≈ 1.28×)",
        mean(&tsr_ms) / mean(&plain_ms).max(1e-9)
    );
    println!("the gap comes from installing per-file signatures (xattrs) and re-measuring configs");
}
