//! Figure 12 — sanitization time inside vs. outside the SGX enclave.
//!
//! Paper: 1.18× (P50), 1.12× (P75), 1.16× (P95) overhead; 1.96× for the
//! top 5% of packages whose working set exceeds the EPC; total repository
//! pass 9.5 min → 13.6 min (1.43×).
//!
//! The enclave is simulated: sanitization runs natively and the measured
//! time is scaled by the EPC cost model (calibrated to the paper's ratios).
//! The EPC size is shrunk so the synthetic workload's top 5% spills, the
//! same percentile as the paper's full-size packages (see ARCHITECTURE.md).

use std::time::Duration;

use tsr_bench::{banner, scale, BenchWorld};
use tsr_stats::{percentile, percentiles};

fn main() {
    banner(
        "Figure 12 — SGX enclave overhead on sanitization",
        "1.18× P50 / 1.12× P75 / 1.16× P95; 1.96× beyond EPC; 1.43× full pass",
    );
    let mut world = BenchWorld::new(scale(), b"fig12");
    let epc = world.scaled_epc();
    world.cpu.set_epc(epc);
    let report = world.refresh(1);
    let recs = &report.sanitized;

    // "Outside SGX": the measured native time.
    // "Inside SGX": the same work scaled by the EPC model for the package's
    // working-set size (the enclave simulator's run() contract).
    let enclave = world.cpu.load_enclave(tsr_bench::ENCLAVE_CODE);
    let mut native_ms = Vec::new();
    let mut enclave_ms = Vec::new();
    let mut ratios = Vec::new();
    let mut over_epc_ratios = Vec::new();
    let mut total_native = Duration::ZERO;
    let mut total_enclave = Duration::ZERO;
    for r in recs {
        let native = r.timings.total();
        let factor = world.cpu.epc().overhead_factor(r.uncompressed_size);
        let inside = Duration::from_secs_f64(native.as_secs_f64() * factor);
        native_ms.push(native.as_secs_f64() * 1000.0);
        enclave_ms.push(inside.as_secs_f64() * 1000.0);
        ratios.push(factor);
        if world.cpu.epc().exceeds_epc(r.uncompressed_size) {
            over_epc_ratios.push(factor);
        }
        total_native += native;
        total_enclave += inside;
    }
    let _ = enclave;

    let pn = percentiles(&native_ms, &[50.0, 75.0, 95.0]);
    let pe = percentiles(&enclave_ms, &[50.0, 75.0, 95.0]);
    println!(
        "sanitization time ({} packages, EPC scaled to {} KiB):",
        recs.len(),
        world.cpu.epc().epc_bytes / 1024
    );
    println!(
        "{:<10}{:>14}{:>14}{:>10}",
        "", "without SGX", "with SGX", "ratio"
    );
    for (i, p) in ["P50", "P75", "P95"].iter().enumerate() {
        println!(
            "{:<10}{:>11.2} ms{:>11.2} ms{:>9.2}×",
            p,
            pn[i],
            pe[i],
            pe[i] / pn[i].max(1e-9)
        );
    }
    println!(
        "\nper-package overhead factors: P50={:.2}× P75={:.2}× P95={:.2}× (paper 1.18/1.12/1.16)",
        percentile(&ratios, 50.0),
        percentile(&ratios, 75.0),
        percentile(&ratios, 95.0)
    );
    if !over_epc_ratios.is_empty() {
        println!(
            "packages exceeding EPC ({} of {}): mean factor {:.2}× (paper ≈1.96×)",
            over_epc_ratios.len(),
            recs.len(),
            over_epc_ratios.iter().sum::<f64>() / over_epc_ratios.len() as f64
        );
    }
    println!(
        "\nfull repository pass: {:.2} s native → {:.2} s in-enclave = {:.2}× (paper 9.5→13.6 min = 1.43×)",
        total_native.as_secs_f64(),
        total_enclave.as_secs_f64(),
        total_enclave.as_secs_f64() / total_native.as_secs_f64().max(1e-9)
    );
}
