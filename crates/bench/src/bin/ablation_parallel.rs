//! Ablation — sequential vs parallel refresh (the paper's future-work
//! item).
//!
//! §6.1: "the download time can be greatly reduced by enabling parallel
//! downloading. This performance improvement is left as part of future
//! work." The TSR core now implements that future work: `refresh` fans
//! per-package download + sanitize + sign out over a work-stealing worker
//! pool (`tsr_core::parallel`). This ablation refreshes identical worlds
//! at increasing worker counts, reports the speedup of the CPU-bound
//! sanitization phase, and asserts the signed APKINDEX is byte-identical
//! at every worker count — parallelism must never change what is served.
//!
//! Usage: `ablation_parallel [--workers N]` (default: all cores).

use std::time::Instant;

use tsr_bench::{banner, fmt_dur, scale, workers_arg, BenchWorld};

fn main() {
    banner(
        "Ablation — sequential vs parallel refresh (paper future work)",
        "per-package sanitization is independent; a worker pool scales with cores",
    );
    let max_workers = workers_arg();
    let mut counts = vec![1usize];
    for w in [2, 4, 8, 16] {
        if w < max_workers {
            counts.push(w);
        }
    }
    if max_workers > 1 {
        counts.push(max_workers);
    }

    let mut baseline_sanitize: Option<f64> = None;
    let mut last_speedup = 1.0;
    let mut reference_index: Option<Vec<u8>> = None;
    println!(
        "{:<10}{:>12}{:>14}{:>12}{:>12}   index",
        "workers", "refresh", "sanitize", "speedup", "packages"
    );
    for &workers in &counts {
        let mut world = BenchWorld::new(scale(), b"ablation-par");
        let t = Instant::now();
        let report = world.refresh(workers);
        let total = t.elapsed();
        let sanitize = report.sanitize_elapsed;
        let signed_index = world.repo.serve_index().expect("refreshed");

        let identical = match &reference_index {
            None => {
                reference_index = Some(signed_index);
                "reference"
            }
            Some(reference) => {
                assert_eq!(
                    reference, &signed_index,
                    "signed APKINDEX must be byte-identical at {workers} workers"
                );
                "identical"
            }
        };
        let speedup = match baseline_sanitize {
            None => {
                baseline_sanitize = Some(sanitize.as_secs_f64());
                1.0
            }
            Some(base) => base / sanitize.as_secs_f64().max(1e-9),
        };
        last_speedup = speedup;
        println!(
            "{workers:<10}{:>12}{:>14}{:>11.2}×{:>12}   {identical}",
            fmt_dur(total),
            fmt_dur(sanitize),
            speedup,
            report.sanitized.len(),
        );
    }
    if let Some(&last) = counts.last() {
        if last > 1 {
            println!(
                "\nsanitize-phase speedup at {last} workers: {last_speedup:.2}× (ideal {last}×); \
                 served indexes byte-identical across all worker counts"
            );
        }
    }
}
