//! Figure 8 — per-package sanitization time vs. number of files and size.
//!
//! Prints the percentile summary (the paper: P50 = 11 ms, P75 = 36 ms,
//! P95 = 422 ms, max = 30 s) and a log-bucket breakdown by file count.
//!
//! Usage: `fig8_sanitize_time [--workers N]`. The per-package
//! distribution is measured on the refresh (run at `--workers`); a
//! closing section sweeps worker counts and reports the wall-clock
//! speedup of the whole sanitization phase.

use tsr_bench::{banner, fmt_dur, scale, workers_arg, BenchWorld};
use tsr_stats::{percentile, percentiles};

fn main() {
    banner(
        "Figure 8 — sanitization time distribution",
        "P50 11 ms / P75 36 ms / P95 422 ms / max 30 s; grows with files & size",
    );
    let workers = workers_arg();
    println!("workers: {workers} (--workers N to override)");
    let mut world = BenchWorld::new(scale(), b"fig8");
    let report = world.refresh(workers);
    let recs = &report.sanitized;

    let times_ms: Vec<f64> = recs
        .iter()
        .map(|r| r.timings.total().as_secs_f64() * 1000.0)
        .collect();
    let ps = percentiles(&times_ms, &[5.0, 25.0, 50.0, 75.0, 95.0, 100.0]);
    println!(
        "sanitization time percentiles over {} packages:",
        recs.len()
    );
    println!(
        "  P5={:.2} ms  P25={:.2} ms  P50={:.2} ms  P75={:.2} ms  P95={:.2} ms  max={:.2} ms",
        ps[0], ps[1], ps[2], ps[3], ps[4], ps[5]
    );
    println!("  paper (full-size packages):      P50=11 ms  P75=36 ms  P95=422 ms  max=30000 ms");
    println!(
        "  shape: right-skew P95/P50 measured {:.1}× (paper ≈ 38×); max/P50 measured {:.0}× (paper ≈ 2700×)",
        ps[4] / ps[2].max(1e-9),
        ps[5] / ps[2].max(1e-9)
    );

    // Breakdown by file-count bucket (the x-axis of Figure 8).
    println!("\nmedian sanitization time by file-count bucket:");
    println!(
        "{:<18}{:>10}{:>14}{:>16}",
        "files in package", "packages", "median time", "median size"
    );
    let buckets: &[(usize, usize)] = &[(1, 2), (3, 4), (5, 8), (9, 16), (17, 64), (65, 10_000)];
    for &(lo, hi) in buckets {
        let sel: Vec<&tsr_core::SanitizeRecord> = recs
            .iter()
            .filter(|r| r.file_count >= lo && r.file_count <= hi)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let t: Vec<f64> = sel
            .iter()
            .map(|r| r.timings.total().as_secs_f64() * 1000.0)
            .collect();
        let s: Vec<f64> = sel
            .iter()
            .map(|r| r.original_size as f64 / 1024.0)
            .collect();
        println!(
            "{:<18}{:>10}{:>11.2} ms{:>13.1} KiB",
            format!("{lo}–{hi}"),
            sel.len(),
            percentile(&t, 50.0),
            percentile(&s, 50.0)
        );
    }

    // Monotonicity check: more files → more time (Spearman over raw data).
    let files: Vec<f64> = recs.iter().map(|r| r.file_count as f64).collect();
    let rho = tsr_stats::spearman(&files, &times_ms);
    println!(
        "\nsanitization time vs. file count: Spearman ρ = {rho:.2} (strongly positive expected)"
    );

    // Worker sweep: wall-clock time of the whole sanitization phase.
    println!("\nsanitize-phase wall clock by worker count (fresh world each):");
    println!("{:<10}{:>14}{:>12}", "workers", "sanitize", "speedup");
    let mut counts = vec![1usize, 2, 4];
    counts.retain(|&w| w <= workers);
    if !counts.contains(&workers) {
        counts.push(workers);
    }
    let mut base: Option<f64> = None;
    for w in counts {
        let mut world = BenchWorld::new(scale(), b"fig8");
        let sweep = world.refresh(w);
        let secs = sweep.sanitize_elapsed.as_secs_f64();
        let speedup = base.get_or_insert(secs).max(1e-9) / secs.max(1e-9);
        println!(
            "{w:<10}{:>14}{:>11.2}×",
            fmt_dur(sweep.sanitize_elapsed),
            speedup
        );
    }
}
