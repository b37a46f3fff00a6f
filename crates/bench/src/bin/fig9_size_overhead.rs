//! Figure 9 — package size increase caused by sanitization.
//!
//! Paper: +12% (P50), +27% (P75), +76% (P95); total repository +3.6%
//! (3000 MB → 3110 MB); packages with many small files suffer most because
//! each file gains a 256-byte signature.

use tsr_bench::{banner, key_bits, scale, BenchWorld};
use tsr_stats::{percentile, percentiles};

fn main() {
    banner(
        "Figure 9 — size overhead of sanitization",
        "P50 +12% / P75 +27% / P95 +76%; total repository +3.6%",
    );
    let mut world = BenchWorld::new(scale(), b"fig9");
    let report = world.refresh(1);
    let recs = &report.sanitized;

    let overheads: Vec<f64> = recs.iter().map(|r| r.size_overhead_percent()).collect();
    let ps = percentiles(&overheads, &[5.0, 25.0, 50.0, 75.0, 95.0]);
    println!(
        "per-package size overhead percentiles ({} packages, {}-byte signatures):",
        recs.len(),
        key_bits() / 8
    );
    println!(
        "  P5=+{:.0}%  P25=+{:.0}%  P50=+{:.0}%  P75=+{:.0}%  P95=+{:.0}%",
        ps[0], ps[1], ps[2], ps[3], ps[4]
    );
    println!("  paper:                    P50=+12%  P75=+27%  P95=+76%");

    let orig_total: usize = recs.iter().map(|r| r.original_size).sum();
    let san_total: usize = recs.iter().map(|r| r.sanitized_size).sum();
    println!(
        "\ntotal repository size: {:.2} MiB → {:.2} MiB = +{:.1}% (paper +3.6%)",
        orig_total as f64 / 1048576.0,
        san_total as f64 / 1048576.0,
        100.0 * (san_total as f64 - orig_total as f64) / orig_total as f64
    );

    // The mechanism: overhead correlates with files-per-byte.
    println!("\nmedian overhead by file-count bucket (many small files suffer most):");
    let buckets: &[(usize, usize)] = &[(1, 2), (3, 4), (5, 8), (9, 16), (17, 64), (65, 10_000)];
    println!(
        "{:<18}{:>10}{:>16}",
        "files in package", "packages", "median overhead"
    );
    for &(lo, hi) in buckets {
        let sel: Vec<f64> = recs
            .iter()
            .filter(|r| r.file_count >= lo && r.file_count <= hi)
            .map(|r| r.size_overhead_percent())
            .collect();
        if sel.is_empty() {
            continue;
        }
        println!(
            "{:<18}{:>10}{:>14.0}%",
            format!("{lo}–{hi}"),
            sel.len(),
            percentile(&sel, 50.0)
        );
    }
    let files: Vec<f64> = recs.iter().map(|r| r.file_count as f64).collect();
    let per_byte: Vec<f64> = recs
        .iter()
        .map(|r| r.file_count as f64 / r.original_size as f64)
        .collect();
    println!(
        "\noverhead vs. files-per-byte: Spearman ρ = {:.2} (positive expected)",
        tsr_stats::spearman(&per_byte, &overheads)
    );
    let _ = files;
}
