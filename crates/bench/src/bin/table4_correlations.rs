//! Table 4 — Spearman rank correlations between package properties
//! (number of files, package size) and the proportional time contribution
//! of each sanitization phase.

use tsr_bench::{banner, scale, BenchWorld};
use tsr_stats::{spearman, spearman_p_value};

fn main() {
    banner(
        "Table 4 — sanitization phase correlations (Spearman ρ)",
        "archive/compress .46/.61; check-integrity −.62/−.93; signatures .69/.03; scripts −.27/−.33",
    );
    let mut world = BenchWorld::new(scale(), b"table4");
    let report = world.refresh(1);
    let recs = &report.sanitized;
    println!("packages sanitized: {}", recs.len());

    let files: Vec<f64> = recs.iter().map(|r| r.file_count as f64).collect();
    let sizes: Vec<f64> = recs.iter().map(|r| r.original_size as f64).collect();

    let share = |f: &dyn Fn(&tsr_core::SanitizeRecord) -> f64| -> Vec<f64> {
        recs.iter()
            .map(|r| f(r) / r.timings.total().as_secs_f64().max(1e-12))
            .collect()
    };
    let archive = share(&|r| r.timings.archive_compress().as_secs_f64());
    let check = share(&|r| r.timings.check_integrity.as_secs_f64());
    let sigs = share(&|r| r.timings.generate_signatures.as_secs_f64());
    let scripts = share(&|r| r.timings.modify_scripts.as_secs_f64());

    let n = recs.len();
    let row = |name: &str, ys: &[f64], paper_files: f64, paper_size: f64| {
        let rf = spearman(&files, ys);
        let rs = spearman(&sizes, ys);
        println!(
            "{:<22}{:>8.2} (p={:.3}){:>8.2} (p={:.3})   paper: {:>5.2} / {:>5.2}",
            name,
            rf,
            spearman_p_value(rf, n),
            rs,
            spearman_p_value(rs, n),
            paper_files,
            paper_size
        );
    };
    println!(
        "{:<22}{:>18}{:>18}   paper (files/size)",
        "phase share vs.", "number of files", "package size"
    );
    row("archive, compress", &archive, 0.46, 0.61);
    row("check integrity", &check, -0.62, -0.93);
    row("generate signatures", &sigs, 0.69, 0.03);
    row("modify scripts", &scripts, -0.27, -0.33);

    println!();
    println!("shape checks:");
    let sig_files = spearman(&files, &sigs);
    let chk_size = spearman(&sizes, &check);
    let arc_size = spearman(&sizes, &archive);
    println!(
        "  signatures↑ with file count: ρ={sig_files:.2} > 0  {}",
        ok(sig_files > 0.0)
    );
    println!(
        "  check-integrity share↓ with size: ρ={chk_size:.2} < 0  {}",
        ok(chk_size < 0.0)
    );
    println!(
        "  archive/compress share↑ with size: ρ={arc_size:.2} > 0  {}",
        ok(arc_size > 0.0)
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}
