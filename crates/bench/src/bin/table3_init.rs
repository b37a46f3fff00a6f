//! Table 3 — time required to initialize a repository, pessimistic
//! (download + sanitize) vs. optimistic (pre-fetched cache).
//!
//! Download time is simulated network time (latency model); policy
//! deployment and sanitization are measured wall-clock.

use std::time::{Duration, Instant};

use tsr_bench::{banner, fmt_dur, scale, BenchWorld};

fn main() {
    banner(
        "Table 3 — repository initialization time",
        "pessimistic 30 min (17 download + <1 policy + 13 sanitize); optimistic 13 min",
    );

    // Pessimistic: fresh TSR, must download everything.
    let mut world = BenchWorld::new(scale(), b"table3");
    let t_policy = Instant::now();
    // Policy deployment = repository init (key generation) — already done in
    // BenchWorld::new; re-measure it explicitly on a second repo.
    let policy_time = {
        let enclave = world.cpu.load_enclave(tsr_bench::ENCLAVE_CODE);
        let policy = world.repo.policy().clone();
        let t = Instant::now();
        let _r = tsr_core::TsrRepository::init(
            "timing",
            policy,
            &enclave,
            &mut world.tpm,
            tsr_bench::key_bits(),
        );
        t.elapsed()
    };
    let _ = t_policy;

    let report = world.refresh(1);
    let download = report.download_elapsed;
    let sanitize = report.sanitize_elapsed;
    let pessimistic_total = download + policy_time + sanitize;

    // Optimistic: originals already cached; only sanitization remains.
    // Re-trigger sanitization of everything by resetting the sanitized side.
    let mut world2 = BenchWorld::new(scale(), b"table3");
    world2.refresh(1); // warm: originals + sanitized cached
    let upstream = world2.repo.upstream_index().expect("refreshed");
    let signers = world2.repo.policy().signer_keys_named();
    let sanitizer_time = {
        let t = Instant::now();
        let sanitizer = world2.repo.sanitizer().expect("refreshed");
        for entry in upstream.iter() {
            if let Some(blob) = world2.repo.cache().get(&entry.content_hash) {
                let _ = sanitizer.sanitize(blob, &signers);
            }
        }
        t.elapsed()
    };
    let optimistic_total = policy_time + sanitizer_time;

    println!(
        "{:<22}{:>14}{:>14}    paper (pess/opt)",
        "operation", "pessimistic", "optimistic"
    );
    println!(
        "{:<22}{:>14}{:>14}    17 min / 0 min",
        "download packages",
        fmt_dur(download),
        fmt_dur(Duration::ZERO)
    );
    println!(
        "{:<22}{:>14}{:>14}    <1 min / <1 min",
        "policy deployment",
        fmt_dur(policy_time),
        fmt_dur(policy_time)
    );
    println!(
        "{:<22}{:>14}{:>14}    13 min / 13 min",
        "sanitize packages",
        fmt_dur(sanitize),
        fmt_dur(sanitizer_time)
    );
    println!(
        "{:<22}{:>14}{:>14}    30 min / 13 min",
        "total",
        fmt_dur(pessimistic_total),
        fmt_dur(optimistic_total)
    );
    println!();
    println!(
        "shape check: pessimistic/optimistic ratio measured {:.2}× (paper ≈ 2.3×)",
        pessimistic_total.as_secs_f64() / optimistic_total.as_secs_f64().max(1e-9)
    );
    println!(
        "             downloads dominate the pessimistic path: {:.0}% of total (paper ≈ 57%)",
        100.0 * download.as_secs_f64() / pessimistic_total.as_secs_f64()
    );
}
