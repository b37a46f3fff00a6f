//! Tier: durability — crash-at-any-event recovery for the storage
//! engine, run through the real store-backed `TsrService` on a `SimFs`
//! disk.
//!
//! Each canned durability scenario executes a schedule of durable
//! mutations (tenant create/delete, refresh, upstream publish). After
//! **every** event the driver clones the disk — a simulated `kill -9`
//! at that instant — recovers a fresh service from the clone, and
//! asserts the recovered observable state is byte-identical to the live
//! service: signed index bytes and every indexed package blob, for
//! every tenant ever created (deleted tenants must stay deleted). A
//! closing sweep truncates the WAL at evenly spaced offsets, including
//! mid-frame; each cut must recover cleanly to one of the previously
//! observed event-boundary states.
//!
//! The seed defaults to a fixed value and can be overridden with
//! `TSR_SCENARIO_SEED` (CI pins it so failures replay exactly). On
//! every run the trace lands in
//! `$CARGO_TARGET_TMPDIR/durability-traces/<name>.trace`; CI uploads
//! that directory as an artifact when this tier fails.

use tsr::sim::{durability_scenario, durability_scenarios, env_seed as seed, DurabilityReport};

fn write_trace_artifact(name: &str, trace_text: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("durability-traces");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.trace")), trace_text);
    }
}

/// Runs one canned durability scenario, leaving its trace artifact for
/// both green and red runs.
fn run_scenario(name: &str) -> DurabilityReport {
    let scenario = durability_scenario(name, seed())
        .unwrap_or_else(|| panic!("unknown durability scenario {name}"));
    let report = scenario.run().unwrap_or_else(|failure| {
        write_trace_artifact(name, &failure.trace.to_text());
        panic!(
            "durability scenario {name} (seed {}) failed: {failure}\ntrace:\n{}",
            seed(),
            failure.trace.to_text()
        )
    });
    write_trace_artifact(name, &report.trace_text());
    assert_eq!(
        report.recoveries, report.events,
        "{name}: one kill-point recovery per event"
    );
    report
}

#[test]
fn library_covers_at_least_three_scenarios() {
    assert!(durability_scenarios(seed()).len() >= 3);
}

#[test]
fn single_tenant_update_cycle_survives_kill_at_every_event() {
    let r = run_scenario("single_tenant_update_cycle");
    assert!(
        r.replayed_records_total > 0,
        "recoveries must replay WAL records:\n{}",
        r.trace_text()
    );
    assert!(r.torn_cuts_checked >= 8, "{}", r.trace_text());
    assert!(r.trace.contains("recover ok"));
    assert!(r.trace.contains("torn cut="));
}

#[test]
fn multi_tenant_churn_survives_kill_at_every_event() {
    let r = run_scenario("multi_tenant_churn");
    assert!(r.replayed_records_total > 0, "{}", r.trace_text());
    // The schedule deletes a tenant and creates another afterwards; the
    // trace must show both survived every recovery in between.
    assert!(r.trace.contains("delete repo-"), "{}", r.trace_text());
    assert!(r.torn_cuts_checked > 0, "{}", r.trace_text());
}

#[test]
fn deleted_tenant_stays_deleted_and_determinism_holds() {
    let r = run_scenario("delete_survives_recovery");
    assert!(r.trace.contains("delete repo-"), "{}", r.trace_text());
    // Same seed, same scenario: byte-identical trace.
    let again = durability_scenario("delete_survives_recovery", seed())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        r.trace_digest(),
        again.trace_digest(),
        "durability runs must be deterministic per seed"
    );
}
