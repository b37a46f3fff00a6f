//! The load-contract tier: turns the trace-driven load harness into an
//! oracle. Three contracts, all wall-clock-free:
//!
//! 1. **Generator determinism** — the same seed must expand to a
//!    byte-identical request schedule forever (the replay half of every
//!    perf claim in `BENCH_PR*.json`).
//! 2. **Steady-state cleanliness** — a fault-free steady schedule
//!    replayed against a real `/v1` server over TCP completes with zero
//!    non-injected errors, every scheduled request accounted for, and a
//!    conditional-GET hit ratio above threshold.
//! 3. **304 lock bypass** — a conditional index GET answers
//!    `304 Not Modified` from the ETag side-cache while the repository
//!    shard lock is *held by someone else*, proven by the
//!    `index_not_modified_lock_free` metrics counter (and by the
//!    request completing at all).

use std::time::Duration;

use tsr_bench::loadrun::{run, LoadWorld, RunOptions};
use tsr_workload::loadgen::{LoadOp, ScenarioSpec};

/// Tiny explicit world knobs: tests must not inherit `TSR_SCALE` /
/// `TSR_KEY_BITS`, so a bare `cargo test` stays fast.
const SCALE: f64 = 0.003;
const KEY_BITS: usize = 1024;

#[test]
fn same_seed_schedules_are_byte_identical() {
    for make in [
        ScenarioSpec::steady as fn(u64) -> ScenarioSpec,
        ScenarioSpec::update_storm,
        ScenarioSpec::mirror_churn,
        ScenarioSpec::soak,
    ] {
        let a = make(0xfeed_beef).generate();
        let b = make(0xfeed_beef).generate();
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "{}: same seed must replay byte-identically",
            a.scenario
        );
        let c = make(0xfeed_bee0).generate();
        assert_ne!(
            a.canonical_bytes(),
            c.canonical_bytes(),
            "{}: different seeds must differ",
            a.scenario
        );
    }
}

#[test]
fn steady_load_over_sockets_is_error_free_and_cache_friendly() {
    let world = LoadWorld::start(11, SCALE, KEY_BITS, 3);
    // A short steady trace; no faults are scheduled, so *every* error is
    // a contract violation. Health-check the mix too: it must poll.
    let schedule = ScenarioSpec::steady(11)
        .with_duration_ms(800)
        .with_rate(60.0)
        .generate();
    assert!(
        !schedule.has_faults(),
        "steady schedules must be fault-free"
    );
    assert!(
        schedule
            .ops
            .iter()
            .any(|s| matches!(s.op, LoadOp::IndexCondGet)),
        "steady mix must contain conditional GETs"
    );

    let report = run(
        &world,
        &schedule,
        RunOptions {
            clients: 3,
            speed: 1.0,
            timeout: Duration::from_secs(10),
        },
    );
    assert_eq!(
        report.unexpected_errors(),
        0,
        "steady load must complete without non-injected errors: {report:?}"
    );
    assert_eq!(report.injected_errors(), 0, "nothing was injected");
    assert_eq!(
        report.requests,
        schedule.measured_len() as u64,
        "every scheduled request must be dispatched exactly once"
    );
    assert_eq!(report.events, schedule.ops.len() as u64);
    let completed: u64 = report.ops.values().map(|s| s.hist.count()).sum();
    assert_eq!(completed, report.requests, "every request must complete");
    assert!(
        report.cond_hit_ratio() >= 0.6,
        "conditional-GET hit ratio {:.2} below threshold (hits {}, misses {})",
        report.cond_hit_ratio(),
        report.cond_hits,
        report.cond_misses
    );
    assert!(report.in_flight_high_water >= 1);
    world.stop();
}

#[test]
fn not_modified_is_served_without_repository_locks() {
    let world = LoadWorld::start(23, SCALE, KEY_BITS, 2);
    let client = tsr_wire::TsrClient::with_timeout(&world.base, Duration::from_secs(5));

    // Prime: fetch the index once to learn the current ETag.
    let (_bytes, etag) = client.index(&world.repo_id).expect("index fetch");
    let etag = etag.expect("index responses carry an ETag");

    // Occupy the repository shard lock on another thread, holding it
    // until told to release — any code path that needs the shard lock
    // now blocks.
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    let svc = world.svc.clone();
    let repo_id = world.repo_id.clone();
    let holder = std::thread::spawn(move || {
        svc.with_repository(&repo_id, |_repo| {
            held_tx.send(()).expect("signal lock held");
            hold_rx.recv().expect("wait for release");
        })
        .expect("repository exists");
    });
    held_rx.recv().expect("lock is held");

    let lock_free = world.svc.event_counter("index_not_modified_lock_free");
    let before = lock_free.get();
    // The conditional GET must complete (well before the 5 s client
    // timeout) even though the shard lock is held: the 304 comes from
    // the serve cache.
    let fetch = client
        .index_if_none_match(&world.repo_id, &etag)
        .expect("conditional GET while shard lock is held");
    assert_eq!(
        fetch,
        tsr_wire::IndexFetch::NotModified,
        "unchanged index must answer 304"
    );
    let after = lock_free.get();
    assert!(
        after > before,
        "the 304 must take the lock-free fast path (counter {before} -> {after})"
    );

    hold_tx.send(()).expect("release the lock");
    holder.join().expect("holder thread");

    // The counter is part of the public metrics surface.
    let metrics = client.metrics().expect("metrics fetch");
    assert!(
        metrics
            .counters
            .get("index_not_modified_lock_free")
            .copied()
            .unwrap_or(0)
            >= after,
        "metrics DTO must expose the lock-bypass counter: {metrics:?}"
    );
    world.stop();
}
