//! One run of one workload: set-up, the load phases, kill and recovery,
//! the output checks, and the metrics.
//!
//! The driver reads every end-to-end metric from every workload, so every
//! workload runs this timeline and the plans in [`crate::spec`] put the
//! window's weight where the workload's name says:
//!
//! 1. **set-up**, [`SETUP_REPS`] times (the last world is measured);
//! 2. **warm-up and quiet phase** — open loop, both threads,
//!    [`POLL_RATE`] in total (beyond the warm-up on `fleet_poll` only);
//! 3. **closed phase**, first half — both threads back to back;
//! 4. **event phase** — thread 0 is the admin (update waves or tenant
//!    onboardings, each at its due instant), thread 1 reads open loop;
//! 5. **closed phase**, second half;
//! 6. **kill and recover**, [`RECOVERY_REPS`] times.
//!
//! The polling phases (2, 3, 5) run with the whole process confined to
//! one CPU, everything else on every CPU of the box: see
//! [`crate::affinity`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use tsr_apk::Index;
use tsr_crypto::{hex, Sha256};
use tsr_mirror::RepoSnapshot;
use tsr_monitor::Monitor;
use tsr_pkgmgr::TrustedOs;
use tsr_wire::{Json, PackagePage, RefreshReportDto, TsrClient, WireDto};

use crate::affinity;
use crate::load::{Reader, Sample, Target};
use crate::probes::{self, Layers};
use crate::schedule::{self, Drbg, Kind, ReadOp};
use crate::scrape::{self, Scrape};
use crate::spec::{
    EventKind, Plan, END_TO_END, EVENT_RATE, LOAD_THREADS, PAGE_LIMIT, PER_LAYER, PINNED_SEED,
    POLL_LIMIT_US, POLL_RATE, RECOVERY_REPS, RUN_SECONDS, SETUP_REPS, SLICE_S, STALL_US, TIMEOUT,
    WARMUP_S,
};
use crate::stats;
use crate::trace::{self, Trace};
use crate::world::{self, Error, TenantSync, World, WORK_ROOT};

/// A reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was seen.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// The measured window, seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// SHA-256 over the inputs (see [`World::input_digest`]).
    pub input_digest: String,
    /// Metric → value. End-to-end metrics always; per-layer metrics in a
    /// traced run.
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Per-layer metrics this workload could not measure.
    pub missing: Vec<&'static str>,
    /// Op kind → `(attempted, failed)`.
    pub ops: BTreeMap<String, (u64, u64)>,
    /// The output checks.
    pub checks: Vec<Check>,
    /// Lines for the human reader.
    pub notes: Vec<String>,
    /// What failed ops reported.
    pub failures: Vec<String>,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

impl Outcome {
    /// Ops attempted, reads and admin calls together.
    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|o| o.0).sum()
    }

    /// Ops failed.
    pub fn failed(&self) -> u64 {
        self.ops.values().map(|o| o.1).sum()
    }

    /// True when every check held and no op failed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Fills `harness.trace_overhead_pct` of this traced run from the
    /// untraced run of the same workload, seed and window: by how much the
    /// traced polling median exceeds the untraced one. One traced run
    /// alone cannot tell, so there the metric is missing.
    pub fn set_trace_overhead(&mut self, untraced: &Outcome) {
        const NAME: &str = "harness.trace_overhead_pct";
        let pct = |metric: &str| {
            let (with, without) = (self.metrics[metric].value, untraced.metrics[metric].value);
            (with - without) / without * 100.0
        };
        let (poll, visible) = (pct("poll_p50_us"), pct("update_visible_ms"));
        self.notes.push(format!(
            "traced against untraced: poll_p50_us {poll:+.1} %, update_visible_ms {visible:+.1} %"
        ));
        self.metrics.insert(NAME, Measured { value: poll, n: 2 });
        self.missing.retain(|m| *m != NAME);
    }
}

/// The request schedules of one run.
struct Schedules {
    quiet: Vec<Vec<ReadOp>>,
    event: Vec<ReadOp>,
    closed: Vec<Vec<ReadOp>>,
}

/// Extra waves a traced cluster run refreshes on the primary alone.
const LOCAL_WAVES: usize = 3;

impl Schedules {
    fn generate(plan: &Plan, seed: u64, seconds: f64) -> Schedules {
        let rng =
            |what: &str| Drbg::new(format!("tsrbench/{seed}/{}/{what}", plan.name).as_bytes());
        let per_thread = POLL_RATE / LOAD_THREADS as f64;
        Schedules {
            quiet: (0..LOAD_THREADS)
                .map(|t| {
                    schedule::open_loop(
                        &mut rng(&format!("quiet/{t}")),
                        per_thread,
                        WARMUP_S + plan.quiet_frac * seconds,
                    )
                })
                .collect(),
            event: schedule::with_canaries(
                schedule::open_loop(
                    &mut rng("event"),
                    EVENT_RATE,
                    plan.events(seconds) as f64 * plan.event_period,
                ),
                &mut rng("canaries"),
                plan.events(seconds),
                plan.event_period,
            ),
            closed: (0..LOAD_THREADS)
                .map(|t| schedule::closed_loop(&mut rng(&format!("closed/{t}")), 4096))
                .collect(),
        }
    }

    fn canonical(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for ops in self.quiet.iter().chain([&self.event]).chain(&self.closed) {
            schedule::canonical(ops, &mut out);
        }
        out
    }
}

/// One event of the event phase, as the admin thread saw it.
struct Event {
    due: Instant,
    /// `POST …/refresh` wall time, seconds.
    refresh_s: f64,
    report: Option<RefreshReportDto>,
    /// ETag and bytes of the index fetched right after the event.
    etag: String,
    index: Vec<u8>,
    /// When the admin thread held the new index (onboardings).
    admin_visible: Option<Instant>,
    sync: Option<TenantSync>,
    error: Option<String>,
}

impl Event {
    /// An event due at `due` that nothing has happened to yet.
    fn due_at(due: Instant) -> Event {
        Event {
            due,
            refresh_s: 0.0,
            report: None,
            etag: String::new(),
            index: Vec::new(),
            admin_visible: None,
            sync: None,
            error: None,
        }
    }
}

fn sleep_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

fn run_waves(world: &World, count: usize, start: Instant, client: &TsrClient) -> Vec<Event> {
    let period = Duration::from_secs_f64(world.plan.event_period);
    let repo = &world.boot.repo_id;
    (0..count)
        .map(|k| {
            let due = start + period * k as u32;
            // Copy the snapshot for every mirror before the due instant:
            // only handing the copies over is inside the timed window.
            let snapshot = &world.waves[k].snapshot;
            let staged: Vec<Vec<RepoSnapshot>> = world
                .nodes
                .iter()
                .map(|_| (0..3).map(|_| snapshot.clone()).collect())
                .collect();
            sleep_until(due);
            for (node, copies) in world.nodes.iter().zip(staged) {
                node.svc.with_mirrors(|ms| {
                    for (m, copy) in ms.iter_mut().zip(copies) {
                        m.publish(copy);
                    }
                });
            }
            let mut event = Event::due_at(due);
            let t = Instant::now();
            let result = client.refresh(repo);
            event.refresh_s = t.elapsed().as_secs_f64();
            match result.and_then(|report| Ok((report, client.index(repo)?))) {
                Ok((report, (index, etag))) => {
                    event.report = Some(report);
                    event.index = index;
                    event.etag = etag.unwrap_or_default();
                }
                Err(e) => event.error = Some(format!("wave {k}: {e}")),
            }
            event
        })
        .collect()
}

fn run_onboardings(world: &World, count: usize, start: Instant, client: &TsrClient) -> Vec<Event> {
    let period = Duration::from_secs_f64(world.plan.event_period);
    (0..count)
        .map(|k| {
            let due = start + period * k as u32;
            sleep_until(due);
            let mut event = Event::due_at(due);
            let synced = world::sync_tenant(client, client, &world.policy).and_then(|sync| {
                let (index, etag) = client.index(&sync.repo_id)?;
                Ok((sync, index, etag, Instant::now()))
            });
            match synced {
                Ok((sync, index, etag, at)) => {
                    event.refresh_s = sync.refresh_s;
                    event.report = Some(sync.report.clone());
                    event.index = index;
                    event.etag = etag.unwrap_or_default();
                    event.admin_visible = Some(at);
                    event.sync = Some(sync);
                }
                Err(e) => event.error = Some(format!("onboarding {k}: {e}")),
            }
            event
        })
        .collect()
}

/// Latencies of `samples` from their due instants, nanoseconds.
fn latencies(samples: &[Sample]) -> Vec<u64> {
    samples
        .iter()
        .map(|s| {
            if s.ok {
                s.latency_ns()
            } else {
                // A failed read misses every limit.
                s.latency_ns().max(TIMEOUT.as_nanos() as u64)
            }
        })
        .collect()
}

fn q(samples: &[u64], quantile: f64) -> f64 {
    stats::quantile(samples, quantile).unwrap_or(0) as f64
}

/// A quantile of nanosecond samples, in microseconds.
fn q_us(samples_ns: &[u64], quantile: f64) -> f64 {
    q(samples_ns, quantile) / 1e3
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Cuts `samples` into whole slices of `slice_s` seconds by due instant,
/// covering `total_s` seconds from `start`; a trailing partial slice is
/// dropped.
fn slices_of(samples: &[Sample], start: Instant, total_s: f64, slice_s: f64) -> Vec<Vec<Sample>> {
    let n = (total_s / slice_s).floor() as usize;
    let mut slices = vec![Vec::new(); n.max(1)];
    for s in samples {
        let i = (s.due.saturating_duration_since(start).as_secs_f64() / slice_s) as usize;
        if let Some(slice) = slices.get_mut(i) {
            slice.push(*s);
        }
    }
    slices
}

/// Adds the `op.*` spans of `samples` under `parent`.
fn op_spans(trace: &mut Trace, parent: u32, track: u8, next_op: &mut u64, samples: &[Sample]) {
    if !trace.is_on() {
        return;
    }
    let thread = trace.add(
        "thread",
        parent,
        track,
        0,
        samples.first().map_or(0, |s| trace.ns(s.due.min(s.sent))),
        samples.last().map_or(0, |s| trace.ns(s.done)),
    );
    for s in samples {
        *next_op += 1;
        let name = format!("op.{}", s.kind.name());
        trace.add(
            &name,
            thread,
            track,
            *next_op,
            trace.ns(s.sent),
            trace.ns(s.done),
        );
    }
}

/// One block of the closed phase under a `phase.closed` span: when it
/// started and every read of both threads.
fn closed_phase(
    trace: &mut Trace,
    root: u32,
    readers: &mut [Reader],
    ops: &[Vec<ReadOp>],
    seconds: f64,
    next_op: &mut u64,
) -> (Instant, Vec<Sample>) {
    let span = trace.begin("phase.closed", root);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for (reader, ops) in readers.iter_mut().zip(ops) {
            s.spawn(move || reader.run_closed(ops, until));
        }
    });
    trace.end(span);
    let mut all = Vec::new();
    for (t, reader) in readers.iter_mut().enumerate() {
        let samples = reader.take_samples();
        op_spans(trace, span, t as u8 + 1, next_op, &samples);
        all.extend(samples);
    }
    (start, all)
}

/// Runs `plan` once; `seed` decides the traffic.
pub fn run(plan: &'static Plan, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, Error> {
    let started = Instant::now();
    let mut trace = Trace::new(traced);
    let root = trace.begin("workload", 0);
    let mut notes = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut check = |name: &'static str, ok: bool, detail: String| {
        checks.push(Check { name, ok, detail });
    };
    let mut ops: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    let mut next_op = 0u64;

    // ---- set-up -------------------------------------------------------
    let events = plan.events(seconds);
    // A traced cluster run precomputes a few more waves, refreshed on the
    // primary alone afterwards: the commit minus that is what replication
    // costs.
    let local_waves = if traced && plan.nodes > 1 {
        LOCAL_WAVES
    } else {
        0
    };
    let setup_span = trace.begin("setup", root);
    let mut setup_s = Vec::new();
    let mut boots: Vec<(f64, f64)> = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Worlds are built one at a time: the previous one is gone
        // before the next is timed.
        drop(built.take());
        let rep = trace.begin("setup.world", setup_span);
        let t = Instant::now();
        let world = World::build(plan, events + local_waves)?;
        let schedules = Schedules::generate(plan, seed, seconds);
        setup_s.push(t.elapsed().as_secs_f64());
        trace.end(rep);
        if trace.is_on() {
            let mut at = trace.ns(t);
            for (name, secs) in [
                ("setup.generate", world.times.generate_s),
                ("setup.boot", world.times.boot_s),
                ("setup.precompute", world.times.precompute_s),
            ] {
                let end = at + (secs * 1e9) as u64;
                trace.add(name, rep, 0, 0, at, end);
                at = end;
            }
        }
        boots.push((world.boot.pkgs_per_s(), world.boot.size_overhead_pct()));
        notes.push(format!(
            "set-up: generate {:.3} s, boot {:.3} s (create {:.3} s, refresh {:.3} s of which sanitize_elapsed {:.3} s), precompute {:.3} s",
            world.times.generate_s,
            world.times.boot_s,
            world.boot.create_s,
            world.boot.refresh_s,
            world.boot.report.sanitize_elapsed_us as f64 / 1e6,
            world.times.precompute_s,
        ));
        built = Some((world, schedules));
    }
    trace.end(setup_span);
    let (mut world, schedules) = built.expect("SETUP_REPS is at least 1");
    let upstream_count = world.base_snapshot.packages.len();
    check(
        "sync_counts",
        world.boot.report.sanitized.len() + world.boot.report.rejected.len() == upstream_count,
        format!(
            "boot: {} sanitized + {} rejected of {upstream_count} upstream",
            world.boot.report.sanitized.len(),
            world.boot.report.rejected.len()
        ),
    );

    let input_digest = world.input_digest(events, &schedules.canonical());
    if seed == PINNED_SEED && seconds == RUN_SECONDS as f64 {
        match pinned_digest(plan.name) {
            Some(pinned) => check(
                "input_digest",
                pinned == input_digest,
                format!("pinned {pinned}, computed {input_digest}"),
            ),
            None => notes.push(format!("no pinned digest for {}", plan.name)),
        }
    }

    // ---- load phases ----------------------------------------------------
    let boot_tenant = world.boot.repo_id.clone();
    let target = Target {
        bases: world.bases(),
        repo: boot_tenant.clone(),
        names: world.names.clone(),
    };
    let mut readers: Vec<Reader> = (0..LOAD_THREADS)
        .map(|t| Reader::new(target.clone(), t))
        .collect();
    let admin = TsrClient::pooled(&world.nodes[world.primary].base, TIMEOUT);
    let scrape_before = if traced { scrape_node(&admin) } else { None };
    let lead = Duration::from_millis(20);

    // Warm-up and quiet phase. From here to the event phase the whole
    // process runs on one CPU.
    affinity::confine_polling(true);
    let span = trace.begin("phase.quiet", root);
    let start = Instant::now() + lead;
    let quiet_start = start + Duration::from_secs_f64(WARMUP_S);
    std::thread::scope(|s| {
        for (reader, ops) in readers.iter_mut().zip(&schedules.quiet) {
            s.spawn(move || reader.run_open(ops, start));
        }
    });
    trace.end(span);
    let (mut warmup, mut quiet): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    for (t, reader) in readers.iter_mut().enumerate() {
        let samples = reader.take_samples();
        op_spans(&mut trace, span, t as u8 + 1, &mut next_op, &samples);
        let measured = samples.partition_point(|s| s.due < quiet_start);
        warmup.extend(&samples[..measured]);
        quiet.extend(&samples[measured..]);
    }

    // Closed phase, first half. The halves lie on both sides of the event
    // phase so that a slow spell of the machine has to last for all of it
    // to reach every slice.
    let closed_block_s = plan.closed_frac() * seconds / 2.0;
    let mut closed_blocks = vec![closed_phase(
        &mut trace,
        root,
        &mut readers,
        &schedules.closed,
        closed_block_s,
        &mut next_op,
    )];

    // Event phase, on every CPU of the box: thread 0 is the admin, thread
    // 1 reads.
    affinity::confine_polling(false);
    let span = trace.begin("phase.event", root);
    let event_start = Instant::now() + lead;
    let seen_before = readers[1].etag_seen.len();
    let (event_log, event_reads) = std::thread::scope(|s| {
        let world = &world;
        let admin = &admin;
        let admin_thread = s.spawn(move || {
            affinity::sleep_exactly();
            match plan.event {
                EventKind::Wave => run_waves(world, events, event_start, admin),
                EventKind::Onboard => run_onboardings(world, events, event_start, admin),
            }
        });
        let reader = &mut readers[1];
        let ops = &schedules.event;
        let reader_thread = s.spawn(move || {
            reader.run_open(ops, event_start);
            reader.take_samples()
        });
        (
            admin_thread.join().expect("admin thread panicked"),
            reader_thread.join().expect("reader thread panicked"),
        )
    });
    trace.end(span);
    op_spans(&mut trace, span, 2, &mut next_op, &event_reads);
    if trace.is_on() {
        let admin_track = trace.add(
            "thread",
            span,
            1,
            0,
            trace.ns(event_start),
            trace.ns(Instant::now()),
        );
        for e in &event_log {
            next_op += 1;
            let end = e.due + Duration::from_secs_f64(e.refresh_s);
            trace.add(
                "op.event",
                admin_track,
                1,
                next_op,
                trace.ns(e.due),
                trace.ns(end),
            );
        }
    }

    // Closed phase, second half, on one CPU again.
    affinity::confine_polling(true);
    closed_blocks.push(closed_phase(
        &mut trace,
        root,
        &mut readers,
        &schedules.closed,
        closed_block_s,
        &mut next_op,
    ));
    affinity::confine_polling(false);
    let closed: Vec<Sample> = closed_blocks
        .iter()
        .flat_map(|b| b.1.iter().copied())
        .collect();

    // ---- what the reads and events say ----------------------------------
    let all_reads = warmup
        .iter()
        .chain(&quiet)
        .chain(&event_reads)
        .chain(&closed);
    for s in all_reads {
        let e = ops.entry(s.kind.name().to_string()).or_default();
        e.0 += 1;
        e.1 += u64::from(!s.ok);
    }
    for reader in &readers {
        failures.extend(reader.failures.iter().cloned());
    }
    let admin_kind = match plan.event {
        EventKind::Wave => "refresh",
        EventKind::Onboard => "onboard",
    };
    for e in &event_log {
        let entry = ops.entry(admin_kind.to_string()).or_default();
        entry.0 += 1;
        if let Some(err) = &e.error {
            entry.1 += 1;
            failures.push(err.clone());
        }
    }

    // Visibility and stall per event.
    let old_etags = |k: usize| -> BTreeSet<&str> {
        let mut old: BTreeSet<&str> = event_log[..k].iter().map(|e| e.etag.as_str()).collect();
        old.extend(
            readers[1].etag_seen[..seen_before]
                .iter()
                .map(|s| s.1.as_str()),
        );
        old
    };
    let mut visible_ms = Vec::new();
    let mut stall_ms = Vec::new();
    let mut invisible = 0;
    for (k, e) in event_log.iter().enumerate() {
        if e.error.is_some() {
            continue;
        }
        let visible_at = match plan.event {
            EventKind::Onboard => e.admin_visible,
            EventKind::Wave => {
                // A node shows wave k once it returns an index ETag that
                // is not one of the older ones; the wave is visible when
                // the last node does.
                let old = old_etags(k);
                (0..world.nodes.len() as u8)
                    .map(|node| {
                        readers[1].etag_seen[seen_before..]
                            .iter()
                            .find(|(n, etag, at)| {
                                *n == node && *at >= e.due && !old.contains(etag.as_str())
                            })
                            .map(|s| s.2)
                    })
                    .collect::<Option<Vec<Instant>>>()
                    .and_then(|v| v.into_iter().max())
            }
        };
        let Some(visible_at) = visible_at else {
            invisible += 1;
            continue;
        };
        visible_ms.push(visible_at.duration_since(e.due).as_secs_f64() * 1e3);
        let worst = event_reads
            .iter()
            .filter(|s| s.due >= e.due && s.due <= visible_at)
            .map(|s| s.latency_ns())
            .max();
        if let Some(worst) = worst {
            stall_ms.push(worst as f64 / 1e6);
        }
    }
    check(
        "events_visible",
        invisible == 0 && visible_ms.len() == events && stall_ms.len() == events,
        format!(
            "{} of {events} events became visible, {} have reads in their window",
            visible_ms.len(),
            stall_ms.len()
        ),
    );

    // Local-only refreshes of the extra waves, then one replicated
    // refresh so that the replicas hold the primary's state again.
    let extra_waves = world.waves.get(events..).unwrap_or(&[]);
    let mut local_refresh_ms = Vec::new();
    for wave in extra_waves {
        let primary = &world.nodes[world.primary].svc;
        primary.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &wave.snapshot));
        let t = Instant::now();
        primary.refresh(&world.boot.repo_id)?;
        local_refresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if let Some(last) = extra_waves.last() {
        world.install(&last.snapshot);
        admin.refresh(&world.boot.repo_id)?;
    }

    // ---- end state: convergence, install and attest ---------------------
    let clients: Vec<TsrClient> = world
        .nodes
        .iter()
        .map(|n| TsrClient::pooled(&n.base, TIMEOUT))
        .collect();
    let final_indexes: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| c.index(&boot_tenant).map(|(bytes, _)| bytes))
        .collect::<Result<_, _>>()?;
    check(
        "convergence",
        final_indexes.windows(2).all(|w| w[0] == w[1]),
        format!("{} node(s) serve the final index", final_indexes.len()),
    );
    let pre_kill = final_indexes[world.primary].clone();

    let last_tenant: &TenantSync = event_log
        .iter()
        .rev()
        .find_map(|e| e.sync.as_ref())
        .unwrap_or(&world.boot);
    let (install_ms, verify_ms, violations, installed) =
        install_and_attest(&world, &event_log, last_tenant, &clients[world.primary])?;
    check(
        "attestation",
        violations == 0 && installed > 0,
        format!("{installed} package(s) installed, {violations} violation(s)"),
    );

    // ---- traced: scrape, then probe (probes move the counters) ----------
    let mut layers = Layers::new();
    if traced {
        let probes_span = trace.begin("probes", root);
        let scrapes: Vec<Scrape> = clients.iter().filter_map(scrape_node).collect();
        scraped_layers(
            &world,
            scrape_before.as_ref(),
            &scrapes,
            &closed,
            event_log.len() + local_waves,
            &mut layers,
            &mut notes,
        );
        probes::offline(&mut trace, probes_span, &world, &mut layers)?;
        let primary = &world.nodes[world.primary].svc;
        probes::in_process(
            &mut trace,
            probes_span,
            primary,
            &boot_tenant,
            &world.names,
            &mut layers,
        )?;
        // Apply onto another node of the cluster, or onto a scratch
        // service of the same platform seed when there is only one node.
        let scratch;
        let onto = if world.nodes.len() > 1 {
            &world.nodes[(world.primary + 1) % world.nodes.len()].svc
        } else {
            scratch = tsr_core::TsrService::new(
                &world.platform_seed,
                Vec::new(),
                tsr_net::LatencyModel::default(),
                crate::spec::KEY_BITS,
            );
            &scratch
        };
        probes::replication(
            &mut trace,
            probes_span,
            primary,
            onto,
            &boot_tenant,
            &mut layers,
        )?;
        trace.end(probes_span);
    }

    // ---- kill and recover -----------------------------------------------
    let span = trace.begin("phase.recovery", root);
    let platform_seed = world.platform_seed.clone();
    let sanitized_bytes: u64 = event_log
        .iter()
        .filter_map(|e| e.report.as_ref())
        .chain([&world.boot.report])
        .flat_map(|r| r.sanitized.iter())
        .map(|r| r.sanitized_size as u64)
        .sum();
    drop(clients);
    drop(admin);
    for reader in &mut readers {
        reader.disconnect();
    }
    let store_dir = world.kill();
    let mut recovery_ms = Vec::new();
    let mut identical = true;
    for _ in 0..RECOVERY_REPS {
        let rep = trace.begin("op.recover", span);
        let (elapsed, bytes) = world::recover(&platform_seed, &store_dir, &boot_tenant)?;
        trace.end(rep);
        recovery_ms.push(elapsed.as_secs_f64() * 1e3);
        identical &= bytes == pre_kill;
    }
    check(
        "recovery_identity",
        identical,
        format!("{RECOVERY_REPS} recoveries against the pre-kill index"),
    );
    if traced {
        let (open_ms, disk_bytes) = probes::store_open(&store_dir)?;
        layers.insert("store.open_ms", open_ms);
        layers.insert(
            "store.disk_bytes_ratio",
            disk_bytes as f64 / sanitized_bytes.max(1) as f64,
        );
    }
    trace.end(span);

    // ---- output checks on everything the readers kept --------------------
    let span = trace.begin("checks", root);
    let mut verified: Vec<Index> = Vec::new();
    let mut bad_indexes = 0;
    let mut distinct: BTreeMap<&str, &Vec<u8>> = BTreeMap::new();
    for body in readers.iter().flat_map(|r| r.index_bodies.iter()) {
        distinct.entry(body.0.as_str()).or_insert(body.1);
    }
    for e in event_log
        .iter()
        .filter(|e| e.sync.is_none() && e.error.is_none())
    {
        distinct.entry(e.etag.as_str()).or_insert(&e.index);
    }
    for bytes in distinct.values() {
        match world::parse_index(bytes, &world.boot) {
            Ok(index) => verified.push(index),
            Err(_) => bad_indexes += 1,
        }
    }
    check(
        "index_signatures",
        bad_indexes == 0 && !verified.is_empty(),
        format!(
            "{} distinct index ETags verified, {bad_indexes} bad",
            verified.len()
        ),
    );
    let mut bad_packages = 0;
    let mut package_bodies = 0;
    for ((name, _), body) in readers.iter().flat_map(|r| r.package_bodies.iter()) {
        package_bodies += 1;
        let hash = hex::to_hex(&Sha256::digest(body));
        let pinned = verified
            .iter()
            .any(|i| i.get(name).is_some_and(|e| e.content_hash == hash));
        bad_packages += usize::from(!pinned);
    }
    check(
        "package_hashes",
        bad_packages == 0 && package_bodies > 0,
        format!("{package_bodies} distinct package bodies hashed, {bad_packages} unpinned"),
    );
    let mut bad_pages = 0;
    let mut pages = 0;
    for body in readers.iter().flat_map(|r| r.page_bodies.iter()) {
        pages += 1;
        let ok = std::str::from_utf8(body)
            .ok()
            .and_then(|t| PackagePage::decode(t).ok())
            .is_some_and(|p| {
                p.items.len() <= PAGE_LIMIT as usize
                    && p.items
                        .iter()
                        .all(|i| world.names.binary_search(&i.name).is_ok())
            });
        bad_pages += usize::from(!ok);
    }
    check(
        "pages_parse",
        bad_pages == 0 && pages > 0,
        format!("{pages} distinct pages decoded, {bad_pages} bad"),
    );
    let mut bad_events = Vec::new();
    for (k, e) in event_log
        .iter()
        .enumerate()
        .filter(|(_, e)| e.error.is_none())
    {
        match (&e.sync, plan.event) {
            (Some(sync), _) => {
                let r = &sync.report;
                let served = world::parse_index(&e.index, sync)
                    .map(|i| i.len())
                    .unwrap_or(0);
                if r.sanitized.len() + r.rejected.len() != upstream_count
                    || served != r.sanitized.len()
                {
                    bad_events.push(k);
                }
            }
            (None, _) => {
                let carried = world::parse_index(&e.index, &world.boot).is_ok_and(|index| {
                    world.waves[k].bumped.iter().all(|(name, version)| {
                        world.names.binary_search(name).is_err()
                            || index.get(name).is_some_and(|e| &e.version == version)
                    })
                });
                if !carried {
                    bad_events.push(k);
                }
            }
        }
    }
    check(
        "event_contents",
        bad_events.is_empty(),
        format!(
            "{} event indexes checked, bad: {bad_events:?}",
            event_log.len()
        ),
    );
    trace.end(span);
    trace.end(root);

    // ---- metrics ----------------------------------------------------------
    let mut metrics: BTreeMap<&'static str, Measured> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, n: usize| {
        metrics.insert(name, Measured { value, n });
    };
    let quiet_lat = latencies(&quiet);
    let onboard_reports: Vec<RefreshReportDto> = event_log
        .iter()
        .filter_map(|e| e.sync.as_ref().map(|s| s.report.clone()))
        .collect();
    // Cold syncs: the onboardings where the workload has them, else the
    // first sync of every set-up repetition.
    let (sync_rates, overhead): (Vec<f64>, f64) = if onboard_reports.is_empty() {
        (
            boots.iter().map(|b| b.0).collect(),
            boots[boots.len() - 1].1,
        )
    } else {
        (
            event_log
                .iter()
                .filter_map(|e| e.sync.as_ref().map(TenantSync::pkgs_per_s))
                .collect(),
            world::size_overhead_pct(&onboard_reports),
        )
    };
    // How the repetitions of one run become one value: the median, of the
    // set-ups, cold syncs, events and recoveries, and of the half-second
    // slices the closed phase is cut into (per slice: median, p99, rate).
    // A disturbance has to reach half the repetitions to move a value, and
    // so does a regression.
    let slice_s = SLICE_S.min(closed_block_s);
    let closed_slices: Vec<Vec<Sample>> = closed_blocks
        .iter()
        .flat_map(|(start, samples)| slices_of(samples, *start, closed_block_s, slice_s))
        .collect();
    let sliced_reads: usize = closed_slices.iter().map(Vec::len).sum();
    let per_slice = |quantile: f64| -> Vec<f64> {
        closed_slices
            .iter()
            .map(|slice| q_us(&latencies(slice), quantile))
            .collect()
    };
    let (slice_p50, slice_p99) = (per_slice(0.5), per_slice(0.99));
    let slice_rps: Vec<f64> = closed_slices
        .iter()
        .map(|slice| slice.iter().filter(|s| s.ok).count() as f64 / slice_s)
        .collect();
    put("setup_s", med(&setup_s), setup_s.len());
    put("poll_p50_us", med(&slice_p50), sliced_reads);
    put("poll_rps", med(&slice_rps), sliced_reads);
    put("sync_pkgs_per_s", med(&sync_rates), sync_rates.len());
    put("size_overhead_pct", overhead, sync_rates.len());
    put("recovery_ms", med(&recovery_ms), recovery_ms.len());
    put("update_visible_ms", med(&visible_ms), visible_ms.len());
    let placement = affinity::conditions();
    notes.push(format!(
        "placement: {} CPU(s), {} refresh worker(s) and an HTTP pool of {} by the program's defaults; polling phases confined to one CPU: {}; idle spinners: {}",
        placement.nproc,
        tsr_core::default_workers(),
        tsr_http::default_pool_size(),
        placement.placed,
        placement.spinners,
    ));
    notes.push(format!(
        "closed phase: {} slices of {slice_s} s, {} reads in the median slice",
        closed_slices.len(),
        med(&closed_slices
            .iter()
            .map(|s| s.len() as f64)
            .collect::<Vec<_>>()),
    ));
    for (name, unit, values) in [
        ("set-ups", "s", &setup_s),
        ("cold syncs", "pkg/s", &sync_rates),
        ("recoveries", "ms", &recovery_ms),
        ("events visible after", "ms", &visible_ms),
        ("worst read per event", "ms", &stall_ms),
        ("closed phase p50 per slice", "us", &slice_p50),
        ("closed phase p99 per slice", "us", &slice_p99),
        ("closed phase rate per slice", "1/s", &slice_rps),
    ] {
        notes.push(format!("{name}: {values:.1?} {unit}"));
    }
    let (tail, tail_q) = stats::tail_percentile(quiet_lat.len());
    if !quiet_lat.is_empty() {
        notes.push(format!(
        "quiet phase (open loop, {POLL_RATE} req/s): n={} p50={:.0}us {tail}={:.0}us (highest percentile with >=10 samples beyond), limit {POLL_LIMIT_US}us",
        quiet_lat.len(),
        q_us(&quiet_lat, 0.5),
        q_us(&quiet_lat, tail_q),
    ));
    }
    for (k, e) in event_log.iter().enumerate() {
        if let Some(r) = &e.report {
            let sanitize_ms = r.sanitize_elapsed_us as f64 / 1e3;
            notes.push(format!(
                "event {k}: refresh wall {:.1} ms = sanitize_elapsed {sanitize_ms:.1} ms + unattributed {:.1} ms ({} sanitized)",
                e.refresh_s * 1e3,
                e.refresh_s * 1e3 - sanitize_ms,
                r.sanitized.len(),
            ));
        }
    }

    let mut missing = Vec::new();
    if traced {
        let spans = trace.spans();
        let gap = trace::main_track_gap(spans, root);
        check(
            "self_time",
            gap < 0.02,
            format!(
                "main-thread self times are within {:.3}% of the workload's wall time",
                gap * 100.0
            ),
        );
        layers.insert("wave.stall_ms", med(&stall_ms));
        run_layers(
            plan,
            &world,
            &event_log,
            &quiet,
            &event_reads,
            &closed,
            &local_refresh_ms,
            (install_ms, verify_ms, violations),
            spans.len(),
            gap,
            &mut layers,
        );
        for (name, us, count) in trace::self_time_by_name(spans).into_iter().take(12) {
            notes.push(format!(
                "self time {name}: {:.1} ms over {count} span(s)",
                us / 1e3
            ));
        }
        let path = std::path::Path::new(WORK_ROOT).join(format!("trace-{}.json", plan.name));
        std::fs::write(&path, trace.to_json())?;
        notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        for spec in &PER_LAYER {
            match layers.get(spec.name) {
                Some(v) => put(spec.name, *v, 1),
                None => {
                    missing.push(spec.name);
                    put(spec.name, 0.0, 0);
                }
            }
        }
    }
    debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));

    Ok(Outcome {
        workload: plan.name,
        seed,
        seconds,
        traced,
        input_digest,
        metrics,
        missing,
        ops,
        checks,
        notes,
        failures,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// The digest pinned for `workload` in `PINNED.json`, if any.
pub fn pinned_digest(workload: &str) -> Option<String> {
    let json = Json::parse(include_str!("../PINNED.json")).ok()?;
    Some(
        json.get("input_digests")?
            .get(workload)?
            .as_str()?
            .to_string(),
    )
}

fn scrape_node(client: &TsrClient) -> Option<Scrape> {
    client
        .get_text("/v1/metrics?format=prometheus")
        .ok()
        .map(|(text, _)| Scrape::parse(&text))
}

/// Installs packages fetched over HTTP into a freshly booted
/// integrity-enforced OS and attests it to a monitor: the updated
/// packages of the waves, or the first five packages of `tenant` when
/// there were none. Returns `(median install ms, verify ms, violations,
/// packages installed)`.
fn install_and_attest(
    world: &World,
    events: &[Event],
    tenant: &TenantSync,
    client: &TsrClient,
) -> Result<(f64, f64, usize, usize), Error> {
    let (signed, _) = client.index(&tenant.repo_id)?;
    let index = world::parse_index(&signed, tenant)?;
    let mut wanted: BTreeSet<String> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.sync.is_none())
        .flat_map(|(k, _)| world.waves[k].bumped.iter().map(|b| b.0.clone()))
        .filter(|name| index.get(name).is_some())
        .collect();
    if wanted.is_empty() {
        wanted = index.iter().take(5).map(|e| e.name.clone()).collect();
    }

    let mut os = TrustedOs::boot(b"tsrbench-os", &world::init_configs());
    os.trust_key(format!("tsr-{}", tenant.repo_id), tenant.key.clone());
    let mut monitor = Monitor::new();
    monitor.whitelist_log(os.ima.log());
    monitor.trust_signer(tenant.key.clone());

    let mut install_ms = Vec::new();
    for name in &wanted {
        let blob = client.package(&tenant.repo_id, name)?;
        let t = Instant::now();
        os.install(&blob)?;
        install_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let nonce = b"tsrbench-nonce";
    let evidence = os.attest(nonce);
    let t = Instant::now();
    let verdict = monitor.verify(&evidence, os.tpm.attestation_key(), nonce);
    let verify_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        med(&install_ms),
        verify_ms,
        verdict.violations.len(),
        wanted.len(),
    ))
}

const INDEX_ROUTE: &str = "GET /v1/repositories/:id/index";
const PACKAGE_ROUTE: &str = "GET /v1/repositories/:id/packages/:name";

/// The per-layer metrics read from the program's own exposition and
/// access log. Series the program does not emit stay out of `out` and
/// are reported as missing.
#[allow(clippy::too_many_arguments)]
fn scraped_layers(
    world: &World,
    before: Option<&Scrape>,
    after: &[Scrape],
    closed: &[Sample],
    refreshes: usize,
    out: &mut Layers,
    notes: &mut Vec<String>,
) {
    let sum = |f: &dyn Fn(&Scrape) -> Option<f64>| -> Option<f64> {
        let values: Vec<f64> = after.iter().filter_map(f).collect();
        (!values.is_empty()).then(|| values.iter().sum())
    };
    let hits = sum(&|s| {
        Some(s.event("index_hot_blob_hits")? + s.event("package_hot_blob_hits").unwrap_or(0.0))
    });
    let gets: f64 = after
        .iter()
        .map(|s| s.requests_ok(|r| r == INDEX_ROUTE || r == PACKAGE_ROUTE))
        .sum();
    if let Some(hits) = hits.filter(|_| gets > 0.0) {
        out.insert("service.hot_blob_hit_ratio", hits / gets);
    }
    let primary = after.get(world.primary);
    if let Some(s) = primary {
        const DURATION: &str = "tsr_http_request_duration_us";
        let labels = [("route", INDEX_ROUTE)];
        if let Some(p50) = s.histogram_quantile(DURATION, &labels, 0.5) {
            out.insert("http.server_p50_us", p50);
            let client: Vec<u64> = closed
                .iter()
                .filter(|s| s.ok && s.kind == Kind::IndexGet)
                .map(Sample::latency_ns)
                .collect();
            out.insert("http.transport_us", q_us(&client, 0.5) - p50);
            notes.push(format!(
                "index route: client p50 {:.0} us (closed loop) = server histogram p50 {p50:.0} us + transport {:.0} us",
                q_us(&client, 0.5),
                q_us(&client, 0.5) - p50
            ));
        }
        if let Some(p99) = s.histogram_quantile(DURATION, &labels, 0.99) {
            out.insert("http.server_p99_us", p99);
        }
        for (metric, class) in [
            ("http.queue_peak_serve", "serve"),
            ("http.queue_peak_bulk", "bulk"),
        ] {
            if let Some(v) = s.value("tsr_http_worker_queue_depth_peak", &[("class", class)]) {
                out.insert(metric, v);
            }
        }
        if let Some(v) = s.value("tsr_http_requests_in_flight_peak", &[]) {
            out.insert("http.in_flight_peak", v);
        }
        for (metric, event) in [
            ("store.wal_appends_per_refresh", "wal_appends"),
            ("store.wal_bytes_per_refresh", "wal_bytes"),
        ] {
            let delta = s
                .event(event)
                .zip(before.and_then(|b| b.event(event)))
                .map(|(a, b)| a - b);
            if let Some(delta) = delta {
                out.insert(metric, delta / refreshes.max(1) as f64);
            }
        }
    }
    out.insert("http.pool_size", tsr_http::default_pool_size() as f64);
    out.insert("repository.workers", tsr_core::default_workers() as f64);

    if let Some(path) = world.nodes.first().and_then(|n| n.access_log.as_ref()) {
        match scrape::read_access_log(path) {
            Ok(log) if log.lines > 0 => {
                out.insert(
                    "obs.access_log_bytes_per_req",
                    log.file_bytes as f64 / log.lines as f64,
                );
                if let Some(p50) = log.route_p50_us.get(INDEX_ROUTE) {
                    out.insert("obs.access_log_p50_us", *p50);
                }
            }
            Ok(_) => notes.push("access log is empty".into()),
            Err(e) => notes.push(format!("access log unreadable: {e}")),
        }
    }
}

/// The per-layer metrics computed from what the run itself recorded.
#[allow(clippy::too_many_arguments)]
fn run_layers(
    plan: &Plan,
    world: &World,
    events: &[Event],
    quiet: &[Sample],
    event_reads: &[Sample],
    closed: &[Sample],
    local_refresh_ms: &[f64],
    (install_ms, verify_ms, violations): (f64, f64, usize),
    spans: usize,
    gap: f64,
    out: &mut Layers,
) {
    // Sanitizer phases: per cold sync, summed over its packages.
    let cold: Vec<&RefreshReportDto> = match plan.event {
        EventKind::Onboard => events.iter().filter_map(|e| e.report.as_ref()).collect(),
        EventKind::Wave => vec![&world.boot.report],
    };
    let phase_ms = |f: &dyn Fn(&tsr_wire::PhaseTimingsDto) -> u64| -> f64 {
        let sums: Vec<f64> = cold
            .iter()
            .map(|r| r.sanitized.iter().map(|s| f(&s.timings)).sum::<u64>() as f64 / 1e3)
            .collect();
        med(&sums)
    };
    out.insert(
        "sanitizer.check_integrity_ms",
        phase_ms(&|t| t.check_integrity_us),
    );
    out.insert("sanitizer.unpack_ms", phase_ms(&|t| t.unpack_us));
    out.insert(
        "sanitizer.modify_scripts_ms",
        phase_ms(&|t| t.modify_scripts_us),
    );
    out.insert(
        "sanitizer.generate_signatures_ms",
        phase_ms(&|t| t.generate_signatures_us),
    );
    out.insert("sanitizer.repack_ms", phase_ms(&|t| t.repack_us));
    let per_pkg: Vec<u64> = cold
        .iter()
        .flat_map(|r| r.sanitized.iter())
        .map(|s| {
            let t = &s.timings;
            t.check_integrity_us
                + t.unpack_us
                + t.modify_scripts_us
                + t.generate_signatures_us
                + t.repack_us
        })
        .collect();
    out.insert("sanitizer.pkg_p50_us", q(&per_pkg, 0.5));
    out.insert("sanitizer.pkg_p95_us", q(&per_pkg, 0.95));
    if let Some(first) = cold.first() {
        out.insert("sanitizer.packages", first.sanitized.len() as f64);
        out.insert("sanitizer.rejected", first.rejected.len() as f64);
    }

    // Repository: the create / refresh calls as the client timed them.
    let syncs: Vec<&TenantSync> = match plan.event {
        EventKind::Onboard => events.iter().filter_map(|e| e.sync.as_ref()).collect(),
        EventKind::Wave => vec![&world.boot],
    };
    let create: Vec<f64> = syncs.iter().map(|s| s.create_s * 1e3).collect();
    let cold_ms: Vec<f64> = syncs.iter().map(|s| s.refresh_s * 1e3).collect();
    out.insert("repository.create_ms", med(&create));
    out.insert("repository.refresh_cold_ms", med(&cold_ms));
    if plan.event == EventKind::Wave {
        let waves: Vec<(f64, f64)> = events
            .iter()
            .filter_map(|e| {
                let r = e.report.as_ref()?;
                Some((e.refresh_s * 1e3, r.sanitize_elapsed_us as f64 / 1e3))
            })
            .collect();
        let wall: Vec<f64> = waves.iter().map(|w| w.0).collect();
        let unattributed: Vec<f64> = waves.iter().map(|w| w.0 - w.1).collect();
        out.insert("repository.unattributed_ms", med(&unattributed));
        if plan.nodes > 1 {
            // On a cluster the client's refresh is the quorum commit; the
            // local refresh alone is what the extra waves measured.
            out.insert("cluster.commit_ms", med(&wall));
            if !local_refresh_ms.is_empty() {
                out.insert("repository.refresh_incr_ms", med(local_refresh_ms));
                out.insert(
                    "cluster.replication_overhead_ms",
                    med(&wall) - med(local_refresh_ms),
                );
            }
        } else {
            out.insert("repository.refresh_incr_ms", med(&wall));
        }
    }
    if plan.nodes > 1 {
        let by_node = |primary: bool| -> Vec<u64> {
            quiet
                .iter()
                .chain(event_reads)
                .filter(|s| s.ok && (s.node as usize == world.primary) == primary)
                .map(Sample::latency_ns)
                .collect()
        };
        out.insert("cluster.primary_read_p50_us", q_us(&by_node(true), 0.5));
        out.insert("cluster.replica_read_p50_us", q_us(&by_node(false), 0.5));
    }

    out.insert("pkgmgr.install_ms", install_ms);
    out.insert("monitor.verify_ms", verify_ms);
    out.insert("monitor.violations", violations as f64);

    // Only a workload with a quiet phase has the open-loop polling numbers.
    let quiet_lat = latencies(quiet);
    if !quiet_lat.is_empty() {
        let over = quiet_lat
            .iter()
            .filter(|l| **l > POLL_LIMIT_US * 1000)
            .count();
        out.insert("poll.open_p50_us", q_us(&quiet_lat, 0.5));
        out.insert("poll.open_p95_us", q_us(&quiet_lat, 0.95));
        out.insert("poll.open_p99_us", q_us(&quiet_lat, 0.99));
        out.insert("poll.open_p999_us", q_us(&quiet_lat, 0.999));
        out.insert(
            "poll.open_over_limit_pct",
            over as f64 / quiet_lat.len() as f64 * 100.0,
        );
        out.insert("poll.open_samples", quiet_lat.len() as f64);
    }
    let closed_lat = latencies(closed);
    out.insert("poll.closed_p99_us", q_us(&closed_lat, 0.99));
    let wave_lat = latencies(event_reads);
    let stalled = wave_lat.iter().filter(|l| **l > STALL_US * 1000).count();
    out.insert("wave.read_p50_us", q_us(&wave_lat, 0.5));
    out.insert("wave.read_p99_us", q_us(&wave_lat, 0.99));
    out.insert(
        "wave.stalled_reads_pct",
        stalled as f64 / wave_lat.len().max(1) as f64 * 100.0,
    );
    out.insert("wave.events", events.len() as f64);
    for (metric, kind) in [
        ("client.index_p50_us", Kind::IndexGet),
        ("client.package_p50_us", Kind::Package),
        ("client.page_p50_us", Kind::Page),
        ("client.health_p50_us", Kind::Health),
    ] {
        let lat: Vec<u64> = closed
            .iter()
            .filter(|s| s.ok && s.kind == kind)
            .map(Sample::latency_ns)
            .collect();
        out.insert(metric, q_us(&lat, 0.5));
    }

    out.insert("setup.generate_s", world.times.generate_s);
    out.insert("setup.boot_s", world.times.boot_s);
    out.insert("setup.precompute_s", world.times.precompute_s);
    let late: Vec<u64> = quiet
        .iter()
        .chain(event_reads)
        .map(Sample::late_ns)
        .collect();
    out.insert("harness.late_p50_us", q_us(&late, 0.5));
    out.insert("harness.late_p99_us", q_us(&late, 0.99));
    out.insert("harness.spans", spans as f64);
    out.insert("harness.self_time_gap_pct", gap * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_due(start: Instant, at_s: f64) -> Sample {
        let due = start + Duration::from_secs_f64(at_s);
        Sample {
            due,
            sent: due,
            done: due + Duration::from_micros(50),
            kind: Kind::Health,
            node: 0,
            ok: true,
        }
    }

    #[test]
    fn slices_are_whole_and_a_short_block_is_one_slice() {
        let start = Instant::now();
        let samples: Vec<Sample> = [0.1, 0.4, 0.6, 0.9, 1.2]
            .iter()
            .map(|at| sample_due(start, *at))
            .collect();
        // 1.3 s in slices of 0.5 s: two whole slices, the rest is dropped.
        let counts = |total: f64, slice: f64| -> Vec<usize> {
            slices_of(&samples, start, total, slice)
                .iter()
                .map(Vec::len)
                .collect()
        };
        assert_eq!(counts(1.3, 0.5), [2, 2]);
        // A block shorter than a slice is cut at its own length.
        assert_eq!(counts(0.45, SLICE_S.min(0.45)), [2]);
    }
}
