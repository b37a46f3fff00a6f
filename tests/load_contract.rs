//! The load-contract tier: what a `/v1` server under load owes clients
//! and operator, over real sockets and the product API alone, no clocks.
//!
//! 1. **Steady-state cleanliness and observability** — a closed loop of
//!    keep-alive clients sees zero errors and mostly 304s; the Prometheus
//!    scrape parses, its histograms cohere and it counts every request
//!    exactly once; every access-log line strict-parses with a unique id.
//! 2. **Index lock bypass** — a full index GET answers 200 with the
//!    published ETag, and a conditional one `304 Not Modified`, from the
//!    serve cache while the repository shard lock is *held by someone
//!    else* since the refresh, proven by `index_hot_blob_hits` and
//!    `index_not_modified_lock_free`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tsr::core::{ApiOptions, MirrorRef, Policy, TsrService};
use tsr::mirror::{publish_to_all, Mirror};
use tsr::net::{Continent, LatencyModel};
use tsr::wire::{AccessLogLine, IndexFetch, TsrClient, WireDto, WireError};
use tsr::workload::{GeneratedRepo, WorkloadConfig};
use tsr_obs::Exposition;
use tsr_store::DirBackend;

const TIMEOUT: Duration = Duration::from_secs(10);
/// Closed-loop shape; a pass is `OPS` requests, `CONDS` of them conditional.
const CLIENTS: u64 = 3;
const ROUNDS: u64 = 12;
const OPS: u64 = 7;
const CONDS: u64 = 3;

/// One refreshed tenant on a durable store behind a loopback server, logged.
struct World {
    svc: TsrService,
    server: tsr::http::Server,
    base: String,
    repo_id: String,
    access_log: PathBuf,
}

fn start(tag: &str) -> World {
    let seed = tag.as_bytes();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("load-contract-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let upstream = GeneratedRepo::generate(WorkloadConfig::tiny(seed));
    let mut mirrors: Vec<Mirror> = (0..3)
        .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
        .collect();
    publish_to_all(&mut mirrors, &upstream.snapshot());
    let policy = Policy {
        mirrors: mirrors
            .iter()
            .map(|m| MirrorRef {
                hostname: m.name.clone(),
                continent: m.continent,
            })
            .collect(),
        signers_keys: vec![upstream.signing_key.public_key().clone()],
        init_config_files: Vec::new(),
        f: 1,
        package_whitelist: Vec::new(),
        package_blacklist: Vec::new(),
    };
    let store = Box::new(DirBackend::new(dir.join("store")).expect("open store dir"));
    let booted = TsrService::with_store(seed, mirrors, LatencyModel::default(), 1024, store);
    let (svc, _recovery) = booted.expect("store-backed service");
    let (repo_id, _pem) = svc.create_repository(&policy.to_text()).expect("create");
    svc.refresh(&repo_id).expect("initial refresh");
    let access_log = dir.join("access.jsonl");
    let options = ApiOptions {
        workers: 3,
        rate_limit: None,
        access_log: Some(access_log.clone()),
        ..ApiOptions::default()
    };
    let bound = svc.serve_with_options("127.0.0.1:0", options);
    let server = bound.expect("bind loopback");
    let base = format!("http://{}", server.local_addr());
    World {
        svc,
        server,
        base,
        repo_id,
        access_log,
    }
}

/// One keep-alive client walking the fixed op list (`OPS` requests, `CONDS`
/// of them conditional GETs) `ROUNDS` times; client 0 also refreshes once
/// mid-run. Any error panics. Returns the conditional GETs answered 304.
fn closed_loop(base: &str, id: &str, names: &[String], c: u64) -> u64 {
    let client = TsrClient::pooled(base, TIMEOUT);
    let mut hits = 0;
    for round in 0..ROUNDS {
        client.health().expect("health");
        let (_bytes, etag) = client.index(id).expect("index");
        let mut etag = etag.expect("index responses carry an ETag");
        for _ in 0..CONDS {
            match client.index_if_none_match(id, &etag).expect("cond index") {
                IndexFetch::NotModified => hits += 1,
                IndexFetch::Fresh { etag: fresh, .. } => etag = fresh.expect("etag"),
            }
        }
        let name = &names[(round * CLIENTS + c) as usize % names.len()];
        client.package(id, name).expect("package");
        client.packages(id, round % 4, 5).expect("page");
        if c == 0 && round == ROUNDS / 2 {
            client.refresh(id).expect("refresh under load");
        }
    }
    hits
}

#[test]
fn steady_load_over_sockets_is_error_free_and_cache_friendly() {
    let world = start("steady");
    let (base, id) = (world.base.as_str(), world.repo_id.as_str());
    let admin = TsrClient::with_timeout(base, TIMEOUT);
    let page = admin.packages(id, 0, 100).expect("package names");
    let names: Vec<String> = page.items.into_iter().map(|e| e.name).collect();
    let names = names.as_slice();
    let hits: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || closed_loop(base, id, names, c)))
            .collect();
        clients.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let conds = CLIENTS * ROUNDS * CONDS;
    assert!(hits * 10 >= conds * 6, "304s: {hits} of {conds}");
    // One deliberate miss, so error responses are on the books too.
    let missing = admin.package(id, "no-such-package");
    assert!(matches!(missing, Err(WireError::Api { status: 404, .. })));
    // Name page + closed loop + the one refresh + the 404.
    let sent = 1 + CLIENTS * ROUNDS * OPS + 1 + 1;
    let scrape = admin.get_text("/v1/metrics?format=prometheus");
    let (text, content_type) = scrape.expect("prometheus scrape");
    assert!(content_type.starts_with("text/plain; version=0.0.4"));
    let expo = Exposition::parse(&text).expect("exposition parses");
    expo.validate_histograms().expect("coherent histograms");
    assert!(expo.families.contains_key("tsr_core_events_total"));
    assert!(expo.sample("tsr_http_requests_in_flight_peak", &[]) >= Some(1.0));
    let queue_peaks = &expo.families["tsr_http_worker_queue_depth_peak"].samples;
    assert!(queue_peaks.iter().any(|s| s.label("class").is_some()));
    const DURATION: &str = "tsr_http_request_duration_us";
    let counts = expo.families[DURATION].samples.iter();
    let mut timed = 0.0;
    for s in counts.filter(|s| s.name == format!("{DURATION}_count") && s.value > 0.0) {
        let route = [("route", s.label("route").expect("route label"))];
        let quantile = |q| expo.histogram_quantile(DURATION, &route, q);
        let (p50, p99) = (quantile(0.50), quantile(0.99));
        assert!(p50.is_some() && p99.is_some(), "{route:?}: {p50:?} {p99:?}");
        timed += s.value;
    }
    let counted = &expo.families["tsr_http_requests_total"].samples;
    let counted: f64 = counted.iter().map(|s| s.value).sum();
    assert_eq!(timed, counted, "every counted request is timed: {text}");
    assert_eq!(counted, sent as f64, "every request is counted once");
    world.server.shutdown();
    let log = std::fs::read_to_string(&world.access_log).expect("access log");
    let mut ids = HashSet::new();
    for line in log.lines() {
        let parsed = AccessLogLine::decode(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(!parsed.request_id.is_empty(), "empty request-id: {line}");
        assert!(ids.insert(parsed.request_id), "duplicate id: {line}");
    }
    assert_eq!(ids.len() as u64, sent + 1, "one line per request + scrape");
}

#[test]
fn not_modified_is_served_without_repository_locks() {
    let world = start("lock-bypass");
    let client = tsr_wire::TsrClient::with_timeout(&world.base, Duration::from_secs(5));

    // Occupy the repository shard lock on another thread right after the
    // refresh, before any read, holding it until told to release — any
    // code path that needs the shard lock now blocks.
    let (hold_tx, hold_rx) = std::sync::mpsc::channel::<()>();
    let (held_tx, held_rx) = std::sync::mpsc::channel::<String>();
    let svc = world.svc.clone();
    let repo_id = world.repo_id.clone();
    let holder = std::thread::spawn(move || {
        svc.with_repository(&repo_id, |repo| {
            let published = repo.signed_index_etag().expect("refreshed").to_string();
            held_tx.send(published).expect("signal lock held");
            hold_rx.recv().expect("wait for release");
        })
        .expect("repository exists");
    });
    let published = held_rx.recv().expect("lock is held");

    // Both GETs must complete (well before the 5 s client timeout) even
    // though the shard lock is held: the refresh published the signed
    // index, bytes and ETag, to the serve cache.
    let hot_hits = world.svc.event_counter("index_hot_blob_hits");
    let (bytes, etag) = client
        .index(&world.repo_id)
        .expect("full GET while shard lock is held");
    assert_eq!(etag.as_deref(), Some(published.as_str()), "published ETag");
    assert_eq!(hot_hits.get(), 1, "the full GET is a hot hit");
    let lock_free = world.svc.event_counter("index_not_modified_lock_free");
    let before = lock_free.get();
    let fetch = client
        .index_if_none_match(&world.repo_id, &published)
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
    let index = world.svc.fetch_index(&world.repo_id).expect("signed index");
    assert_eq!(bytes, index, "the published bytes are the repository's");

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
    world.server.shutdown();
}
