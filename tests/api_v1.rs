//! Integration tier for the versioned REST API: the apk-layout read
//! routes against their `/v1` rows over real loopback HTTP, the stable
//! error-status contract, the typed [`TsrClient`] SDK flow, the two
//! metric views, and the middleware stack (rate limiting, request ids)
//! as mounted by the service.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use tsr::apk::{Index, PackageBuilder};
use tsr::archive::Entry;
use tsr::core::{ApiOptions, TsrService};
use tsr::crypto::drbg::HmacDrbg;
use tsr::crypto::{RsaPrivateKey, RsaPublicKey};
use tsr::mirror::{publish_to_all, Behavior, Mirror, RepoSnapshot};
use tsr::net::{Continent, LatencyModel};
use tsr::wire::dto::MetricsDto;
use tsr::wire::{ErrorEnvelope, IndexFetch, TsrClient, WireDto, WireError};
use tsr_obs::Exposition;

fn upstream_key() -> &'static RsaPrivateKey {
    static K: OnceLock<RsaPrivateKey> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"api-v1-upstream");
        RsaPrivateKey::generate(1024, &mut rng)
    })
}

fn policy_text() -> String {
    let pem: String = upstream_key()
        .public_key()
        .to_pem()
        .lines()
        .map(|l| format!("      {l}\n"))
        .collect();
    format!(
        "mirrors:\n\
         \x20 - hostname: m0\n\
         \x20   continent: europe\n\
         \x20 - hostname: m1\n\
         \x20   continent: europe\n\
         \x20 - hostname: m2\n\
         \x20   continent: europe\n\
         signers_keys:\n\
         \x20 - |-\n{pem}\
         f: 1\n"
    )
}

fn snapshot(id: u64, names: &[&str]) -> RepoSnapshot {
    let mut index = Index::new();
    index.snapshot = id;
    let mut packages = BTreeMap::new();
    for name in names {
        let mut b = PackageBuilder::new(*name, "1.0");
        b.file(Entry::file(
            format!("usr/bin/{name}"),
            name.as_bytes().to_vec(),
        ));
        let blob = b.build(upstream_key(), "builder");
        index.upsert(Index::entry_for_blob(name, "1.0", &[], &blob));
        packages.insert(name.to_string(), blob);
    }
    RepoSnapshot {
        snapshot_id: id,
        signed_index: index.sign(upstream_key(), "builder"),
        packages,
    }
}

fn mirrors(names: &[&str]) -> Vec<Mirror> {
    let mut ms: Vec<Mirror> = (0..3)
        .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
        .collect();
    publish_to_all(&mut ms, &snapshot(1, names));
    ms
}

fn service(seed: &[u8], names: &[&str]) -> TsrService {
    TsrService::new(seed, mirrors(names), LatencyModel::default(), 1024)
}

/// The two apk-layout read routes a package manager uses are rows of
/// the one route table: same handlers as their `/v1` rows, so the same
/// bytes, ETags and 304s. Nothing else is routed outside `/v1`.
#[test]
fn apk_layout_routes_are_the_v1_handlers() {
    let svc = service(b"parity", &["tool"]);
    let server = svc.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.local_addr());
    let http = tsr::http::Client::new();
    let sdk = TsrClient::new(&base);

    let id = sdk.create_repository(&policy_text()).unwrap().id;
    sdk.refresh(&id).unwrap();
    let repo_url = format!("{base}/repositories/{id}");

    // index — identical bytes and ETag, and the ETag revalidates.
    let (v1_index, v1_etag) = sdk.index(&id).unwrap();
    let apk_index = http.get(&format!("{repo_url}/APKINDEX")).unwrap();
    assert_eq!(apk_index.status, 200);
    assert_eq!(apk_index.body, v1_index);
    assert_eq!(apk_index.headers.get("etag"), v1_etag.as_ref());
    let revalidate = [("if-none-match", v1_etag.as_deref().unwrap())];
    let apk_cond = http
        .request("GET", &format!("{repo_url}/APKINDEX"), &[], &revalidate)
        .unwrap();
    assert_eq!(apk_cond.status, 304);

    // package — identical bytes.
    let apk_pkg = http.get(&format!("{repo_url}/packages/tool")).unwrap();
    assert_eq!(apk_pkg.status, 200);
    assert!(apk_pkg.headers.contains_key("etag"));
    assert_eq!(apk_pkg.body, sdk.package(&id, "tool").unwrap());

    // The administrative operations exist under /v1 only.
    for (method, path) in [
        ("POST", "/repositories".to_string()),
        ("POST", format!("/repositories/{id}/refresh")),
        ("GET", "/attestation/6e6f6e6365".to_string()),
    ] {
        let resp = http
            .request(method, &format!("{base}{path}"), &[], &[])
            .unwrap();
        assert_eq!(resp.status, 404, "{method} {path}");
    }

    server.shutdown();
}

/// One error shape everywhere: unknown routes, wrong methods and
/// failures on the apk-layout routes all answer with the JSON envelope.
#[test]
fn every_error_is_the_json_envelope() {
    let svc = service(b"one-envelope", &["tool"]);
    let (id, _) = svc.create_repository(&policy_text()).unwrap();
    svc.refresh(&id).unwrap();
    let code_of = |method: &str, path: &str, status: u16| {
        let resp = svc.handle(&request(method, path, b""));
        assert_eq!(resp.status, status, "{method} {path}");
        let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
        (env.code, resp.headers.get("allow").cloned())
    };

    // Unknown route, inside /v1 or not.
    assert_eq!(code_of("GET", "/bogus", 404).0, "not_found");
    assert_eq!(code_of("GET", "/v1/bogus", 404).0, "not_found");

    // Unknown repository / package on the apk-layout routes.
    assert_eq!(
        code_of("GET", "/repositories/nope/APKINDEX", 404).0,
        "not_found"
    );
    assert_eq!(
        code_of("GET", "/repositories/nope/packages/x", 404).0,
        "not_found"
    );
    let ghost = format!("/repositories/{id}/packages/ghost");
    assert_eq!(code_of("GET", &ghost, 404).0, "not_found");

    // Wrong method on a known path → 405 with Allow, there too.
    let (code, allow) = code_of("POST", &format!("/repositories/{id}/APKINDEX"), 405);
    assert_eq!(code, "method_not_allowed");
    assert_eq!(allow.as_deref(), Some("GET"));

    // Bad attestation nonce.
    assert_eq!(code_of("GET", "/v1/attestation/zz", 400).0, "invalid_nonce");
}

fn request(method: &str, path: &str, body: &[u8]) -> tsr::http::Request {
    tsr::http::Request {
        method: method.into(),
        path: path.into(),
        headers: Default::default(),
        body: body.to_vec(),
    }
}

/// Every `CoreError` variant surfaces with its stable status and
/// machine-readable code — most importantly `RollbackDetected` → 409.
#[test]
fn error_statuses_are_stable_and_distinct() {
    let svc = service(b"errors", &["tool"]);
    let (id, _) = svc.create_repository(&policy_text()).unwrap();
    svc.refresh(&id).unwrap();

    // Tamper the cached blob the index pins: serving must yield
    // rollback_detected.
    svc.with_repository_mut(&id, |repo| {
        let hash = repo.sanitized_index().unwrap().get("tool").unwrap();
        let hash = hash.content_hash.clone();
        repo.cache_mut().insert(&hash, vec![0u8; 16]);
    })
    .unwrap();

    // v1: 409 with the JSON envelope.
    let resp = svc.handle(&request(
        "GET",
        &format!("/v1/repositories/{id}/packages/tool"),
        b"",
    ));
    assert_eq!(resp.status, 409);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "rollback_detected");
    assert!(env.message.contains("rollback"));

    // The package manager's route: the same handler, the same answer.
    let resp = svc.handle(&request(
        "GET",
        &format!("/repositories/{id}/packages/tool"),
        b"",
    ));
    assert_eq!(resp.status, 409);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "rollback_detected");

    // A refresh in between does not launder the tampered bytes into the
    // next signed index: the pinned hash survives it.
    let refresh = format!("/v1/repositories/{id}/refresh");
    assert_eq!(svc.handle(&request("POST", &refresh, b"")).status, 200);
    let resp = svc.handle(&request(
        "GET",
        &format!("/v1/repositories/{id}/packages/tool"),
        b"",
    ));
    assert_eq!(resp.status, 409);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "rollback_detected");

    // Refresh rollback (stale mirror majority) → 409 as well: advance to
    // snapshot 2 first, then have every mirror replay snapshot 1.
    svc.with_mirrors(|ms| publish_to_all(ms, &snapshot(2, &["tool"])));
    // Heal the cache tampering above: a restart refills the cache from
    // the store, which holds the honest blob.
    for (_, outcome) in svc.crash_restart() {
        outcome.unwrap();
    }
    svc.refresh(&id).unwrap();
    svc.with_mirrors(|ms| {
        for m in ms.iter_mut() {
            m.set_behavior(Behavior::Stale { snapshot: 0 });
        }
    });
    let resp = svc.handle(&request(
        "POST",
        &format!("/v1/repositories/{id}/refresh"),
        b"",
    ));
    assert_eq!(resp.status, 409);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "rollback_detected");

    // Unknown repo → 404 not_found envelope.
    let resp = svc.handle(&request("GET", "/v1/repositories/nope", b""));
    assert_eq!(resp.status, 404);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "not_found");

    // Bad JSON body on create → 400 invalid_json.
    let resp = svc.handle(&request("POST", "/v1/repositories", b"raw policy text"));
    assert_eq!(resp.status, 400);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "invalid_json");

    // Wrong method on a known path → 405 with Allow, not 404.
    let resp = svc.handle(&request(
        "POST",
        &format!("/v1/repositories/{id}/index"),
        b"",
    ));
    assert_eq!(resp.status, 405);
    assert_eq!(resp.headers.get("allow").map(String::as_str), Some("GET"));
}

/// The JSON view of `GET /v1/metrics` is a projection of the registry
/// the Prometheus view renders: the two cannot disagree.
#[test]
fn json_and_prometheus_metric_views_agree() {
    let svc = service(b"two-views", &["tool"]);
    let (id, _) = svc.create_repository(&policy_text()).unwrap();
    let get = |path: &str, etag: Option<&str>| {
        let mut req = request("GET", path, b"");
        if let Some(etag) = etag {
            req.headers.insert("if-none-match".into(), etag.into());
        }
        svc.handle(&req)
    };
    let refresh = request("POST", &format!("/v1/repositories/{id}/refresh"), b"");
    assert_eq!(svc.handle(&refresh).status, 200);
    let index_path = format!("/v1/repositories/{id}/index");
    let first = get(&index_path, None);
    assert_eq!(first.status, 200);
    assert_eq!(
        get(&index_path, first.headers.get("etag").map(String::as_str)).status,
        304
    );
    assert_eq!(get("/v1/repositories/nope", None).status, 404);
    assert_eq!(get("/nowhere", None).status, 404);

    let prom = get("/v1/metrics?format=prometheus", None);
    let json = get("/v1/metrics", None);
    let json = MetricsDto::decode(&String::from_utf8_lossy(&json.body)).unwrap();

    let expo = Exposition::parse(&String::from_utf8_lossy(&prom.body)).unwrap();
    let mut projected = MetricsDto::default();
    for s in &expo.families["tsr_http_requests_total"].samples {
        let status: u16 = s.label("status").unwrap().parse().unwrap();
        projected
            .requests
            .entry(s.label("route").unwrap().to_string())
            .or_default()
            .insert(status, s.value as u64);
    }
    for s in &expo.families["tsr_core_events_total"].samples {
        projected
            .counters
            .insert(s.label("event").unwrap().to_string(), s.value as u64);
    }
    // The only request between the two renderings is the Prometheus
    // scrape itself, counted once it was answered.
    *projected
        .requests
        .entry("GET /v1/metrics".into())
        .or_default()
        .entry(200)
        .or_default() += 1;
    assert_eq!(json, projected);
    assert_eq!(json.requests["unmatched"][&404], 1);
    assert_eq!(json.requests["GET /v1/repositories/:id/index"][&304], 1);
    assert_eq!(json.counters["index_not_modified_lock_free"], 1);
}

/// Every request that reaches the router is counted exactly once, so on
/// a single node Σ`tsr_http_requests_total` equals
/// Σ`tsr_http_request_duration_us_count` — unmatched requests included.
#[test]
fn request_and_latency_counts_agree() {
    let svc = service(b"count-sum", &["tool"]);
    let server = svc.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.local_addr());
    let http = tsr::http::Client::new();
    let sdk = TsrClient::new(&base);

    let id = sdk.create_repository(&policy_text()).unwrap().id;
    sdk.refresh(&id).unwrap();
    let (_, etag) = sdk.index(&id).unwrap();
    assert_eq!(
        sdk.index_if_none_match(&id, &etag.unwrap()).unwrap(),
        IndexFetch::NotModified
    );
    assert_eq!(http.get(&format!("{base}/nowhere")).unwrap().status, 404);
    assert_eq!(http.get(&format!("{base}/v1/nowhere")).unwrap().status, 404);
    let wrong_method = http
        .post(&format!("{base}/v1/repositories/{id}/index"), &[])
        .unwrap();
    assert_eq!(wrong_method.status, 405);

    let (text, _) = sdk.get_text("/v1/metrics?format=prometheus").unwrap();
    let expo = Exposition::parse(&text).unwrap();
    let sum = |family: &str, sample: &str| -> f64 {
        let samples = &expo.families[family].samples;
        samples
            .iter()
            .filter(|s| s.name == sample)
            .map(|s| s.value)
            .sum()
    };
    let requests = sum("tsr_http_requests_total", "tsr_http_requests_total");
    let latencies = sum(
        "tsr_http_request_duration_us",
        "tsr_http_request_duration_us_count",
    );
    assert_eq!(requests, 7.0, "{text}");
    assert_eq!(requests, latencies, "{text}");
    assert_eq!(
        expo.sample(
            "tsr_http_requests_total",
            &[("route", "unmatched"), ("status", "404")]
        ),
        Some(2.0)
    );

    server.shutdown();
}

/// The full typed-SDK flow against a live server: CRUD + list + info,
/// pagination, conditional index fetches, verified attestation, metrics.
#[test]
fn typed_client_full_flow() {
    let svc = service(b"sdk-flow", &["alpha", "beta", "gamma"]);
    let server = svc.serve("127.0.0.1:0").unwrap();
    let sdk = TsrClient::new(format!("http://{}", server.local_addr()));

    let health = sdk.health().unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.repositories, 0);

    let created = sdk.create_repository(&policy_text()).unwrap();
    let info = sdk.repository(&created.id).unwrap();
    assert!(!info.refreshed);
    assert_eq!(info.packages, 0);
    assert_eq!(info.snapshot, None);

    let report = sdk.refresh(&created.id).unwrap();
    assert_eq!(report.downloaded, 3);
    assert_eq!(report.sanitized.len(), 3);
    assert!(report.quorum_contacted >= 2);

    let info = sdk.repository(&created.id).unwrap();
    assert!(info.refreshed);
    assert_eq!(info.packages, 3);
    assert_eq!(info.snapshot, Some(1));

    // Pagination: pages of 2 then 1, in index order.
    let page1 = sdk.packages(&created.id, 0, 2).unwrap();
    assert_eq!((page1.total, page1.items.len()), (3, 2));
    let page2 = sdk.packages(&created.id, 2, 2).unwrap();
    assert_eq!(page2.items.len(), 1);
    let names: Vec<&str> = page1
        .items
        .iter()
        .chain(&page2.items)
        .map(|i| i.name.as_str())
        .collect();
    assert_eq!(names, vec!["alpha", "beta", "gamma"]);

    // The package blob verifies under the repository key from create.
    let blob = sdk.package(&created.id, "beta").unwrap();
    let key = RsaPublicKey::from_pem(&created.public_key_pem).unwrap();
    tsr::apk::Package::parse(&blob)
        .unwrap()
        .verify(&key)
        .unwrap();

    // Conditional index fetch: 304 on match, fresh bytes after change.
    let (bytes, etag) = sdk.index(&created.id).unwrap();
    let etag = etag.unwrap();
    assert!(!bytes.is_empty());
    assert_eq!(
        sdk.index_if_none_match(&created.id, &etag).unwrap(),
        IndexFetch::NotModified
    );
    assert!(matches!(
        sdk.index_if_none_match(&created.id, "\"different\"")
            .unwrap(),
        IndexFetch::Fresh { .. }
    ));

    // Client-side verified attestation; a wrong expected code must fail.
    let platform = RsaPublicKey::from_pem(&svc.platform_key_pem()).unwrap();
    sdk.attest(b"fresh-nonce", &platform, tsr::core::service::ENCLAVE_CODE)
        .unwrap();
    assert!(matches!(
        sdk.attest(b"fresh-nonce", &platform, b"evil-enclave"),
        Err(WireError::Attestation(_))
    ));

    // list + delete.
    let listed = sdk.list_repositories().unwrap();
    assert_eq!(listed.len(), 1);
    sdk.delete_repository(&created.id).unwrap();
    assert!(matches!(
        sdk.repository(&created.id),
        Err(WireError::Api { status: 404, .. })
    ));
    assert!(sdk.list_repositories().unwrap().is_empty());

    // Metrics counted every route we touched, keyed by pattern.
    let metrics = sdk.metrics().unwrap();
    let refresh_counts = metrics
        .requests
        .get("POST /v1/repositories/:id/refresh")
        .expect("refresh route counted");
    assert_eq!(refresh_counts.get(&200), Some(&1));
    assert!(metrics.requests.contains_key("GET /v1/healthz"));

    server.shutdown();
}

/// The mounted middleware stack enforces rate limits and tags responses
/// with request ids.
#[test]
fn middleware_stack_rate_limits_and_tags_requests() {
    let svc = service(b"mw", &["tool"]);
    let server = svc
        .serve_with_options(
            "127.0.0.1:0",
            ApiOptions {
                rate_limit: Some((3, 0.0)), // 3 requests, no refill
                ..ApiOptions::default()
            },
        )
        .unwrap();
    let base = format!("http://{}", server.local_addr());
    let http = tsr::http::Client::new();

    for i in 0..3 {
        let resp = http.get(&format!("{base}/v1/healthz")).unwrap();
        assert_eq!(resp.status, 200, "request {i} within burst");
        assert!(
            resp.headers.contains_key("x-request-id"),
            "responses carry request ids"
        );
    }
    let resp = http.get(&format!("{base}/v1/healthz")).unwrap();
    assert_eq!(resp.status, 429);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "rate_limited");
    assert!(resp.headers.contains_key("retry-after"));

    server.shutdown();
}

/// The order of the one stack [`TsrService::mount`] assembles, seen from
/// outside: the rate limit and the body guard answer *inside* request-id,
/// access log and telemetry, and panic containment sits outside all of
/// them — for the service's router or any other terminal.
#[test]
fn middleware_order_is_pinned_from_outside() {
    let svc = service(b"mw-order", &["tool"]);
    let log = std::env::temp_dir().join(format!("tsr-mw-order-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let options = ApiOptions {
        rate_limit: Some((3, 0.0)), // 3 requests, no refill
        max_body: 1024,
        access_log: Some(log.clone()),
        ..ApiOptions::default()
    };
    let inner = svc.clone();
    let server = svc
        .mount("127.0.0.1:0", options, move |req| {
            assert_ne!(req.path, "/boom", "handler panic");
            inner.handle(req)
        })
        .unwrap();
    let base = format!("http://{}", server.local_addr());
    let http = tsr::http::Client::new();
    let send = |method: &str, path: &str, body: &[u8], id: &str| {
        let resp = http
            .request(
                method,
                &format!("{base}{path}"),
                body,
                &[("x-request-id", id)],
            )
            .unwrap();
        assert_eq!(
            resp.headers.get("x-request-id").map(String::as_str),
            Some(id)
        );
        resp.status
    };
    assert_eq!(send("GET", "/v1/healthz", &[], "order-200"), 200);
    assert_eq!(
        send("POST", "/v1/repositories", &[b'x'; 2048], "order-413"),
        413
    );
    assert_eq!(send("GET", "/boom", &[], "order-500"), 500);
    assert_eq!(send("GET", "/v1/healthz", &[], "order-429"), 429);
    server.shutdown();

    // Both refusals were logged with their ids …
    let lines = std::fs::read_to_string(&log).unwrap();
    let _ = std::fs::remove_file(&log);
    let logged: Vec<(String, u16)> = lines
        .lines()
        .map(|l| tsr::wire::AccessLogLine::decode(l).unwrap())
        .map(|l| (l.request_id, l.status))
        .collect();
    for want in [("order-200", 200), ("order-413", 413), ("order-429", 429)] {
        assert!(logged.contains(&(want.0.to_string(), want.1)), "{lines}");
    }
    // … and timed: neither reached a router, so both are `unmatched`.
    let expo = Exposition::parse(&svc.render_prometheus()).unwrap();
    let timed = |route| expo.sample("tsr_http_request_duration_us_count", &[("route", route)]);
    assert_eq!(timed("unmatched"), Some(2.0));
    assert_eq!(timed("GET /v1/healthz"), Some(1.0));
}

/// Both 413 layers fire at their own thresholds: the middleware's JSON
/// envelope above `max_body`, the transport's plain cut-off above 4×.
#[test]
fn body_limits_apply_at_both_layers() {
    let svc = service(b"body-limits", &["tool"]);
    let server = svc
        .serve_with_options(
            "127.0.0.1:0",
            ApiOptions {
                max_body: 1024,
                ..ApiOptions::default()
            },
        )
        .unwrap();
    let base = format!("http://{}", server.local_addr());
    let http = tsr::http::Client::new();

    // Between max_body and 4×: read fully, rejected by the middleware
    // with the JSON envelope.
    let resp = http
        .post(&format!("{base}/v1/repositories"), &vec![b'x'; 2048])
        .unwrap();
    assert_eq!(resp.status, 413);
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "payload_too_large");

    // Above 4×: the transport refuses to read the body at all.
    let resp = http
        .post(&format!("{base}/v1/repositories"), &vec![b'x'; 8192])
        .unwrap();
    assert_eq!(resp.status, 413);

    // Percent-escapes that decode to non-UTF-8, and literal '+', must be
    // handled without panicking or mangling package names (router fixes).
    let resp = http
        .get(&format!("{base}/v1/repositories/x/packages/g%FF%2Bplus"))
        .unwrap();
    assert_eq!(resp.status, 404, "decoded garbage name is just not found");
    let resp = http.get(&format!("{base}/v1/repositories/a+b")).unwrap();
    let env = ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(env.code, "not_found");
    assert!(
        env.message.contains("a+b"),
        "'+' stays literal in path segments: {}",
        env.message
    );

    server.shutdown();
}
