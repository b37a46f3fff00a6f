//! The HTTP API layer: the versioned `/v1` JSON surface, its request
//! and event counters, and the error-code mapping.
//!
//! Request flow (see `ARCHITECTURE.md`, "The API layer"):
//!
//! ```text
//! socket → middleware chain → route table → operation → TsrService
//!          (panic guard,       (static       (this       (domain
//!           request-id,         Router)       module)     logic)
//!           access log,
//!           rate limit,
//!           body limit)
//! ```
//!
//! The route table is a process-wide [`Router`] built once: rows carry
//! an `Op` and a precomputed `"METHOD /pattern"` label rather than
//! closures, so the table holds no per-service state and
//! [`TsrService::handle`] stays cheap. Each service counts its requests
//! per row and status into `tsr_http_requests_total{route,status}` of
//! its metric registry (served at `GET /v1/metrics`).
//!
//! Two rows sit outside `/v1`: `GET /repositories/:id/APKINDEX` and
//! `GET /repositories/:id/packages/:name`, the apk repository layout a
//! package manager fetches from any mirror. They dispatch to the same
//! index and package operations as their `/v1` rows — the paper's TSR
//! is transparent to package managers, so `{base}/repositories/{id}`
//! works as a repository URL.
//!
//! # Error contract
//!
//! Every [`CoreError`] variant maps to one stable HTTP status and one
//! machine-readable code:
//!
//! | `CoreError` | status | code |
//! |---|---|---|
//! | `Policy` | 400 | `invalid_policy` |
//! | `Package` | 502 | `package_error` |
//! | `Unsupported` | 422 | `unsupported_package` |
//! | `Quorum` | 502 | `quorum_failed` |
//! | `RollbackDetected` | 409 | `rollback_detected` |
//! | `SealedState` | 500 | `sealed_state_error` |
//! | `NotFound` | 404 | `not_found` |
//!
//! Every error response — unknown routes and wrong methods included —
//! carries the envelope as an `application/json` body
//! (`{"code":…,"message":…,"detail":…,"request_id":…}` — the
//! `request_id` comes from the request scope the middleware installs,
//! so a client can quote it and the operator can grep the access log).

use std::sync::{Arc, OnceLock};

use crate::error::CoreError;
use crate::repository::RefreshReport;
use crate::service::TsrService;
use tsr_crypto::hex;
use tsr_http::middleware::{ROUTE_HEADER, TENANT_HEADER, UNMATCHED_ROUTE};
use tsr_http::router::{Params, Recognized, Router};
use tsr_http::{etag_matches, Request, Response};
use tsr_obs::{Counter, CounterVec, Registry};
use tsr_store::StoreEngine;
use tsr_wire::dto::{
    CreateRepositoryRequest, ErrorEnvelope, HealthDto, MetricsDto, PackageEntryDto, PackagePage,
    PhaseTimingsDto, RefreshReportDto, RejectedPackageDto, RepositoryCreated, RepositoryInfo,
    RepositoryList, SanitizeRecordDto, WireDto,
};

/// Default page size of `GET /v1/repositories/{id}/packages`.
const DEFAULT_PAGE_LIMIT: u64 = 100;
/// Hard cap on the page size.
const MAX_PAGE_LIMIT: u64 = 1000;

/// Every operation the API exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Health,
    Ready,
    Metrics,
    CreateRepository,
    ListRepositories,
    RepositoryInfo,
    DeleteRepository,
    Refresh,
    Index,
    Packages,
    Package,
    Attest,
}

/// The route table: `(method, pattern, operation)`.
const TABLE: &[(&str, &str, Op)] = &[
    ("GET", "/v1/healthz", Op::Health),
    ("GET", "/v1/readyz", Op::Ready),
    ("GET", "/v1/metrics", Op::Metrics),
    ("POST", "/v1/repositories", Op::CreateRepository),
    ("GET", "/v1/repositories", Op::ListRepositories),
    ("GET", "/v1/repositories/:id", Op::RepositoryInfo),
    ("DELETE", "/v1/repositories/:id", Op::DeleteRepository),
    ("POST", "/v1/repositories/:id/refresh", Op::Refresh),
    ("GET", "/v1/repositories/:id/index", Op::Index),
    ("GET", "/v1/repositories/:id/packages", Op::Packages),
    ("GET", "/v1/repositories/:id/packages/:name", Op::Package),
    ("GET", "/v1/attestation/:nonce", Op::Attest),
    // The apk repository layout, for package managers.
    ("GET", "/repositories/:id/APKINDEX", Op::Index),
    ("GET", "/repositories/:id/packages/:name", Op::Package),
];

/// One compiled row of [`TABLE`].
struct Route {
    op: Op,
    /// `"METHOD /pattern"`: the `route` label the row is counted,
    /// timed and logged under.
    label: String,
    /// The row's number: its slot in [`Metrics::by_route`].
    slot: usize,
}

fn routes() -> &'static Router<Route> {
    static ROUTES: OnceLock<Router<Route>> = OnceLock::new();
    ROUTES.get_or_init(|| {
        let mut r = Router::new();
        for (slot, (method, pattern, op)) in TABLE.iter().enumerate() {
            let label = format!("{method} {pattern}");
            r.route(
                method,
                pattern,
                Route {
                    op: *op,
                    label,
                    slot,
                },
            );
        }
        r
    })
}

/// The `tsr_http_requests_total` handles of one route: one lazily
/// fetched series per HTTP status (100–599).
type StatusCounters = [OnceLock<Counter>; 500];

/// One service's handles into the two counter families of its metric
/// registry that the API feeds: `tsr_http_requests_total{route,status}`
/// and `tsr_core_events_total{event}` (the `requests` and `counters`
/// maps of `GET /v1/metrics`). Counting through a handle is one relaxed
/// atomic add.
pub(crate) struct Metrics {
    requests: CounterVec,
    /// One slot per row of [`TABLE`], then one for [`UNMATCHED_ROUTE`].
    by_route: Vec<StatusCounters>,
    events: CounterVec,
    /// 304s answered from the serve cache without a shard lock.
    pub(crate) index_not_modified_lock_free: Counter,
    /// Full index GETs served as shared bytes from the serve cache.
    pub(crate) index_hot_blob_hits: Counter,
    /// Package GETs served from the serve cache.
    pub(crate) package_hot_blob_hits: Counter,
    /// Replicated states applied from a cluster peer.
    pub(crate) cluster_replicated_applies: Counter,
    /// The storage engine's cumulative counters, in engine field order.
    store: [Counter; 4],
}

impl Metrics {
    /// Registers both families in `registry` and fetches the handles.
    pub(crate) fn new(registry: &Registry) -> Self {
        let requests = registry.counter_vec(
            "tsr_http_requests_total",
            "Requests by matched route pattern and status.",
            &["route", "status"],
        );
        let events = registry.counter_vec(
            "tsr_core_events_total",
            "Named core event counters (the `counters` map of GET /v1/metrics).",
            &["event"],
        );
        let event = |name| events.with(&[name]);
        Metrics {
            by_route: (0..=TABLE.len())
                .map(|_| std::array::from_fn(|_| OnceLock::new()))
                .collect(),
            index_not_modified_lock_free: event("index_not_modified_lock_free"),
            index_hot_blob_hits: event("index_hot_blob_hits"),
            package_hot_blob_hits: event("package_hot_blob_hits"),
            cluster_replicated_applies: event("cluster_replicated_applies"),
            store: [
                event("wal_appends"),
                event("wal_bytes"),
                event("snapshot_writes"),
                event("recovery_replayed_records"),
            ],
            requests,
            events,
        }
    }

    /// The handle of one named event series.
    pub(crate) fn event(&self, name: &str) -> Counter {
        self.events.with(&[name])
    }

    /// Counts one request answered with `status` under `route`, the
    /// label of slot `slot`.
    fn count(&self, slot: usize, route: &str, status: u16) {
        let fetch = || self.requests.with(&[route, &status.to_string()]);
        match self.by_route[slot].get(usize::from(status).wrapping_sub(100)) {
            Some(cell) => cell.get_or_init(fetch).inc(),
            None => fetch().inc(),
        }
    }

    /// Advances the store series by what `engine`'s own cumulative
    /// counters moved since the last call. Call with the engine lock
    /// held, so concurrent callers cannot add the same delta twice.
    pub(crate) fn count_store(&self, engine: &StoreEngine) {
        let c = engine.counters();
        let now = [
            c.wal_appends,
            c.wal_bytes,
            c.snapshot_writes,
            c.recovery_replayed_records,
        ];
        for (series, now) in self.store.iter().zip(now) {
            series.add(now.saturating_sub(series.get()));
        }
    }

    /// Both families as the JSON view of `GET /v1/metrics`.
    fn snapshot(&self) -> MetricsDto {
        let mut dto = MetricsDto::default();
        for (labels, count) in self.requests.snapshot() {
            // `count` is the only writer of this family: two labels,
            // the second a status code.
            let [route, status] = labels.as_slice() else {
                continue;
            };
            let Ok(status) = status.parse() else { continue };
            let by_status = dto.requests.entry(route.clone()).or_default();
            by_status.insert(status, count);
        }
        for (mut labels, count) in self.events.snapshot() {
            dto.counters.insert(labels.remove(0), count);
        }
        dto
    }
}

/// Status + machine-readable code of one [`CoreError`].
pub fn error_status(e: &CoreError) -> (u16, &'static str) {
    match e {
        CoreError::Policy(_) => (400, "invalid_policy"),
        CoreError::Package(_) => (502, "package_error"),
        CoreError::Unsupported(_) => (422, "unsupported_package"),
        CoreError::Quorum(_) => (502, "quorum_failed"),
        CoreError::RollbackDetected(_) => (409, "rollback_detected"),
        CoreError::SealedState(_) => (500, "sealed_state_error"),
        CoreError::NotFound(_) => (404, "not_found"),
    }
}

fn envelope(status: u16, code: &str, message: &str, detail: &str) -> Response {
    let body = ErrorEnvelope {
        code: code.to_string(),
        message: message.to_string(),
        detail: detail.to_string(),
        // The middleware installs the request's id in task-local scope
        // before dispatch, so every error envelope names the request it
        // failed — the same id the access log and replication journal
        // carry.
        request_id: tsr_obs::current_request_id().unwrap_or_default(),
    }
    .encode();
    Response::json(status, body)
}

/// The envelope of one [`CoreError`].
fn core_error(e: &CoreError, detail: &str) -> Response {
    let (status, code) = error_status(e);
    envelope(status, code, &e.to_string(), detail)
}

fn report_to_dto(report: &RefreshReport) -> RefreshReportDto {
    RefreshReportDto {
        quorum_elapsed_us: report.quorum_elapsed.as_micros() as u64,
        quorum_contacted: report.quorum_contacted,
        downloaded: report.downloaded,
        download_elapsed_us: report.download_elapsed.as_micros() as u64,
        sanitize_elapsed_us: report.sanitize_elapsed.as_micros() as u64,
        sanitized: report
            .sanitized
            .iter()
            .map(|r| SanitizeRecordDto {
                name: r.name.clone(),
                version: r.version.clone(),
                file_count: r.file_count,
                original_size: r.original_size,
                sanitized_size: r.sanitized_size,
                uncompressed_size: r.uncompressed_size,
                touches_accounts: r.touches_accounts,
                timings: PhaseTimingsDto {
                    check_integrity_us: r.timings.check_integrity.as_micros() as u64,
                    unpack_us: r.timings.unpack.as_micros() as u64,
                    modify_scripts_us: r.timings.modify_scripts.as_micros() as u64,
                    generate_signatures_us: r.timings.generate_signatures.as_micros() as u64,
                    repack_us: r.timings.repack.as_micros() as u64,
                },
            })
            .collect(),
        rejected: report
            .rejected
            .iter()
            .map(|(name, reason)| RejectedPackageDto {
                name: name.clone(),
                reason: reason.clone(),
            })
            .collect(),
    }
}

/// Routes one request: recognize, dispatch, count.
pub(crate) fn handle(svc: &TsrService, req: &Request) -> Response {
    // Telemetry files a response without a route header under the same
    // label, so a node's request and latency counts agree.
    let unmatched = |resp| (TABLE.len(), UNMATCHED_ROUTE, resp);
    let (slot, label, resp) = match routes().recognize(&req.method, &req.path) {
        Recognized::Match(m) => {
            let Route { op, label, slot } = m.value;
            // Tell the middleware which route pattern (and tenant) this
            // was: Telemetry keys its latency histogram on the pattern
            // (bounded label cardinality), AccessLog logs both and
            // strips the headers before the bytes hit the wire.
            let resp = dispatch(svc, *op, &m.params, req).with_header(ROUTE_HEADER, label);
            let resp = match m.params.get("id") {
                Some(tenant) if !tenant.is_empty() => resp.with_header(TENANT_HEADER, tenant),
                _ => resp,
            };
            (*slot, label.as_str(), resp)
        }
        Recognized::MethodNotAllowed(allow) => {
            let allow = allow.join(", ");
            let resp = envelope(
                405,
                "method_not_allowed",
                "method not allowed for this path",
                &format!("allowed: {allow}"),
            );
            unmatched(resp.with_header("allow", &allow))
        }
        Recognized::NotFound => unmatched(envelope(404, "not_found", "unknown route", &req.path)),
    };
    svc.metrics().count(slot, label, resp.status);
    resp
}

fn dispatch(svc: &TsrService, op: Op, params: &Params, req: &Request) -> Response {
    match op {
        Op::Health => v1_health(svc),
        Op::Ready => v1_ready(svc),
        Op::Metrics => v1_metrics(svc, params),
        Op::CreateRepository => v1_create_repository(svc, req),
        Op::ListRepositories => v1_list_repositories(svc),
        Op::RepositoryInfo => v1_repository_info(svc, param(params, "id")),
        Op::DeleteRepository => v1_delete_repository(svc, param(params, "id")),
        Op::Refresh => v1_refresh(svc, param(params, "id")),
        Op::Index => v1_index(svc, param(params, "id"), req),
        Op::Packages => v1_packages(svc, param(params, "id"), params),
        Op::Package => v1_package(svc, param(params, "id"), param(params, "name"), req),
        Op::Attest => v1_attest(svc, param(params, "nonce")),
    }
}

fn param<'p>(params: &'p Params, name: &str) -> &'p str {
    params.get(name).unwrap_or("")
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

fn v1_health(svc: &TsrService) -> Response {
    let dto = HealthDto {
        status: "ok".to_string(),
        repositories: svc.repository_ids().len() as u64,
    };
    Response::json(200, dto.encode())
}

/// Readiness is distinct from liveness: `/v1/healthz` answers 200 as
/// long as the process serves requests, while `/v1/readyz` answers 503
/// whenever the node should not receive traffic — during WAL recovery
/// replay, while its cluster config epoch lags the cluster's, or once a
/// drain has begun. Load balancers poll this one.
fn v1_ready(svc: &TsrService) -> Response {
    let dto = svc.readiness();
    let status = if dto.ready { 200 } else { 503 };
    Response::json(status, dto.encode())
}

fn v1_metrics(svc: &TsrService, params: &Params) -> Response {
    match params.query("format") {
        Some("prometheus") => Response::with_content_type(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            svc.render_prometheus().into_bytes(),
        ),
        None | Some("json") => Response::json(200, svc.metrics().snapshot().encode()),
        Some(other) => envelope(
            400,
            "invalid_query",
            "query parameter \"format\" must be \"json\" or \"prometheus\"",
            other,
        ),
    }
}

fn v1_create_repository(svc: &TsrService, req: &Request) -> Response {
    let text = String::from_utf8_lossy(&req.body);
    let body = match CreateRepositoryRequest::decode(&text) {
        Ok(b) => b,
        Err(m) => {
            return envelope(
                400,
                "invalid_json",
                "request body must be {\"policy\": \"…\"}",
                &m,
            )
        }
    };
    match svc.create_repository(&body.policy) {
        Ok((id, pem)) => Response::json(
            201,
            RepositoryCreated {
                id,
                public_key_pem: pem,
            }
            .encode(),
        ),
        Err(e) => core_error(&e, "create_repository"),
    }
}

fn repository_summary(svc: &TsrService, id: &str) -> Result<RepositoryInfo, CoreError> {
    svc.with_repository(id, |repo| RepositoryInfo {
        id: id.to_string(),
        refreshed: repo.sanitized_index().is_some(),
        snapshot: repo.sanitized_index().map(|i| i.snapshot),
        packages: repo.sanitized_index().map(|i| i.len() as u64).unwrap_or(0),
        rejected: repo.rejected().len() as u64,
    })
}

fn v1_list_repositories(svc: &TsrService) -> Response {
    let mut repositories = Vec::new();
    for id in svc.repository_ids() {
        // A repository deleted between the listing and the summary is
        // simply skipped.
        if let Ok(info) = repository_summary(svc, &id) {
            repositories.push(info);
        }
    }
    Response::json(200, RepositoryList { repositories }.encode())
}

fn v1_repository_info(svc: &TsrService, id: &str) -> Response {
    match repository_summary(svc, id) {
        Ok(info) => Response::json(200, info.encode()),
        Err(e) => core_error(&e, id),
    }
}

fn v1_delete_repository(svc: &TsrService, id: &str) -> Response {
    match svc.delete_repository(id) {
        Ok(()) => Response::no_content(),
        Err(e) => core_error(&e, id),
    }
}

fn v1_refresh(svc: &TsrService, id: &str) -> Response {
    match svc.refresh(id) {
        Ok(report) => Response::json(200, report_to_dto(&report).encode()),
        Err(e) => core_error(&e, id),
    }
}

/// 304 when `req` already holds `etag`, else `blob` as shared bytes.
fn respond(req: &Request, etag: &str, blob: &Arc<[u8]>) -> Response {
    if etag_matches(req, etag) {
        Response::not_modified(etag)
    } else {
        Response::shared(Arc::clone(blob)).with_etag(etag)
    }
}

fn v1_index(svc: &TsrService, id: &str, req: &Request) -> Response {
    // Every refreshed repository's signed index is published to the
    // serve cache with its ETag, as the allocation the repository holds.
    // A conditional re-fetch — the request a polling package manager
    // sends most — answers 304 from the cache alone, and a full GET
    // serves `Body::Shared` bytes: no shard lock, no clone, straight
    // into the reactor's vectored writer.
    let metrics = svc.metrics();
    let cached = svc.hot().lookup(id, |entry| {
        let resp = respond(req, entry.index_etag(), entry.index());
        match resp.status {
            304 => metrics.index_not_modified_lock_free.inc(),
            _ => metrics.index_hot_blob_hits.inc(),
        }
        resp
    });
    if let Some(resp) = cached {
        return resp;
    }
    // Nothing published: the shard answers, with its 404 for an unknown
    // or not yet refreshed repository (or the index a writer published
    // after the lookup above).
    let read = svc.with_repository(id, |repo| {
        let index: Arc<[u8]> = repo.serve_index()?.into();
        Ok((
            repo.signed_index_etag().unwrap_or_default().to_string(),
            index,
        ))
    });
    match read {
        Ok(Ok((etag, index))) => respond(req, &etag, &index),
        Ok(Err(e)) | Err(e) => core_error(&e, id),
    }
}

fn v1_packages(svc: &TsrService, id: &str, params: &Params) -> Response {
    let offset = match parse_query_u64(params, "offset", 0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let limit = match parse_query_u64(params, "limit", DEFAULT_PAGE_LIMIT) {
        Ok(v) => v.clamp(1, MAX_PAGE_LIMIT),
        Err(resp) => return resp,
    };
    let page = svc.with_repository(id, |repo| {
        let Some(index) = repo.sanitized_index() else {
            return Err(CoreError::NotFound("repository not yet refreshed".into()));
        };
        let total = index.len() as u64;
        let items: Vec<PackageEntryDto> = index
            .iter()
            .skip(offset as usize)
            .take(limit as usize)
            .map(|e| PackageEntryDto {
                name: e.name.clone(),
                version: e.version.clone(),
                size: e.size,
                content_hash: e.content_hash.clone(),
                depends: e.depends.clone(),
            })
            .collect();
        Ok(PackagePage {
            total,
            offset,
            limit,
            items,
        })
    });
    match page {
        Ok(Ok(page)) => Response::json(200, page.encode()),
        Ok(Err(e)) | Err(e) => core_error(&e, id),
    }
}

fn parse_query_u64(params: &Params, name: &str, default: u64) -> Result<u64, Response> {
    match params.query(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            envelope(
                400,
                "invalid_query",
                &format!("query parameter {name:?} must be a non-negative integer"),
                raw,
            )
        }),
    }
}

fn v1_package(svc: &TsrService, id: &str, name: &str, req: &Request) -> Response {
    // Zero-copy fast path: a blob already served under the *current*
    // index version answers straight from the serve cache — no shard
    // lock, no re-verification, no clone.
    let cached = svc.hot().lookup(id, |entry| {
        let (etag, blob) = entry.package(name)?;
        Some(respond(req, etag, blob))
    });
    if let Some(resp) = cached.flatten() {
        svc.metrics().package_hot_blob_hits.inc();
        return resp;
    }
    // The index entry's content_hash IS the SHA-256 of the sanitized blob
    // (serve_package verifies the cached bytes against it), so the ETag
    // comes for free — no per-request full-blob hash on the hot path.
    let result = svc.with_repository(id, |repo| {
        let hash = repo
            .sanitized_index()
            .and_then(|idx| idx.get(name))
            .map(|entry| entry.content_hash.clone());
        let index_etag = repo.signed_index_etag().map(str::to_string);
        repo.serve_package(name).map(|blob| {
            (
                blob,
                format!("\"{}\"", hash.unwrap_or_default()),
                index_etag,
            )
        })
    });
    match result {
        Ok(Ok((blob, etag, index_etag))) => {
            if let Some(index_etag) = index_etag {
                svc.hot()
                    .warm(id, &index_etag, name, &etag, Arc::clone(&blob));
            }
            respond(req, &etag, &blob)
        }
        Ok(Err(e)) | Err(e) => core_error(&e, &format!("{id}/{name}")),
    }
}

fn v1_attest(svc: &TsrService, nonce_hex: &str) -> Response {
    match hex::from_hex(nonce_hex) {
        Some(nonce) => {
            let (mrenclave, report_data, signature) = svc.attestation_report(&nonce);
            Response::json(
                200,
                tsr_wire::dto::AttestationDto {
                    mrenclave,
                    report_data,
                    signature,
                }
                .encode(),
            )
        }
        None => envelope(400, "invalid_nonce", "nonce must be hex", nonce_hex),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use tsr_http::Request;

    use crate::service::tests::{api_request, policy_text, service};

    #[test]
    fn hot_blob_cache_shares_bytes_and_invalidates_with_the_index() {
        let svc = service();
        let (id, _pem) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let get = |path: &str| svc.handle(&api_request("GET", path, &[]));

        // The refresh published the signed index: both GETs are hot hits
        // serving the very same shared allocation (zero-copy).
        let index_path = format!("/v1/repositories/{id}/index");
        let r1 = get(&index_path);
        let r2 = get(&index_path);
        assert_eq!((r1.status, r2.status), (200, 200));
        let (tsr_http::Body::Shared(a), tsr_http::Body::Shared(b)) = (&r1.body, &r2.body) else {
            panic!(
                "index GETs must serve shared bodies: {:?} / {:?}",
                r1.body, r2.body
            );
        };
        assert!(Arc::ptr_eq(a, b), "cache hit must reuse the allocation");
        assert_eq!(svc.event_counter("index_hot_blob_hits").get(), 2);

        // Same for package blobs, once the first GET has warmed them.
        let pkg_path = format!("/v1/repositories/{id}/packages/tool");
        let p1 = get(&pkg_path);
        let p2 = get(&pkg_path);
        assert_eq!((p1.status, p2.status), (200, 200));
        let (tsr_http::Body::Shared(pa), tsr_http::Body::Shared(pb)) = (&p1.body, &p2.body) else {
            panic!("package GETs must serve shared bodies");
        };
        assert!(Arc::ptr_eq(pa, pb));

        // A refresh republishes: the blobs warmed under the old version
        // are gone with it, and the next GET serves the new allocation.
        svc.refresh(&id).unwrap();
        let r3 = get(&index_path);
        let tsr_http::Body::Shared(c) = &r3.body else {
            panic!("index GETs must serve shared bodies: {:?}", r3.body);
        };
        assert!(!Arc::ptr_eq(a, c));

        // Deleting the repository unpublishes it.
        svc.delete_repository(&id).unwrap();
        assert!(svc.hot().lookup(&id, |_| ()).is_none());
        assert_eq!(get(&index_path).status, 404);
    }

    #[test]
    fn a_late_reader_cannot_resurrect_a_deleted_tenant() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        // A reader on the package slow path reads (E1, blob) under the
        // shard lock and releases it …
        let (etag, blob) = svc
            .with_repository(&id, |repo| {
                let blob = repo.serve_package("tool").unwrap();
                (repo.signed_index_etag().unwrap().to_string(), blob)
            })
            .unwrap();
        // … the tenant is deleted …
        svc.delete_repository(&id).unwrap();
        // … and only then does the reader reach the cache.
        svc.hot().warm(&id, &etag, "tool", "\"P1\"", blob);
        assert!(svc.hot().lookup(&id, |_| ()).is_none(), "entry leaked");
        let poll = api_request(
            "GET",
            &format!("/v1/repositories/{id}/index"),
            &[("if-none-match", &etag)],
        );
        assert_eq!(svc.handle(&poll).status, 404, "a deleted tenant is gone");
        let get = api_request("GET", &format!("/v1/repositories/{id}/packages/tool"), &[]);
        assert_eq!(svc.handle(&get).status, 404, "its packages are gone");
    }

    #[test]
    fn http_routes_work() {
        use tsr_wire::dto::{CreateRepositoryRequest, RepositoryCreated};
        use tsr_wire::WireDto;
        let svc = service();
        let server = svc.serve("127.0.0.1:0").unwrap();
        let base = format!("http://{}", server.local_addr());
        let client = tsr_http::Client::new();

        let body = CreateRepositoryRequest {
            policy: policy_text(),
        }
        .encode();
        let resp = client
            .post(&format!("{base}/v1/repositories"), body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 201);
        let text = String::from_utf8(resp.body.into_vec()).unwrap();
        let id = RepositoryCreated::decode(&text).unwrap().id;

        let resp = client
            .post(&format!("{base}/v1/repositories/{id}/refresh"), &[])
            .unwrap();
        assert_eq!(resp.status, 200);

        let resp = client
            .get(&format!("{base}/v1/repositories/{id}/index"))
            .unwrap();
        assert_eq!(resp.status, 200);
        let index = resp.body;

        // The apk repository layout a package manager fetches from.
        let resp = client
            .get(&format!("{base}/repositories/{id}/APKINDEX"))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, index);

        let resp = client
            .get(&format!("{base}/repositories/{id}/packages/tool"))
            .unwrap();
        assert_eq!(resp.status, 200);

        let resp = client
            .get(&format!("{base}/repositories/{id}/packages/ghost"))
            .unwrap();
        assert_eq!(resp.status, 404);

        server.shutdown();
    }

    #[test]
    fn bad_policy_rejected_over_http() {
        let svc = service();
        let resp = svc.handle(&Request {
            method: "POST".into(),
            path: "/v1/repositories".into(),
            headers: Default::default(),
            body: br#"{"policy":"not a policy"}"#.to_vec(),
        });
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(resp.body.as_slice()).contains("invalid_policy"));
    }

    #[test]
    fn unknown_routes_404() {
        let svc = service();
        let resp = svc.handle(&api_request("GET", "/bogus", &[]));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn refresh_unknown_repo_404() {
        let svc = service();
        let resp = svc.handle(&api_request("POST", "/v1/repositories/nope/refresh", &[]));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn readyz_reflects_drain_and_cluster_epoch() {
        use tsr_wire::{dto::ReadyDto, WireDto};
        let svc = service();
        let resp = svc.handle(&api_request("GET", "/v1/readyz", &[]));
        assert_eq!(resp.status, 200);
        let dto = ReadyDto::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        assert!(dto.ready);
        assert_eq!(dto.components.len(), 3);
        assert!(dto.components.values().all(|&ok| ok));

        svc.set_cluster_epoch_ok(false);
        let resp = svc.handle(&api_request("GET", "/v1/readyz", &[]));
        assert_eq!(resp.status, 503);
        let dto = ReadyDto::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        assert!(!dto.ready);
        assert!(!dto.components["cluster_epoch"]);
        assert!(dto.components["drain"]);
        svc.set_cluster_epoch_ok(true);

        svc.begin_drain();
        assert!(svc.is_draining());
        let resp = svc.handle(&api_request("GET", "/v1/readyz", &[]));
        assert_eq!(resp.status, 503);
        let dto = ReadyDto::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        assert!(!dto.components["drain"]);
        // Liveness is unaffected by drain: the process is still healthy.
        let live = svc.handle(&api_request("GET", "/v1/healthz", &[]));
        assert_eq!(live.status, 200);
    }

    #[test]
    fn error_envelopes_carry_the_request_id() {
        use tsr_wire::{ErrorEnvelope, WireDto};
        let svc = service();
        let resp = svc.handle(&api_request(
            "POST",
            "/v1/repositories/nope/refresh",
            &[("x-request-id", "req-err-7")],
        ));
        assert_eq!(resp.status, 404);
        let env = ErrorEnvelope::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        assert_eq!(env.request_id, "req-err-7");
        // Without the header, the field encodes as absent/empty.
        let resp = svc.handle(&api_request("POST", "/v1/repositories/nope/refresh", &[]));
        let env = ErrorEnvelope::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        assert!(env.request_id.is_empty());
    }

    #[test]
    fn prometheus_exposition_parses_and_reflects_traffic() {
        use tsr_obs::Exposition;
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        // Two index GETs: the second takes the hot-blob fast path.
        let index_path = format!("/v1/repositories/{id}/index");
        assert_eq!(
            svc.handle(&api_request("GET", &index_path, &[])).status,
            200
        );
        assert_eq!(
            svc.handle(&api_request("GET", &index_path, &[])).status,
            200
        );

        let resp = svc.handle(&api_request("GET", "/v1/metrics?format=prometheus", &[]));
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.headers.get("content-type").map(String::as_str),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        let text = String::from_utf8(resp.body.as_slice().to_vec()).unwrap();
        let expo = Exposition::parse(&text).unwrap();
        expo.validate_histograms().unwrap();
        let sample = expo
            .sample(
                "tsr_http_requests_total",
                &[
                    ("route", "GET /v1/repositories/:id/index"),
                    ("status", "200"),
                ],
            )
            .expect("index request counted by route pattern");
        assert!(sample >= 1.0);
        // Event counters carry the names of the JSON `counters` map.
        assert!(
            expo.sample("tsr_core_events_total", &[("event", "index_hot_blob_hits")])
                .is_some_and(|v| v >= 1.0),
            "core counters exported:\n{text}"
        );
        // Unknown formats are a client error, not a silent default.
        let resp = svc.handle(&api_request("GET", "/v1/metrics?format=xml", &[]));
        assert_eq!(resp.status, 400);
    }
}
