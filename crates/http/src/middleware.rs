//! Composable request middleware.
//!
//! A [`Chain`] wraps a terminal handler in an onion of [`Middleware`]
//! layers. Each layer sees the (mutable) request, decides whether to call
//! `next`, and may rewrite the response on the way out:
//!
//! ```
//! use tsr_http::middleware::{AccessLog, CatchPanic, Chain, RequestId};
//! use tsr_http::{Request, Response};
//!
//! let chain = Chain::new(|req: &mut Request| Response::ok(req.body.clone()))
//!     .wrap(RequestId::new())   // innermost of the three
//!     .wrap(AccessLog::default())
//!     .wrap(CatchPanic);        // outermost
//! let mut req = Request {
//!     method: "GET".into(),
//!     path: "/x".into(),
//!     headers: Default::default(),
//!     body: b"hi".to_vec(),
//! };
//! let resp = chain.handle(&mut req);
//! assert_eq!(resp.status, 200);
//! assert!(resp.headers.contains_key("x-request-id"));
//! ```
//!
//! The provided layers cover the cross-cutting concerns of the REST API:
//! [`RequestId`] injection, [`AccessLog`] structured JSON logging,
//! [`Telemetry`] per-route latency histograms and the in-flight gauge,
//! [`RateLimit`] token-bucket throttling, [`BodyLimit`] payload guarding,
//! and [`CatchPanic`] panic-to-500 containment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use tsr_obs::registry::{Gauge, HistogramVec, Registry, LATENCY_BUCKETS_US};

use crate::{Request, Response};

/// Response header the router/API layer sets to the matched route
/// pattern (e.g. `GET /v1/repositories/:id/index`). [`Telemetry`] keys
/// its latency histogram by it and [`AccessLog`] logs it; both treat it
/// as internal — [`AccessLog`] strips it before the response leaves the
/// chain.
pub const ROUTE_HEADER: &str = "x-tsr-route";

/// The route label of a response without a [`ROUTE_HEADER`] (no pattern
/// matched, or an outer layer answered before the router ran). Request
/// counters and [`Telemetry`] file such requests under this one label.
pub const UNMATCHED_ROUTE: &str = "unmatched";

/// Response header carrying the tenant (repository id) a request
/// addressed, for the access log. Stripped alongside [`ROUTE_HEADER`].
pub const TENANT_HEADER: &str = "x-tsr-tenant";

/// One layer of request processing.
pub trait Middleware: Send + Sync {
    /// Handles `req`, typically delegating to `next` (the rest of the
    /// chain, terminal handler included).
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response;
}

type BoxedHandler = Arc<dyn Fn(&mut Request) -> Response + Send + Sync>;

/// A terminal handler wrapped in zero or more middleware layers.
#[derive(Clone)]
pub struct Chain {
    f: BoxedHandler,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain").finish()
    }
}

impl Chain {
    /// A chain around `terminal` with no middleware yet.
    pub fn new(terminal: impl Fn(&mut Request) -> Response + Send + Sync + 'static) -> Self {
        Chain {
            f: Arc::new(terminal),
        }
    }

    /// Adds `mw` as the new **outermost** layer.
    pub fn wrap(self, mw: impl Middleware + 'static) -> Self {
        let inner = self.f;
        Chain {
            f: Arc::new(move |req: &mut Request| mw.handle(req, &|r: &mut Request| (inner)(r))),
        }
    }

    /// Runs the request through every layer down to the terminal handler.
    pub fn handle(&self, req: &mut Request) -> Response {
        (self.f)(req)
    }

    /// Converts the chain into a plain server handler.
    pub fn into_handler(self) -> impl Fn(&mut Request) -> Response + Send + Sync + 'static {
        move |req: &mut Request| (self.f)(req)
    }
}

/// Ensures every request carries an `x-request-id` header (injecting one
/// when absent) and echoes it on the response.
#[derive(Debug, Default)]
pub struct RequestId {
    counter: AtomicU64,
}

impl RequestId {
    /// A fresh generator starting at id 1.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Middleware for RequestId {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        if !req.headers.contains_key("x-request-id") {
            let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
            req.headers
                .insert("x-request-id".to_string(), format!("req-{n:08x}"));
        }
        let id = req.headers["x-request-id"].clone();
        next(req).with_header("x-request-id", &id)
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Structured access logging: one canonical JSON line per request —
/// `{"ts_us":…,"request_id":"…","method":"…","path":"…","route":"…",
/// "status":…,"latency_us":…,"bytes":…,"tenant":"…"}`. The schema is
/// mirrored by `tsr_wire::AccessLogLine`, whose strict parser
/// `tests/load_contract.rs` runs over a captured log.
///
/// `route` and `tenant` are read from the internal [`ROUTE_HEADER`] /
/// [`TENANT_HEADER`] response headers the API layer sets (empty when
/// absent), which this layer strips after logging.
///
/// The default sink writes to stderr only when the `TSR_HTTP_LOG`
/// environment variable is set (so test suites stay quiet); a custom sink
/// is always invoked.
pub struct AccessLog {
    sink: Arc<dyn Fn(&str) + Send + Sync>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog").finish()
    }
}

impl Default for AccessLog {
    fn default() -> Self {
        let enabled = std::env::var_os("TSR_HTTP_LOG").is_some();
        AccessLog {
            sink: Arc::new(move |line| {
                if enabled {
                    eprintln!("{line}");
                }
            }),
        }
    }
}

impl AccessLog {
    /// Logs through a custom sink (e.g. a capture buffer in tests).
    pub fn new(sink: impl Fn(&str) + Send + Sync + 'static) -> Self {
        AccessLog {
            sink: Arc::new(sink),
        }
    }

    /// Logs unconditionally to stderr.
    pub fn stderr() -> Self {
        AccessLog::new(|line| eprintln!("{line}"))
    }
}

impl Middleware for AccessLog {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        let started = Instant::now();
        let method = req.method.clone();
        let path = req.path.clone();
        let mut resp = next(req);
        let request_id = req
            .headers
            .get("x-request-id")
            .map(String::as_str)
            .unwrap_or("");
        let route = resp.headers.remove(ROUTE_HEADER).unwrap_or_default();
        let tenant = resp.headers.remove(TENANT_HEADER).unwrap_or_default();
        let ts_us = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        (self.sink)(&format!(
            "{{\"ts_us\":{ts_us},\"request_id\":\"{rid}\",\"method\":\"{m}\",\"path\":\"{p}\",\
             \"route\":\"{r}\",\"status\":{status},\"latency_us\":{us},\"bytes\":{bytes},\
             \"tenant\":\"{t}\"}}",
            rid = json_escape(request_id),
            m = json_escape(&method),
            p = json_escape(&path),
            r = json_escape(&route),
            status = resp.status,
            us = started.elapsed().as_micros(),
            bytes = resp.body.len(),
            t = json_escape(&tenant),
        ));
        resp
    }
}

/// Per-route server-side telemetry: a latency-histogram family keyed by
/// the matched route pattern (from [`ROUTE_HEADER`], label
/// [`UNMATCHED_ROUTE`] when absent) and an in-flight-request gauge with
/// a high-water peak. Registers `tsr_http_request_duration_us` and
/// `tsr_http_requests_in_flight` (plus its `_peak`) in the given
/// [`Registry`].
pub struct Telemetry {
    latency: HistogramVec,
    in_flight: Gauge,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").finish()
    }
}

impl Telemetry {
    /// Registers the telemetry families in `registry` and returns the
    /// middleware recording into them.
    pub fn new(registry: &Registry) -> Self {
        let latency = registry.histogram_vec(
            "tsr_http_request_duration_us",
            "Server-side request latency by matched route pattern, microseconds.",
            "route",
            LATENCY_BUCKETS_US,
        );
        let in_flight = registry.gauge(
            "tsr_http_requests_in_flight",
            "Requests currently inside the middleware chain.",
        );
        let peak_source = in_flight.clone();
        registry.gauge_fn(
            "tsr_http_requests_in_flight_peak",
            "High-water mark of concurrently in-flight requests.",
            move || vec![(Vec::new(), peak_source.peak())],
        );
        Telemetry { latency, in_flight }
    }
}

/// Decrements the in-flight gauge even when the inner chain unwinds
/// (the outer [`CatchPanic`] layer catches the panic after this drops).
struct InFlightGuard(Gauge);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

impl Middleware for Telemetry {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        self.in_flight.inc();
        let _guard = InFlightGuard(self.in_flight.clone());
        let started = Instant::now();
        let resp = next(req);
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let route = resp
            .headers
            .get(ROUTE_HEADER)
            .map(String::as_str)
            .unwrap_or(UNMATCHED_ROUTE);
        self.latency.with(route).observe(us);
        resp
    }
}

/// Token-bucket rate limiting: up to `capacity` requests in a burst,
/// refilled at `refill_per_sec` tokens per second. Over-limit requests are
/// answered with 429 and a `retry-after` hint.
#[derive(Debug)]
pub struct RateLimit {
    capacity: f64,
    refill_per_sec: f64,
    state: Mutex<(f64, Instant)>,
}

impl RateLimit {
    /// A bucket starting full.
    pub fn new(capacity: u32, refill_per_sec: f64) -> Self {
        RateLimit {
            capacity: f64::from(capacity),
            refill_per_sec,
            state: Mutex::new((f64::from(capacity), Instant::now())),
        }
    }

    /// Takes one token, refilling for elapsed time first.
    fn try_take(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (ref mut tokens, ref mut last) = *state;
        let now = Instant::now();
        *tokens = (*tokens + now.duration_since(*last).as_secs_f64() * self.refill_per_sec)
            .min(self.capacity);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

impl Middleware for RateLimit {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        if self.try_take() {
            next(req)
        } else {
            let retry = if self.refill_per_sec > 0.0 {
                (1.0 / self.refill_per_sec).ceil().max(1.0) as u64
            } else {
                1
            };
            Response::json(
                429,
                r#"{"code":"rate_limited","message":"too many requests","detail":"token bucket empty"}"#.to_string(),
            )
            .with_header("retry-after", &retry.to_string())
        }
    }
}

/// Rejects requests whose body exceeds the limit with 413.
///
/// The transport applies a coarse cap before reading
/// ([`ServerConfig::max_body`](crate::ServerConfig)); this layer lets an
/// API mount a tighter, route-stack-specific limit.
#[derive(Debug, Clone, Copy)]
pub struct BodyLimit(pub usize);

impl Middleware for BodyLimit {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        if req.body.len() > self.0 {
            Response::json(
                413,
                format!(
                    r#"{{"code":"payload_too_large","message":"request body exceeds limit","detail":"limit={} bytes"}}"#,
                    self.0
                ),
            )
        } else {
            next(req)
        }
    }
}

/// Converts handler panics into clean 500 responses (the connection and
/// worker survive). The 500 echoes the `x-request-id` an inner
/// [`RequestId`] layer put on the request before the panic unwound
/// through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatchPanic;

impl Middleware for CatchPanic {
    fn handle(&self, req: &mut Request, next: &dyn Fn(&mut Request) -> Response) -> Response {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| next(&mut *req))) {
            Ok(resp) => resp,
            Err(_) => {
                let resp = Response::json(
                    500,
                    r#"{"code":"internal","message":"internal server error","detail":"handler panicked"}"#.to_string(),
                );
                match req.headers.get("x-request-id") {
                    Some(id) => resp.with_header("x-request-id", id),
                    None => resp,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Request {
        Request {
            method: "GET".into(),
            path: "/t".into(),
            headers: Default::default(),
            body: vec![],
        }
    }

    #[test]
    fn rate_limit_denies_after_burst() {
        let chain = Chain::new(|_: &mut Request| Response::ok(vec![])).wrap(RateLimit::new(2, 0.0));
        assert_eq!(chain.handle(&mut request()).status, 200);
        assert_eq!(chain.handle(&mut request()).status, 200);
        let denied = chain.handle(&mut request());
        assert_eq!(denied.status, 429);
        assert!(denied.headers.contains_key("retry-after"));
    }

    #[test]
    fn request_id_preserved_when_present() {
        let chain = Chain::new(|req: &mut Request| {
            Response::ok(req.headers["x-request-id"].clone().into_bytes())
        })
        .wrap(RequestId::new());
        let mut req = request();
        req.headers
            .insert("x-request-id".into(), "client-chosen".into());
        let resp = chain.handle(&mut req);
        assert_eq!(resp.body, b"client-chosen");
        assert_eq!(resp.headers["x-request-id"], "client-chosen");
    }

    #[test]
    fn catch_panic_yields_500() {
        let chain = Chain::new(|_: &mut Request| -> Response { panic!("boom") }).wrap(CatchPanic);
        let resp = chain.handle(&mut request());
        assert_eq!(resp.status, 500);
        assert!(String::from_utf8_lossy(&resp.body).contains("internal"));
    }

    #[test]
    fn access_log_emits_canonical_json_and_strips_internal_headers() {
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let captured = lines.clone();
        let chain = Chain::new(|_: &mut Request| {
            Response::ok(b"12345".to_vec())
                .with_header(ROUTE_HEADER, "GET /t/:id")
                .with_header(TENANT_HEADER, "repo-1")
        })
        .wrap(AccessLog::new(move |line| {
            captured.lock().unwrap().push(line.to_string());
        }));
        let mut req = request();
        req.headers
            .insert("x-request-id".into(), "req-00000001".into());
        let resp = chain.handle(&mut req);
        assert!(!resp.headers.contains_key(ROUTE_HEADER));
        assert!(!resp.headers.contains_key(TENANT_HEADER));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        assert!(line.starts_with("{\"ts_us\":"), "{line}");
        for needle in [
            "\"request_id\":\"req-00000001\"",
            "\"method\":\"GET\"",
            "\"path\":\"/t\"",
            "\"route\":\"GET /t/:id\"",
            "\"status\":200,",
            "\"bytes\":5,",
            "\"tenant\":\"repo-1\"",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn json_escape_control_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn telemetry_records_route_latency_and_in_flight_peak() {
        let registry = Registry::new();
        let telemetry = Telemetry::new(&registry);
        let chain =
            Chain::new(|_: &mut Request| Response::ok(vec![]).with_header(ROUTE_HEADER, "GET /t"))
                .wrap(telemetry);
        for _ in 0..3 {
            assert_eq!(chain.handle(&mut request()).status, 200);
        }
        let text = registry.render_prometheus();
        assert!(
            text.contains("tsr_http_request_duration_us_count{route=\"GET /t\"} 3"),
            "{text}"
        );
        assert!(text.contains("tsr_http_requests_in_flight 0"), "{text}");
        assert!(
            text.contains("tsr_http_requests_in_flight_peak 1"),
            "{text}"
        );
    }

    #[test]
    fn telemetry_in_flight_survives_panicking_handler() {
        let registry = Registry::new();
        let chain = Chain::new(|_: &mut Request| -> Response { panic!("boom") })
            .wrap(Telemetry::new(&registry))
            .wrap(CatchPanic);
        assert_eq!(chain.handle(&mut request()).status, 500);
        assert!(registry
            .render_prometheus()
            .contains("tsr_http_requests_in_flight 0"));
    }

    #[test]
    fn body_limit_rejects_oversize() {
        let chain = Chain::new(|_: &mut Request| Response::ok(vec![])).wrap(BodyLimit(4));
        let mut req = request();
        req.body = vec![0; 8];
        assert_eq!(chain.handle(&mut req).status, 413);
        req.body = vec![0; 4];
        assert_eq!(chain.handle(&mut req).status, 200);
    }
}
