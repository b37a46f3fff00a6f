//! Mounting the service on a socket: the middleware stack, the
//! transport configuration, and the tunables for both.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use tsr_http::middleware::{
    AccessLog, BodyLimit, CatchPanic, Chain, RateLimit, RequestId, Telemetry,
};
use tsr_http::{Request, Response, Server, ServerConfig};

use crate::service::TsrService;

impl TsrService {
    /// Binds an HTTP server exposing [`Self::handle`] behind the default
    /// middleware stack ([`ApiOptions::default`]).
    ///
    /// # Errors
    ///
    /// [`tsr_http::HttpError`] when the address cannot be bound.
    pub fn serve(&self, addr: &str) -> Result<Server, tsr_http::HttpError> {
        self.serve_with_options(addr, ApiOptions::default())
    }

    /// Binds an HTTP server with explicit middleware/transport tunables
    /// ([`Self::mount`] with [`Self::handle`] as the terminal).
    ///
    /// # Errors
    ///
    /// [`tsr_http::HttpError`] when the address cannot be bound.
    pub fn serve_with_options(
        &self,
        addr: &str,
        options: ApiOptions,
    ) -> Result<Server, tsr_http::HttpError> {
        let service = self.clone();
        self.mount(addr, options, move |req| service.handle(req))
    }

    /// Binds an HTTP server running `terminal` behind the middleware
    /// stack — the one place the stack is assembled; a cluster node
    /// mounts its own router through it.
    ///
    /// The stack, outermost first: panic containment → request-id
    /// injection → structured access log → telemetry (latency
    /// histograms + in-flight gauges into [`Self::obs_registry`]) →
    /// token-bucket rate limit → body-size guard → `terminal`. Binding
    /// also registers scrape-time gauges over the reactor's two-class
    /// job-queue depths (and their high-water marks) in the registry.
    ///
    /// Two body limits apply at different layers: requests over
    /// [`ApiOptions::max_body`] get the middleware's JSON 413 envelope;
    /// the transport additionally refuses to *read* bodies over four
    /// times that (memory protection — those get the transport's plain
    /// 413 and a closed connection).
    ///
    /// # Errors
    ///
    /// [`tsr_http::HttpError`] when the address cannot be bound.
    pub fn mount(
        &self,
        addr: &str,
        options: ApiOptions,
        terminal: impl Fn(&mut Request) -> Response + Send + Sync + 'static,
    ) -> Result<Server, tsr_http::HttpError> {
        let mut chain = Chain::new(terminal).wrap(BodyLimit(options.max_body));
        if let Some((burst, per_sec)) = options.rate_limit {
            chain = chain.wrap(RateLimit::new(burst, per_sec));
        }
        let access_log = match &options.access_log {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(tsr_http::HttpError::Io)?;
                let file = Mutex::new(file);
                AccessLog::new(move |line| {
                    let mut f = file.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = writeln!(f, "{line}");
                })
            }
            None => AccessLog::default(),
        };
        let chain = chain
            .wrap(Telemetry::new(self.obs_registry()))
            .wrap(access_log)
            .wrap(RequestId::new())
            .wrap(CatchPanic);
        let server = Server::bind_with_config(
            addr,
            chain.into_handler(),
            ServerConfig {
                workers: options.workers,
                read_deadline: options.read_deadline,
                max_body: options.max_body.saturating_mul(4),
                // A refresh burns hundreds of CPU-bound milliseconds in
                // quorum verification + re-signing; classing it as Bulk
                // keeps index/package reads off its tail on small pools.
                classify: Some(std::sync::Arc::new(classify_request)),
            },
        )?;
        // Queue depths are owned by the reactor; sample them at scrape
        // time. Re-binding (tests spin up several servers per service)
        // replaces the callback with the newest server's queues.
        let stats = server.queue_stats();
        self.obs_registry().gauge_fn(
            "tsr_http_worker_queue_depth",
            "Jobs waiting in the reactor's two-class worker queue.",
            move || {
                let (serve, bulk) = stats.depths();
                vec![
                    (
                        vec![("class".to_string(), "serve".to_string())],
                        serve as i64,
                    ),
                    (vec![("class".to_string(), "bulk".to_string())], bulk as i64),
                ]
            },
        );
        let stats = server.queue_stats();
        self.obs_registry().gauge_fn(
            "tsr_http_worker_queue_depth_peak",
            "High-water mark of the worker queue depth since bind.",
            move || {
                let (serve, bulk) = stats.peaks();
                vec![
                    (
                        vec![("class".to_string(), "serve".to_string())],
                        serve as i64,
                    ),
                    (vec![("class".to_string(), "bulk".to_string())], bulk as i64),
                ]
            },
        );
        Ok(server)
    }
}

/// Transport-level scheduling class for one API request: CPU-bound
/// administrative mutations (`POST …/refresh`) go to the bulk lane so the
/// serving path never queues behind them (see [`tsr_http::JobClass`]).
fn classify_request(req: &Request) -> tsr_http::JobClass {
    let path = req.path.split('?').next().unwrap_or("");
    if req.method == "POST" && path.trim_end_matches('/').ends_with("/refresh") {
        tsr_http::JobClass::Bulk
    } else {
        tsr_http::JobClass::Serve
    }
}

/// Tunables for [`TsrService::mount`].
#[derive(Debug, Clone)]
pub struct ApiOptions {
    /// Worker-pool size of the HTTP server.
    pub workers: usize,
    /// Token-bucket rate limit `(burst, refill per second)`; `None`
    /// disables limiting.
    pub rate_limit: Option<(u32, f64)>,
    /// Maximum request-body size (policies are small; 16 MiB default).
    pub max_body: usize,
    /// Slow-loris read deadline on the socket.
    pub read_deadline: Duration,
    /// When set, one structured JSON access-log line per request is
    /// appended to this file. When `None`, lines go to stderr only if
    /// the `TSR_HTTP_LOG` environment variable is set (the
    /// [`AccessLog::default`] behaviour).
    pub access_log: Option<PathBuf>,
}

impl Default for ApiOptions {
    fn default() -> Self {
        ApiOptions {
            workers: tsr_http::default_pool_size(),
            // Generous: protects against floods without throttling tests.
            rate_limit: Some((10_000, 10_000.0)),
            max_body: 16 << 20,
            read_deadline: Duration::from_secs(10),
            access_log: None,
        }
    }
}
