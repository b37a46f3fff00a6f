//! # tsr-http
//!
//! A minimal HTTP/1.1 server and client over `std::net` — the replacement
//! for the Hyper/Rustls stack the paper's prototype uses for TSR's REST API
//! (§5). Enough of the protocol for a package manager to fetch indexes and
//! packages from TSR, and for OS owners to deploy policies.
//!
//! Besides the transport ([`Server`] / [`Client`]), the crate provides the
//! building blocks of the versioned REST surface:
//!
//! - [`reactor`]: the epoll-backed non-blocking event loop behind
//!   [`Server`] — per-connection readiness state machines, a deadline
//!   wheel for slow-loris/idle timeouts, and vectored response writes,
//! - [`router`]: a path-pattern router with `:param` captures, static-over-
//!   param precedence, and 405-vs-404 discrimination,
//! - [`middleware`]: a composable middleware chain (request-id injection,
//!   structured access logging, token-bucket rate limiting, body-size
//!   guard, panic containment),
//! - [`Response`] helpers that set `Content-Type` and support
//!   ETag/`If-None-Match` conditional GETs, plus [`Body::Shared`] for
//!   serving one `Arc<[u8]>` blob to many connections without cloning.
//!
//! # Examples
//!
//! ```
//! use tsr_http::{Response, Server, Client};
//!
//! let server = Server::bind("127.0.0.1:0", |req| {
//!     Response::ok(format!("hello {}", req.path).into_bytes())
//! })?;
//! let url = format!("http://{}/world", server.local_addr());
//! let resp = Client::new().get(&url)?;
//! assert_eq!(resp.body, b"hello /world");
//! server.shutdown();
//! # Ok::<(), tsr_http::HttpError>(())
//! ```

#![warn(missing_docs)]

pub mod middleware;
pub mod reactor;
pub mod router;

pub use reactor::{QueueStats, Server};

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Errors produced by HTTP operations.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed request/response or URL.
    Protocol(String),
    /// Non-2xx response surfaced via [`Response::into_result`].
    Status(u16, Vec<u8>),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http io error: {e}"),
            HttpError::Protocol(m) => write!(f, "http protocol error: {m}"),
            HttpError::Status(code, _) => write!(f, "http status {code}"),
        }
    }
}

impl Error for HttpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request path including query (e.g. `/v1/index`).
    pub path: String,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
}

/// A response body: either bytes owned by this response, or a reference
/// into a shared immutable blob.
///
/// [`Body::Shared`] is the zero-copy hot path: one `Arc<[u8]>` (a signed
/// index, a package blob) is served to any number of concurrent
/// connections without per-response cloning — the reactor's vectored
/// writer reads straight out of the shared allocation.
#[derive(Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// A shared immutable blob (served without copying).
    Shared(Arc<[u8]>),
}

impl Body {
    /// The empty body.
    pub fn empty() -> Self {
        Body::Owned(Vec::new())
    }

    /// The body bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a,
        }
    }

    /// Converts into owned bytes (copies only for a [`Body::Shared`]).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Owned(v) => v,
            Body::Shared(a) => a.to_vec(),
        }
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Owned(v) => write!(f, "Owned({} bytes)", v.len()),
            Body::Shared(a) => write!(f, "Shared({} bytes)", a.len()),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Self {
        Body::Owned(v)
    }
}

impl From<Arc<[u8]>> for Body {
    fn from(a: Arc<[u8]>) -> Self {
        Body::Shared(a)
    }
}

impl From<&[u8]> for Body {
    fn from(b: &[u8]) -> Self {
        Body::Owned(b.to_vec())
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// An arbitrary-status response with an explicit `Content-Type`.
    pub fn with_content_type(status: u16, content_type: &str, body: Vec<u8>) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert("content-type".to_string(), content_type.to_string());
        Response {
            status,
            headers,
            body: Body::Owned(body),
        }
    }

    /// 200 with a binary body (`application/octet-stream`).
    pub fn ok(body: Vec<u8>) -> Self {
        Response::with_content_type(200, "application/octet-stream", body)
    }

    /// 200 serving a shared blob (`application/octet-stream`) without
    /// copying — the zero-copy hot path for index/package GETs.
    pub fn shared(body: Arc<[u8]>) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert(
            "content-type".to_string(),
            "application/octet-stream".to_string(),
        );
        Response {
            status: 200,
            headers,
            body: Body::Shared(body),
        }
    }

    /// An arbitrary-status `text/plain` response.
    pub fn text(status: u16, msg: &str) -> Self {
        Response::with_content_type(status, "text/plain; charset=utf-8", msg.as_bytes().to_vec())
    }

    /// An arbitrary-status `application/json` response from pre-encoded
    /// JSON text.
    pub fn json(status: u16, json: String) -> Self {
        Response::with_content_type(status, "application/json", json.into_bytes())
    }

    /// 204 with no body.
    pub fn no_content() -> Self {
        Response {
            status: 204,
            headers: BTreeMap::new(),
            body: Body::empty(),
        }
    }

    /// 304 carrying the entity tag that matched.
    pub fn not_modified(etag: &str) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert("etag".to_string(), etag.to_string());
        Response {
            status: 304,
            headers,
            body: Body::empty(),
        }
    }

    /// 404 with a text message.
    pub fn not_found(msg: &str) -> Self {
        Response::text(404, msg)
    }

    /// 400 with a text message.
    pub fn bad_request(msg: &str) -> Self {
        Response::text(400, msg)
    }

    /// Adds/replaces one header (builder style). Header names are
    /// lower-cased.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Attaches an `ETag` header (builder style).
    pub fn with_etag(self, etag: &str) -> Self {
        self.with_header("etag", etag)
    }

    /// Converts non-2xx responses into [`HttpError::Status`].
    ///
    /// # Errors
    ///
    /// Returns the status and body for non-success responses.
    pub fn into_result(self) -> Result<Response, HttpError> {
        if (200..300).contains(&self.status) || self.status == 304 {
            Ok(self)
        } else {
            Err(HttpError::Status(self.status, self.body.into_vec()))
        }
    }
}

/// True when the request's `If-None-Match` header matches `etag` (either
/// the wildcard `*` or a comma-separated list containing the tag).
pub fn etag_matches(req: &Request, etag: &str) -> bool {
    match req.headers.get("if-none-match") {
        None => false,
        Some(v) => {
            v.trim() == "*"
                || v.split(',')
                    .any(|candidate| candidate.trim().trim_start_matches("W/") == etag)
        }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Formats a `SystemTime` as an RFC 7231 `Date` header value
/// (`Tue, 29 Jul 2026 12:00:00 GMT`).
pub fn http_date(t: SystemTime) -> String {
    let secs = t
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for our era.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    const WEEKDAYS: [&str; 7] = ["Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"];
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    format!(
        "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
        WEEKDAYS[days.rem_euclid(7) as usize],
        d,
        MONTHS[(month - 1) as usize],
        year,
        h,
        m,
        s
    )
}

/// The request handler type. Handlers get `&mut Request` so middleware can
/// enrich requests in flight (e.g. request-id injection).
pub type Handler = dyn Fn(&mut Request) -> Response + Send + Sync;

/// The default handler-pool size for [`Server::bind`]: twice the available
/// cores, but at least 8 threads so small machines still overlap slow
/// handlers. (Connections are no longer bounded by this — the reactor
/// multiplexes any number of sockets; the pool only bounds concurrently
/// *executing* handlers.)
pub fn default_pool_size() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get() * 2)
        .unwrap_or(8)
        .max(8)
}

/// The scheduling class of one handler job (see [`ServerConfig::classify`]).
///
/// Workers always drain `Serve` jobs before touching `Bulk` ones, so a
/// CPU-bound administrative request (a repository refresh chews through
/// quorum verification and re-signing for hundreds of milliseconds) queued
/// ahead of cheap read traffic cannot add head-of-line latency to that
/// traffic on small worker pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Latency-sensitive work: served strictly before any `Bulk` job.
    Serve,
    /// Throughput work that tolerates queueing behind the serving path.
    Bulk,
}

/// A request classifier: assigns each parsed request a [`JobClass`]
/// before it is queued for the worker pool.
pub type ClassifyFn = Arc<dyn Fn(&Request) -> JobClass + Send + Sync>;

/// Tunables for [`Server::bind_with_config`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Handler worker-pool size (at least 1). Bounds how many handlers
    /// execute concurrently — NOT how many connections the server holds.
    pub workers: usize,
    /// Total deadline for reading one request (head *and* body). A client
    /// trickling bytes slower than this — a slow-loris — is answered with
    /// 408 (when the head never completed) and disconnected; an idle
    /// keep-alive connection is closed silently. The same budget guards
    /// response writes against stalled readers.
    pub read_deadline: Duration,
    /// Maximum accepted request-body size; larger requests get 413 and the
    /// connection is closed without reading the body.
    pub max_body: usize,
    /// Assigns each parsed request a [`JobClass`] before it is queued for
    /// the worker pool. `None` treats every request as [`JobClass::Serve`]
    /// (a single FIFO, the pre-priority behavior).
    pub classify: Option<ClassifyFn>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("read_deadline", &self.read_deadline)
            .field("max_body", &self.max_body)
            .field("classify", &self.classify.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: default_pool_size(),
            read_deadline: Duration::from_secs(10),
            max_body: 256 << 20,
            classify: None,
        }
    }
}

/// Largest accepted request head (request line + headers).
pub(crate) const MAX_HEAD: usize = 64 * 1024;

pub(crate) fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Strict RFC 9112 `Content-Length` parse: a non-empty run of ASCII
/// digits, nothing else. Rust's `usize::from_str` accepts a leading `+`
/// (`"+10"` parses as 10), which is exactly the kind of lenient parse
/// that request-smuggling shapes exploit — so both the server and the
/// client reject it here.
pub(crate) fn parse_content_length(v: &str) -> Option<usize> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse().ok()
}

/// Parses the request head (request line + header lines).
pub(crate) fn parse_head(
    head: &[u8],
) -> Result<(String, String, BTreeMap<String, String>), String> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        // The head splits on \r\n only; a bare LF (or any control byte)
        // smuggled inside a header value would otherwise survive into the
        // header map and — once echoed (e.g. x-request-id) — split the
        // *response* head. Reject such requests outright.
        if line.chars().any(|c| c.is_control() && c != '\t') {
            // Deliberately not echoing the line: it is attacker-shaped.
            return Err("control character in header line".to_string());
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok((method, path, headers))
}

/// The result of attempting to parse one request out of a connection's
/// receive buffer (the reactor calls this after every read).
pub(crate) enum ParseOutcome {
    /// Not enough bytes yet — keep the buffer, wait for more.
    Incomplete,
    /// One complete request; `consumed` bytes must be drained from the
    /// buffer (pipelined successors stay behind).
    Request {
        /// The parsed request.
        req: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The head exceeded [`MAX_HEAD`] → 431.
    HeadTooLarge,
    /// Declared body larger than the configured maximum → 413. Carries the
    /// declared length (so a bounded drain can avoid an RST destroying the
    /// in-flight error response) and the head length to discard.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// Length of the (parsed, now useless) head in the buffer.
        head_len: usize,
    },
    /// Unparseable request → 400.
    Malformed(String),
    /// `Transfer-Encoding` is not supported → 501. Ignoring it and
    /// trusting `Content-Length` would desynchronize keep-alive
    /// connections (the classic TE/CL request-smuggling shape), so such
    /// requests are refused outright.
    UnsupportedTransferEncoding,
}

/// Tries to parse one complete request from `buf` without consuming it.
pub(crate) fn try_parse_request(buf: &[u8], max_body: usize) -> ParseOutcome {
    let Some(end) = find_double_crlf(buf) else {
        return if buf.len() > MAX_HEAD {
            ParseOutcome::HeadTooLarge
        } else {
            ParseOutcome::Incomplete
        };
    };
    let head_len = end + 4;
    if head_len > MAX_HEAD {
        return ParseOutcome::HeadTooLarge;
    }
    let (method, path, headers) = match parse_head(&buf[..head_len]) {
        Ok(t) => t,
        Err(m) => return ParseOutcome::Malformed(m),
    };
    if headers.contains_key("transfer-encoding") {
        return ParseOutcome::UnsupportedTransferEncoding;
    }
    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => match parse_content_length(v) {
            Some(n) => n,
            None => return ParseOutcome::Malformed(format!("bad content-length {v:?}")),
        },
    };
    if len > max_body {
        return ParseOutcome::BodyTooLarge {
            declared: len,
            head_len,
        };
    }
    if buf.len() < head_len + len {
        return ParseOutcome::Incomplete;
    }
    let body = buf[head_len..head_len + len].to_vec();
    ParseOutcome::Request {
        req: Request {
            method,
            path,
            headers,
            body,
        },
        consumed: head_len + len,
    }
}

/// Serializes a response head. `Content-Length` is omitted on 1xx/204
/// (RFC 9110 §8.6) **and on 304**: a 304 carries no body, and a
/// `Content-Length` on it would have to describe the selected
/// representation — emitting `0` (as we once did) tells a compliant
/// cache the resource is empty.
pub(crate) fn encode_response_head(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, status_text(resp.status));
    let bodyless_status =
        resp.status == 204 || resp.status == 304 || (100..200).contains(&resp.status);
    if !bodyless_status {
        head.push_str(&format!("content-length: {}\r\n", resp.body.len()));
    }
    // Standard response headers, set centrally so handlers never have to.
    if !resp.headers.contains_key("date") {
        head.push_str(&format!("date: {}\r\n", http_date(SystemTime::now())));
    }
    if !resp.headers.contains_key("server") {
        head.push_str("server: tsr-http/0.1\r\n");
    }
    for (k, v) in &resp.headers {
        // Never emit a header that could split the head (CR/LF or other
        // control bytes in names/values) — drop it instead.
        let injectable = |s: &str| s.chars().any(|c| c.is_control());
        if k != "content-length" && !injectable(k) && !injectable(v) {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    head.into_bytes()
}

fn read_headers<R: BufRead>(reader: &mut R) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(HttpError::Protocol("eof in headers".into()));
        }
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Protocol(format!("bad header line {line:?}")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &BTreeMap<String, String>,
) -> Result<Vec<u8>, HttpError> {
    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => parse_content_length(v)
            .ok_or_else(|| HttpError::Protocol(format!("bad content-length {v:?}")))?,
    };
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// A simple HTTP client.
///
/// By default each request opens a fresh connection and sends
/// `connection: close`. [`Client::with_keep_alive`] instead pools one
/// connection and reuses it across sequential requests — the load
/// harness gives each worker thread its own pooled client, so a worker
/// pays the TCP handshake once instead of per request.
#[derive(Debug, Clone, Default)]
pub struct Client {
    timeout: Option<Duration>,
    /// One cached `(host, connection)`; clones share it, so keep a
    /// pooled client on a single thread (one request in flight at a
    /// time) and give each worker its own.
    pool: Option<ConnPool>,
}

/// The single-slot keep-alive connection cache shared by clones of a
/// pooled [`Client`].
type ConnPool = Arc<Mutex<Option<(String, TcpStream)>>>;

impl Client {
    /// A client with a 10-second default timeout.
    pub fn new() -> Self {
        Client {
            timeout: Some(Duration::from_secs(10)),
            pool: None,
        }
    }

    /// A client with an explicit per-operation timeout, applied to
    /// connection establishment and every socket read/write.
    pub fn with_timeout(timeout: Duration) -> Self {
        Client {
            timeout: Some(timeout),
            pool: None,
        }
    }

    /// A keep-alive client: caches one connection and reuses it while
    /// the server keeps it open.
    ///
    /// When a *reused* connection fails mid-request — an I/O error, or a
    /// clean EOF before any status-line byte — the request is retried
    /// once on a fresh connection. The dominant cause is the server
    /// having idled out the cached connection, which is indistinguishable
    /// from it never existing. Callers for whom a non-idempotent retry is
    /// unacceptable should use [`Client::new`].
    pub fn with_keep_alive(timeout: Duration) -> Self {
        Client {
            timeout: Some(timeout),
            pool: Some(Arc::new(Mutex::new(None))),
        }
    }

    /// Issues a GET request to an `http://host:port/path` URL.
    ///
    /// # Errors
    ///
    /// [`HttpError::Protocol`] on malformed URLs, [`HttpError::Io`] on
    /// connection problems.
    pub fn get(&self, url: &str) -> Result<Response, HttpError> {
        self.request("GET", url, &[], &[])
    }

    /// Issues a POST request with a body.
    ///
    /// # Errors
    ///
    /// Same as [`Self::get`].
    pub fn post(&self, url: &str, body: &[u8]) -> Result<Response, HttpError> {
        self.request("POST", url, body, &[])
    }

    /// Issues an arbitrary-method request with extra headers
    /// (`(name, value)` pairs).
    ///
    /// # Errors
    ///
    /// Same as [`Self::get`].
    pub fn request(
        &self,
        method: &str,
        url: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
    ) -> Result<Response, HttpError> {
        let (host, path) = parse_url(url)?;
        let Some(pool) = &self.pool else {
            let stream = self.fresh_conn(&host)?;
            return Self::exchange(&stream, method, &host, &path, body, extra_headers, false);
        };

        // Keep-alive mode: reuse the cached connection when the host
        // matches, retrying once on a fresh one if the reuse fails (the
        // server may have idled the cached connection out).
        let cached = {
            let mut slot = pool
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match slot.take() {
                Some((h, s)) if h == host => Some(s),
                _ => None,
            }
        };
        let (stream, reused) = match cached {
            Some(s) => (s, true),
            None => (self.fresh_conn(&host)?, false),
        };
        let resp = Self::exchange(&stream, method, &host, &path, body, extra_headers, true);
        let resp = match resp {
            // A dead reused connection surfaces as an I/O error — which
            // includes the EOF-before-status-line shape a server's idle
            // timeout produces (a FIN race the old code misclassified as
            // a protocol error, so the documented retry never fired).
            Err(HttpError::Io(_)) if reused => {
                let stream2 = self.fresh_conn(&host)?;
                let r = Self::exchange(&stream2, method, &host, &path, body, extra_headers, true)?;
                Self::pool_back(pool, &host, stream2, &r);
                return Ok(r);
            }
            other => other?,
        };
        Self::pool_back(pool, &host, stream, &resp);
        Ok(resp)
    }

    /// Returns a connection to the pool unless the server asked to close.
    fn pool_back(pool: &ConnPool, host: &str, stream: TcpStream, resp: &Response) {
        let closing = resp
            .headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        if !closing {
            let mut slot = pool
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *slot = Some((host.to_string(), stream));
        }
    }

    /// One request/response exchange on an established connection.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        stream: &TcpStream,
        method: &str,
        host: &str,
        path: &str,
        body: &[u8],
        extra_headers: &[(&str, &str)],
        keep_alive: bool,
    ) -> Result<Response, HttpError> {
        let mut w = stream;
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (k, v) in extra_headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        w.write_all(head.as_bytes())?;
        w.write_all(body)?;
        w.flush()?;

        // A fresh BufReader per exchange is safe here: this client has
        // exactly one response outstanding, so the buffer never holds
        // bytes of a later response when it is dropped.
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            // EOF before any status byte: the peer closed the connection
            // under us. Surfaced as Io (not Protocol) so pooled reuse of
            // an idled-out connection takes the retry path.
            return Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            )));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::Protocol(format!("bad status line {status_line:?}")))?;
        let headers = read_headers(&mut reader)?;
        // HEAD and 304/204/1xx exchanges carry no body regardless of any
        // Content-Length (which, for HEAD and 304, describes the selected
        // representation rather than this message).
        let bodyless = method.eq_ignore_ascii_case("HEAD")
            || status == 304
            || status == 204
            || (100..200).contains(&status);
        let body = if bodyless {
            Vec::new()
        } else {
            read_body(&mut reader, &headers)?
        };
        Ok(Response {
            status,
            headers,
            body: Body::Owned(body),
        })
    }

    /// Opens a new connection with timeouts applied.
    fn fresh_conn(&self, host: &str) -> Result<TcpStream, HttpError> {
        let stream = self.connect(host)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        Ok(stream)
    }

    /// Connects with the configured timeout (when one is set).
    fn connect(&self, host: &str) -> Result<TcpStream, HttpError> {
        match self.timeout {
            None => Ok(TcpStream::connect(host)?),
            Some(t) => {
                let addr = host
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| HttpError::Protocol(format!("unresolvable host {host:?}")))?;
                Ok(TcpStream::connect_timeout(&addr, t)?)
            }
        }
    }
}

fn parse_url(url: &str) -> Result<(String, String), HttpError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| HttpError::Protocol(format!("unsupported url {url:?}")))?;
    // The authority ends at the first `/` OR `?` — `http://host?q=1` has
    // an empty path and an immediate query, not a host named `host?q=1`.
    let (host, path) = match rest.find(['/', '?']) {
        Some(i) if rest.as_bytes()[i] == b'/' => (&rest[..i], rest[i..].to_string()),
        Some(i) => (&rest[..i], format!("/{}", &rest[i..])),
        None => (rest, "/".to_string()),
    };
    if host.is_empty() {
        return Err(HttpError::Protocol("empty host".into()));
    }
    Ok((host.to_string(), path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant;

    fn echo_server() -> Server {
        Server::bind("127.0.0.1:0", |req| {
            let mut r = Response::ok(req.body.clone());
            r.headers.insert("x-path".into(), req.path.clone());
            r.headers.insert("x-method".into(), req.method.clone());
            r
        })
        .unwrap()
    }

    #[test]
    fn get_roundtrip() {
        let s = echo_server();
        let resp = Client::new()
            .get(&format!("http://{}/some/path?q=1", s.local_addr()))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-path").unwrap(), "/some/path?q=1");
        assert_eq!(resp.headers.get("x-method").unwrap(), "GET");
        s.shutdown();
    }

    #[test]
    fn post_body_roundtrip() {
        let s = echo_server();
        let payload = vec![0u8, 1, 2, 250, 255];
        let resp = Client::new()
            .post(&format!("http://{}/upload", s.local_addr()), &payload)
            .unwrap();
        assert_eq!(resp.body, payload);
        s.shutdown();
    }

    #[test]
    fn large_binary_body() {
        let s = echo_server();
        let payload: Vec<u8> = (0..=255u8).cycle().take(300_000).collect();
        let resp = Client::new()
            .post(&format!("http://{}/big", s.local_addr()), &payload)
            .unwrap();
        assert_eq!(resp.body.len(), payload.len());
        assert_eq!(resp.body, payload);
        s.shutdown();
    }

    #[test]
    fn not_found_and_into_result() {
        let s = Server::bind("127.0.0.1:0", |_| Response::not_found("nope")).unwrap();
        let resp = Client::new()
            .get(&format!("http://{}/x", s.local_addr()))
            .unwrap();
        assert_eq!(resp.status, 404);
        assert!(matches!(resp.into_result(), Err(HttpError::Status(404, _))));
        s.shutdown();
    }

    #[test]
    fn ok_into_result_passes() {
        assert!(Response::ok(vec![]).into_result().is_ok());
    }

    #[test]
    fn responses_carry_standard_headers() {
        let s = echo_server();
        let resp = Client::new()
            .get(&format!("http://{}/h", s.local_addr()))
            .unwrap();
        assert_eq!(
            resp.headers.get("content-type").unwrap(),
            "application/octet-stream"
        );
        assert!(resp.headers.get("date").unwrap().ends_with("GMT"));
        assert!(resp.headers.get("server").unwrap().starts_with("tsr-http"));
        s.shutdown();
    }

    #[test]
    fn content_type_helpers() {
        assert_eq!(
            Response::text(400, "x")
                .headers
                .get("content-type")
                .unwrap(),
            "text/plain; charset=utf-8"
        );
        assert_eq!(
            Response::json(200, "{}".into())
                .headers
                .get("content-type")
                .unwrap(),
            "application/json"
        );
        assert_eq!(Response::no_content().status, 204);
        assert_eq!(
            Response::not_modified("\"abc\"")
                .headers
                .get("etag")
                .unwrap(),
            "\"abc\""
        );
    }

    #[test]
    fn shared_body_serves_without_cloning() {
        let blob: Arc<[u8]> = Arc::from(vec![7u8; 64].into_boxed_slice());
        let resp = Response::shared(blob.clone());
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, vec![7u8; 64]);
        // Still the same allocation: two strong refs (ours + response's).
        assert_eq!(Arc::strong_count(&blob), 2);
    }

    #[test]
    fn body_equality_and_debug() {
        let owned = Body::Owned(b"abc".to_vec());
        let shared = Body::Shared(Arc::from(b"abc".to_vec().into_boxed_slice()));
        assert_eq!(owned, shared);
        assert_eq!(owned, b"abc");
        assert_eq!(shared, b"abc".to_vec());
        assert_eq!(format!("{owned:?}"), "Owned(3 bytes)");
        assert_eq!(format!("{shared:?}"), "Shared(3 bytes)");
        assert_eq!(shared.clone().into_vec(), b"abc");
    }

    #[test]
    fn content_length_must_be_pure_digits() {
        assert_eq!(parse_content_length("0"), Some(0));
        assert_eq!(parse_content_length("123"), Some(123));
        // Rust's usize::parse accepts these; RFC 9112 does not.
        assert_eq!(parse_content_length("+10"), None);
        assert_eq!(parse_content_length("-1"), None);
        assert_eq!(parse_content_length(" 5"), None);
        assert_eq!(parse_content_length("5 "), None);
        assert_eq!(parse_content_length(""), None);
        assert_eq!(parse_content_length("0x10"), None);
        // Overflow is malformed, not truncated.
        assert_eq!(parse_content_length("99999999999999999999999999"), None);
    }

    #[test]
    fn etag_matching() {
        let mut req = Request {
            method: "GET".into(),
            path: "/".into(),
            headers: BTreeMap::new(),
            body: vec![],
        };
        assert!(!etag_matches(&req, "\"a\""));
        req.headers.insert("if-none-match".into(), "\"a\"".into());
        assert!(etag_matches(&req, "\"a\""));
        assert!(!etag_matches(&req, "\"b\""));
        req.headers
            .insert("if-none-match".into(), "\"x\", \"a\"".into());
        assert!(etag_matches(&req, "\"a\""));
        req.headers.insert("if-none-match".into(), "*".into());
        assert!(etag_matches(&req, "\"anything\""));
    }

    #[test]
    fn http_date_format() {
        // 2026-07-29 is a Wednesday.
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_785_283_200);
        assert_eq!(http_date(t), "Wed, 29 Jul 2026 00:00:00 GMT");
        assert_eq!(
            http_date(SystemTime::UNIX_EPOCH),
            "Thu, 01 Jan 1970 00:00:00 GMT"
        );
    }

    #[test]
    fn concurrent_requests() {
        let s = echo_server();
        let addr = s.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = vec![i as u8; 1000];
                    let r = Client::new()
                        .post(&format!("http://{addr}/c"), &body)
                        .unwrap();
                    assert_eq!(r.body, body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        s.shutdown();
    }

    #[test]
    fn bounded_pool_serves_more_clients_than_workers() {
        // 2 handler workers, 12 concurrent clients: every request must
        // still be answered (the reactor holds all the connections; the
        // pool only bounds concurrently-executing handlers).
        let s = Server::bind_with_workers("127.0.0.1:0", |req| Response::ok(req.body.clone()), 2)
            .unwrap();
        assert_eq!(s.worker_count(), 2);
        let addr = s.local_addr();
        let handles: Vec<_> = (0..12)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = vec![i as u8; 256];
                    let r = Client::new()
                        .post(&format!("http://{addr}/q"), &body)
                        .unwrap();
                    assert_eq!(r.body, body);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        s.shutdown();
    }

    #[test]
    fn handler_panic_does_not_kill_the_pool() {
        let s = Server::bind_with_workers(
            "127.0.0.1:0",
            |req| {
                if req.path == "/boom" {
                    panic!("handler exploded");
                }
                Response::ok(b"ok".to_vec())
            },
            1,
        )
        .unwrap();
        let addr = s.local_addr();
        // Two panics on a 1-worker pool…
        for _ in 0..2 {
            let _ = Client::new().get(&format!("http://{addr}/boom"));
        }
        // …and the pool must still answer.
        let r = Client::new().get(&format!("http://{addr}/fine")).unwrap();
        assert_eq!(r.body, b"ok");
        s.shutdown();
    }

    #[test]
    fn oversized_body_rejected_with_413() {
        let s = Server::bind_with_config(
            "127.0.0.1:0",
            |req| Response::ok(req.body.clone()),
            ServerConfig {
                max_body: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let resp = Client::new()
            .post(&format!("http://{}/big", s.local_addr()), &vec![7u8; 4096])
            .unwrap();
        assert_eq!(resp.status, 413);
        s.shutdown();
    }

    #[test]
    fn bad_urls_rejected() {
        let c = Client::new();
        assert!(matches!(
            c.get("https://secure.example"),
            Err(HttpError::Protocol(_))
        ));
        assert!(matches!(c.get("http:///x"), Err(HttpError::Protocol(_))));
        assert!(matches!(c.get("http://?q=1"), Err(HttpError::Protocol(_))));
    }

    #[test]
    fn parse_url_variants() {
        assert_eq!(
            parse_url("http://h:1/p").unwrap(),
            ("h:1".into(), "/p".into())
        );
        assert_eq!(parse_url("http://h:1").unwrap(), ("h:1".into(), "/".into()));
        // `?` ends the authority too: empty path, immediate query.
        assert_eq!(
            parse_url("http://h:1?q=1").unwrap(),
            ("h:1".into(), "/?q=1".into())
        );
        assert_eq!(
            parse_url("http://h:1/p?q=1").unwrap(),
            ("h:1".into(), "/p?q=1".into())
        );
    }

    #[test]
    fn server_drop_shuts_down() {
        let addr;
        {
            let s = echo_server();
            addr = s.local_addr();
        }
        // After drop the port should refuse (eventually); just assert no panic
        // and that a fresh bind to the same port usually succeeds.
        let _ = TcpListener::bind(addr);
    }

    #[test]
    fn error_display() {
        assert!(HttpError::Protocol("x".into()).to_string().contains("x"));
        assert!(HttpError::Status(404, vec![]).to_string().contains("404"));
    }

    #[test]
    fn slow_loris_cut_off_timing() {
        // Deadline precision of the wheel: a 300 ms deadline must fire
        // well within a second.
        let s = Server::bind_with_config(
            "127.0.0.1:0",
            |_req| Response::ok(vec![]),
            ServerConfig {
                workers: 1,
                read_deadline: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let start = Instant::now();
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"GET /x HTTP/1.1\r\n").unwrap();
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "partial request must be cut off promptly"
        );
        assert!(
            out.starts_with(b"HTTP/1.1 408"),
            "trickled request gets 408, got {:?}",
            String::from_utf8_lossy(&out)
        );
        s.shutdown();
    }
}
