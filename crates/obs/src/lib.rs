//! # tsr-obs
//!
//! Dependency-free observability primitives for the TSR service — the
//! operational plane the paper's trust-domain split forces onto the
//! server side (verifying clients can audit *integrity* end-to-end, but
//! only the operator can see queueing, replication lag, and drain
//! state):
//!
//! - [`registry`]: a typed metric registry — [`Counter`], labeled
//!   counter families ([`CounterVec`]), [`Gauge`] (with high-water
//!   peaks), and labeled latency-histogram families
//!   over [`tsr_stats::Histogram`] — with O(1) lock-free hot-path
//!   updates through cloneable handles,
//! - [`expo`]: Prometheus text exposition (format version 0.0.4)
//!   rendering, plus a strict parser the test tiers use to validate
//!   scrapes and estimate server-side quantiles,
//! - [`context`]: the request-scoped context that propagates an
//!   `x-request-id` from the HTTP middleware into core (error
//!   envelopes, WAL-append events) and the cluster replication fan-out,
//! - [`journal`]: a bounded in-memory event journal tagging
//!   request-ids onto side effects (WAL appends, replication pushes)
//!   without touching any on-disk format.
//!
//! # Examples
//!
//! ```
//! use tsr_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("tsr_cache_hits_total", "Cache hits.");
//! hits.inc();
//! let text = registry.render_prometheus();
//! assert!(text.contains("# TYPE tsr_cache_hits_total counter"));
//! assert!(text.contains("tsr_cache_hits_total 1"));
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod expo;
pub mod journal;
pub mod registry;

pub use context::{current_request_id, RequestScope};
pub use expo::{Exposition, Family, Sample};
pub use journal::{Journal, JournalEvent};
pub use registry::{
    Counter, CounterVec, Gauge, HistogramHandle, HistogramVec, Registry, LATENCY_BUCKETS_US,
};
