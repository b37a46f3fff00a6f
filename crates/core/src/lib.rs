//! # tsr-core
//!
//! The **Trusted Software Repository** — the paper's primary contribution:
//! a secure proxy between integrity-enforced operating systems and
//! community software repositories that serves *sanitized* packages, safe
//! to install without breaking remote attestation.
//!
//! - [`policy`]: per-organization security policies (mirrors, trusted
//!   signers, initial OS configuration — Listing 1),
//! - [`sanitizer`]: the instrumented sanitization pipeline (§4.2, §5.3),
//! - [`cache`]: the package cache with SGX-sealing + TPM-monotonic-counter
//!   rollback protection (§5.5),
//! - [`repository`]: one client's repository (quorum refresh, serving),
//! - [`service`]: the multi-tenant service (§5.2) — tenant lifecycle,
//! - [`replica`]: the one image of a repository's state, and the one way
//!   it becomes durable, leaves for a peer and is installed,
//! - [`api`]: the versioned `/v1` JSON API (route table, request and
//!   event counters, error-code mapping) plus the two apk-layout read
//!   routes package managers fetch from,
//! - [`hot`]: the serve cache index and package GETs answer from,
//! - [`serve`]: mounting the API on a socket behind the middleware stack,
//!
//! - [`parallel`]: the work-stealing pool that fans the refresh hot path
//!   out across cores (deterministic result ordering),
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for the end-to-end
//! flow: deploy policy → refresh → install on an attested OS.
//!
//! The concurrency architecture (per-tenant sharding, lock hierarchy,
//! parallel refresh) is documented in `ARCHITECTURE.md` at the workspace
//! root.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod error;
pub mod hot;
pub mod parallel;
pub mod policy;
pub mod replica;
pub mod repository;
pub mod sanitizer;
pub mod serve;
pub mod service;

pub use api::error_status;
pub use cache::{PackageCache, SealedState};
pub use error::CoreError;
pub use parallel::{default_workers, parallel_map_ordered};
pub use policy::{InitConfigFile, MirrorRef, Policy};
pub use replica::ReplicatedState;
pub use repository::{RefreshReport, TsrRepository};
pub use sanitizer::{PackageSanitizer, PhaseTimings, SanitizeRecord};
pub use serve::ApiOptions;
pub use service::TsrService;
