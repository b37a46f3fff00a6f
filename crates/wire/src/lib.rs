//! # tsr-wire
//!
//! The wire format of TSR's versioned REST API (`/v1`), plus the typed
//! client SDK. The container builds without crates.io access, so the JSON
//! codec is self-contained (no serde):
//!
//! - [`json`]: a minimal JSON value type with canonical encoder and
//!   strict parser,
//! - [`dto`]: the request/response DTOs of every v1 endpoint and the
//!   uniform `{code, message, detail}` [`ErrorEnvelope`],
//! - [`cluster`]: the DTOs of the `/v1/cluster/*` node-to-node protocol
//!   (config gossip, replicate-refresh, seal fetch, anti-entropy digest),
//! - [`client`]: [`TsrClient`] — typed calls for repository CRUD,
//!   refresh, index (with `If-None-Match` conditional fetches), package
//!   download, **client-side-verified** attestation, and the cluster
//!   node-to-node calls.
//!
//! # Examples
//!
//! ```
//! use tsr_wire::dto::{ErrorEnvelope, WireDto};
//!
//! let env = ErrorEnvelope {
//!     code: "rollback_detected".into(),
//!     message: "rollback detected: upstream snapshot 1 < previously seen 2".into(),
//!     detail: "repository repo-1".into(),
//!     request_id: "req-42".into(),
//! };
//! let text = env.encode();
//! assert_eq!(ErrorEnvelope::decode(&text).unwrap(), env);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod dto;
pub mod json;

pub use client::{IndexFetch, TsrClient, WireError};
pub use cluster::{
    ClusterConfigDto, ClusterDigestDto, NodeInfoDto, ReplicateAckDto, ReplicateRequestDto,
    ReplicatedState, RepoDigestDto,
};
pub use dto::{
    AccessLogLine, AttestationDto, CreateRepositoryRequest, ErrorEnvelope, HealthDto, MetricsDto,
    PackageEntryDto, PackagePage, PhaseTimingsDto, ReadyDto, RefreshReportDto, RejectedPackageDto,
    RepositoryCreated, RepositoryInfo, RepositoryList, SanitizeRecordDto, WireDto,
};
pub use json::{Json, JsonError};
