//! Data-transfer objects of the v1 REST API.
//!
//! Every DTO implements [`WireDto`]: lossless conversion to/from [`Json`]
//! plus text encode/decode. Field names are the wire contract — they are
//! documented in the README route table and covered by round-trip
//! proptests in `crates/wire/tests/proptests.rs`.

use std::collections::BTreeMap;

use crate::json::Json;

/// Lossless JSON mapping for one wire type.
pub trait WireDto: Sized {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;

    /// Converts from a JSON value.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    fn from_json(v: &Json) -> Result<Self, String>;

    /// Encodes to canonical JSON text.
    fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// Decodes from JSON text.
    ///
    /// # Errors
    ///
    /// Parse errors and shape mismatches, as text.
    fn decode(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

pub(crate) fn req<'v>(v: &'v Json, key: &str) -> Result<&'v Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

pub(crate) fn req_str(v: &Json, key: &str) -> Result<String, String> {
    req(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

pub(crate) fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

pub(crate) fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    req(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

pub(crate) fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

/// An optional string field: absent decodes as empty, present must be a
/// string. Pairs with the "encode only when non-empty" convention.
pub(crate) fn opt_str(v: &Json, key: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(String::new()),
        Some(s) => s
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field {key:?} must be a string")),
    }
}

pub(crate) fn req_arr<'v>(v: &'v Json, key: &str) -> Result<&'v [Json], String> {
    req(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

/// The uniform error envelope every non-2xx v1 response carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorEnvelope {
    /// Stable machine-readable code (e.g. `rollback_detected`).
    pub code: String,
    /// Human-readable summary.
    pub message: String,
    /// Additional context (may be empty).
    pub detail: String,
    /// The `x-request-id` of the failing request, when one was set
    /// (empty means absent; the field is omitted on the wire).
    pub request_id: String,
}

impl WireDto for ErrorEnvelope {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::str(&self.code)),
            ("message", Json::str(&self.message)),
            ("detail", Json::str(&self.detail)),
        ];
        if !self.request_id.is_empty() {
            pairs.push(("request_id", Json::str(&self.request_id)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ErrorEnvelope {
            code: req_str(v, "code")?,
            message: req_str(v, "message")?,
            detail: req_str(v, "detail")?,
            // Optional so pre-existing captures still decode.
            request_id: opt_str(v, "request_id")?,
        })
    }
}

/// Response of `POST /v1/repositories`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepositoryCreated {
    /// The new repository id.
    pub id: String,
    /// PEM of the repository's public signing key.
    pub public_key_pem: String,
}

impl WireDto for RepositoryCreated {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("public_key_pem", Json::str(&self.public_key_pem)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RepositoryCreated {
            id: req_str(v, "id")?,
            public_key_pem: req_str(v, "public_key_pem")?,
        })
    }
}

/// One repository summary (list/info endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepositoryInfo {
    /// Repository id.
    pub id: String,
    /// Whether at least one refresh completed.
    pub refreshed: bool,
    /// Upstream snapshot of the sanitized view (absent before a refresh).
    pub snapshot: Option<u64>,
    /// Number of packages in the sanitized index.
    pub packages: u64,
    /// Packages rejected by the last refresh.
    pub rejected: u64,
}

impl WireDto for RepositoryInfo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("refreshed", Json::Bool(self.refreshed)),
            (
                "snapshot",
                match self.snapshot {
                    Some(s) => Json::Int(i128::from(s)),
                    None => Json::Null,
                },
            ),
            ("packages", Json::Int(i128::from(self.packages))),
            ("rejected", Json::Int(i128::from(self.rejected))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let snapshot = match req(v, "snapshot")? {
            Json::Null => None,
            other => Some(
                other
                    .as_u64()
                    .ok_or_else(|| "field \"snapshot\" must be null or an integer".to_string())?,
            ),
        };
        Ok(RepositoryInfo {
            id: req_str(v, "id")?,
            refreshed: req_bool(v, "refreshed")?,
            snapshot,
            packages: req_u64(v, "packages")?,
            rejected: req_u64(v, "rejected")?,
        })
    }
}

/// Response of `GET /v1/repositories`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepositoryList {
    /// All repositories, ordered by id.
    pub repositories: Vec<RepositoryInfo>,
}

impl WireDto for RepositoryList {
    fn to_json(&self) -> Json {
        Json::obj([(
            "repositories",
            Json::arr(self.repositories.iter().map(WireDto::to_json)),
        )])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RepositoryList {
            repositories: req_arr(v, "repositories")?
                .iter()
                .map(RepositoryInfo::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Per-phase sanitization timings, in microseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimingsDto {
    /// Upstream signature + data-hash verification.
    pub check_integrity_us: u64,
    /// Decompression and tar parsing.
    pub unpack_us: u64,
    /// Script classification and rewriting.
    pub modify_scripts_us: u64,
    /// Per-file signature generation.
    pub generate_signatures_us: u64,
    /// Re-archive, re-compress, re-sign.
    pub repack_us: u64,
}

impl WireDto for PhaseTimingsDto {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "check_integrity_us",
                Json::Int(self.check_integrity_us.into()),
            ),
            ("unpack_us", Json::Int(self.unpack_us.into())),
            (
                "modify_scripts_us",
                Json::Int(self.modify_scripts_us.into()),
            ),
            (
                "generate_signatures_us",
                Json::Int(self.generate_signatures_us.into()),
            ),
            ("repack_us", Json::Int(self.repack_us.into())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PhaseTimingsDto {
            check_integrity_us: req_u64(v, "check_integrity_us")?,
            unpack_us: req_u64(v, "unpack_us")?,
            modify_scripts_us: req_u64(v, "modify_scripts_us")?,
            generate_signatures_us: req_u64(v, "generate_signatures_us")?,
            repack_us: req_u64(v, "repack_us")?,
        })
    }
}

/// Outcome record of sanitizing one package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizeRecordDto {
    /// Package name.
    pub name: String,
    /// Package version.
    pub version: String,
    /// Number of files in the data segment.
    pub file_count: usize,
    /// Compressed size of the original blob.
    pub original_size: usize,
    /// Compressed size of the sanitized blob.
    pub sanitized_size: usize,
    /// Uncompressed working-set size.
    pub uncompressed_size: usize,
    /// Whether the package's scripts create users/groups.
    pub touches_accounts: bool,
    /// Phase timings.
    pub timings: PhaseTimingsDto,
}

impl WireDto for SanitizeRecordDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("version", Json::str(&self.version)),
            ("file_count", Json::Int(self.file_count as i128)),
            ("original_size", Json::Int(self.original_size as i128)),
            ("sanitized_size", Json::Int(self.sanitized_size as i128)),
            (
                "uncompressed_size",
                Json::Int(self.uncompressed_size as i128),
            ),
            ("touches_accounts", Json::Bool(self.touches_accounts)),
            ("timings", self.timings.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SanitizeRecordDto {
            name: req_str(v, "name")?,
            version: req_str(v, "version")?,
            file_count: req_usize(v, "file_count")?,
            original_size: req_usize(v, "original_size")?,
            sanitized_size: req_usize(v, "sanitized_size")?,
            uncompressed_size: req_usize(v, "uncompressed_size")?,
            touches_accounts: req_bool(v, "touches_accounts")?,
            timings: PhaseTimingsDto::from_json(req(v, "timings")?)?,
        })
    }
}

/// One rejected package with its reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedPackageDto {
    /// Package name.
    pub name: String,
    /// Why sanitization rejected it.
    pub reason: String,
}

impl WireDto for RejectedPackageDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("reason", Json::str(&self.reason)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RejectedPackageDto {
            name: req_str(v, "name")?,
            reason: req_str(v, "reason")?,
        })
    }
}

/// Response of `POST /v1/repositories/{id}/refresh` — the full structured
/// refresh report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshReportDto {
    /// Simulated quorum-read time, microseconds.
    pub quorum_elapsed_us: u64,
    /// Mirrors contacted during the quorum read.
    pub quorum_contacted: usize,
    /// Packages downloaded this refresh.
    pub downloaded: usize,
    /// Simulated download time, microseconds.
    pub download_elapsed_us: u64,
    /// Wall-clock sanitization time, microseconds.
    pub sanitize_elapsed_us: u64,
    /// Per-package sanitization records.
    pub sanitized: Vec<SanitizeRecordDto>,
    /// Rejected packages with reasons.
    pub rejected: Vec<RejectedPackageDto>,
}

impl WireDto for RefreshReportDto {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "quorum_elapsed_us",
                Json::Int(self.quorum_elapsed_us.into()),
            ),
            ("quorum_contacted", Json::Int(self.quorum_contacted as i128)),
            ("downloaded", Json::Int(self.downloaded as i128)),
            (
                "download_elapsed_us",
                Json::Int(self.download_elapsed_us.into()),
            ),
            (
                "sanitize_elapsed_us",
                Json::Int(self.sanitize_elapsed_us.into()),
            ),
            (
                "sanitized",
                Json::arr(self.sanitized.iter().map(WireDto::to_json)),
            ),
            (
                "rejected",
                Json::arr(self.rejected.iter().map(WireDto::to_json)),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RefreshReportDto {
            quorum_elapsed_us: req_u64(v, "quorum_elapsed_us")?,
            quorum_contacted: req_usize(v, "quorum_contacted")?,
            downloaded: req_usize(v, "downloaded")?,
            download_elapsed_us: req_u64(v, "download_elapsed_us")?,
            sanitize_elapsed_us: req_u64(v, "sanitize_elapsed_us")?,
            sanitized: req_arr(v, "sanitized")?
                .iter()
                .map(SanitizeRecordDto::from_json)
                .collect::<Result<_, _>>()?,
            rejected: req_arr(v, "rejected")?
                .iter()
                .map(RejectedPackageDto::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// One package entry in the paginated package listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageEntryDto {
    /// Package name.
    pub name: String,
    /// Package version.
    pub version: String,
    /// Sanitized blob size in bytes.
    pub size: u64,
    /// Hex SHA-256 of the sanitized blob (doubles as the ETag).
    pub content_hash: String,
    /// Dependency names.
    pub depends: Vec<String>,
}

impl WireDto for PackageEntryDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("version", Json::str(&self.version)),
            ("size", Json::Int(self.size.into())),
            ("content_hash", Json::str(&self.content_hash)),
            ("depends", Json::arr(self.depends.iter().map(Json::str))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PackageEntryDto {
            name: req_str(v, "name")?,
            version: req_str(v, "version")?,
            size: req_u64(v, "size")?,
            content_hash: req_str(v, "content_hash")?,
            depends: req_arr(v, "depends")?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "depends entries must be strings".to_string())
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Response of `GET /v1/repositories/{id}/packages` — one page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackagePage {
    /// Total packages in the sanitized index.
    pub total: u64,
    /// Offset of the first returned item.
    pub offset: u64,
    /// The applied page-size limit.
    pub limit: u64,
    /// The page of entries.
    pub items: Vec<PackageEntryDto>,
}

impl WireDto for PackagePage {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total", Json::Int(self.total.into())),
            ("offset", Json::Int(self.offset.into())),
            ("limit", Json::Int(self.limit.into())),
            ("items", Json::arr(self.items.iter().map(WireDto::to_json))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PackagePage {
            total: req_u64(v, "total")?,
            offset: req_u64(v, "offset")?,
            limit: req_u64(v, "limit")?,
            items: req_arr(v, "items")?
                .iter()
                .map(PackageEntryDto::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Response of `GET /v1/attestation/{hex-nonce}` (all fields hex-encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationDto {
    /// Enclave measurement.
    pub mrenclave: String,
    /// Report data (starts with the requested nonce).
    pub report_data: String,
    /// Platform signature over the report.
    pub signature: String,
}

impl WireDto for AttestationDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mrenclave", Json::str(&self.mrenclave)),
            ("report_data", Json::str(&self.report_data)),
            ("signature", Json::str(&self.signature)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(AttestationDto {
            mrenclave: req_str(v, "mrenclave")?,
            report_data: req_str(v, "report_data")?,
            signature: req_str(v, "signature")?,
        })
    }
}

/// Response of `GET /v1/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthDto {
    /// Always `"ok"` while the service answers.
    pub status: String,
    /// Number of hosted repositories.
    pub repositories: u64,
}

impl WireDto for HealthDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("status", Json::str(&self.status)),
            ("repositories", Json::Int(self.repositories.into())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(HealthDto {
            status: req_str(v, "status")?,
            repositories: req_u64(v, "repositories")?,
        })
    }
}

/// Response of `GET /v1/metrics`: route → status → request count, plus
/// named event counters (cache hits, lock-free fast paths, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsDto {
    /// Counter map keyed by `"METHOD /pattern"`, then by status code.
    pub requests: BTreeMap<String, BTreeMap<u16, u64>>,
    /// Named monotonic event counters (e.g.
    /// `index_not_modified_lock_free`).
    pub counters: BTreeMap<String, u64>,
}

impl WireDto for MetricsDto {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "requests",
                Json::Obj(
                    self.requests
                        .iter()
                        .map(|(route, by_status)| {
                            (
                                route.clone(),
                                Json::Obj(
                                    by_status
                                        .iter()
                                        .map(|(status, count)| {
                                            (status.to_string(), Json::Int(i128::from(*count)))
                                        })
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(name, count)| (name.clone(), Json::Int(i128::from(*count))))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let requests_obj = req(v, "requests")?
            .as_obj()
            .ok_or_else(|| "field \"requests\" must be an object".to_string())?;
        let mut requests = BTreeMap::new();
        for (route, by_status) in requests_obj {
            let map = by_status
                .as_obj()
                .ok_or_else(|| format!("route {route:?} must map to an object"))?;
            let mut counts = BTreeMap::new();
            for (status, count) in map {
                let code: u16 = status
                    .parse()
                    .map_err(|_| format!("bad status key {status:?}"))?;
                let n = count
                    .as_u64()
                    .ok_or_else(|| format!("count for {route:?}/{status} must be an integer"))?;
                counts.insert(code, n);
            }
            requests.insert(route.clone(), counts);
        }
        // `counters` is optional so pre-existing captures still decode.
        let mut counters = BTreeMap::new();
        if let Some(obj) = v.get("counters") {
            let map = obj
                .as_obj()
                .ok_or_else(|| "field \"counters\" must be an object".to_string())?;
            for (name, count) in map {
                let n = count
                    .as_u64()
                    .ok_or_else(|| format!("counter {name:?} must be an integer"))?;
                counters.insert(name.clone(), n);
            }
        }
        Ok(MetricsDto { requests, counters })
    }
}

/// Response of `GET /v1/readyz`: readiness, distinct from liveness.
///
/// A live process may still be unready — replaying its WAL, holding a
/// stale cluster config epoch, or draining before restart. Load
/// balancers route on this; `/v1/healthz` only answers "is the process
/// up".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadyDto {
    /// `true` once every component below is ready.
    pub ready: bool,
    /// Per-component readiness: `recovery_replay`, `cluster_epoch`,
    /// `drain` — `true` means that component is not blocking readiness.
    pub components: BTreeMap<String, bool>,
}

impl WireDto for ReadyDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ready", Json::Bool(self.ready)),
            (
                "components",
                Json::Obj(
                    self.components
                        .iter()
                        .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let obj = req(v, "components")?
            .as_obj()
            .ok_or_else(|| "field \"components\" must be an object".to_string())?;
        let mut components = BTreeMap::new();
        for (name, ok) in obj {
            let b = ok
                .as_bool()
                .ok_or_else(|| format!("component {name:?} must be a boolean"))?;
            components.insert(name.clone(), b);
        }
        Ok(ReadyDto {
            ready: req_bool(v, "ready")?,
            components,
        })
    }
}

/// One structured access-log line, as emitted by the HTTP middleware
/// chain — one JSON object per request.
///
/// The middleware writes these by hand (the HTTP crate sits below this
/// one), so this decoder doubles as the conformance check:
/// `tests/load_contract.rs` strict-parses every emitted line through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessLogLine {
    /// Wall-clock microseconds since the Unix epoch at response time.
    pub ts_us: u64,
    /// The request's `x-request-id` (empty when the client sent none
    /// and no middleware generated one).
    pub request_id: String,
    /// HTTP method.
    pub method: String,
    /// Raw request path.
    pub path: String,
    /// Matched route pattern (`"METHOD /pattern"`), or `unmatched`.
    pub route: String,
    /// Response status code.
    pub status: u16,
    /// Handler latency in microseconds, as seen by the access-log layer.
    pub latency_us: u64,
    /// Response body bytes.
    pub bytes: u64,
    /// Tenant (repository id) when the route carries one, else empty.
    pub tenant: String,
}

impl WireDto for AccessLogLine {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ts_us", Json::Int(i128::from(self.ts_us))),
            ("request_id", Json::str(&self.request_id)),
            ("method", Json::str(&self.method)),
            ("path", Json::str(&self.path)),
            ("route", Json::str(&self.route)),
            ("status", Json::Int(i128::from(self.status))),
            ("latency_us", Json::Int(i128::from(self.latency_us))),
            ("bytes", Json::Int(i128::from(self.bytes))),
            ("tenant", Json::str(&self.tenant)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let status = req_u64(v, "status")?;
        let status = u16::try_from(status).map_err(|_| format!("status {status} out of range"))?;
        Ok(AccessLogLine {
            ts_us: req_u64(v, "ts_us")?,
            request_id: req_str(v, "request_id")?,
            method: req_str(v, "method")?,
            path: req_str(v, "path")?,
            route: req_str(v, "route")?,
            status,
            latency_us: req_u64(v, "latency_us")?,
            bytes: req_u64(v, "bytes")?,
            tenant: req_str(v, "tenant")?,
        })
    }
}

/// Request body of `POST /v1/repositories`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateRepositoryRequest {
    /// The policy document.
    pub policy: String,
}

impl WireDto for CreateRepositoryRequest {
    fn to_json(&self) -> Json {
        Json::obj([("policy", Json::str(&self.policy))])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(CreateRepositoryRequest {
            policy: req_str(v, "policy")?,
        })
    }
}
