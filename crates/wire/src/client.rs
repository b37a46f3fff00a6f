//! The typed TSR client SDK.
//!
//! [`TsrClient`] speaks the `/v1` JSON API: every method returns a typed
//! DTO (or raw bytes for blob endpoints), non-2xx responses are decoded
//! into the uniform [`ErrorEnvelope`], and attestation reports are
//! **verified client-side** against the platform key and the expected
//! enclave code before being returned.

use std::time::Duration;

use tsr_crypto::hex;
use tsr_crypto::RsaPublicKey;
use tsr_http::router::percent_encode;
use tsr_http::{Client, HttpError, Response};
use tsr_sgx::{Measurement, Report};

use crate::cluster::{ClusterConfigDto, ClusterDigestDto, ReplicateAckDto, ReplicatedState};
use crate::dto::{
    AttestationDto, CreateRepositoryRequest, ErrorEnvelope, HealthDto, MetricsDto, PackagePage,
    RefreshReportDto, RepositoryCreated, RepositoryInfo, RepositoryList, WireDto,
};

/// Errors surfaced by [`TsrClient`] operations.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Http(HttpError),
    /// The server answered with a structured error envelope.
    Api {
        /// HTTP status code.
        status: u16,
        /// The decoded envelope.
        error: ErrorEnvelope,
    },
    /// A response body did not decode as the expected DTO.
    Decode(String),
    /// Client-side attestation verification failed.
    Attestation(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Http(e) => write!(f, "transport error: {e}"),
            WireError::Api { status, error } => {
                write!(f, "api error {status} [{}]: {}", error.code, error.message)
            }
            WireError::Decode(m) => write!(f, "decode error: {m}"),
            WireError::Attestation(m) => write!(f, "attestation error: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Http(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HttpError> for WireError {
    fn from(e: HttpError) -> Self {
        WireError::Http(e)
    }
}

/// Outcome of a conditional index fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexFetch {
    /// The cached copy is still current (HTTP 304).
    NotModified,
    /// A fresh signed index, with its entity tag for the next fetch.
    Fresh {
        /// The signed APKINDEX bytes.
        bytes: Vec<u8>,
        /// Entity tag to send as `If-None-Match` next time.
        etag: Option<String>,
    },
}

/// A typed client for the TSR `/v1` REST API.
#[derive(Debug, Clone)]
pub struct TsrClient {
    base: String,
    http: Client,
}

impl TsrClient {
    /// A client for `base` (e.g. `http://127.0.0.1:8080`), default
    /// timeouts.
    pub fn new(base: impl Into<String>) -> Self {
        let mut base = base.into();
        while base.ends_with('/') {
            base.pop();
        }
        TsrClient {
            base,
            http: Client::new(),
        }
    }

    /// Same, with an explicit per-operation timeout.
    pub fn with_timeout(base: impl Into<String>, timeout: Duration) -> Self {
        TsrClient {
            http: Client::with_timeout(timeout),
            ..TsrClient::new(base)
        }
    }

    /// A client that keeps its TCP connection alive across sequential
    /// requests (one pooled connection; see
    /// [`Client::with_keep_alive`]).
    ///
    /// Clones share the pooled connection, so give each worker thread
    /// its **own** `pooled` client rather than cloning one — that is the
    /// connection-per-worker pattern the load harness uses.
    pub fn pooled(base: impl Into<String>, timeout: Duration) -> Self {
        TsrClient {
            http: Client::with_keep_alive(timeout),
            ..TsrClient::new(base)
        }
    }

    fn url(&self, path: &str) -> String {
        format!("{}{path}", self.base)
    }

    /// Converts a non-success response into [`WireError::Api`].
    fn check(resp: Response) -> Result<Response, WireError> {
        if (200..300).contains(&resp.status) || resp.status == 304 {
            return Ok(resp);
        }
        let status = resp.status;
        let error =
            ErrorEnvelope::decode(&String::from_utf8_lossy(&resp.body)).unwrap_or_else(|_| {
                ErrorEnvelope {
                    code: "http_error".to_string(),
                    message: String::from_utf8_lossy(&resp.body).into_owned(),
                    ..ErrorEnvelope::default()
                }
            });
        Err(WireError::Api { status, error })
    }

    fn get_dto<T: WireDto>(&self, path: &str) -> Result<T, WireError> {
        let resp = Self::check(self.http.get(&self.url(path))?)?;
        T::decode(&String::from_utf8_lossy(&resp.body)).map_err(WireError::Decode)
    }

    fn post_dto<T: WireDto>(&self, path: &str, body: &[u8]) -> Result<T, WireError> {
        let resp = Self::check(self.http.request(
            "POST",
            &self.url(path),
            body,
            &[("content-type", "application/json")],
        )?)?;
        T::decode(&String::from_utf8_lossy(&resp.body)).map_err(WireError::Decode)
    }

    /// `GET /v1/healthz`.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn health(&self) -> Result<HealthDto, WireError> {
        self.get_dto("/v1/healthz")
    }

    /// `GET /v1/metrics` — per-route request counters.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn metrics(&self) -> Result<MetricsDto, WireError> {
        self.get_dto("/v1/metrics")
    }

    /// `POST /v1/repositories` — deploys a policy, creating a repository.
    ///
    /// # Errors
    ///
    /// `invalid_policy` API errors for malformed policies.
    pub fn create_repository(&self, policy: &str) -> Result<RepositoryCreated, WireError> {
        let body = CreateRepositoryRequest {
            policy: policy.to_string(),
        }
        .encode();
        self.post_dto("/v1/repositories", body.as_bytes())
    }

    /// `GET /v1/repositories` — all repositories.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn list_repositories(&self) -> Result<Vec<RepositoryInfo>, WireError> {
        Ok(self
            .get_dto::<RepositoryList>("/v1/repositories")?
            .repositories)
    }

    /// `GET /v1/repositories/{id}` — one repository summary.
    ///
    /// # Errors
    ///
    /// `not_found` for unknown ids.
    pub fn repository(&self, id: &str) -> Result<RepositoryInfo, WireError> {
        self.get_dto(&format!("/v1/repositories/{}", percent_encode(id)))
    }

    /// `DELETE /v1/repositories/{id}`.
    ///
    /// # Errors
    ///
    /// `not_found` for unknown ids.
    pub fn delete_repository(&self, id: &str) -> Result<(), WireError> {
        let resp = self.http.request(
            "DELETE",
            &self.url(&format!("/v1/repositories/{}", percent_encode(id))),
            &[],
            &[],
        )?;
        Self::check(resp).map(|_| ())
    }

    /// `POST /v1/repositories/{id}/refresh` — returns the full structured
    /// refresh report.
    ///
    /// # Errors
    ///
    /// `not_found`, `rollback_detected` (409), `quorum_failed` (502), …
    pub fn refresh(&self, id: &str) -> Result<RefreshReportDto, WireError> {
        self.post_dto(
            &format!("/v1/repositories/{}/refresh", percent_encode(id)),
            &[],
        )
    }

    /// `GET /v1/repositories/{id}/index` — the signed APKINDEX bytes and
    /// their entity tag.
    ///
    /// # Errors
    ///
    /// `not_found` before the first refresh.
    pub fn index(&self, id: &str) -> Result<(Vec<u8>, Option<String>), WireError> {
        let resp = Self::check(
            self.http
                .get(&self.url(&format!("/v1/repositories/{}/index", percent_encode(id))))?,
        )?;
        let etag = resp.headers.get("etag").cloned();
        Ok((resp.body.into_vec(), etag))
    }

    /// Conditional `GET /v1/repositories/{id}/index` with `If-None-Match`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::index`].
    pub fn index_if_none_match(&self, id: &str, etag: &str) -> Result<IndexFetch, WireError> {
        let resp = Self::check(self.http.request(
            "GET",
            &self.url(&format!("/v1/repositories/{}/index", percent_encode(id))),
            &[],
            &[("if-none-match", etag)],
        )?)?;
        if resp.status == 304 {
            return Ok(IndexFetch::NotModified);
        }
        let etag = resp.headers.get("etag").cloned();
        Ok(IndexFetch::Fresh {
            bytes: resp.body.into_vec(),
            etag,
        })
    }

    /// `GET /v1/repositories/{id}/packages?offset=&limit=` — one page of
    /// the sanitized package listing.
    ///
    /// # Errors
    ///
    /// `not_found` before the first refresh.
    pub fn packages(&self, id: &str, offset: u64, limit: u64) -> Result<PackagePage, WireError> {
        self.get_dto(&format!(
            "/v1/repositories/{}/packages?offset={offset}&limit={limit}",
            percent_encode(id)
        ))
    }

    /// `GET /v1/repositories/{id}/packages/{name}` — a sanitized package
    /// blob.
    ///
    /// # Errors
    ///
    /// `not_found` / `rollback_detected` API errors.
    pub fn package(&self, id: &str, name: &str) -> Result<Vec<u8>, WireError> {
        let resp = Self::check(self.http.get(&self.url(&format!(
            "/v1/repositories/{}/packages/{}",
            percent_encode(id),
            percent_encode(name)
        )))?)?;
        Ok(resp.body.into_vec())
    }

    /// `GET /v1/attestation/{hex-nonce}` with **client-side verification**:
    /// checks that the report's measurement equals the expected enclave
    /// code's, that the platform signature verifies, and that the report
    /// data starts with `nonce` (freshness).
    ///
    /// # Errors
    ///
    /// [`WireError::Attestation`] when any check fails.
    pub fn attest(
        &self,
        nonce: &[u8],
        platform_key: &RsaPublicKey,
        expected_enclave_code: &[u8],
    ) -> Result<AttestationDto, WireError> {
        let dto: AttestationDto =
            self.get_dto(&format!("/v1/attestation/{}", hex::to_hex(nonce)))?;
        let mr = hex::from_hex(&dto.mrenclave)
            .ok_or_else(|| WireError::Attestation("mrenclave is not hex".into()))?;
        let mr: [u8; 32] = mr
            .try_into()
            .map_err(|_| WireError::Attestation("mrenclave must be 32 bytes".into()))?;
        let report = Report {
            mrenclave: Measurement(mr),
            report_data: hex::from_hex(&dto.report_data)
                .ok_or_else(|| WireError::Attestation("report_data is not hex".into()))?,
            signature: hex::from_hex(&dto.signature)
                .ok_or_else(|| WireError::Attestation("signature is not hex".into()))?,
        };
        if !report.report_data.starts_with(nonce) {
            return Err(WireError::Attestation(
                "report data does not echo the nonce".into(),
            ));
        }
        report
            .verify(platform_key, &Measurement::of(expected_enclave_code))
            .map_err(|e| WireError::Attestation(e.to_string()))?;
        Ok(dto)
    }

    /// `GET /v1/cluster/config` — the node's current cluster config.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn cluster_config(&self) -> Result<ClusterConfigDto, WireError> {
        self.get_dto("/v1/cluster/config")
    }

    /// `POST /v1/cluster/config` — gossips a config epoch; the node
    /// adopts it if newer and answers with the config it now holds.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn cluster_join(&self, config: &ClusterConfigDto) -> Result<ClusterConfigDto, WireError> {
        self.post_dto("/v1/cluster/config", config.encode().as_bytes())
    }

    /// `POST /v1/cluster/replicate` — pushes one refreshed repository
    /// state to a replica; the returned ack is the replica's vote.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn cluster_replicate(
        &self,
        request: &crate::cluster::ReplicateRequestDto,
    ) -> Result<ReplicateAckDto, WireError> {
        self.post_dto("/v1/cluster/replicate", request.encode().as_bytes())
    }

    /// `GET /v1/cluster/seal/{id}` — the full replicable state of one
    /// repository (anti-entropy pull).
    ///
    /// # Errors
    ///
    /// `not_found` for unknown ids.
    pub fn cluster_seal(&self, id: &str) -> Result<ReplicatedState, WireError> {
        self.get_dto(&format!("/v1/cluster/seal/{}", percent_encode(id)))
    }

    /// `GET /v1/cluster/digest` — the node's compact per-repository
    /// state summary.
    ///
    /// # Errors
    ///
    /// Transport/API/decode errors as [`WireError`].
    pub fn cluster_digest(&self) -> Result<ClusterDigestDto, WireError> {
        self.get_dto("/v1/cluster/digest")
    }

    /// Raw text GET for non-JSON endpoints — e.g. the Prometheus
    /// exposition at `/v1/metrics?format=prometheus`. Returns the body
    /// and the response `content-type`.
    ///
    /// # Errors
    ///
    /// Transport/API errors as [`WireError`].
    pub fn get_text(&self, path: &str) -> Result<(String, String), WireError> {
        let resp = Self::check(self.http.get(&self.url(path))?)?;
        let content_type = resp
            .headers
            .get("content-type")
            .cloned()
            .unwrap_or_default();
        Ok((
            String::from_utf8_lossy(&resp.body).into_owned(),
            content_type,
        ))
    }
}
