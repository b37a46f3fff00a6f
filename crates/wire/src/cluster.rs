//! Data-transfer objects of the `/v1/cluster/*` node-to-node protocol.
//!
//! These ride the same dependency-free JSON codec as the public v1 DTOs
//! and follow the same conventions: every type implements [`WireDto`],
//! field names are the wire contract, and round-trip/garbage-rejection
//! proptests live in `crates/wire/tests/cluster_proptests.rs`. Binary
//! payloads (sealed metadata, package blobs) travel hex-encoded — the
//! codec is strict UTF-8 JSON.

use std::sync::Arc;

use tsr_crypto::hex;

use crate::dto::{opt_str, req, req_arr, req_bool, req_str, req_u64, req_usize, WireDto};
use crate::json::Json;

/// One node of the cluster membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfoDto {
    /// Stable node id (e.g. `node-0`), the rendezvous-hash identity.
    pub id: String,
    /// Base URL the node's `/v1` surface listens on.
    pub base_url: String,
    /// Continent label for the latency model (`Europe`, `Asia`, …).
    pub continent: String,
}

impl WireDto for NodeInfoDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("base_url", Json::str(&self.base_url)),
            ("continent", Json::str(&self.continent)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(NodeInfoDto {
            id: req_str(v, "id")?,
            base_url: req_str(v, "base_url")?,
            continent: req_str(v, "continent")?,
        })
    }
}

/// The epoch-versioned cluster membership + placement parameters.
///
/// Gossiped via `POST /v1/cluster/config`; a node adopts a config whose
/// `epoch` is strictly greater than its own and answers with the config
/// it now holds (so gossip is idempotent and anti-entropic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfigDto {
    /// Monotonic configuration epoch.
    pub epoch: u64,
    /// Replicas per shard **in addition to** the primary.
    pub replication: usize,
    /// Member nodes, ordered by id.
    pub nodes: Vec<NodeInfoDto>,
}

impl WireDto for ClusterConfigDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epoch", Json::Int(self.epoch.into())),
            ("replication", Json::Int(self.replication as i128)),
            ("nodes", Json::arr(self.nodes.iter().map(WireDto::to_json))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ClusterConfigDto {
            epoch: req_u64(v, "epoch")?,
            replication: req_usize(v, "replication")?,
            nodes: req_arr(v, "nodes")?
                .iter()
                .map(NodeInfoDto::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The image of one tenant repository: everything a peer needs to host
/// a byte-identical copy. It is what `TsrService::export_replicated_state`
/// returns and `apply_replicated_state` takes, the body of
/// `POST /v1/cluster/replicate` and the response of
/// `GET /v1/cluster/seal/{id}` (anti-entropy pull). A replicate push may
/// leave out blobs the receiver already holds (see [`Self::blobs`]).
///
/// Payloads are binary here; hex exists only in the JSON (`sealed_hex`,
/// `blobs[].bytes_hex`). The seal is TPM-bound: a replica installs it the
/// way crash recovery does — derive keys, replay the counter, unseal — so
/// a forged seal cannot decrypt and a stale one trips the rollback check.
/// The seal and the tenant's policy alone say which blobs a replica must
/// hold; nothing else in the image names a package's blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedState {
    /// Repository id.
    pub id: String,
    /// The deployed policy document.
    pub policy_text: String,
    /// Upstream index text (empty before the first refresh).
    pub upstream_index: String,
    /// Sanitized index text (empty before the first refresh).
    pub sanitized_index: String,
    /// The TPM-bound sealed metadata blob (empty before the first seal).
    pub sealed: Vec<u8>,
    /// The monotonic-counter value bound into `sealed`.
    pub seal_counter: u64,
    /// ETag of the signed sanitized index (the replication vote value).
    pub index_etag: String,
    /// Content-addressed blob payloads, `(hex SHA-256, bytes)`. An export
    /// carries every cached blob the tenant pins: each sanitized blob and
    /// each original its policy permits. A replicate push carries only
    /// those its receiver did not ack last time; a receiver that lacks a
    /// pinned one refuses the push, and the primary then pushes the
    /// export in full.
    pub blobs: Vec<(String, Arc<[u8]>)>,
}

impl WireDto for ReplicatedState {
    fn to_json(&self) -> Json {
        let blob = |(hash, bytes): &(String, Arc<[u8]>)| {
            Json::obj([
                ("hash", Json::str(hash)),
                ("bytes_hex", Json::str(hex::to_hex(bytes))),
            ])
        };
        Json::obj([
            ("id", Json::str(&self.id)),
            ("policy_text", Json::str(&self.policy_text)),
            ("upstream_index", Json::str(&self.upstream_index)),
            ("sanitized_index", Json::str(&self.sanitized_index)),
            ("sealed_hex", Json::str(hex::to_hex(&self.sealed))),
            ("seal_counter", Json::Int(self.seal_counter.into())),
            ("index_etag", Json::str(&self.index_etag)),
            ("blobs", Json::arr(self.blobs.iter().map(blob))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let unhex = |v: &Json, key: &str| {
            req(v, key)?
                .as_str()
                .and_then(hex::from_hex)
                .ok_or_else(|| format!("field {key:?} must be a hex string"))
        };
        Ok(ReplicatedState {
            id: req_str(v, "id")?,
            policy_text: req_str(v, "policy_text")?,
            upstream_index: req_str(v, "upstream_index")?,
            sanitized_index: req_str(v, "sanitized_index")?,
            sealed: unhex(v, "sealed_hex")?,
            seal_counter: req_u64(v, "seal_counter")?,
            index_etag: req_str(v, "index_etag")?,
            blobs: req_arr(v, "blobs")?
                .iter()
                .map(|b| Ok((req_str(b, "hash")?, unhex(b, "bytes_hex")?.into())))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// Request body of `POST /v1/cluster/replicate` — a primary pushing one
/// refreshed repository state to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateRequestDto {
    /// The sender's config epoch (receivers reject mismatched epochs).
    pub epoch: u64,
    /// Node id of the pushing primary.
    pub primary: String,
    /// The replicated repository state.
    pub state: ReplicatedState,
    /// Request-id of the client request that triggered this push
    /// (empty means unattributed; the field is omitted on the wire).
    pub request_id: String,
}

impl WireDto for ReplicateRequestDto {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("epoch", Json::Int(self.epoch.into())),
            ("primary", Json::str(&self.primary)),
            ("state", self.state.to_json()),
        ];
        if !self.request_id.is_empty() {
            pairs.push(("request_id", Json::str(&self.request_id)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ReplicateRequestDto {
            epoch: req_u64(v, "epoch")?,
            primary: req_str(v, "primary")?,
            state: ReplicatedState::from_json(req(v, "state")?)?,
            request_id: opt_str(v, "request_id")?,
        })
    }
}

/// Response of `POST /v1/cluster/replicate` — the replica's ack, which
/// doubles as its **vote**: the primary tallies `index_etag` values in a
/// `BallotBox` and commits only when a quorum agree (a Byzantine replica
/// acking a different etag — or two — cannot reach quorum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicateAckDto {
    /// Acking node id.
    pub node: String,
    /// Repository id the ack covers.
    pub repo: String,
    /// ETag of the signed index the replica now serves — the vote value.
    pub index_etag: String,
    /// Seal counter the replica holds after applying.
    pub seal_counter: u64,
    /// Whether the replica applied the state.
    pub accepted: bool,
    /// Failure detail when `accepted` is false (empty otherwise).
    pub detail: String,
    /// Echo of the push's `request_id` — proof the replica attributed
    /// its apply to the originating client request (empty when the push
    /// carried none; omitted on the wire).
    pub request_id: String,
}

impl WireDto for ReplicateAckDto {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("node", Json::str(&self.node)),
            ("repo", Json::str(&self.repo)),
            ("index_etag", Json::str(&self.index_etag)),
            ("seal_counter", Json::Int(self.seal_counter.into())),
            ("accepted", Json::Bool(self.accepted)),
            ("detail", Json::str(&self.detail)),
        ];
        if !self.request_id.is_empty() {
            pairs.push(("request_id", Json::str(&self.request_id)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ReplicateAckDto {
            node: req_str(v, "node")?,
            repo: req_str(v, "repo")?,
            index_etag: req_str(v, "index_etag")?,
            seal_counter: req_u64(v, "seal_counter")?,
            accepted: req_bool(v, "accepted")?,
            detail: req_str(v, "detail")?,
            request_id: opt_str(v, "request_id")?,
        })
    }
}

/// One repository line of an anti-entropy digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoDigestDto {
    /// Repository id.
    pub id: String,
    /// ETag of the signed index this node serves (empty before refresh).
    pub index_etag: String,
    /// Seal counter this node holds.
    pub seal_counter: u64,
}

impl WireDto for RepoDigestDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(&self.id)),
            ("index_etag", Json::str(&self.index_etag)),
            ("seal_counter", Json::Int(self.seal_counter.into())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(RepoDigestDto {
            id: req_str(v, "id")?,
            index_etag: req_str(v, "index_etag")?,
            seal_counter: req_u64(v, "seal_counter")?,
        })
    }
}

/// Response of `GET /v1/cluster/digest` — a node's compact state summary
/// used by anti-entropy: peers diff digests and pull the seal of any
/// repository where they lag (lower seal counter or missing entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterDigestDto {
    /// Reporting node id.
    pub node: String,
    /// The node's config epoch.
    pub epoch: u64,
    /// Per-repository digests, ordered by id.
    pub repos: Vec<RepoDigestDto>,
}

impl WireDto for ClusterDigestDto {
    fn to_json(&self) -> Json {
        Json::obj([
            ("node", Json::str(&self.node)),
            ("epoch", Json::Int(self.epoch.into())),
            ("repos", Json::arr(self.repos.iter().map(WireDto::to_json))),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ClusterDigestDto {
            node: req_str(v, "node")?,
            epoch: req_u64(v, "epoch")?,
            repos: req_arr(v, "repos")?
                .iter()
                .map(RepoDigestDto::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}
