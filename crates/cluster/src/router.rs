//! The cluster front: forwards each request to the node that owns its
//! shard, failing reads over to replicas.
//!
//! The router is **untrusted middleware** in the paper's threat model:
//! it never inspects or vouches for payloads, it only picks a node.
//! Clients keep verifying signatures and attestation evidence
//! end-to-end, so a misrouted or Byzantine-served response is caught at
//! the consumer, not here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsr_http::router::{percent_decode, split_query};
use tsr_http::{Request, Response};
use tsr_wire::{ClusterConfigDto, ErrorEnvelope, NodeInfoDto, WireDto};

use crate::error::ClusterError;
use crate::ring::Ring;
use crate::transport::NodeTransport;

/// A request-forwarding front over a cluster.
pub struct ClusterRouter {
    config: ClusterConfigDto,
    transport: Arc<dyn NodeTransport>,
    failovers: AtomicU64,
}

fn unavailable(req: &Request, detail: &str) -> Response {
    Response::json(
        503,
        ErrorEnvelope {
            code: "no_node_available".to_string(),
            message: "no cluster node could serve the request".to_string(),
            detail: detail.to_string(),
            request_id: req.headers.get("x-request-id").cloned().unwrap_or_default(),
        }
        .encode(),
    )
}

/// The shard key of a path, when it addresses one tenant:
/// `/v1/repositories/{id}[/...]` (and the apk-layout
/// `/repositories/{id}/...` a package manager fetches) → `id`,
/// percent-decoded.
fn shard_of(path: &str) -> Option<String> {
    let (path, _) = split_query(path);
    let rest = path
        .strip_prefix("/v1/repositories/")
        .or_else(|| path.strip_prefix("/repositories/"))?;
    let id = rest.split('/').next().unwrap_or("");
    if id.is_empty() {
        None
    } else {
        Some(percent_decode(id))
    }
}

impl ClusterRouter {
    /// A router over `config`, reaching nodes through `transport`.
    pub fn new(config: ClusterConfigDto, transport: Arc<dyn NodeTransport>) -> Self {
        ClusterRouter {
            config,
            transport,
            failovers: AtomicU64::new(0),
        }
    }

    /// The config requests are routed by.
    pub fn config(&self) -> ClusterConfigDto {
        self.config.clone()
    }

    /// Reads that were failed over to a replica so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Routes one request.
    ///
    /// - Tenant paths go to the shard's ring owners: reads try the
    ///   primary then fail over through the replicas on connect
    ///   failure; writes go to the primary only.
    /// - `POST /v1/repositories` goes to the allocator node.
    /// - Shard-less paths (health, metrics, repository list) go to the
    ///   first reachable node — the answer reflects that node's view.
    pub fn handle(&self, req: &mut Request) -> Response {
        let ring = Ring::new(self.config());
        if ring.config().nodes.is_empty() {
            return unavailable(req, "empty cluster config");
        }
        let is_read = matches!(req.method.as_str(), "GET" | "HEAD");
        let (path, _) = split_query(&req.path);
        let targets: Vec<NodeInfoDto> = match shard_of(&req.path) {
            Some(shard) => {
                let owners = ring.owners(&shard);
                if is_read {
                    owners.into_iter().cloned().collect()
                } else {
                    owners.first().into_iter().map(|&n| n.clone()).collect()
                }
            }
            None if req.method == "POST" && path.trim_end_matches('/') == "/v1/repositories" => {
                ring.allocator().into_iter().cloned().collect()
            }
            None => ring.config().nodes.clone(),
        };
        let mut last = String::new();
        for (i, node) in targets.iter().enumerate() {
            match self.transport.forward(node, req) {
                Ok(resp) => {
                    if i > 0 {
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return resp;
                }
                Err(ClusterError::Unreachable(m)) => {
                    last = format!("{}: {m}", node.id);
                    continue;
                }
                Err(e) => return unavailable(req, &e.to_string()),
            }
        }
        unavailable(req, &last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_extraction() {
        assert_eq!(shard_of("/v1/repositories/repo-1"), Some("repo-1".into()));
        assert_eq!(
            shard_of("/v1/repositories/repo-1/packages/a?x=1"),
            Some("repo-1".into())
        );
        assert_eq!(
            shard_of("/repositories/repo-2/index"),
            Some("repo-2".into())
        );
        assert_eq!(shard_of("/v1/repositories"), None);
        assert_eq!(shard_of("/v1/healthz"), None);
        assert_eq!(shard_of("/v1/repositories/"), None);
        assert_eq!(shard_of("/v1/repositories/repo%2D9"), Some("repo-9".into()));
    }
}
