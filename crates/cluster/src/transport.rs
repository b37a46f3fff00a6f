//! How cluster nodes reach each other.
//!
//! [`NodeTransport`] abstracts the node-to-node calls so the same
//! [`ClusterNode`] logic runs over two backends:
//!
//! - [`LocalCluster`] / [`LocalTransport`]: in-process loopback with a
//!   deterministic fault oracle (crashes, continent partitions,
//!   Byzantine nodes that lie on the wire) — what the multi-node
//!   simulation scenarios drive,
//! - [`HttpTransport`]: real HTTP over pooled [`tsr_wire::TsrClient`]s
//!   for deployments where each node is its own process.
//!
//! A transport handle carries the **caller's identity** (node id +
//! continent) so the local fault oracle can apply partition rules to
//! both endpoints of a call, the way a real network would.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use tsr_http::{Client, Request, Response};
use tsr_wire::{
    ClusterDigestDto, NodeInfoDto, ReplicateAckDto, ReplicateRequestDto, ReplicatedState,
    TsrClient, WireError,
};

use crate::error::ClusterError;
use crate::node::ClusterNode;

/// Node-to-node calls of the cluster protocol.
pub trait NodeTransport: Send + Sync {
    /// Forwards a raw API request to `to` (the router's data path).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unreachable`] on connect failure — the variant
    /// read failover keys on.
    fn forward(&self, to: &NodeInfoDto, req: &mut Request) -> Result<Response, ClusterError>;

    /// Pushes one replicated repository state (`POST
    /// /v1/cluster/replicate`), returning the replica's ack-vote.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on transport or decode failure.
    fn replicate(
        &self,
        to: &NodeInfoDto,
        req: &ReplicateRequestDto,
    ) -> Result<ReplicateAckDto, ClusterError>;

    /// Pulls the full replicable state of `repo` from `to` (`GET
    /// /v1/cluster/seal/{repo}`, the anti-entropy pull).
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on transport failure or unknown repository.
    fn fetch_seal(&self, to: &NodeInfoDto, repo: &str) -> Result<ReplicatedState, ClusterError>;

    /// Fetches `to`'s compact state digest (`GET /v1/cluster/digest`).
    ///
    /// # Errors
    ///
    /// [`ClusterError`] on transport or decode failure.
    fn digest(&self, to: &NodeInfoDto) -> Result<ClusterDigestDto, ClusterError>;
}

/// The shared fault-oracle state of a [`LocalCluster`].
#[derive(Default)]
struct LocalState {
    nodes: BTreeMap<String, ClusterNode>,
    crashed: BTreeSet<String>,
    /// Continents cut off from every *other* continent (intra-continent
    /// traffic still flows).
    isolated: BTreeSet<String>,
    /// Nodes that lie on the wire: acks carry forged etags, served
    /// seals and responses are tampered deterministically.
    byzantine: BTreeSet<String>,
}

impl LocalState {
    fn reachable(&self, from_continent: &str, to: &NodeInfoDto) -> bool {
        if self.crashed.contains(&to.id) {
            return false;
        }
        from_continent == to.continent
            || (!self.isolated.contains(from_continent) && !self.isolated.contains(&to.continent))
    }
}

/// An in-process cluster of [`ClusterNode`]s with a deterministic fault
/// oracle. No sockets, no threads, no wall clock: calls are plain
/// function calls gated by the oracle, so a scenario that drives it is
/// reproducible bit-for-bit.
#[derive(Clone, Default)]
pub struct LocalCluster {
    state: Arc<Mutex<LocalState>>,
}

impl LocalCluster {
    /// An empty cluster (register nodes as they are built).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LocalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a node under its id.
    pub fn register(&self, node: ClusterNode) {
        self.lock().nodes.insert(node.info().id.clone(), node);
    }

    /// The registered node with `id`.
    pub fn node(&self, id: &str) -> Option<ClusterNode> {
        self.lock().nodes.get(id).cloned()
    }

    /// A transport handle whose calls originate from `from` (a node's
    /// own identity, or a synthetic client identity for the router).
    pub fn transport_from(&self, from: &NodeInfoDto) -> Arc<LocalTransport> {
        Arc::new(LocalTransport {
            cluster: self.clone(),
            from_continent: from.continent.clone(),
        })
    }

    /// Marks `id` crashed: unreachable until [`LocalCluster::restart`].
    pub fn crash(&self, id: &str) {
        self.lock().crashed.insert(id.to_string());
    }

    /// Clears the crash mark on `id`. The node's service decides what a
    /// restart recovers (see `TsrService::crash_restart`).
    pub fn restart(&self, id: &str) {
        self.lock().crashed.remove(id);
    }

    /// Cuts `continent` off from all other continents.
    pub fn isolate(&self, continent: &str) {
        self.lock().isolated.insert(continent.to_string());
    }

    /// Heals all partitions.
    pub fn heal(&self) {
        self.lock().isolated.clear();
    }

    /// Marks `id` Byzantine (or clears the mark): its wire traffic is
    /// tampered deterministically by the oracle.
    pub fn set_byzantine(&self, id: &str, lying: bool) {
        let mut state = self.lock();
        if lying {
            state.byzantine.insert(id.to_string());
        } else {
            state.byzantine.remove(id);
        }
    }

    /// Resolves a call's target: reachability check + node handle +
    /// Byzantine flag, without holding the oracle lock during the call
    /// itself (nodes re-enter the transport while replicating).
    fn target(
        &self,
        from_continent: &str,
        to: &NodeInfoDto,
    ) -> Result<(ClusterNode, bool), ClusterError> {
        let state = self.lock();
        if !state.reachable(from_continent, to) {
            return Err(ClusterError::Unreachable(format!(
                "{} (crashed or partitioned)",
                to.id
            )));
        }
        let node = state
            .nodes
            .get(&to.id)
            .cloned()
            .ok_or_else(|| ClusterError::NotFound(format!("node {}", to.id)))?;
        let lying = state.byzantine.contains(&to.id);
        Ok((node, lying))
    }
}

/// Deterministic tampering for Byzantine nodes: flip the case of every
/// hex digit (a self-inverse corruption that keeps lengths and charsets
/// plausible while never matching the honest value).
fn forge(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() {
                (c as u8 ^ 0x20) as char
            } else if let Some(d) = c.to_digit(10) {
                char::from_digit(9 - d, 10).unwrap_or(c)
            } else {
                c
            }
        })
        .collect()
}

/// A [`NodeTransport`] over a [`LocalCluster`], carrying one caller
/// identity.
pub struct LocalTransport {
    cluster: LocalCluster,
    from_continent: String,
}

impl NodeTransport for LocalTransport {
    fn forward(&self, to: &NodeInfoDto, req: &mut Request) -> Result<Response, ClusterError> {
        let (node, lying) = self.cluster.target(&self.from_continent, to)?;
        let mut resp = node.handle(req);
        if lying {
            // A Byzantine node serves tampered bytes; the client's
            // signature verification is what catches this (the paper's
            // verify-at-the-consumer claim).
            let mut body = std::mem::take(&mut resp.body).into_vec();
            for b in body.iter_mut() {
                *b ^= 0x01;
            }
            resp.body = tsr_http::Body::Owned(body);
        }
        Ok(resp)
    }

    fn replicate(
        &self,
        to: &NodeInfoDto,
        req: &ReplicateRequestDto,
    ) -> Result<ReplicateAckDto, ClusterError> {
        let (node, lying) = self.cluster.target(&self.from_continent, to)?;
        if lying {
            // A Byzantine replica does not apply the state but acks
            // success with a forged etag-vote. The primary's BallotBox
            // never counts it toward the honest value's quorum.
            return Ok(ReplicateAckDto {
                node: to.id.clone(),
                repo: req.state.id.clone(),
                index_etag: forge(&req.state.index_etag),
                seal_counter: req.state.seal_counter,
                accepted: true,
                detail: String::new(),
                request_id: req.request_id.clone(),
            });
        }
        Ok(node.apply_replicate(req))
    }

    fn fetch_seal(&self, to: &NodeInfoDto, repo: &str) -> Result<ReplicatedState, ClusterError> {
        let (node, lying) = self.cluster.target(&self.from_continent, to)?;
        let mut seal = node.export_seal(repo)?;
        if lying {
            // Tampered sealed metadata: the puller's unseal fails, so
            // poisoned anti-entropy pulls are rejected, not applied.
            seal.sealed.iter_mut().for_each(|b| *b ^= 0x5a);
            seal.seal_counter = seal.seal_counter.saturating_add(1_000);
        }
        Ok(seal)
    }

    fn digest(&self, to: &NodeInfoDto) -> Result<ClusterDigestDto, ClusterError> {
        let (node, lying) = self.cluster.target(&self.from_continent, to)?;
        let mut digest = node.digest();
        if lying {
            // An inflated digest lures peers into pulling; the pulled
            // seal then fails verification (see `fetch_seal`).
            for repo in &mut digest.repos {
                repo.seal_counter = repo.seal_counter.saturating_add(1_000);
                repo.index_etag = forge(&repo.index_etag);
            }
        }
        Ok(digest)
    }
}

/// A [`NodeTransport`] over real HTTP: one pooled [`TsrClient`] per
/// target node, plus a raw client for forwarded requests.
pub struct HttpTransport {
    timeout: Duration,
    /// Node id → (the address its client was made for, the client).
    clients: Mutex<BTreeMap<String, (String, TsrClient)>>,
}

impl HttpTransport {
    /// A transport with `timeout` per operation.
    pub fn new(timeout: Duration) -> Self {
        HttpTransport {
            timeout,
            clients: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` with the pooled client for `node` (created on first use,
    /// and replaced when a newer config moved the node, so it is reached
    /// where it now listens and the pool holds one client per node). The
    /// pool lock is held across the call, serializing requests per target
    /// — acceptable for the control-plane traffic this transport carries.
    fn with_client<R>(&self, node: &NodeInfoDto, f: impl FnOnce(&TsrClient) -> R) -> R {
        let mut clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
        let fresh = || {
            let client = TsrClient::pooled(node.base_url.clone(), self.timeout);
            (node.base_url.clone(), client)
        };
        let slot = clients.entry(node.id.clone()).or_insert_with(fresh);
        if slot.0 != node.base_url {
            *slot = fresh();
        }
        f(&slot.1)
    }
}

/// Maps a typed-client error onto the cluster error taxonomy
/// (transport failures become [`ClusterError::Unreachable`], the read
/// failover trigger).
fn wire_err(e: WireError) -> ClusterError {
    match e {
        WireError::Http(e) => ClusterError::Unreachable(e.to_string()),
        WireError::Api { status, error } => ClusterError::Api {
            status,
            detail: format!("[{}] {}", error.code, error.message),
        },
        WireError::Decode(m) | WireError::Attestation(m) => ClusterError::Protocol(m),
    }
}

impl NodeTransport for HttpTransport {
    fn forward(&self, to: &NodeInfoDto, req: &mut Request) -> Result<Response, ClusterError> {
        let url = format!("{}{}", to.base_url.trim_end_matches('/'), req.path);
        let headers: Vec<(&str, &str)> = req
            .headers
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        Client::with_keep_alive(self.timeout)
            .request(&req.method, &url, &req.body, &headers)
            .map_err(|e| ClusterError::Unreachable(e.to_string()))
    }

    fn replicate(
        &self,
        to: &NodeInfoDto,
        req: &ReplicateRequestDto,
    ) -> Result<ReplicateAckDto, ClusterError> {
        self.with_client(to, |c| c.cluster_replicate(req))
            .map_err(wire_err)
    }

    fn fetch_seal(&self, to: &NodeInfoDto, repo: &str) -> Result<ReplicatedState, ClusterError> {
        self.with_client(to, |c| c.cluster_seal(repo))
            .map_err(wire_err)
    }

    fn digest(&self, to: &NodeInfoDto) -> Result<ClusterDigestDto, ClusterError> {
        self.with_client(to, |c| c.cluster_digest())
            .map_err(wire_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsr_http::Server;
    use tsr_wire::WireDto;

    /// A server that answers every request with node `name`'s digest.
    fn digest_server(name: &str) -> Server {
        let digest = ClusterDigestDto {
            node: name.into(),
            epoch: 1,
            repos: Vec::new(),
        };
        let body = digest.encode();
        Server::bind("127.0.0.1:0", move |_| Response::json(200, body.clone())).unwrap()
    }

    #[test]
    fn a_node_that_moved_is_reached_at_its_new_address() {
        let (first, second) = (digest_server("first"), digest_server("second"));
        let peer = |server: &Server| NodeInfoDto {
            id: "peer".into(),
            base_url: format!("http://{}", server.local_addr()),
            continent: "Europe".into(),
        };
        let transport = HttpTransport::new(Duration::from_secs(10));
        assert_eq!(transport.digest(&peer(&first)).unwrap().node, "first");
        assert_eq!(transport.digest(&peer(&second)).unwrap().node, "second");
        assert_eq!(
            transport.clients.lock().unwrap().len(),
            1,
            "one client per node"
        );
    }
}
