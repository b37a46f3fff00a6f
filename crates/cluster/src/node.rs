//! One member of the cluster: a [`TsrService`] wrapped with the
//! `/v1/cluster/*` protocol surface and the replication roles the
//! [`Ring`] assigns it.
//!
//! A node intercepts three things in front of its service:
//!
//! - **`/v1/cluster/*`** — the node-to-node protocol (config gossip,
//!   replicate-push, seal pull, anti-entropy digest),
//! - **`POST /v1/repositories/:id/refresh`** — when this node is the
//!   shard's primary, the refresh becomes *quorum-replicated*: run the
//!   local sanitize→sign pipeline, push the sealed signed state to the
//!   replicas, and report commit only when a majority of owner
//!   ack-votes agree on the resulting index ETag (tallied with
//!   [`BallotBox`], so duplicate and equivocating acks never count).
//!   A push leaves out the blobs the owner acked last time; an owner
//!   that cannot complete it nacks and gets one full push;
//! - **`POST /v1/repositories`** — tenant creation, bootstrapping the
//!   new shard onto its ring owners.
//!
//! Everything else falls through to the service untouched, so a
//! one-node cluster behaves exactly like a bare [`TsrService`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use tsr_core::{ApiOptions, CoreError, ReplicatedState, TsrService};
use tsr_http::router::{Recognized, Router};
use tsr_http::{Request, Response, Server, ServerConfig};
use tsr_obs::{current_request_id, RequestScope};
use tsr_quorum::BallotBox;
use tsr_wire::{
    ClusterConfigDto, ClusterDigestDto, ErrorEnvelope, NodeInfoDto, ReplicateAckDto,
    ReplicateRequestDto, RepoDigestDto, RepositoryCreated, WireDto,
};

use crate::error::ClusterError;
use crate::ring::Ring;
use crate::transport::NodeTransport;

/// What one anti-entropy round did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Repository states pulled and applied.
    pub pulled: usize,
    /// Pulls rejected by verification (tampered seal, rollback, bad
    /// blob hash) — the Byzantine-digest defense firing.
    pub rejected: usize,
    /// Peers that could not be reached.
    pub unreachable_peers: usize,
    /// One `peer/repo: error` line per rejected pull (trace material).
    pub rejections: Vec<String>,
}

/// The cluster routes a node intercepts before its service.
#[derive(Debug, Clone, Copy)]
enum ClusterOp {
    GetConfig,
    PostConfig,
    Replicate,
    Seal,
    Digest,
    Refresh,
    Create,
}

struct NodeShared {
    info: NodeInfoDto,
    service: TsrService,
    config: RwLock<ClusterConfigDto>,
    transport: Arc<dyn NodeTransport>,
    routes: Router<ClusterOp>,
    /// `(owner id, tenant id)` → the blob hashes of the last image that
    /// owner acked with this node's own ETag: what the next push to it
    /// leaves out. Volatile, so a restarted primary pushes in full. A
    /// leaf lock, never held across a transport call.
    acked: Mutex<BTreeMap<(String, String), BTreeSet<String>>>,
}

/// One cluster member. Cheap to clone (shared interior); clones address
/// the same node.
#[derive(Clone)]
pub struct ClusterNode {
    shared: Arc<NodeShared>,
}

fn envelope(status: u16, code: &str, message: &str, detail: &str) -> Response {
    Response::json(
        status,
        ErrorEnvelope {
            code: code.to_string(),
            message: message.to_string(),
            detail: detail.to_string(),
            request_id: current_request_id().unwrap_or_default(),
        }
        .encode(),
    )
}

fn dto_response(dto: &impl WireDto) -> Response {
    Response::json(200, dto.encode())
}

impl ClusterNode {
    /// A node with identity `info`, serving `service`, reaching peers
    /// through `transport`, starting from `config`.
    pub fn new(
        info: NodeInfoDto,
        service: TsrService,
        config: ClusterConfigDto,
        transport: Arc<dyn NodeTransport>,
    ) -> Self {
        let mut routes = Router::new();
        routes
            .route("GET", "/v1/cluster/config", ClusterOp::GetConfig)
            .route("POST", "/v1/cluster/config", ClusterOp::PostConfig)
            .route("POST", "/v1/cluster/replicate", ClusterOp::Replicate)
            .route("GET", "/v1/cluster/seal/:id", ClusterOp::Seal)
            .route("GET", "/v1/cluster/digest", ClusterOp::Digest)
            .route("POST", "/v1/repositories/:id/refresh", ClusterOp::Refresh)
            .route("POST", "/v1/repositories", ClusterOp::Create);
        ClusterNode {
            shared: Arc::new(NodeShared {
                info,
                service,
                config: RwLock::new(config),
                transport,
                routes,
                acked: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// This node's identity.
    pub fn info(&self) -> &NodeInfoDto {
        &self.shared.info
    }

    /// The wrapped service (tests and harnesses reach through for
    /// direct state access).
    pub fn service(&self) -> &TsrService {
        &self.shared.service
    }

    /// The config this node currently holds.
    pub fn config(&self) -> ClusterConfigDto {
        self.shared
            .config
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Adopts `incoming` if its epoch is strictly newer, returning the
    /// config held afterwards (the gossip exchange is idempotent).
    pub fn join(&self, incoming: &ClusterConfigDto) -> ClusterConfigDto {
        let mut cfg = self
            .shared
            .config
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if incoming.epoch > cfg.epoch {
            *cfg = incoming.clone();
            // The series reads as the adopted epoch: epochs only grow,
            // and this runs under the config write lock.
            let epoch = self.shared.service.event_counter("cluster_config_epoch");
            epoch.add(incoming.epoch.saturating_sub(epoch.get()));
            // Adopting the newer config clears a lagging-epoch readiness
            // objection (see `apply_replicate`).
            self.shared.service.set_cluster_epoch_ok(true);
        }
        cfg.clone()
    }

    /// Routes one request: cluster protocol and replicated-write
    /// intercepts first, the plain service for everything else.
    pub fn handle(&self, req: &mut Request) -> Response {
        // Same contract as `TsrService::handle`: the request's id is in
        // scope for the whole dispatch, so cluster-layer error envelopes
        // and the replication fan-out triggered by this request carry it.
        let _scope = RequestScope::enter(req.headers.get("x-request-id").cloned());
        let op = match self.shared.routes.recognize(&req.method, &req.path) {
            Recognized::Match(m) => {
                let id = m.params.get("id").map(str::to_string);
                (*m.value, id)
            }
            // Partial matches (e.g. GET /v1/repositories) belong to the
            // service's own router, error shapes included.
            Recognized::MethodNotAllowed(_) | Recognized::NotFound => {
                return self.shared.service.handle(req)
            }
        };
        match op {
            (ClusterOp::GetConfig, _) => dto_response(&self.config()),
            (ClusterOp::PostConfig, _) => match ClusterConfigDto::decode(&text_body(req)) {
                Ok(cfg) => dto_response(&self.join(&cfg)),
                Err(e) => envelope(400, "bad_request", "undecodable cluster config", &e),
            },
            (ClusterOp::Replicate, _) => match ReplicateRequestDto::decode(&text_body(req)) {
                Ok(push) => dto_response(&self.apply_replicate(&push)),
                Err(e) => envelope(400, "bad_request", "undecodable replicate request", &e),
            },
            (ClusterOp::Seal, Some(id)) => match self.export_seal(&id) {
                Ok(seal) => dto_response(&seal),
                Err(ClusterError::NotFound(m)) => envelope(404, "not_found", &m, ""),
                Err(e) => envelope(500, "cluster_error", &e.to_string(), ""),
            },
            (ClusterOp::Digest, _) => dto_response(&self.digest()),
            (ClusterOp::Refresh, Some(id)) => self.replicated_refresh(&id, req),
            (ClusterOp::Create, _) => self.create_repository(req),
            // `:id` routes always capture the parameter.
            (ClusterOp::Seal | ClusterOp::Refresh, None) => {
                envelope(500, "cluster_error", "route param missing", "")
            }
        }
    }

    /// Binds an HTTP server exposing [`Self::handle`] behind the
    /// service's middleware stack ([`TsrService::mount`]), with no rate
    /// limit — the bucket is global and would throttle peer pushes — and
    /// the transport's default body cap: a full-state push outgrows the
    /// API's.
    ///
    /// # Errors
    ///
    /// [`tsr_http::HttpError`] when the address cannot be bound.
    pub fn serve(&self, addr: &str) -> Result<Server, tsr_http::HttpError> {
        let node = self.clone();
        let options = ApiOptions {
            rate_limit: None,
            max_body: ServerConfig::default().max_body,
            ..ApiOptions::default()
        };
        self.shared
            .service
            .mount(addr, options, move |req| node.handle(req))
    }

    /// The compact state summary anti-entropy exchanges.
    pub fn digest(&self) -> ClusterDigestDto {
        ClusterDigestDto {
            node: self.shared.info.id.clone(),
            epoch: self.config().epoch,
            repos: self
                .shared
                .service
                .replication_digest()
                .into_iter()
                .map(|(id, index_etag, seal_counter)| RepoDigestDto {
                    id,
                    index_etag,
                    seal_counter,
                })
                .collect(),
        }
    }

    /// Exports one repository's replicable state.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] for unknown ids,
    /// [`ClusterError::Protocol`] when the export fails.
    pub fn export_seal(&self, repo: &str) -> Result<ReplicatedState, ClusterError> {
        self.shared
            .service
            .export_replicated_state(repo)
            .map_err(|e| match e {
                CoreError::NotFound(m) => ClusterError::NotFound(m),
                e => ClusterError::Protocol(e.to_string()),
            })
    }

    /// Applies a pushed replicated state, answering with this node's
    /// ack-vote. Rejections (stale epoch, rollback, tampered payloads)
    /// are acks with `accepted: false` — the protocol call itself
    /// succeeded.
    pub fn apply_replicate(&self, push: &ReplicateRequestDto) -> ReplicateAckDto {
        // The push carries the client request-id that triggered the
        // replication; install it so the WAL-append journal events of
        // the apply are attributed to it, and echo it in the ack as
        // proof of attribution.
        let _scope = RequestScope::enter(Some(push.request_id.clone()));
        let nack = |detail: String| ReplicateAckDto {
            node: self.shared.info.id.clone(),
            repo: push.state.id.clone(),
            index_etag: String::new(),
            seal_counter: 0,
            accepted: false,
            detail,
            request_id: push.request_id.clone(),
        };
        let local_epoch = self.config().epoch;
        if push.epoch < local_epoch {
            return nack(format!(
                "stale config epoch {} (local {local_epoch})",
                push.epoch
            ));
        }
        if push.epoch > local_epoch {
            // This node's config lags the cluster's: keep applying (the
            // push is newer, not staler), but object to readiness until
            // gossip delivers the new config (`join` clears this).
            self.shared.service.set_cluster_epoch_ok(false);
        }
        let ack = match self.shared.service.apply_replicated_state(&push.state) {
            Ok(etag) => ReplicateAckDto {
                node: self.shared.info.id.clone(),
                repo: push.state.id.clone(),
                index_etag: etag,
                seal_counter: push.state.seal_counter,
                accepted: true,
                detail: String::new(),
                request_id: push.request_id.clone(),
            },
            Err(e) => nack(e.to_string()),
        };
        self.shared.service.obs_journal().record(
            "replicate_apply",
            &push.request_id,
            format!("{} accepted={}", ack.repo, ack.accepted),
        );
        ack
    }

    /// A primary's replicated refresh: local sanitize→sign first, then
    /// push the sealed state to the other owners and commit only on a
    /// majority of ack-votes agreeing on this node's index ETag.
    fn replicated_refresh(&self, id: &str, req: &mut Request) -> Response {
        let ring = Ring::new(self.config());
        let owners = ring.owners(id);
        if owners.len() > 1 && owners[0].id != self.shared.info.id {
            let primary = owners[0].id.clone();
            return envelope(
                421,
                "not_primary",
                &format!("node {} is not the primary of {id}", self.shared.info.id),
                &primary,
            );
        }
        let resp = self.shared.service.handle(req);
        if resp.status != 200 || owners.len() <= 1 {
            return resp;
        }
        match self.replicate_out(id, &ring) {
            Ok(acks) => {
                self.shared
                    .service
                    .event_counter("cluster_replicate_commits")
                    .inc();
                resp.with_header("x-tsr-cluster-acks", &acks.to_string())
            }
            Err(e) => {
                self.shared
                    .service
                    .event_counter("cluster_replicate_failures")
                    .inc();
                envelope(
                    503,
                    "replication_failed",
                    &e.to_string(),
                    "refresh applied locally but not committed cluster-wide",
                )
            }
        }
    }

    /// Pushes `id`'s state to the other ring owners and tallies
    /// ack-votes. The vote is attributed to the node *addressed*, not
    /// the id claimed in the ack, so a Byzantine replica cannot
    /// impersonate another voter; [`BallotBox`] additionally rejects
    /// duplicates and equivocation.
    ///
    /// An owner whose last outcome was an ack agreeing with this node's
    /// ETag gets the image without the blobs that acked image carried;
    /// any other owner gets it in full. A push with blobs left out that
    /// comes back as anything but an agreeing ack is followed by one full
    /// push, whose outcome is the owner's vote.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoQuorum`] when fewer than a majority of owners
    /// ack this node's index ETag; [`ClusterError::Protocol`] when the
    /// local export fails.
    pub fn replicate_out(&self, id: &str, ring: &Ring) -> Result<usize, ClusterError> {
        let state = self
            .shared
            .service
            .export_replicated_state(id)
            .map_err(|e| ClusterError::Protocol(format!("export {id}: {e}")))?;
        let etag = state.index_etag.clone();
        let hashes: BTreeSet<String> = state.blobs.iter().map(|(h, _)| h.clone()).collect();
        let request_id = current_request_id().unwrap_or_default();
        let full = ReplicateRequestDto {
            epoch: ring.config().epoch,
            primary: self.shared.info.id.clone(),
            state,
            request_id: request_id.clone(),
        };
        let agrees = |outcome: &Result<ReplicateAckDto, ClusterError>| {
            let agreeing = |ack: &ReplicateAckDto| ack.accepted && ack.index_etag == etag;
            outcome.as_ref().is_ok_and(agreeing)
        };
        let mut ballots = BallotBox::new();
        ballots.cast(&self.shared.info.id, etag.as_bytes());
        for owner in ring.owners(id) {
            if owner.id == self.shared.info.id {
                continue;
            }
            self.shared.service.obs_journal().record(
                "replicate_push",
                &request_id,
                format!("{id} -> {}", owner.id),
            );
            let key = (owner.id.clone(), id.to_string());
            let lean = lock(&self.shared.acked).get(&key).and_then(|held| {
                let mut push = full.clone();
                push.state.blobs.retain(|(hash, _)| !held.contains(hash));
                (push.state.blobs.len() < full.state.blobs.len()).then_some(push)
            });
            let mut outcome = self.push(owner, lean.as_ref().unwrap_or(&full));
            if lean.is_some() && !agrees(&outcome) {
                outcome = self.push(owner, &full);
            }
            if agrees(&outcome) {
                lock(&self.shared.acked).insert(key, hashes.clone());
            } else {
                lock(&self.shared.acked).remove(&key);
            }
            match outcome {
                Ok(ack) if ack.accepted => {
                    ballots.cast(&owner.id, ack.index_etag.as_bytes());
                }
                Ok(_) | Err(_) => {
                    self.shared
                        .service
                        .event_counter("cluster_replica_failures")
                        .inc();
                }
            }
        }
        let needed = ring.quorum(id);
        match ballots.winner(needed) {
            Some((acks, value)) if value == etag.as_bytes() => Ok(acks),
            _ => Err(ClusterError::NoQuorum {
                agreement: ballots.best_agreement(),
                needed,
            }),
        }
    }

    /// One replicate call to `owner`, counting the blob bytes it carries.
    fn push(
        &self,
        owner: &NodeInfoDto,
        push: &ReplicateRequestDto,
    ) -> Result<ReplicateAckDto, ClusterError> {
        let bytes: usize = push.state.blobs.iter().map(|(_, b)| b.len()).sum();
        self.shared
            .service
            .event_counter("cluster_replicate_blob_bytes")
            .add(bytes as u64);
        self.shared.transport.replicate(owner, push)
    }

    /// Tenant creation: create locally, then bootstrap the new shard
    /// onto its ring owners (push the policy-only state). If this node
    /// is not itself an owner it drops its local copy — it only acted
    /// as the id allocator.
    fn create_repository(&self, req: &mut Request) -> Response {
        let resp = self.shared.service.handle(req);
        if resp.status == 200 || resp.status == 201 {
            if let Ok(created) =
                RepositoryCreated::decode(&String::from_utf8_lossy(resp.body.as_slice()))
            {
                self.bootstrap(&created.id);
            }
        }
        resp
    }

    /// Best-effort push of a freshly created shard to its owners.
    /// Replication is not quorum-gated here: an unreachable owner is
    /// bootstrapped later by the first replicated refresh (no owner has
    /// acked yet, so that push is full).
    pub fn bootstrap(&self, id: &str) {
        let ring = Ring::new(self.config());
        if ring.config().nodes.len() <= 1 {
            return;
        }
        let Ok(state) = self.shared.service.export_replicated_state(id) else {
            return;
        };
        let push = ReplicateRequestDto {
            epoch: ring.config().epoch,
            primary: self.shared.info.id.clone(),
            state,
            request_id: current_request_id().unwrap_or_default(),
        };
        for owner in ring.owners(id) {
            if owner.id != self.shared.info.id {
                let _ = self.push(owner, &push);
            }
        }
        if !ring.is_owner(id, &self.shared.info.id) {
            let _ = self.shared.service.delete_repository(id);
        }
    }

    /// One pull-based anti-entropy round: diff every reachable peer's
    /// digest against local state and pull the seal of any hosted
    /// repository where the peer holds a higher seal counter. Pulled
    /// states go through the full verification path (blob hashes,
    /// rollback guard, TPM-bound unseal), so a forged digest can waste
    /// a pull but never poison state.
    pub fn anti_entropy(&self) -> AntiEntropyReport {
        let cfg = self.config();
        let mut report = AntiEntropyReport::default();
        let mut local: BTreeMap<String, u64> = self
            .shared
            .service
            .replication_digest()
            .into_iter()
            .map(|(id, _, counter)| (id, counter))
            .collect();
        for peer in &cfg.nodes {
            if peer.id == self.shared.info.id {
                continue;
            }
            let digest = match self.shared.transport.digest(peer) {
                Ok(d) => d,
                Err(_) => {
                    report.unreachable_peers += 1;
                    continue;
                }
            };
            for repo in &digest.repos {
                let Some(&current) = local.get(&repo.id) else {
                    continue;
                };
                if repo.seal_counter <= current {
                    continue;
                }
                let outcome = self
                    .shared
                    .transport
                    .fetch_seal(peer, &repo.id)
                    .and_then(|state| {
                        self.shared
                            .service
                            .apply_replicated_state(&state)
                            .map(|_| state.seal_counter)
                            .map_err(|e| ClusterError::Protocol(e.to_string()))
                    });
                match outcome {
                    Ok(counter) => {
                        local.insert(repo.id.clone(), counter);
                        report.pulled += 1;
                    }
                    Err(e) => {
                        report.rejected += 1;
                        report.rejections.push(format!(
                            "{}<-{}/{}: {e}",
                            self.shared.info.id, peer.id, repo.id
                        ));
                    }
                }
            }
        }
        let service = &self.shared.service;
        service
            .event_counter("cluster_anti_entropy_pulls")
            .add(report.pulled as u64);
        service
            .event_counter("cluster_anti_entropy_rejects")
            .add(report.rejected as u64);
        report
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn text_body(req: &Request) -> String {
    String::from_utf8_lossy(&req.body).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use tsr_mirror::{publish_to_all, Mirror};
    use tsr_net::{Continent, LatencyModel};
    use tsr_sim::default_workload;
    use tsr_simfs::{SimFs, SimFsBackend};
    use tsr_wire::CreateRepositoryRequest;
    use tsr_workload::GeneratedRepo;

    use crate::transport::{LocalCluster, LocalTransport};

    /// `(owner id, blob hashes)` of every replicate call, in order.
    type Pushes = Arc<Mutex<Vec<(String, BTreeSet<String>)>>>;

    /// A [`LocalTransport`] that records the blob hashes of every push.
    struct Recording {
        inner: Arc<LocalTransport>,
        pushes: Pushes,
    }

    impl NodeTransport for Recording {
        fn forward(&self, to: &NodeInfoDto, req: &mut Request) -> Result<Response, ClusterError> {
            self.inner.forward(to, req)
        }

        fn replicate(
            &self,
            to: &NodeInfoDto,
            req: &ReplicateRequestDto,
        ) -> Result<ReplicateAckDto, ClusterError> {
            let hashes = req.state.blobs.iter().map(|(h, _)| h.clone()).collect();
            self.pushes.lock().unwrap().push((to.id.clone(), hashes));
            self.inner.replicate(to, req)
        }

        fn fetch_seal(
            &self,
            to: &NodeInfoDto,
            repo: &str,
        ) -> Result<ReplicatedState, ClusterError> {
            self.inner.fetch_seal(to, repo)
        }

        fn digest(&self, to: &NodeInfoDto) -> Result<ClusterDigestDto, ClusterError> {
            self.inner.digest(to)
        }
    }

    struct Fixture {
        cluster: LocalCluster,
        nodes: Vec<ClusterNode>,
        repo: String,
        upstream: GeneratedRepo,
        pushes: Pushes,
    }

    fn request(method: &str, path: &str, body: Vec<u8>) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: BTreeMap::new(),
            body,
        }
    }

    fn mirrors(upstream: &GeneratedRepo) -> Vec<Mirror> {
        let mut ms: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut ms, &upstream.snapshot());
        ms
    }

    /// A node over an empty store, registered with `cluster`.
    fn node(
        info: &NodeInfoDto,
        config: ClusterConfigDto,
        cluster: &LocalCluster,
        upstream: &GeneratedRepo,
        pushes: &Pushes,
    ) -> ClusterNode {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (service, _) = TsrService::with_store(
            b"node-tests-seed",
            mirrors(upstream),
            LatencyModel::default(),
            1024,
            Box::new(SimFsBackend::new(fs, "/store")),
        )
        .unwrap();
        let transport = Recording {
            inner: cluster.transport_from(info),
            pushes: Arc::clone(pushes),
        };
        let node = ClusterNode::new(info.clone(), service, config, Arc::new(transport));
        cluster.register(node.clone());
        node
    }

    /// Three nodes sharing a platform seed, one replicated tenant.
    fn fixture() -> Fixture {
        let upstream = GeneratedRepo::generate(default_workload("node-tests", 11));
        let policy = tsr_core::Policy {
            mirrors: mirrors(&upstream)
                .iter()
                .map(|m| tsr_core::MirrorRef {
                    hostname: m.name.clone(),
                    continent: m.continent,
                })
                .collect(),
            signers_keys: vec![upstream.signing_key.public_key().clone()],
            init_config_files: Vec::new(),
            f: 1,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };
        let infos: Vec<NodeInfoDto> = (0..3)
            .map(|i| NodeInfoDto {
                id: format!("node-{i}"),
                base_url: format!("local://node-{i}"),
                continent: "Europe".into(),
            })
            .collect();
        let config = ClusterConfigDto {
            epoch: 1,
            replication: 2,
            nodes: infos.clone(),
        };
        let cluster = LocalCluster::new();
        let pushes = Pushes::default();
        let nodes: Vec<ClusterNode> = infos
            .iter()
            .map(|info| node(info, config.clone(), &cluster, &upstream, &pushes))
            .collect();
        // Create through the allocator so the shard bootstraps onto its
        // ring owners, exactly like production traffic would.
        let ring = Ring::new(config);
        let allocator = ring.allocator().unwrap().id.clone();
        let alloc_node = nodes.iter().find(|n| n.info().id == allocator).unwrap();
        let create = CreateRepositoryRequest {
            policy: policy.to_text(),
        };
        let mut req = request("POST", "/v1/repositories", create.encode().into_bytes());
        let resp = alloc_node.handle(&mut req);
        assert_eq!(resp.status, 201, "{:?}", resp.body.as_slice());
        let created =
            RepositoryCreated::decode(&String::from_utf8_lossy(resp.body.as_slice())).unwrap();
        pushes.lock().unwrap().clear();
        Fixture {
            cluster,
            nodes,
            repo: created.id,
            upstream,
            pushes,
        }
    }

    impl Fixture {
        fn primary(&self) -> &ClusterNode {
            let ring = Ring::new(self.nodes[0].config());
            let id = ring.owners(&self.repo)[0].id.clone();
            self.nodes.iter().find(|n| n.info().id == id).unwrap()
        }

        fn replica(&self, k: usize) -> &ClusterNode {
            let ring = Ring::new(self.nodes[0].config());
            let id = ring.owners(&self.repo)[1 + k].id.clone();
            self.nodes.iter().find(|n| n.info().id == id).unwrap()
        }

        fn refresh(&self) -> Response {
            let mut req = request(
                "POST",
                &format!("/v1/repositories/{}/refresh", self.repo),
                Vec::new(),
            );
            self.primary().handle(&mut req)
        }

        /// A replicated refresh that commits with `acks` votes.
        fn commit(&self, acks: &str) {
            let resp = self.refresh();
            assert_eq!(resp.status, 200, "{:?}", resp.body.as_slice());
            assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), acks);
        }

        /// Bumps `count` packages upstream on every node's mirrors.
        fn publish(&mut self, count: usize) -> Vec<String> {
            let updated = self.upstream.publish_update(count);
            let snapshot = self.upstream.snapshot();
            for node in &self.nodes {
                node.service()
                    .with_mirrors(|ms| publish_to_all(ms, &snapshot));
            }
            updated
        }

        /// Replaces node `id` with a fresh one over an empty store.
        fn rebuild(&mut self, id: &str) {
            let k = self.nodes.iter().position(|n| n.info().id == id).unwrap();
            let info = self.nodes[k].info().clone();
            let config = self.nodes[k].config();
            self.nodes[k] = node(&info, config, &self.cluster, &self.upstream, &self.pushes);
        }

        /// The blob hashes of the primary's current image.
        fn image(&self) -> BTreeSet<String> {
            let state = self.primary().export_seal(&self.repo).unwrap();
            state.blobs.into_iter().map(|(h, _)| h).collect()
        }

        /// The blob hashes of each push to `owner` since the last
        /// [`Self::forget_pushes`].
        fn pushed_to(&self, owner: &str) -> Vec<BTreeSet<String>> {
            let pushes = self.pushes.lock().unwrap();
            let to_owner = pushes.iter().filter(|(to, _)| to == owner);
            to_owner.map(|(_, hashes)| hashes.clone()).collect()
        }

        fn forget_pushes(&self) {
            self.pushes.lock().unwrap().clear();
        }

        fn blob_bytes(&self) -> u64 {
            let service = self.primary().service();
            service.event_counter("cluster_replicate_blob_bytes").get()
        }

        /// Every owner serves the primary's index and package bytes.
        fn assert_converged(&self) {
            let primary = self.primary().service();
            let names: Vec<String> = primary
                .with_repository(&self.repo, |repo| {
                    let index = repo.sanitized_index().unwrap();
                    index.iter().map(|e| e.name.clone()).collect()
                })
                .unwrap();
            for k in 0..2 {
                let replica = self.replica(k).service();
                assert_eq!(
                    replica.fetch_index(&self.repo).unwrap(),
                    primary.fetch_index(&self.repo).unwrap()
                );
                for name in &names {
                    assert_eq!(
                        replica.fetch_package(&self.repo, name).unwrap(),
                        primary.fetch_package(&self.repo, name).unwrap(),
                        "{name}"
                    );
                }
            }
        }

        /// `(repo) accepted=..` of every apply `owner` journaled.
        fn applies(&self, owner: &str) -> Vec<String> {
            let node = self.nodes.iter().find(|n| n.info().id == owner).unwrap();
            let events = node.service().obs_journal().drain().into_iter();
            let applies = events.filter(|e| e.kind == "replicate_apply");
            applies.map(|e| e.detail).collect()
        }
    }

    fn minus(a: &BTreeSet<String>, b: &BTreeSet<String>) -> BTreeSet<String> {
        a.difference(b).cloned().collect()
    }

    #[test]
    fn a_steady_refresh_pushes_each_replica_only_the_blobs_it_added() {
        let mut fx = fixture();
        fx.commit("3");
        let first = fx.image();
        let owners = [
            fx.replica(0).info().id.clone(),
            fx.replica(1).info().id.clone(),
        ];
        // The first push of a tenant is full…
        for owner in &owners {
            assert_eq!(fx.pushed_to(owner), vec![first.clone()]);
        }

        // …and each one after it carries what the refresh added.
        fx.publish(2);
        fx.forget_pushes();
        let bytes = fx.blob_bytes();
        fx.commit("3");
        let state = fx.primary().export_seal(&fx.repo).unwrap();
        let added = minus(&fx.image(), &first);
        assert!(!added.is_empty() && added.len() < first.len(), "{added:?}");
        for owner in &owners {
            assert_eq!(fx.pushed_to(owner), vec![added.clone()]);
        }
        let added_bytes: usize = state
            .blobs
            .iter()
            .filter(|(h, _)| added.contains(h))
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(fx.blob_bytes() - bytes, 2 * added_bytes as u64);
        fx.assert_converged();
    }

    #[test]
    fn a_restarted_replica_catches_up_on_the_next_lean_push() {
        let mut fx = fixture();
        fx.commit("3");
        let dark = fx.replica(1).info().id.clone();
        let restart = |fx: &Fixture| {
            fx.cluster.restart(&dark);
            for (_, outcome) in fx.replica(1).service().crash_restart() {
                outcome.unwrap();
            }
        };
        // Down between two refreshes: it restarts from its store, and the
        // next push leaves out what it acked before the crash.
        fx.cluster.crash(&dark);
        restart(&fx);
        let first = fx.image();
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("3");
        assert_eq!(fx.pushed_to(&dark), [minus(&fx.image(), &first)]);
        fx.assert_converged();

        // Down across a refresh: the lean push and the full one both fail,
        // so the primary forgets what it acked and pushes in full once the
        // replica is back; the push after that is lean again.
        fx.cluster.crash(&dark);
        let acked = fx.image();
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("2");
        assert_eq!(
            fx.pushed_to(&dark),
            [minus(&fx.image(), &acked), fx.image()]
        );
        restart(&fx);
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("3");
        assert_eq!(fx.pushed_to(&dark), [fx.image()]);
        fx.assert_converged();
        let acked = fx.image();
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("3");
        assert_eq!(fx.pushed_to(&dark), [minus(&fx.image(), &acked)]);
        fx.assert_converged();
    }

    #[test]
    fn a_replica_rebuilt_over_an_empty_store_nacks_the_lean_push_then_takes_the_full_one() {
        let mut fx = fixture();
        fx.commit("3");
        let wiped = fx.replica(0).info().id.clone();
        fx.rebuild(&wiped);
        let acked = fx.image();
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("3");
        assert_eq!(
            fx.pushed_to(&wiped),
            [minus(&fx.image(), &acked), fx.image()]
        );
        let repo = &fx.repo;
        assert_eq!(
            fx.applies(&wiped),
            [
                format!("{repo} accepted=false"),
                format!("{repo} accepted=true")
            ]
        );
        fx.assert_converged();
    }

    #[test]
    fn a_replica_that_lied_then_turned_honest_converges() {
        let mut fx = fixture();
        fx.commit("3");
        let liar = fx.replica(0).info().id.clone();
        fx.cluster.set_byzantine(&liar, true);
        let acked = fx.image();
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("2");
        // Its forged ack does not agree, so the lean push is followed by
        // a full one, and the primary forgets what it held.
        assert_eq!(
            fx.pushed_to(&liar),
            [minus(&fx.image(), &acked), fx.image()]
        );
        fx.cluster.set_byzantine(&liar, false);
        fx.publish(2);
        fx.forget_pushes();
        fx.commit("3");
        assert_eq!(fx.pushed_to(&liar), [fx.image()]);
        fx.assert_converged();
    }

    #[test]
    fn a_tampered_unchanged_original_on_the_primary_blocks_only_a_full_push() {
        let mut fx = fixture();
        fx.commit("3");
        let updated = fx.publish(2);
        // Every original the update leaves alone is overwritten in the
        // primary's cache; the refresh does not read most of them again.
        let tampered: Vec<String> = fx
            .primary()
            .service()
            .with_repository_mut(&fx.repo, |repo| {
                let kept: Vec<String> = repo
                    .upstream_index()
                    .unwrap()
                    .iter()
                    .filter(|e| !updated.contains(&e.name))
                    .filter(|e| repo.sanitized_index().unwrap().get(&e.name).is_some())
                    .map(|e| e.content_hash.clone())
                    .collect();
                for hash in &kept {
                    repo.cache_mut().insert(hash, b"evil".to_vec());
                }
                kept
            })
            .unwrap();
        // The lean pushes leave those originals out: both replicas apply.
        fx.commit("3");
        fx.assert_converged();
        let still_tampered = |fx: &Fixture| {
            let primary = fx.primary().service();
            primary
                .with_repository(&fx.repo, |repo| {
                    let evil =
                        |h: &&String| repo.cache().get(h).is_some_and(|b| b[..] == b"evil"[..]);
                    tampered.iter().filter(evil).count()
                })
                .unwrap()
        };
        assert!(still_tampered(&fx) > 0);

        // A replica that needs everything gets a full push carrying them,
        // and refuses it.
        let wiped = fx.replica(0).info().id.clone();
        fx.rebuild(&wiped);
        fx.forget_pushes();
        fx.commit("2");
        assert_eq!(fx.pushed_to(&wiped).len(), 2);
        let repo = &fx.repo;
        assert_eq!(
            fx.applies(&wiped),
            [
                format!("{repo} accepted=false"),
                format!("{repo} accepted=false")
            ]
        );
        assert!(fx.replica(0).service().repository_ids().is_empty());
        assert!(still_tampered(&fx) > 0);
    }

    #[test]
    fn replicated_refresh_commits_on_full_and_majority_quorum() {
        let fx = fixture();
        let resp = fx.refresh();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), "3");
        // Every owner now serves the identical signed index.
        let want = fx.primary().service().fetch_index(&fx.repo).unwrap();
        for k in 0..2 {
            assert_eq!(fx.replica(k).service().fetch_index(&fx.repo).unwrap(), want);
        }

        // One Byzantine replica: its forged ack-vote never agrees with
        // the primary's ETag, but the honest majority still commits.
        fx.cluster.set_byzantine(&fx.replica(0).info().id, true);
        let resp = fx.refresh();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), "2");

        // Two Byzantine replicas: the primary's own vote is not a
        // majority of three, so the refresh does not commit.
        fx.cluster.set_byzantine(&fx.replica(1).info().id, true);
        let resp = fx.refresh();
        assert_eq!(resp.status, 503);
        let body = String::from_utf8_lossy(resp.body.as_slice()).into_owned();
        assert!(body.contains("replication_failed"), "{body}");
    }

    #[test]
    fn non_primary_owner_redirects_refresh() {
        let fx = fixture();
        let mut req = request(
            "POST",
            &format!("/v1/repositories/{}/refresh", fx.repo),
            Vec::new(),
        );
        let resp = fx.replica(0).handle(&mut req);
        assert_eq!(resp.status, 421);
        let body = String::from_utf8_lossy(resp.body.as_slice()).into_owned();
        assert!(body.contains(&fx.primary().info().id), "{body}");
    }

    #[test]
    fn stale_epoch_push_is_nacked() {
        let fx = fixture();
        fx.refresh();
        let state = fx
            .primary()
            .service()
            .export_replicated_state(&fx.repo)
            .unwrap();
        let push = ReplicateRequestDto {
            epoch: 0, // config is at epoch 1
            primary: fx.primary().info().id.clone(),
            state,
            request_id: "req-test-stale".to_string(),
        };
        let ack = fx.replica(0).apply_replicate(&push);
        assert!(!ack.accepted);
        assert!(ack.detail.contains("stale config epoch"), "{}", ack.detail);
        assert_eq!(ack.request_id, "req-test-stale");
    }

    #[test]
    fn config_gossip_adopts_strictly_newer_epochs_only() {
        let fx = fixture();
        let node = &fx.nodes[0];
        let mut newer = node.config();
        newer.epoch = 2;
        newer.replication = 1;
        assert_eq!(node.join(&newer).replication, 1);
        let mut stale = node.config();
        stale.epoch = 2; // same epoch: not strictly newer
        stale.replication = 9;
        assert_eq!(node.join(&stale).replication, 1);
        // And over the wire:
        let mut req = request(
            "POST",
            "/v1/cluster/config",
            {
                let mut cfg = node.config();
                cfg.epoch = 3;
                cfg.replication = 2;
                cfg
            }
            .encode()
            .into_bytes(),
        );
        let resp = node.handle(&mut req);
        assert_eq!(resp.status, 200);
        assert_eq!(node.config().epoch, 3);
    }

    #[test]
    fn anti_entropy_catches_up_a_dark_replica() {
        let fx = fixture();
        fx.refresh();
        let dark = fx.replica(1).info().id.clone();
        fx.cluster.crash(&dark);
        let resp = fx.refresh(); // 2-of-3
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), "2");
        fx.cluster.restart(&dark);
        let report = fx.replica(1).service().crash_restart();
        assert!(report.iter().all(|(_, r)| r.is_ok()));
        let round = fx.replica(1).anti_entropy();
        assert_eq!(round.pulled, 1, "{:?}", round.rejections);
        assert_eq!(round.rejected, 0);
        assert_eq!(
            fx.replica(1).service().fetch_index(&fx.repo).unwrap(),
            fx.primary().service().fetch_index(&fx.repo).unwrap()
        );
    }
}
