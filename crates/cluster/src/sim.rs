//! Deterministic multi-node chaos scenarios.
//!
//! The single-service harness in `tsr-sim` pins the paper's per-TSR
//! invariants; this module pins the **cluster-level** ones. A scenario
//! builds N real nodes — each a full [`TsrService`] on its own durable
//! simulated disk and its own TPM, all sharing one platform seed — wires
//! them through the [`LocalCluster`] fault oracle, and interprets a
//! time-ordered event schedule: publishes, routed quorum-replicated
//! refreshes, node crash-restarts, continent partitions, Byzantine
//! replicas, anti-entropy rounds, and client-side verified reads.
//!
//! Invariants asserted as the schedule executes:
//!
//! 1. a refresh reports *committed* only when a majority of owner
//!    ack-votes agree on the primary's index ETag,
//! 2. a node restart ([`TsrService::crash_restart`]) re-installs every
//!    tenant from its durable store — seal, counter and package blobs —
//!    and serves a byte-identical signed index,
//! 3. every index a client accepts verifies against the repository key
//!    (Byzantine-served bytes are rejected, never trusted),
//! 4. after partitions heal and anti-entropy runs, all live honest
//!    nodes serve **byte-identical** signed indexes,
//! 5. same scenario + same seed ⇒ byte-identical event trace,
//! 6. every replica-side replication apply carries the client's
//!    `x-request-id` (end-to-end attribution through the quorum
//!    fan-out; Byzantine forged acks never reach a journal).
//!
//! No wall clock, no threads, no sockets: virtual time comes from the
//! schedule, randomness from the seed, so traces replay bit-for-bit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tsr_apk::Index;
use tsr_core::{InitConfigFile, MirrorRef, Policy, TsrService};
use tsr_crypto::RsaPublicKey;
use tsr_http::Request;
use tsr_mirror::{publish_to_all, Mirror};
use tsr_net::{Continent, LatencyModel};
use tsr_sim::{default_workload, EventTrace};
use tsr_simfs::{SimFs, SimFsBackend};
use tsr_wire::{
    ClusterConfigDto, CreateRepositoryRequest, NodeInfoDto, RepositoryCreated, WireDto,
};
use tsr_workload::GeneratedRepo;

use crate::node::ClusterNode;
use crate::ring::Ring;
use crate::router::ClusterRouter;
use crate::transport::{LocalCluster, NodeTransport};

/// Selects a node relative to the scenario's single tenant shard, so
/// schedules stay meaningful regardless of where rendezvous hashing
/// places the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSel {
    /// The shard's primary owner.
    Primary,
    /// The k-th replica owner (0-based, ring order).
    Replica(usize),
    /// The node at this index in config order.
    Index(usize),
}

/// One scheduled cluster event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Upstream publishes `packages` updated packages to every
    /// continent's mirror fleet.
    Publish {
        /// Packages updated.
        packages: usize,
    },
    /// A client refreshes the tenant through the router: the primary
    /// runs sanitize→sign and the refresh commits only on a quorum of
    /// replica ack-votes. `expect_commit` is the asserted outcome.
    Refresh {
        /// Whether the refresh must commit (quorum reached).
        expect_commit: bool,
    },
    /// Crashes a node (unreachable; in-memory state lost on restart).
    Crash(NodeSel),
    /// Restarts a crashed node: reachable again, state recovered from
    /// its durable store + TPM-sealed metadata.
    Restart(NodeSel),
    /// Cuts the selected node's continent off from the others.
    Isolate(NodeSel),
    /// Heals all partitions.
    Heal,
    /// Marks a node Byzantine (it lies on the wire) or clears the mark.
    Byzantine(NodeSel, bool),
    /// Runs one pull-based anti-entropy round on every live honest
    /// node.
    AntiEntropy,
    /// Every live node serves the index to a client who verifies the
    /// signature: Byzantine-served bytes must be rejected, honest ones
    /// accepted.
    ServeAll,
    /// Asserts all live honest nodes serve byte-identical signed
    /// indexes.
    VerifyConverged,
}

/// A deterministic multi-node scenario.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// Stable name (trace header, artifact file names).
    pub name: String,
    /// Master seed: drives the workload, keys, and therefore the trace.
    pub seed: u64,
    /// One node per continent entry.
    pub continents: Vec<Continent>,
    /// Replicas per shard in addition to the primary.
    pub replication: usize,
    /// Mirror-quorum parameter of the tenant policy.
    pub f: usize,
    /// Time-ordered `(virtual ms, event)` schedule.
    pub schedule: Vec<(u64, ClusterEvent)>,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ClusterSimReport {
    /// Scenario name.
    pub name: String,
    /// Seed the run was driven by.
    pub seed: u64,
    /// Events executed.
    pub events: usize,
    /// Refreshes that committed with a quorum of acks.
    pub commits: usize,
    /// Refreshes that failed to reach quorum.
    pub failed_commits: usize,
    /// Anti-entropy pulls applied.
    pub pulled: usize,
    /// Anti-entropy pulls rejected by verification.
    pub rejected_pulls: usize,
    /// Client reads that verified against the repository key.
    pub served_verified: usize,
    /// Client reads rejected by client-side verification.
    pub served_rejected: usize,
    /// The converged signed index (the byte-identity witness).
    pub final_index: Vec<u8>,
    /// The full event trace.
    pub trace: EventTrace,
}

impl ClusterSimReport {
    /// The trace as text (what CI stores as a failure artifact).
    pub fn trace_text(&self) -> String {
        self.trace.to_text()
    }

    /// The trace determinism fingerprint.
    pub fn trace_digest(&self) -> String {
        self.trace.digest()
    }
}

/// A failed run: what went wrong plus the trace up to the failure.
#[derive(Debug, Clone)]
pub struct ClusterSimFailure {
    /// The violated invariant or configuration error.
    pub error: String,
    /// The trace recorded up to the failure point.
    pub trace: EventTrace,
}

impl std::fmt::Display for ClusterSimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.error)
    }
}

impl std::error::Error for ClusterSimFailure {}

struct World {
    cluster: LocalCluster,
    nodes: Vec<ClusterNode>,
    router: ClusterRouter,
    client: Arc<dyn NodeTransport>,
    upstream: GeneratedRepo,
    repo_id: String,
    signer_name: String,
    repo_key: RsaPublicKey,
    crashed: Vec<bool>,
    byzantine: Vec<bool>,
    clock: Duration,
    trace: EventTrace,
    report: ClusterSimReport,
}

fn request(method: &str, path: &str, body: Vec<u8>) -> Request {
    Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: BTreeMap::new(),
        body,
    }
}

impl ClusterScenario {
    /// Executes the scenario.
    ///
    /// # Errors
    ///
    /// [`ClusterSimFailure`] on the first violated invariant, with the
    /// partial trace.
    pub fn run(&self) -> Result<ClusterSimReport, ClusterSimFailure> {
        let mut world = self.build().map_err(|error| ClusterSimFailure {
            error,
            trace: EventTrace::new(),
        })?;
        for (at_ms, event) in &self.schedule {
            world.clock = world.clock.max(Duration::from_millis(*at_ms));
            if let Err(error) = world.execute(self, event) {
                world
                    .trace
                    .record(world.clock, format!("FAILED {event:?}: {error}"));
                return Err(ClusterSimFailure {
                    error,
                    trace: world.trace,
                });
            }
        }
        let mut report = world.report;
        report.events = self.schedule.len();
        report.trace = world.trace;
        Ok(report)
    }

    fn build(&self) -> Result<World, String> {
        if self.continents.is_empty() {
            return Err("scenario has no nodes".into());
        }
        let upstream = GeneratedRepo::generate(default_workload(&self.name, self.seed));
        // One mirror per continent of the node fleet (every node sees
        // the same external mirror world), sized to the policy quorum.
        let mirror_count = 2 * self.f + 1;
        let mirror_continents: Vec<Continent> = (0..mirror_count)
            .map(|i| self.continents[i % self.continents.len()])
            .collect();
        let make_mirrors = || {
            let mut ms: Vec<Mirror> = mirror_continents
                .iter()
                .enumerate()
                .map(|(i, &c)| Mirror::new(format!("m{i}"), c))
                .collect();
            publish_to_all(&mut ms, &upstream.snapshot());
            ms
        };
        let policy = Policy {
            mirrors: make_mirrors()
                .iter()
                .map(|m| MirrorRef {
                    hostname: m.name.clone(),
                    continent: m.continent,
                })
                .collect(),
            signers_keys: vec![upstream.signing_key.public_key().clone()],
            init_config_files: vec![InitConfigFile {
                path: "/etc/passwd".into(),
                content: "root:x:0:0:root:/root:/bin/ash".into(),
            }],
            f: self.f,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };

        // All nodes share one platform seed: replicas re-derive the same
        // repository signing keys, which is what makes replicated state
        // byte-identical across the cluster.
        let platform_seed = format!("cluster:{}:{}", self.name, self.seed);
        let infos: Vec<NodeInfoDto> = self
            .continents
            .iter()
            .enumerate()
            .map(|(i, c)| NodeInfoDto {
                id: format!("node-{i}"),
                base_url: format!("local://node-{i}"),
                continent: format!("{c:?}"),
            })
            .collect();
        let config = ClusterConfigDto {
            epoch: 1,
            replication: self.replication,
            nodes: infos.clone(),
        };

        let cluster = LocalCluster::new();
        let mut nodes = Vec::with_capacity(infos.len());
        for info in &infos {
            let fs = Arc::new(Mutex::new(SimFs::new()));
            let backend = SimFsBackend::new(fs, "/store");
            let (service, _) = TsrService::with_store(
                platform_seed.as_bytes(),
                make_mirrors(),
                LatencyModel::default(),
                1024,
                Box::new(backend),
            )
            .map_err(|e| format!("node {} store: {e}", info.id))?;
            let node = ClusterNode::new(
                info.clone(),
                service,
                config.clone(),
                cluster.transport_from(info),
            );
            cluster.register(node.clone());
            nodes.push(node);
        }

        let client_identity = NodeInfoDto {
            id: "client".into(),
            base_url: String::new(),
            continent: "Client".into(),
        };
        let client = cluster.transport_from(&client_identity);
        let router = ClusterRouter::new(config, Arc::clone(&client) as Arc<dyn NodeTransport>);

        // Create the tenant through the router (lands on the allocator,
        // bootstraps onto the ring owners).
        let create = CreateRepositoryRequest {
            policy: policy.to_text(),
        };
        let mut req = request("POST", "/v1/repositories", create.encode().into_bytes());
        let resp = router.handle(&mut req);
        if resp.status != 200 && resp.status != 201 {
            return Err(format!(
                "tenant creation failed: {} {}",
                resp.status,
                String::from_utf8_lossy(resp.body.as_slice())
            ));
        }
        let created = RepositoryCreated::decode(&String::from_utf8_lossy(resp.body.as_slice()))
            .map_err(|e| format!("undecodable creation response: {e}"))?;
        let repo_key = RsaPublicKey::from_pem(&created.public_key_pem)
            .map_err(|e| format!("unparsable repository key: {e}"))?;

        // Discard creation-time journal events: the tenant bootstrap is
        // not attributed to a scheduled client request. Refreshes assert
        // request-id attribution on a clean slate.
        for node in &nodes {
            node.service().obs_journal().drain();
        }

        let mut trace = EventTrace::new();
        trace.record(
            Duration::ZERO,
            format!(
                "cluster scenario {} seed {} nodes {} replication {} repo {}",
                self.name,
                self.seed,
                infos.len(),
                self.replication,
                created.id
            ),
        );
        let report = ClusterSimReport {
            name: self.name.clone(),
            seed: self.seed,
            events: 0,
            commits: 0,
            failed_commits: 0,
            pulled: 0,
            rejected_pulls: 0,
            served_verified: 0,
            served_rejected: 0,
            final_index: Vec::new(),
            trace: EventTrace::new(),
        };
        Ok(World {
            cluster,
            nodes,
            router,
            client,
            upstream,
            signer_name: format!("tsr-{}", created.id),
            repo_id: created.id,
            repo_key,
            crashed: vec![false; self.continents.len()],
            byzantine: vec![false; self.continents.len()],
            clock: Duration::ZERO,
            trace,
            report,
        })
    }
}

impl World {
    fn record(&mut self, msg: impl ToString) {
        self.trace.record(self.clock, msg.to_string());
    }

    /// Resolves a selector against the ring owners of the tenant shard.
    fn resolve(&self, sel: NodeSel) -> Result<usize, String> {
        let index_of = |id: &str| {
            self.nodes
                .iter()
                .position(|n| n.info().id == id)
                .ok_or_else(|| format!("unknown node {id}"))
        };
        let ring = Ring::new(self.router.config());
        let owners = ring.owners(&self.repo_id);
        match sel {
            NodeSel::Index(i) if i < self.nodes.len() => Ok(i),
            NodeSel::Index(i) => Err(format!("node index {i} out of range")),
            NodeSel::Primary => {
                let owner = owners.first().ok_or("empty owner set")?;
                index_of(&owner.id)
            }
            NodeSel::Replica(k) => {
                let owner = owners
                    .get(1 + k)
                    .ok_or_else(|| format!("no replica {k} (owners {})", owners.len()))?;
                index_of(&owner.id)
            }
        }
    }

    fn execute(&mut self, scenario: &ClusterScenario, event: &ClusterEvent) -> Result<(), String> {
        match event {
            ClusterEvent::Publish { packages } => {
                let updated = self.upstream.publish_update(*packages);
                let snap = self.upstream.snapshot();
                for node in &self.nodes {
                    node.service().with_mirrors(|ms| publish_to_all(ms, &snap));
                }
                self.record(format!(
                    "publish snapshot={} updated=[{}]",
                    snap.snapshot_id,
                    updated.join(",")
                ));
                Ok(())
            }
            ClusterEvent::Refresh { expect_commit } => self.refresh(*expect_commit),
            ClusterEvent::Crash(sel) => {
                let i = self.resolve(*sel)?;
                self.crashed[i] = true;
                self.cluster.crash(&self.nodes[i].info().id.clone());
                self.record(format!("crash {}", self.nodes[i].info().id));
                Ok(())
            }
            ClusterEvent::Restart(sel) => self.restart(*sel),
            ClusterEvent::Isolate(sel) => {
                let i = self.resolve(*sel)?;
                let continent = self.nodes[i].info().continent.clone();
                self.cluster.isolate(&continent);
                self.record(format!("isolate continent {continent}"));
                Ok(())
            }
            ClusterEvent::Heal => {
                self.cluster.heal();
                self.record("partitions healed");
                Ok(())
            }
            ClusterEvent::Byzantine(sel, lying) => {
                let i = self.resolve(*sel)?;
                self.byzantine[i] = *lying;
                self.cluster
                    .set_byzantine(&self.nodes[i].info().id.clone(), *lying);
                self.record(format!("byzantine {} = {lying}", self.nodes[i].info().id));
                Ok(())
            }
            ClusterEvent::AntiEntropy => {
                let mut pulled = 0;
                let mut rejected = 0;
                let mut rejections = Vec::new();
                for (i, node) in self.nodes.iter().enumerate() {
                    if self.crashed[i] || self.byzantine[i] {
                        continue;
                    }
                    let round = node.anti_entropy();
                    pulled += round.pulled;
                    rejected += round.rejected;
                    rejections.extend(round.rejections);
                }
                self.report.pulled += pulled;
                self.report.rejected_pulls += rejected;
                for line in rejections {
                    self.record(format!("anti-entropy reject {line}"));
                }
                self.record(format!("anti-entropy pulled={pulled} rejected={rejected}"));
                Ok(())
            }
            ClusterEvent::ServeAll => self.serve_all(scenario),
            ClusterEvent::VerifyConverged => self.verify_converged(),
        }
    }

    fn refresh(&mut self, expect_commit: bool) -> Result<(), String> {
        // A deterministic client request-id: the sim's stand-in for the
        // id the RequestId middleware would mint on a real socket.
        let rid = format!(
            "req-sim-{:04}",
            self.report.commits + self.report.failed_commits
        );
        let mut req = request(
            "POST",
            &format!("/v1/repositories/{}/refresh", self.repo_id),
            Vec::new(),
        );
        req.headers.insert("x-request-id".into(), rid.clone());
        let resp = self.router.handle(&mut req);
        let acks = resp
            .headers
            .get("x-tsr-cluster-acks")
            .cloned()
            .unwrap_or_default();
        let committed = resp.status == 200;
        if committed {
            self.report.commits += 1;
        } else {
            self.report.failed_commits += 1;
        }
        // End-to-end attribution: every replica-side apply journaled
        // during this refresh must carry the client's request-id.
        // (Byzantine replicas forge acks without applying, crashed or
        // partitioned ones never see the push — neither journals.)
        let mut applies = Vec::new();
        for node in &self.nodes {
            for ev in node.service().obs_journal().drain() {
                if ev.kind != "replicate_apply" {
                    continue;
                }
                if ev.request_id != rid {
                    return Err(format!(
                        "replica {} applied replication under request-id {:?}, client sent {rid:?}",
                        node.info().id,
                        ev.request_id
                    ));
                }
                applies.push(format!(
                    "replicate_apply node={} request_id={} {}",
                    node.info().id,
                    ev.request_id,
                    ev.detail
                ));
            }
        }
        if committed && self.nodes.len() > 1 && applies.is_empty() {
            return Err(format!(
                "refresh {rid} committed but no replica journaled an attributed apply"
            ));
        }
        for line in applies {
            self.record(line);
        }
        self.record(format!(
            "refresh status={} committed={committed} acks={} request_id={rid}",
            resp.status,
            if acks.is_empty() { "-" } else { &acks }
        ));
        if committed != expect_commit {
            return Err(format!(
                "refresh expected commit={expect_commit}, got status {} ({})",
                resp.status,
                String::from_utf8_lossy(resp.body.as_slice())
            ));
        }
        Ok(())
    }

    fn restart(&mut self, sel: NodeSel) -> Result<(), String> {
        let i = self.resolve(sel)?;
        let id = self.nodes[i].info().id.clone();
        let before = self.nodes[i].service().fetch_index(&self.repo_id).ok();
        let results = self.nodes[i].service().crash_restart();
        for (repo, outcome) in &results {
            if let Err(e) = outcome {
                return Err(format!("{id} failed to restore {repo}: {e}"));
            }
        }
        if let Some(before) = before {
            let after = self.nodes[i]
                .service()
                .fetch_index(&self.repo_id)
                .map_err(|e| format!("{id} lost the index across restart: {e}"))?;
            if after != before {
                return Err(format!("{id} signed index changed across restart"));
            }
        }
        self.crashed[i] = false;
        self.cluster.restart(&id);
        self.record(format!(
            "restart {id} repos={} identical=true",
            results.len()
        ));
        Ok(())
    }

    /// Every live node serves the index to a verifying client through
    /// the transport (so Byzantine wire-tampering applies); honest
    /// nodes must verify, Byzantine ones must be rejected client-side.
    fn serve_all(&mut self, _scenario: &ClusterScenario) -> Result<(), String> {
        let keys = vec![(self.signer_name.clone(), self.repo_key.clone())];
        let mut verified = 0;
        let mut rejected = 0;
        let mut notes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if self.crashed[i] {
                continue;
            }
            let mut req = request(
                "GET",
                &format!("/v1/repositories/{}/index", self.repo_id),
                Vec::new(),
            );
            let resp = match self.client.forward(node.info(), &mut req) {
                Ok(r) => r,
                Err(e) => {
                    notes.push(format!("serve {} unreachable: {e}", node.info().id));
                    continue;
                }
            };
            if resp.status != 200 {
                notes.push(format!("serve {} status {}", node.info().id, resp.status));
                continue;
            }
            match Index::parse_signed(resp.body.as_slice(), &keys) {
                Ok(_) if self.byzantine[i] => {
                    return Err(format!(
                        "client accepted bytes served by Byzantine {}",
                        node.info().id
                    ));
                }
                Ok(_) => verified += 1,
                Err(_) if self.byzantine[i] => rejected += 1,
                Err(e) => {
                    return Err(format!(
                        "honest {} served an unverifiable index: {e}",
                        node.info().id
                    ));
                }
            }
        }
        self.report.served_verified += verified;
        self.report.served_rejected += rejected;
        for note in notes {
            self.record(note);
        }
        self.record(format!("serve verified={verified} rejected={rejected}"));
        Ok(())
    }

    fn verify_converged(&mut self) -> Result<(), String> {
        let mut reference: Option<(String, Vec<u8>)> = None;
        let mut compared = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if self.crashed[i] || self.byzantine[i] {
                continue;
            }
            let index = node
                .service()
                .fetch_index(&self.repo_id)
                .map_err(|e| format!("{} has no index: {e}", node.info().id))?;
            match &reference {
                None => reference = Some((node.info().id.clone(), index)),
                Some((ref_id, ref_index)) => {
                    if index != *ref_index {
                        return Err(format!(
                            "divergent signed indexes: {} != {ref_id}",
                            node.info().id
                        ));
                    }
                    compared += 1;
                }
            }
        }
        let (_, index) = reference.ok_or("no live honest node holds the index")?;
        self.report.final_index = index;
        self.record(format!(
            "converged nodes={} byte-identical=true",
            compared + 1
        ));
        Ok(())
    }
}

/// The canned cluster scenario library (each runs the acceptance
/// machinery end-to-end; all deterministic per seed).
pub fn canned_cluster_scenarios(seed: u64) -> Vec<ClusterScenario> {
    use ClusterEvent::*;
    use Continent::{Asia, Europe, NorthAmerica};
    vec![
        // The combined chaos run: continent partition, a Byzantine
        // replica, and a crash-restart — refreshes commit on 2-of-3
        // ack-votes, a refresh with two owners dark fails to commit,
        // and anti-entropy converges every node byte-identically.
        ClusterScenario {
            name: "cluster_chaos_combined".into(),
            seed,
            continents: vec![Europe, NorthAmerica, Asia],
            replication: 2,
            f: 1,
            schedule: vec![
                (0, Publish { packages: 3 }),
                (
                    10,
                    Refresh {
                        expect_commit: true,
                    },
                ), // 3-of-3
                (20, Isolate(NodeSel::Replica(0))),
                (30, Publish { packages: 2 }),
                (
                    40,
                    Refresh {
                        expect_commit: true,
                    },
                ), // 2-of-3: partition
                (50, Heal),
                (55, AntiEntropy), // the partitioned replica catches up
                (60, Byzantine(NodeSel::Replica(1), true)),
                (65, Publish { packages: 1 }),
                (
                    70,
                    Refresh {
                        expect_commit: true,
                    },
                ), // 2-of-3: forged vote not counted
                (75, ServeAll), // client rejects the Byzantine node's bytes
                (80, Crash(NodeSel::Replica(0))),
                (85, Publish { packages: 1 }),
                (
                    90,
                    Refresh {
                        expect_commit: false,
                    },
                ), // 1-of-2 honest: no quorum
                (100, Restart(NodeSel::Replica(0))), // durable state recovers
                (105, AntiEntropy),
                (110, Byzantine(NodeSel::Replica(1), false)),
                (115, AntiEntropy), // the ex-Byzantine node syncs honestly
                (120, ServeAll),
                (125, VerifyConverged),
            ],
        },
        // Primary loss: reads fail over to replicas and still verify.
        ClusterScenario {
            name: "cluster_read_failover".into(),
            seed,
            continents: vec![Europe, NorthAmerica, Asia],
            replication: 2,
            f: 1,
            schedule: vec![
                (0, Publish { packages: 2 }),
                (
                    10,
                    Refresh {
                        expect_commit: true,
                    },
                ),
                (20, Crash(NodeSel::Primary)),
                (30, ServeAll),
                (40, Restart(NodeSel::Primary)),
                (50, AntiEntropy),
                (60, VerifyConverged),
            ],
        },
        // Byzantine anti-entropy poisoning: forged digests lure pulls,
        // but tampered seals fail verification and are never applied.
        ClusterScenario {
            name: "cluster_byzantine_poison".into(),
            seed,
            continents: vec![Europe, NorthAmerica, Asia],
            replication: 2,
            f: 1,
            schedule: vec![
                (0, Publish { packages: 2 }),
                (
                    10,
                    Refresh {
                        expect_commit: true,
                    },
                ),
                (20, Byzantine(NodeSel::Replica(0), true)),
                (30, AntiEntropy), // forged digests → pulls rejected
                (40, Byzantine(NodeSel::Replica(0), false)),
                (50, ServeAll),
                (60, VerifyConverged),
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_chaos_scenario_runs_and_replays() {
        let scenario = &canned_cluster_scenarios(7)[0];
        let a = scenario.run().map_err(|f| f.error).unwrap();
        assert_eq!(a.commits, 3);
        assert_eq!(a.failed_commits, 1);
        assert!(a.served_rejected >= 1, "Byzantine read was not rejected");
        assert!(!a.final_index.is_empty());
        let b = scenario.run().map_err(|f| f.error).unwrap();
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_eq!(a.final_index, b.final_index);
    }
}
