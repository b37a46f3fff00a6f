//! Tier: cluster — deterministic multi-node scenarios over the
//! `tsr-cluster` layer, plus a real-HTTP replica read verified by the
//! typed client and replication pushed between nodes over real sockets.
//!
//! Each canned cluster scenario builds N store-backed `TsrService`
//! nodes sharing one platform seed, wires them through the in-process
//! fault oracle, and executes a schedule of publishes, quorum-replicated
//! refreshes, crashes, partitions, Byzantine flips, and anti-entropy
//! rounds. Every scenario runs **twice** per seed and the two event
//! traces must be byte-identical (as must the converged signed index).
//!
//! The seed defaults to a fixed value and can be overridden with
//! `TSR_SCENARIO_SEED` (CI pins it so failures replay exactly). On
//! every run the trace lands in
//! `$CARGO_TARGET_TMPDIR/cluster-traces/<name>.trace`; CI uploads that
//! directory as an artifact when this tier fails.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tsr::apk::Index;
use tsr::cluster::sim::{canned_cluster_scenarios, ClusterSimReport};
use tsr::cluster::{ClusterNode, HttpTransport, LocalCluster, Ring};
use tsr::core::service::ENCLAVE_CODE;
use tsr::core::TsrService;
use tsr::crypto::RsaPublicKey;
use tsr::mirror::{publish_to_all, Mirror};
use tsr::net::{Continent, LatencyModel};
use tsr::sim::env_seed as seed;
use tsr::simfs::{SimFs, SimFsBackend};
use tsr::wire::{ClusterConfigDto, NodeInfoDto, TsrClient};
use tsr::workload::GeneratedRepo;

fn write_trace_artifact(name: &str, trace_text: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cluster-traces");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.trace")), trace_text);
    }
}

/// Runs one canned cluster scenario twice, asserting determinism, and
/// leaves the trace artifact for both green and red runs.
fn run_scenario(name: &str) -> ClusterSimReport {
    let scenario = canned_cluster_scenarios(seed())
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown cluster scenario {name}"));
    let run = || {
        scenario.run().unwrap_or_else(|failure| {
            write_trace_artifact(name, &failure.trace.to_text());
            panic!(
                "cluster scenario {name} (seed {}) failed: {failure}\ntrace:\n{}",
                seed(),
                failure.trace.to_text()
            )
        })
    };
    let first = run();
    write_trace_artifact(name, &first.trace_text());
    let second = run();
    assert_eq!(
        first.trace_digest(),
        second.trace_digest(),
        "{name}: same seed must replay to a byte-identical trace"
    );
    assert_eq!(
        first.final_index, second.final_index,
        "{name}: same seed must converge to byte-identical signed indexes"
    );
    first
}

#[test]
fn library_covers_at_least_three_scenarios() {
    assert!(canned_cluster_scenarios(seed()).len() >= 3);
}

/// The acceptance scenario: node crash-restart + continent partition +
/// one Byzantine replica in a single 3-node run. Quorum-replicated
/// refreshes commit on 2-of-3 ack-votes, a refresh with two owners dark
/// fails to commit, Byzantine-served bytes are rejected client-side,
/// and anti-entropy converges every live node byte-identically.
#[test]
fn chaos_combined_crash_partition_byzantine() {
    let r = run_scenario("cluster_chaos_combined");
    assert_eq!(
        r.commits,
        3,
        "three refreshes reach quorum:\n{}",
        r.trace_text()
    );
    assert_eq!(r.failed_commits, 1, "one refresh must fail quorum");
    assert!(
        r.served_rejected >= 1,
        "the Byzantine node's bytes must be rejected by the verifying client"
    );
    assert!(
        r.pulled >= 2,
        "anti-entropy must catch nodes up:\n{}",
        r.trace_text()
    );
    assert!(!r.final_index.is_empty());
    let text = r.trace_text();
    for needle in [
        "isolate continent",
        "partitions healed",
        "byzantine",
        "crash node-",
        "restart node-",
        "converged",
        "byte-identical=true",
    ] {
        assert!(text.contains(needle), "trace lacks {needle:?}:\n{text}");
    }
}

#[test]
fn reads_fail_over_when_the_primary_crashes() {
    let r = run_scenario("cluster_read_failover");
    assert!(r.served_verified >= 2, "{}", r.trace_text());
    assert_eq!(r.served_rejected, 0);
    assert!(!r.final_index.is_empty());
}

#[test]
fn byzantine_digests_cannot_poison_anti_entropy() {
    let r = run_scenario("cluster_byzantine_poison");
    assert!(
        r.rejected_pulls >= 1,
        "forged digests must lure pulls that verification rejects:\n{}",
        r.trace_text()
    );
    assert_eq!(r.failed_commits, 0);
    assert!(!r.final_index.is_empty());
}

/// A read replica served over real HTTP: the typed client attests the
/// node and verifies the signed index against the repository key — the
/// paper's verify-at-the-consumer property holding across replication.
#[test]
fn replica_serves_verified_state_over_real_http() {
    let upstream = GeneratedRepo::generate(tsr::sim::default_workload("cluster-http", seed()));
    let make_mirrors = || {
        let mut ms: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut ms, &upstream.snapshot());
        ms
    };
    let policy = policy_for(&upstream, &make_mirrors());
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
    let mut nodes = Vec::new();
    for info in &infos {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (service, _) = TsrService::with_store(
            b"cluster-http-seed",
            make_mirrors(),
            LatencyModel::default(),
            1024,
            Box::new(SimFsBackend::new(fs, "/store")),
        )
        .unwrap();
        let node = ClusterNode::new(
            info.clone(),
            service,
            config.clone(),
            cluster.transport_from(info),
        );
        cluster.register(node.clone());
        nodes.push(node);
    }

    // Create on the allocator (bootstraps the shard onto its owners),
    // then quorum-replicate a refresh from the primary.
    let ring = Ring::new(config);
    let by_id = |id: &str| nodes.iter().find(|n| n.info().id == id).unwrap();
    let allocator = by_id(&ring.allocator().unwrap().id);
    let (repo, pem) = allocator
        .service()
        .create_repository(&policy.to_text())
        .unwrap();
    let repo_key = RsaPublicKey::from_pem(&pem).unwrap();
    allocator.bootstrap(&repo);
    let owners = ring.owners(&repo);
    let primary = by_id(&owners[0].id);
    primary.replicate_out(&repo, &ring).unwrap();
    let mut refresh = tsr::http::Request {
        method: "POST".into(),
        path: format!("/v1/repositories/{repo}/refresh"),
        headers: Default::default(),
        body: Vec::new(),
    };
    let resp = primary.handle(&mut refresh);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), "3");

    // Bind a REPLICA (not the primary) on a real socket.
    let replica = by_id(&owners[1].id);
    let server = replica.serve("127.0.0.1:0").unwrap();
    let client = TsrClient::new(format!("http://{}", server.local_addr()));

    // Client-side attestation of the replica's enclave…
    let platform = RsaPublicKey::from_pem(&replica.service().platform_key_pem()).unwrap();
    client
        .attest(b"replica-nonce", &platform, ENCLAVE_CODE)
        .unwrap();
    // …and client-side signature verification of the replica-served
    // index, byte-identical to what the primary signed.
    let (bytes, etag) = client.index(&repo).unwrap();
    assert!(etag.is_some());
    let signer = format!("tsr-{repo}");
    Index::parse_signed(&bytes, &[(signer, repo_key)]).unwrap();
    assert_eq!(bytes, primary.service().fetch_index(&repo).unwrap());

    // The cluster protocol is also served over the same socket.
    let digest = client.cluster_digest().unwrap();
    assert_eq!(digest.node, replica.info().id);
    assert_eq!(digest.repos.len(), 1);
    let seal = client.cluster_seal(&repo).unwrap();
    assert_eq!(seal.id, repo);
    assert!(seal.seal_counter > 0);
}

/// The policy of a tenant that trusts `upstream`, served by `mirrors`.
fn policy_for(upstream: &GeneratedRepo, mirrors: &[Mirror]) -> tsr::core::Policy {
    tsr::core::Policy {
        mirrors: mirrors
            .iter()
            .map(|m| tsr::core::MirrorRef {
                hostname: m.name.clone(),
                continent: m.continent,
            })
            .collect(),
        signers_keys: vec![upstream.signing_key.public_key().clone()],
        init_config_files: Vec::new(),
        f: 1,
        package_whitelist: Vec::new(),
        package_blacklist: Vec::new(),
    }
}

/// Replication over real sockets: three nodes, each pushing through its
/// own `HttpTransport`. After one changed package the pushes carry only
/// the new blobs; a replica rebuilt over an empty store at a new address
/// nacks its lean push and converges on the full one that follows.
#[test]
fn lean_pushes_over_real_http_converge_and_a_wiped_replica_takes_the_full_push() {
    // A cold refresh sanitizes the whole tenant before it answers; an
    // unoptimised build on a slow runner needs the headroom.
    const TIMEOUT: Duration = Duration::from_secs(300);
    let mut upstream = GeneratedRepo::generate(tsr::sim::default_workload("cluster-lean", seed()));
    let mirrors = |upstream: &GeneratedRepo| {
        let mut ms: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut ms, &upstream.snapshot());
        ms
    };
    let build = |info: &NodeInfoDto, config: &ClusterConfigDto, upstream: &GeneratedRepo| {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (service, _) = TsrService::with_store(
            b"cluster-lean-seed",
            mirrors(upstream),
            LatencyModel::default(),
            1024,
            Box::new(SimFsBackend::new(fs, "/store")),
        )
        .unwrap();
        let transport = Arc::new(HttpTransport::new(TIMEOUT));
        ClusterNode::new(info.clone(), service, config.clone(), transport)
    };
    // Bind every node first, then gossip the config that names the
    // bound addresses.
    let mut infos: Vec<NodeInfoDto> = (0..3)
        .map(|i| NodeInfoDto {
            id: format!("node-{i}"),
            base_url: String::new(),
            continent: "Europe".into(),
        })
        .collect();
    let mut config = ClusterConfigDto {
        epoch: 1,
        replication: 2,
        nodes: infos.clone(),
    };
    let mut nodes: Vec<ClusterNode> = infos
        .iter()
        .map(|info| build(info, &config, &upstream))
        .collect();
    let mut servers: Vec<_> = nodes
        .iter()
        .map(|n| Some(n.serve("127.0.0.1:0").unwrap()))
        .collect();
    let mut addrs: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    for (info, addr) in infos.iter_mut().zip(&addrs) {
        info.base_url = format!("http://{addr}");
    }
    config.epoch = 2;
    config.nodes = infos.clone();
    for node in &nodes {
        assert_eq!(node.join(&config).epoch, 2);
    }

    let ring = Ring::new(config.clone());
    let at = |id: &str| infos.iter().position(|i| i.id == id).unwrap();
    let allocator = &nodes[at(&ring.allocator().unwrap().id)];
    let policy = policy_for(&upstream, &mirrors(&upstream));
    let (repo, pem) = allocator
        .service()
        .create_repository(&policy.to_text())
        .unwrap();
    let repo_key = RsaPublicKey::from_pem(&pem).unwrap();
    allocator.bootstrap(&repo);
    let owners: Vec<usize> = ring.owners(&repo).iter().map(|o| at(&o.id)).collect();
    let primary = owners[0];
    let wiped = owners[1];

    // A refresh posted to the primary's socket, which pushes to the
    // replicas' sockets.
    let url = format!("http://{}/v1/repositories/{repo}/refresh", addrs[primary]);
    let refresh = |nodes: &[ClusterNode]| {
        let resp = tsr::http::Client::with_timeout(TIMEOUT)
            .post(&url, &[])
            .unwrap();
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(resp.headers.get("x-tsr-cluster-acks").unwrap(), "3");
        let state = nodes[primary].export_seal(&repo).unwrap();
        let hashes: BTreeSet<String> = state.blobs.iter().map(|(h, _)| h.clone()).collect();
        (state, hashes)
    };
    let pushed = |nodes: &[ClusterNode]| {
        let service = nodes[primary].service();
        service.event_counter("cluster_replicate_blob_bytes").get()
    };
    let bytes_of = |state: &tsr::core::ReplicatedState, keep: &dyn Fn(&String) -> bool| {
        let kept = state.blobs.iter().filter(|(h, _)| keep(h));
        kept.map(|(_, b)| b.len() as u64).sum::<u64>()
    };
    let publish = |upstream: &mut GeneratedRepo, nodes: &[ClusterNode]| {
        assert_eq!(upstream.publish_update(1).len(), 1);
        let snapshot = upstream.snapshot();
        for node in nodes {
            node.service()
                .with_mirrors(|ms| publish_to_all(ms, &snapshot));
        }
    };

    // The first push is full; after one changed package, each replica
    // gets only the blobs that change added.
    let (first, acked) = refresh(&nodes);
    assert_eq!(pushed(&nodes), 2 * bytes_of(&first, &|_| true));
    publish(&mut upstream, &nodes);
    let before = pushed(&nodes);
    let (second, hashes) = refresh(&nodes);
    let added = bytes_of(&second, &|h| !acked.contains(h));
    assert!(0 < added && added < bytes_of(&second, &|_| true));
    assert_eq!(pushed(&nodes) - before, 2 * added);

    // Wipe one replica: a fresh node over an empty store, on a new
    // address that a newer config names. Its lean push goes there and is
    // refused, the full push applies.
    drop(servers[wiped].take());
    nodes[wiped] = build(&infos[wiped], &config, &upstream);
    servers[wiped] = Some(nodes[wiped].serve("127.0.0.1:0").unwrap());
    addrs[wiped] = servers[wiped].as_ref().unwrap().local_addr().to_string();
    infos[wiped].base_url = format!("http://{}", addrs[wiped]);
    config.epoch = 3;
    config.nodes = infos.clone();
    for node in &nodes {
        assert_eq!(node.join(&config).epoch, 3);
    }
    let before = pushed(&nodes);
    let (third, _) = refresh(&nodes);
    let lean = bytes_of(&third, &|h| !hashes.contains(h));
    assert_eq!(
        pushed(&nodes) - before,
        2 * lean + bytes_of(&third, &|_| true)
    );
    let applies: Vec<String> = nodes[wiped]
        .service()
        .obs_journal()
        .drain()
        .into_iter()
        .filter(|e| e.kind == "replicate_apply")
        .map(|e| e.detail)
        .collect();
    assert_eq!(
        applies,
        [
            format!("{repo} accepted=false"),
            format!("{repo} accepted=true")
        ]
    );

    // Every node serves the same verified index and package bytes.
    let clients: Vec<TsrClient> = addrs
        .iter()
        .map(|a| TsrClient::new(format!("http://{a}")))
        .collect();
    let (index, _) = clients[primary].index(&repo).unwrap();
    let signer = format!("tsr-{repo}");
    let signed = Index::parse_signed(&index, &[(signer, repo_key)]).unwrap();
    for client in &clients {
        assert_eq!(client.index(&repo).unwrap().0, index);
        for entry in signed.iter() {
            assert_eq!(
                client.package(&repo, &entry.name).unwrap(),
                clients[primary].package(&repo, &entry.name).unwrap(),
                "{}",
                entry.name
            );
        }
    }
}
