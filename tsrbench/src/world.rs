//! World building: the synthetic upstream, the mirrors, the service or
//! cluster behind loopback sockets, the first sync, and the precomputed
//! update waves. Everything here is set-up; nothing is a measured op.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsr_apk::Index;
use tsr_cluster::{ClusterNode, HttpTransport};
use tsr_core::{ApiOptions, TsrService};
use tsr_crypto::{hex, RsaPublicKey, Sha256};
use tsr_http::Server;
use tsr_mirror::{publish_to_all, Mirror, RepoSnapshot};
use tsr_net::{Continent, LatencyModel};
use tsr_store::DirBackend;
use tsr_wire::{ClusterConfigDto, NodeInfoDto, RefreshReportDto, TsrClient, WireError};
use tsr_workload::{Census, GeneratedRepo, WorkloadConfig};

use crate::spec::{EventKind, Plan, BUMP, KEY_BITS, RATE_LIMIT, TIMEOUT};

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir {
    root: PathBuf,
}

/// Where all scratch directories and trace files go, relative to the
/// directory the benchmark is started in.
pub const WORK_ROOT: &str = ".tsrbench_work";

impl WorkDir {
    /// A fresh directory under [`WORK_ROOT`].
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = Path::new(WORK_ROOT).join(format!("{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What every upstream world and platform key is generated from. A
/// constant, not `--seed`: the driver holds the spread between runs made
/// with different seeds against the bounds, and the work in a generated
/// world depends on its seed by more than the machine's noise (over ten
/// seeds: size overhead spread by 23 %, recovery by 24 %, the cold-sync
/// rate by 12 %, an update's visibility by 14 %). `--seed` decides the
/// traffic: arrival instants, request kinds, package picks, page offsets.
const WORLD: &str = "tsrbench/3237998146";

/// The upstream generator settings. The census and the median file
/// count follow the repository's standard experiment configuration; the
/// two log-normal sigmas are narrowed (1.2 → 0.4 and 1.5 → 0.4) and the
/// median package is 60 kB, so that no single package or wave dominates
/// a run.
pub fn workload_config(scale: f64, seed: &[u8]) -> WorkloadConfig {
    WorkloadConfig {
        seed: seed.to_vec(),
        census: Census::default().scaled(scale),
        size_scale: 1.0,
        median_files: 4.0,
        files_sigma: 0.4,
        median_pkg_bytes: 60_000.0,
        pkg_bytes_sigma: 0.4,
        include_cve_pattern: true,
    }
}

const INIT_CONFIGS: [(&str, &str); 3] = [
    (
        "/etc/passwd",
        "root:x:0:0:root:/root:/bin/ash\ndaemon:x:2:2:daemon:/sbin:/sbin/nologin",
    ),
    ("/etc/group", "root:x:0:\ndaemon:x:2:"),
    ("/etc/shadow", "root:!::0:::::\ndaemon:!::0:::::"),
];

/// The initial configuration files of the policy, as `(path, content)`.
pub fn init_configs() -> Vec<(String, String)> {
    INIT_CONFIGS
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect()
}

fn indent(text: &str, by: &str) -> String {
    text.lines().map(|l| format!("{by}{l}\n")).collect()
}

/// The security policy document: three European mirrors, the upstream
/// signer, the initial configuration files, f = 1.
pub fn policy_text(signer: &RsaPublicKey) -> String {
    let mut out = String::from("mirrors:\n");
    for i in 0..3 {
        out.push_str(&format!(
            "  - hostname: mirror-{i}\n    continent: europe\n"
        ));
    }
    out.push_str("signers_keys:\n  - |-\n");
    out.push_str(&indent(&signer.to_pem(), "      "));
    out.push_str("init_config_files:\n");
    for (path, content) in INIT_CONFIGS {
        out.push_str(&format!("  - path: {path}\n    content: |-\n"));
        out.push_str(&indent(content, "      "));
    }
    out.push_str("f: 1\n");
    out
}

/// The three European mirrors of the policy, empty.
fn empty_mirrors() -> Vec<Mirror> {
    (0..3)
        .map(|i| Mirror::new(format!("mirror-{i}"), Continent::Europe))
        .collect()
}

/// The three mirrors holding `snapshot`.
pub fn mirrors_with(snapshot: &RepoSnapshot) -> Vec<Mirror> {
    let mut ms = empty_mirrors();
    publish_to_all(&mut ms, snapshot);
    ms
}

/// One serving node.
pub struct Node {
    /// The service (the benchmark keeps a handle for mirror updates,
    /// in-process probes and the exposition).
    pub svc: TsrService,
    server: Option<Server>,
    /// `http://127.0.0.1:port`.
    pub base: String,
    /// The node's store directory.
    pub store_dir: PathBuf,
    /// The node's access-log file (single-node worlds only: the cluster
    /// node's own `serve` has no file log).
    pub access_log: Option<PathBuf>,
}

/// One precomputed upstream update.
pub struct Wave {
    /// What the mirrors will hold.
    pub snapshot: RepoSnapshot,
    /// `(name, new version)` of every bumped package.
    pub bumped: Vec<(String, String)>,
}

/// One create + cold refresh, as the client saw it.
pub struct TenantSync {
    /// The tenant.
    pub repo_id: String,
    /// The tenant's signing key.
    pub key: RsaPublicKey,
    /// Wall time of `POST /v1/repositories`, seconds.
    pub create_s: f64,
    /// Wall time of `POST …/refresh`, seconds.
    pub refresh_s: f64,
    /// The refresh report the server returned.
    pub report: RefreshReportDto,
}

impl TenantSync {
    /// Packages sanitized per second of create + refresh.
    pub fn pkgs_per_s(&self) -> f64 {
        self.report.sanitized.len() as f64 / (self.create_s + self.refresh_s)
    }

    /// Size overhead of sanitization over the synced packages, percent.
    pub fn size_overhead_pct(&self) -> f64 {
        size_overhead_pct(std::slice::from_ref(&self.report))
    }
}

/// (sanitized bytes − original bytes) ÷ original bytes over `reports`,
/// in percent.
pub fn size_overhead_pct(reports: &[RefreshReportDto]) -> f64 {
    let (mut orig, mut san) = (0u64, 0u64);
    for r in reports.iter().flat_map(|r| r.sanitized.iter()) {
        orig += r.original_size as u64;
        san += r.sanitized_size as u64;
    }
    (san as f64 - orig as f64) / (orig.max(1) as f64) * 100.0
}

/// Where set-up time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Upstream generation and the first snapshot.
    pub generate_s: f64,
    /// Mirrors, services, sockets, create, first refresh, first index.
    pub boot_s: f64,
    /// Update waves.
    pub precompute_s: f64,
}

/// A live world.
pub struct World {
    /// The plan it was built for.
    pub plan: &'static Plan,
    /// The platform seed shared by every node (sealed state replicates
    /// only between nodes with the same sealing key).
    pub platform_seed: Vec<u8>,
    /// The upstream, advanced past every precomputed wave.
    pub upstream: GeneratedRepo,
    /// What the mirrors held at boot.
    pub base_snapshot: RepoSnapshot,
    /// The serving nodes.
    pub nodes: Vec<Node>,
    /// Index of the node that takes the tenant's refreshes.
    pub primary: usize,
    /// The policy every tenant is created with.
    pub policy: String,
    /// The first tenant and its cold sync.
    pub boot: TenantSync,
    /// Names the tenant serves, sorted.
    pub names: Vec<String>,
    /// Precomputed waves, in the order they land.
    pub waves: Vec<Wave>,
    /// Set-up times.
    pub times: SetupTimes,
    _dir: WorkDir,
}

/// An error while building or driving a world.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Creates a tenant and cold-refreshes it over HTTP.
pub fn sync_tenant(
    create_at: &TsrClient,
    refresh_at: &TsrClient,
    policy: &str,
) -> Result<TenantSync, Error> {
    let t = Instant::now();
    let created = create_at.create_repository(policy)?;
    let create_s = secs(t);
    let t = Instant::now();
    let report = refresh_at.refresh(&created.id)?;
    let refresh_s = secs(t);
    Ok(TenantSync {
        key: RsaPublicKey::from_pem(&created.public_key_pem)?,
        repo_id: created.id,
        create_s,
        refresh_s,
        report,
    })
}

impl World {
    /// Builds the world of `plan` with `waves` precomputed updates.
    pub fn build(plan: &'static Plan, waves: usize) -> Result<World, Error> {
        let dir = WorkDir::new(plan.name)?;
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let upstream_seed = format!("{WORLD}/world/{}", plan.scale);
        let mut upstream =
            GeneratedRepo::generate(workload_config(plan.scale, upstream_seed.as_bytes()));
        let base_snapshot = upstream.snapshot();
        times.generate_s = secs(t);

        let t = Instant::now();
        let platform_seed = format!("{WORLD}/platform").into_bytes();
        let policy = policy_text(upstream.signing_key.public_key());
        let mut nodes = Vec::with_capacity(plan.nodes);
        let mut cluster_nodes = Vec::new();
        let transport = Arc::new(HttpTransport::new(TIMEOUT));
        let placeholder: Vec<NodeInfoDto> = (0..plan.nodes)
            .map(|i| NodeInfoDto {
                id: format!("node-{i}"),
                base_url: "http://127.0.0.1:0".into(),
                continent: "Europe".into(),
            })
            .collect();
        // Full replication: every node owns the tenant and serves reads.
        let config = |epoch: u64, nodes: Vec<NodeInfoDto>| ClusterConfigDto {
            epoch,
            replication: plan.nodes - 1,
            nodes,
        };
        for info in &placeholder {
            let node_dir = dir.path().join(&info.id);
            let store_dir = node_dir.join("store");
            std::fs::create_dir_all(&store_dir)?;
            let (svc, _) = TsrService::with_store(
                &platform_seed,
                mirrors_with(&base_snapshot),
                LatencyModel::default(),
                KEY_BITS,
                Box::new(DirBackend::new(&store_dir)?),
            )?;
            let (server, access_log) = if plan.nodes == 1 {
                let log = node_dir.join("access.log");
                let server = svc.serve_with_options(
                    "127.0.0.1:0",
                    ApiOptions {
                        rate_limit: Some(RATE_LIMIT),
                        access_log: Some(log.clone()),
                        ..ApiOptions::default()
                    },
                )?;
                (server, Some(log))
            } else {
                let node = ClusterNode::new(
                    info.clone(),
                    svc.clone(),
                    config(1, placeholder.clone()),
                    transport.clone(),
                );
                let server = node.serve("127.0.0.1:0")?;
                cluster_nodes.push(node);
                (server, None)
            };
            nodes.push(Node {
                svc,
                base: format!("http://{}", server.local_addr()),
                server: Some(server),
                store_dir,
                access_log,
            });
        }
        if plan.nodes > 1 {
            // Addresses are known only after binding: gossip them as
            // epoch 2.
            let real = placeholder
                .iter()
                .zip(&nodes)
                .map(|(info, node)| NodeInfoDto {
                    base_url: node.base.clone(),
                    ..info.clone()
                })
                .collect();
            let v2 = config(2, real);
            for node in &cluster_nodes {
                node.join(&v2);
            }
        }

        // First sync, over HTTP like every later admin call. With full
        // replication any node can allocate the tenant; a node that is
        // not the refresh primary answers 421 and names the primary.
        let clients: Vec<TsrClient> = nodes
            .iter()
            .map(|n| TsrClient::pooled(&n.base, TIMEOUT))
            .collect();
        let t_create = Instant::now();
        let created = clients[0].create_repository(&policy)?;
        let create_s = secs(t_create);
        let mut primary = 0;
        let t_refresh = Instant::now();
        let report = match clients[0].refresh(&created.id) {
            Ok(report) => report,
            Err(WireError::Api { status: 421, error }) => {
                primary = placeholder
                    .iter()
                    .position(|n| n.id == error.detail)
                    .ok_or("421 without a known primary")?;
                clients[primary].refresh(&created.id)?
            }
            Err(e) => return Err(e.into()),
        };
        let refresh_s = secs(t_refresh);
        let boot = TenantSync {
            key: RsaPublicKey::from_pem(&created.public_key_pem)?,
            repo_id: created.id,
            create_s,
            refresh_s,
            report,
        };
        let (boot_index, _) = clients[primary].index(&boot.repo_id)?;
        let index = parse_index(&boot_index, &boot)?;
        let names: Vec<String> = index.iter().map(|e| e.name.clone()).collect();
        if names.is_empty() {
            return Err("the first sync serves no package".into());
        }
        times.boot_s = secs(t);

        let t = Instant::now();
        let mut precomputed = Vec::with_capacity(waves);
        if plan.event == EventKind::Wave {
            for _ in 0..waves {
                // A wave must change what the tenant serves, or it could
                // never become visible: bump until a served package moved.
                let mut bumped: Vec<String> = Vec::new();
                while !bumped.iter().any(|n| names.binary_search(n).is_ok()) {
                    bumped.extend(upstream.publish_update(BUMP));
                }
                let bumped = upstream
                    .specs
                    .iter()
                    .filter(|s| bumped.contains(&s.name))
                    .map(|s| (s.name.clone(), s.version.clone()))
                    .collect();
                precomputed.push(Wave {
                    snapshot: upstream.snapshot(),
                    bumped,
                });
            }
        }
        times.precompute_s = secs(t);

        Ok(World {
            plan,
            platform_seed,
            upstream,
            base_snapshot,
            nodes,
            primary,
            policy,
            boot,
            names,
            waves: precomputed,
            times,
            _dir: dir,
        })
    }

    /// Puts `snapshot` into every node's mirrors.
    pub fn install(&self, snapshot: &RepoSnapshot) {
        for node in &self.nodes {
            node.svc.with_mirrors(|ms| publish_to_all(ms, snapshot));
        }
    }

    /// Base URLs, node order.
    pub fn bases(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.base.clone()).collect()
    }

    /// Stops every server and drops every service handle, leaving the
    /// store directories behind: the process-kill the recovery phase
    /// starts from. Returns the primary's store directory.
    pub fn kill(&mut self) -> PathBuf {
        for node in &mut self.nodes {
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
        }
        let dir = self.nodes[self.primary].store_dir.clone();
        self.nodes.clear();
        dir
    }

    /// The input digest: SHA-256 over the boot snapshot (signed index
    /// and the hash of every blob), the first `waves` waves (signed index
    /// and the hashes of the bumped blobs; the index pins the rest), and
    /// `schedule_bytes`.
    pub fn input_digest(&self, waves: usize, schedule_bytes: &[u8]) -> String {
        let mut h = Sha256::new();
        let mut feed = |bytes: &[u8]| {
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        };
        feed(&self.base_snapshot.signed_index);
        for blob in self.base_snapshot.packages.values() {
            feed(&Sha256::digest(blob));
        }
        for wave in self.waves.iter().take(waves) {
            feed(&wave.snapshot.signed_index);
            for (name, _) in &wave.bumped {
                feed(&Sha256::digest(&wave.snapshot.packages[name]));
            }
        }
        feed(schedule_bytes);
        hex::to_hex(&h.finalize())
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            if let Some(server) = node.server.take() {
                server.shutdown();
            }
        }
    }
}

/// Verifies `signed` against the tenant's key and parses it.
pub fn parse_index(signed: &[u8], tenant: &TenantSync) -> Result<Index, Error> {
    let signer = format!("tsr-{}", tenant.repo_id);
    Ok(Index::parse_signed(
        signed,
        &[(signer, tenant.key.clone())],
    )?)
}

/// Reopens `store_dir` after a kill and serves the first signed index
/// of `repo_id` without a socket. Returns the wall time and the bytes.
pub fn recover(
    platform_seed: &[u8],
    store_dir: &Path,
    repo_id: &str,
) -> Result<(Duration, Vec<u8>), Error> {
    let t = Instant::now();
    let (svc, _) = TsrService::with_store(
        platform_seed,
        empty_mirrors(),
        LatencyModel::default(),
        KEY_BITS,
        Box::new(DirBackend::new(store_dir)?),
    )?;
    let resp = svc.handle(&tsr_http::Request {
        method: "GET".into(),
        path: format!("/v1/repositories/{repo_id}/index"),
        headers: Default::default(),
        body: Vec::new(),
    });
    let elapsed = t.elapsed();
    if resp.status != 200 {
        return Err(format!("recovered index answered {}", resp.status).into());
    }
    Ok((elapsed, resp.body.into_vec()))
}
