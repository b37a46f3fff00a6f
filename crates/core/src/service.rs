//! The multi-tenant TSR service (paper §5.2): tenant lifecycle (create,
//! refresh, restart, recovery, delete), accessors and readiness. How a
//! repository's state becomes durable, leaves for a peer and is installed
//! is [`crate::replica`].
//!
//! A single TSR instance, executing inside one enclave, hosts many logically
//! separated repositories — one per deployed policy. Clients interact over
//! HTTP: [`crate::api`] has the route table and the error contract,
//! [`crate::serve`] mounts it on a socket, and [`crate::hot`] is the cache
//! index and package GETs are served from.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::hex;
use tsr_http::{Request, Response};
use tsr_mirror::Mirror;
use tsr_net::LatencyModel;
use tsr_obs::{Counter, Journal, Registry, RequestScope};
use tsr_sgx::{Cpu, Enclave};
use tsr_store::{MemBackend, RecoveryReport, StoreBackend, StoreEngine, WalRecord};
use tsr_tpm::Tpm;
use tsr_wire::dto::ReadyDto;

use crate::api::{self, Metrics};
use crate::error::CoreError;
use crate::hot::HotCache;
use crate::parallel::{default_workers, parallel_map_ordered};
use crate::policy::Policy;
use crate::replica::image_of;
use crate::repository::{RefreshReport, TsrRepository};

/// The enclave code identity of this TSR build (what clients attest).
pub const ENCLAVE_CODE: &[u8] = b"tsr-enclave-v1";

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// request handler must not take the whole multi-tenant service down).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks a repository shard for a writer. [`TsrService::delete_repository`]
/// marks the shard under this lock, so a writer that cloned the shard
/// `Arc` before the delete finds the mark here and backs out instead of
/// publishing a deleted tenant back into the serve cache.
///
/// # Errors
///
/// [`CoreError::NotFound`] for a deleted shard.
pub(crate) fn live(
    shard: &Mutex<TsrRepository>,
) -> Result<MutexGuard<'_, TsrRepository>, CoreError> {
    let repo = lock(shard);
    if repo.deleted {
        return Err(CoreError::NotFound(format!("repository {}", repo.id)));
    }
    Ok(repo)
}

/// Maps a storage-engine failure onto the durable-state error class.
pub(crate) fn store_err(e: tsr_store::StoreError) -> CoreError {
    CoreError::SealedState(format!("store: {e}"))
}

/// Maps a TPM failure onto the same class.
pub(crate) fn seal_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::SealedState(e.to_string())
}

/// Hardware and fleet state shared by every repository: the simulated SGX
/// CPU (immutable after construction but for its platform key, made on
/// first use), the TPM (brief lock to create a counter, seal or unseal),
/// the mirror fleet (read-mostly), and the service DRBG (locked only long
/// enough to derive a per-operation child).
pub(crate) struct SharedState {
    cpu: Cpu,
    pub(crate) tpm: Mutex<Tpm>,
    mirrors: RwLock<Vec<Mirror>>,
    model: RwLock<LatencyModel>,
    rng: Mutex<HmacDrbg>,
    next_id: AtomicU64,
    key_bits: usize,
    workers: AtomicUsize,
    /// This service's handles into the request and event counter
    /// families of `obs_registry`.
    metrics: Metrics,
    /// The serve cache (see [`crate::hot`]); a leaf lock.
    hot: HotCache,
    /// The durable storage engine (WAL + content-addressed blobs): the
    /// backend [`TsrService::with_store`] opened, in memory for
    /// [`TsrService::new`]. A leaf lock in the hierarchy, like `tpm`:
    /// taken while holding a repository shard lock (`repository →
    /// store`) but never while the TPM lock is held, and no other lock
    /// is ever acquired under it.
    pub(crate) store: Mutex<StoreEngine>,
    /// The typed metric registry behind the Prometheus exposition
    /// (`GET /v1/metrics?format=prometheus`). The HTTP middleware's
    /// latency histograms and in-flight gauges register here; cloning
    /// the handle is cheap (`Registry` is an `Arc` internally).
    obs_registry: Registry,
    /// Bounded in-memory journal tagging request-ids onto side effects
    /// (WAL appends, replication events). Never touches disk: the WAL
    /// format stays byte-stable.
    obs_journal: Journal,
    /// True while [`TsrService::with_store`] replays the WAL — the
    /// `recovery_replay` readiness component.
    recovering: AtomicBool,
    /// True once [`TsrService::begin_drain`] ran — the `drain`
    /// readiness component (liveness is unaffected).
    draining: AtomicBool,
    /// False while this node's cluster config epoch is known to lag the
    /// cluster's — the `cluster_epoch` readiness component. Maintained
    /// by the cluster layer.
    cluster_epoch_ok: AtomicBool,
}

/// The multi-tenant TSR service.
///
/// # Concurrency model
///
/// The service is sharded per tenant: the repository map is behind an
/// [`RwLock`] (taken for writing only when a repository is created), and
/// each repository lives in its own `Arc<Mutex<TsrRepository>>`. Requests
/// against different repositories therefore never contend — a long
/// refresh of one tenant runs concurrently with index/package reads on
/// every other tenant.
///
/// Shared hardware has its own fine-grained locks (see `SharedState`).
/// The lock order is `repository → tpm` and `repository → store` (the
/// TPM and storage-engine locks are leaves, never held together); the
/// mirrors and RNG locks are only ever held on their own (the mirror
/// fleet is snapshotted before a refresh starts), and no repository lock
/// is ever taken while holding another repository's — which makes the
/// hierarchy deadlock-free.
#[derive(Clone)]
pub struct TsrService {
    pub(crate) shared: Arc<SharedState>,
    pub(crate) repos: Arc<RwLock<BTreeMap<String, Arc<Mutex<TsrRepository>>>>>,
}

impl std::fmt::Debug for TsrService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let repos = self.repos.read().unwrap_or_else(PoisonError::into_inner);
        let mirrors = self
            .shared
            .mirrors
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("TsrService")
            .field("repositories", &repos.len())
            .field("mirrors", &mirrors.len())
            .finish()
    }
}

impl TsrService {
    /// Creates a service on a simulated SGX CPU over an empty in-memory
    /// store ([`MemBackend`]): [`Self::with_store`] with nothing durable
    /// beyond the process, so seals and package bytes take the same path
    /// as on a durable service. The cost is memory: every blob is held
    /// twice, in the package cache and in the store.
    ///
    /// `key_bits` sizes per-repository signing keys (2048 = paper-faithful,
    /// 1024 = fast tests). The refresh worker count defaults to
    /// [`default_workers`]; tune it with [`Self::set_workers`].
    pub fn new(seed: &[u8], mirrors: Vec<Mirror>, model: LatencyModel, key_bits: usize) -> Self {
        let store = Box::new(MemBackend::default());
        // An empty in-memory store has nothing to replay, so it always
        // opens and recovers no tenant.
        let (svc, _) = Self::with_store(seed, mirrors, model, key_bits, store)
            .expect("an empty in-memory store opens");
        svc
    }

    /// Opens a service over a durable storage engine, running crash
    /// recovery: the engine replays its snapshot + write-ahead log, and
    /// every recovered repository is rebuilt — signing key re-derived
    /// inside the enclave, then restarted from the durably recorded seal
    /// (`restart` in [`crate::replica`], the path [`Self::crash_restart`]
    /// takes too, with the blob store as the only source of package
    /// bytes). The recovered signed index is byte-identical to what was
    /// served before the crash.
    ///
    /// Recovery takes about the time of the slowest tenant, not the sum:
    /// every policy is parsed, the TPM counters are created one after
    /// another in id order (so each tenant gets the counter id it always
    /// had), and then key generation plus `restart` run per tenant on
    /// [`Self::workers`] threads. The tenants are published in id order.
    /// On failure the error is that of the first failing tenant in id
    /// order.
    ///
    /// An empty store yields a fresh service, so this is also the normal
    /// way to start a durable service. `seed` must match the seed of the
    /// service that wrote the store: the sealed blobs are bound to the
    /// (deterministic) CPU sealing key.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when the store cannot be opened or a
    /// recovered repository fails to unseal; [`CoreError::Policy`] when
    /// a durably recorded policy no longer parses.
    pub fn with_store(
        seed: &[u8],
        mirrors: Vec<Mirror>,
        model: LatencyModel,
        key_bits: usize,
        backend: Box<dyn StoreBackend>,
    ) -> Result<(Self, RecoveryReport), CoreError> {
        let (engine, report) = StoreEngine::open(backend).map_err(store_err)?;
        let state = engine.state().clone();
        let obs_registry = Registry::new();
        let metrics = Metrics::new(&obs_registry);
        let svc = TsrService {
            shared: Arc::new(SharedState {
                cpu: Cpu::new(seed),
                tpm: Mutex::new(Tpm::new(seed)),
                mirrors: RwLock::new(mirrors),
                model: RwLock::new(model),
                rng: Mutex::new(HmacDrbg::new(&[b"tsr-service:", seed].concat())),
                next_id: AtomicU64::new(state.next_id.max(1)),
                key_bits,
                workers: AtomicUsize::new(default_workers()),
                hot: HotCache::default(),
                metrics,
                store: Mutex::new(engine),
                obs_registry,
                obs_journal: Journal::default(),
                // Not ready until the replay below finishes: anything
                // polling `/v1/readyz` (a load balancer, the drain
                // runbook) must not route traffic at a half-rebuilt node.
                recovering: AtomicBool::new(true),
                draining: AtomicBool::new(false),
                cluster_epoch_ok: AtomicBool::new(true),
            }),
            repos: Arc::new(RwLock::new(BTreeMap::new())),
        };
        // Tenants up to the first policy that does not parse; that
        // error is returned only if every tenant before it recovers.
        let mut tenants = Vec::new();
        let mut bad_policy = None;
        for (id, durable) in &state.repos {
            match Policy::parse(&durable.policy_text) {
                Ok(policy) => tenants.push((id.clone(), policy)),
                Err(e) => {
                    bad_policy = Some(e);
                    break;
                }
            }
        }
        let counters: Vec<u32> = {
            let mut tpm = lock(&svc.shared.tpm);
            tenants.iter().map(|_| tpm.create_counter()).collect()
        };
        let recovered = parallel_map_ordered(&tenants, svc.workers(), |i, (id, policy)| {
            let mut repo = svc.init_repo_with_counter(id, policy.clone(), counters[i]);
            svc.restart(&mut repo).map(|()| repo)
        });
        for ((id, _), repo) in tenants.iter().zip(recovered) {
            let repo = repo?;
            svc.shared.hot.publish(id, repo.signed_index());
            svc.repos
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id.clone(), Arc::new(Mutex::new(repo)));
        }
        if let Some(e) = bad_policy {
            return Err(e);
        }
        svc.shared.metrics.count_store(&lock(&svc.shared.store));
        svc.shared.recovering.store(false, Ordering::SeqCst);
        Ok((svc, report))
    }

    /// Sets the worker count used for the parallel phases of
    /// [`Self::refresh`] (downloads and sanitization).
    ///
    /// The served bytes are identical for every worker count; only the
    /// wall-clock time changes.
    pub fn set_workers(&self, workers: usize) {
        self.shared.workers.store(workers.max(1), Ordering::Relaxed);
    }

    /// The current refresh worker count.
    pub fn workers(&self) -> usize {
        self.shared.workers.load(Ordering::Relaxed)
    }

    /// Runs `f` with mutable access to the mirror fleet.
    pub fn with_mirrors<R>(&self, f: impl FnOnce(&mut Vec<Mirror>) -> R) -> R {
        f(&mut self
            .shared
            .mirrors
            .write()
            .unwrap_or_else(PoisonError::into_inner))
    }

    /// Replaces the network model used for mirror fetches — fault
    /// injection for partitions and latency spikes. Takes effect for the
    /// next refresh; a refresh in flight keeps the model it started with.
    pub fn set_model(&self, model: LatencyModel) {
        *self
            .shared
            .model
            .write()
            .unwrap_or_else(PoisonError::into_inner) = model;
    }

    /// The current network model.
    pub fn model(&self) -> LatencyModel {
        self.shared
            .model
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The typed metric registry behind `GET /v1/metrics?format=prometheus`.
    /// The HTTP middleware registers its latency-histogram and in-flight
    /// families here when the service is bound via [`Self::serve_with_options`];
    /// embedders can add their own families through the same handle.
    pub fn obs_registry(&self) -> &Registry {
        &self.shared.obs_registry
    }

    /// The bounded in-memory journal of request-id-tagged side effects
    /// (WAL appends, replication events). The cluster chaos sim drains
    /// it to assert end-to-end request-id propagation.
    pub fn obs_journal(&self) -> &Journal {
        &self.shared.obs_journal
    }

    /// Begins a drain: `/v1/readyz` flips to 503 so load balancers take
    /// the node out of rotation, while `/v1/healthz` (liveness) and all
    /// other routes keep answering. The socket layer has its own drain
    /// ([`tsr_http::Server::begin_drain`]) that stops accepting
    /// connections; the runbook flips this first, waits a poll interval,
    /// then drains the listener.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// True once [`Self::begin_drain`] ran.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Records whether this node's cluster config epoch matches the
    /// cluster's. The cluster layer calls this with `false` when a peer
    /// push or digest reveals a newer epoch, and `true` once the node
    /// adopts it — while `false`, `/v1/readyz` answers 503.
    pub fn set_cluster_epoch_ok(&self, ok: bool) {
        self.shared.cluster_epoch_ok.store(ok, Ordering::SeqCst);
    }

    /// The readiness verdict behind `GET /v1/readyz`: ready iff no
    /// component objects. Each component reads `true` when it is NOT
    /// blocking readiness.
    pub fn readiness(&self) -> ReadyDto {
        let mut components = BTreeMap::new();
        components.insert(
            "recovery_replay".to_string(),
            !self.shared.recovering.load(Ordering::SeqCst),
        );
        components.insert(
            "cluster_epoch".to_string(),
            self.shared.cluster_epoch_ok.load(Ordering::SeqCst),
        );
        components.insert(
            "drain".to_string(),
            !self.shared.draining.load(Ordering::SeqCst),
        );
        let ready = components.values().all(|ok| *ok);
        ReadyDto { ready, components }
    }

    /// Renders the Prometheus text exposition (format 0.0.4) of
    /// [`Self::obs_registry`]: request and event counters, latency
    /// histograms, in-flight and queue-depth gauges.
    pub fn render_prometheus(&self) -> String {
        self.shared.obs_registry.render_prometheus()
    }

    /// The handle of one named series of `tsr_core_events_total{event}`
    /// (created at zero on first use). The cluster layer counts its
    /// replication events here; the same counters are the `counters`
    /// map of `GET /v1/metrics`.
    pub fn event_counter(&self, event: &str) -> Counter {
        self.shared.metrics.event(event)
    }

    /// This service's counter handles.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The serve cache.
    pub(crate) fn hot(&self) -> &HotCache {
        &self.shared.hot
    }

    /// The stable journal name of one WAL record kind.
    pub(crate) fn wal_kind(record: &WalRecord) -> &'static str {
        match record {
            WalRecord::RepoCreated { .. } => "repo_created",
            WalRecord::RepoDeleted { .. } => "repo_deleted",
            WalRecord::SealUpdated { .. } => "seal_updated",
        }
    }

    /// Tags the request-id currently in scope onto a WAL append in the
    /// in-memory journal. The WAL bytes themselves never change — the
    /// attribution lives only here, where the chaos sim and operators
    /// read it.
    pub(crate) fn journal_wal(&self, record: &WalRecord) {
        self.shared.obs_journal.record(
            "wal_append",
            &tsr_obs::current_request_id().unwrap_or_default(),
            Self::wal_kind(record).to_string(),
        );
    }

    /// Appends one record to the write-ahead log. Called before the
    /// mutation becomes observable to clients.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when the durable append fails — the
    /// mutation must not be published in that case.
    fn store_append(&self, record: &WalRecord) -> Result<(), CoreError> {
        let mut eng = lock(&self.shared.store);
        eng.append(record).map_err(store_err)?;
        self.shared.metrics.count_store(&eng);
        drop(eng);
        self.journal_wal(record);
        Ok(())
    }

    /// Looks up one repository shard.
    pub(crate) fn repo(&self, id: &str) -> Result<Arc<Mutex<TsrRepository>>, CoreError> {
        self.repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("repository {id}")))
    }

    /// This build's enclave on the service CPU.
    pub(crate) fn enclave(&self) -> Enclave<'_> {
        self.shared.cpu.load_enclave(ENCLAVE_CODE)
    }

    /// A fresh shard for `id`: a new TPM monotonic counter, then the
    /// signing key derived inside the enclave. The TPM lock is held for
    /// the counter only — never across the key generation, so creating a
    /// tenant does not stall every other tenant's seal. Not yet in the
    /// repository map.
    pub(crate) fn init_repo(&self, id: &str, policy: Policy) -> TsrRepository {
        let counter_id = lock(&self.shared.tpm).create_counter();
        self.init_repo_with_counter(id, policy, counter_id)
    }

    /// [`Self::init_repo`] over an already-created TPM counter.
    fn init_repo_with_counter(&self, id: &str, policy: Policy, counter_id: u32) -> TsrRepository {
        TsrRepository::with_counter(
            id.to_string(),
            policy,
            &self.enclave(),
            counter_id,
            self.shared.key_bits,
        )
    }

    /// Derives an independent child DRBG from the service RNG (the lock is
    /// held only for the derivation, never across a refresh).
    fn child_rng(&self, label: &str) -> HmacDrbg {
        let mut seed = lock(&self.shared.rng).bytes(32);
        seed.extend_from_slice(label.as_bytes());
        HmacDrbg::new(&seed)
    }

    /// Creates a repository from a policy document, returning
    /// `(repository id, public signing key PEM)` — Figure 7 steps ➋–➍.
    ///
    /// # Errors
    ///
    /// [`CoreError::Policy`] for malformed policies.
    pub fn create_repository(&self, policy_text: &str) -> Result<(String, String), CoreError> {
        let policy = Policy::parse(policy_text)?;
        let id = format!(
            "repo-{}",
            self.shared.next_id.fetch_add(1, Ordering::Relaxed)
        );
        let repo = self.init_repo(&id, policy);
        let pem = repo.public_key().to_pem();
        // Durable before observable: the creation is logged before the
        // shard is published to the repository map.
        self.store_append(&WalRecord::RepoCreated {
            id: id.clone(),
            policy_text: policy_text.to_string(),
        })?;
        self.repos
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id.clone(), Arc::new(Mutex::new(repo)));
        Ok((id, pem))
    }

    /// Refreshes one repository from the mirror fleet.
    ///
    /// Holds only that repository's lock for the duration; refreshes of
    /// different repositories run fully in parallel. The shared locks are
    /// held only briefly: the mirror fleet is snapshotted at refresh
    /// start (so a queued mirror writer never stalls other tenants), and
    /// the TPM is taken only for the final sealing step.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids plus refresh errors.
    pub fn refresh(&self, id: &str) -> Result<RefreshReport, CoreError> {
        let shard = self.repo(id)?;
        let mut rng = self.child_rng(id);
        let workers = self.workers();
        let mirrors = self
            .shared
            .mirrors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let model = self.model();
        let mut repo = live(&shard)?;
        let report = repo.refresh_unsealed(&mirrors, &model, &mut rng, workers)?;
        let seal_counter = {
            // One hold of the TPM lock for the seal and the counter it
            // binds.
            let mut tpm = lock(&self.shared.tpm);
            repo.persist(&self.enclave(), &mut tpm)?;
            tpm.read_counter(repo.counter_id()).map_err(seal_err)?
        };
        // Durable before observable. Lock order `repository → store`
        // (the TPM lock is already released; the two leaf locks are
        // never held together).
        self.commit(&image_of(&repo, seal_counter), false)?;
        self.shared.hot.publish(id, repo.signed_index());
        Ok(report)
    }

    /// Simulates an enclave crash followed by a restart on the *same*
    /// hardware, through the path crash recovery ([`Self::with_store`])
    /// takes: every repository loses its volatile in-enclave state
    /// (indexes, sanitizer, signed index), reads its durable
    /// TPM-counter-bound seal back from the store and installs it.
    /// Signing keys are re-derived deterministically inside the enclave,
    /// so the restored signed index is byte-identical. The package cache
    /// is rebuilt from the store for exactly the hashes the unsealed
    /// indexes pin, so a tampered cache entry is replaced, not kept.
    ///
    /// Returns `(repository id, restart outcome)` per tenant. A tenant
    /// that was never refreshed restarts cleanly and stays unrefreshed,
    /// as in recovery.
    pub fn crash_restart(&self) -> Vec<(String, Result<(), CoreError>)> {
        let shards: Vec<(String, Arc<Mutex<TsrRepository>>)> = self
            .repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(id, shard)| (id.clone(), shard.clone()))
            .collect();
        shards
            .into_iter()
            .filter_map(|(id, shard)| {
                // A tenant deleted since the listing has nothing to restart.
                let mut repo = live(&shard).ok()?;
                let outcome = self.restart(&mut repo);
                self.shared.hot.publish(&id, repo.signed_index());
                Some((id, outcome))
            })
            .collect()
    }

    /// Fetches the signed sanitized index of a repository.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids / unrefreshed repositories.
    pub fn fetch_index(&self, id: &str) -> Result<Vec<u8>, CoreError> {
        let shard = self.repo(id)?;
        let repo = lock(&shard);
        repo.serve_index()
    }

    /// Fetches a sanitized package blob.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] / [`CoreError::RollbackDetected`].
    pub fn fetch_package(&self, id: &str, name: &str) -> Result<Vec<u8>, CoreError> {
        let shard = self.repo(id)?;
        let repo = lock(&shard);
        repo.serve_package(name).map(|b| b.to_vec())
    }

    /// Runs `f` with shared access to a repository.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids.
    pub fn with_repository<R>(
        &self,
        id: &str,
        f: impl FnOnce(&TsrRepository) -> R,
    ) -> Result<R, CoreError> {
        let shard = self.repo(id)?;
        let repo = lock(&shard);
        Ok(f(&repo))
    }

    /// The platform attestation key clients use to verify reports.
    /// Generated on first use (here or by [`Self::attestation_report`]),
    /// so the first call after a start pays one key generation.
    pub fn platform_key_pem(&self) -> String {
        self.shared.cpu.attestation_key().to_pem()
    }

    /// Produces an attestation report carrying `nonce` (SGX remote
    /// attestation, Figure 7 step ➊). The first report after a start also
    /// generates the platform key.
    pub fn attestation_report(&self, nonce: &[u8]) -> (String, String, String) {
        let report = self.enclave().report(nonce);
        (
            hex::to_hex(&report.mrenclave.0),
            hex::to_hex(&report.report_data),
            hex::to_hex(&report.signature),
        )
    }

    /// All repository ids currently hosted.
    pub fn repository_ids(&self) -> Vec<String> {
        self.repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Deletes a repository, dropping its shard (the TPM counter is
    /// retired with it; a new repository under the same policy gets a
    /// fresh id and key).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids.
    pub fn delete_repository(&self, id: &str) -> Result<(), CoreError> {
        let shard = self.repo(id)?;
        // Under the shard lock, so the delete orders after any writer in
        // flight and a racing second delete finds the mark (see `live`).
        let mut repo = live(&shard)?;
        // Durable before observable.
        self.store_append(&WalRecord::RepoDeleted { id: id.to_string() })?;
        repo.deleted = true;
        self.shared.hot.publish(id, None);
        self.repos
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(id);
        Ok(())
    }

    /// Runs `f` with **mutable** access to a repository (failure
    /// injection in tests: cache tampering, sealed-blob replacement).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids.
    pub fn with_repository_mut<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut TsrRepository) -> R,
    ) -> Result<R, CoreError> {
        let shard = self.repo(id)?;
        let mut repo = live(&shard)?;
        let r = f(&mut repo);
        // `f` may have changed the index or the package cache (fault
        // injection); republish before the shard lock is released.
        self.shared.hot.publish(id, repo.signed_index());
        Ok(r)
    }

    /// Routes an HTTP request (also usable without a real socket). See
    /// [`crate::api`] for routes and the error contract.
    pub fn handle(&self, req: &Request) -> Response {
        // Put the request's id (injected by the RequestId middleware, or
        // sent by the client) in scope for the duration of the dispatch:
        // error envelopes, WAL-append journal events, and cluster
        // replication pushes triggered by this request all pick it up.
        let _scope = RequestScope::enter(req.headers.get("x-request-id").cloned());
        api::handle(self, req)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;
    use std::sync::OnceLock;
    use tsr_apk::{Index, PackageBuilder};
    use tsr_archive::Entry;
    use tsr_crypto::{RsaPrivateKey, RsaPublicKey};
    use tsr_mirror::{publish_to_all, RepoSnapshot};
    use tsr_net::Continent;

    fn upstream_key() -> &'static RsaPrivateKey {
        static K: OnceLock<RsaPrivateKey> = OnceLock::new();
        K.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"svc-upstream");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    pub(crate) fn policy_text() -> String {
        let pem: String = upstream_key()
            .public_key()
            .to_pem()
            .lines()
            .map(|l| format!("      {l}\n"))
            .collect();
        format!(
            "mirrors:\n\
             \x20 - hostname: m0\n\
             \x20   continent: europe\n\
             \x20 - hostname: m1\n\
             \x20   continent: europe\n\
             \x20 - hostname: m2\n\
             \x20   continent: europe\n\
             signers_keys:\n\
             \x20 - |-\n{pem}\
             f: 1\n"
        )
    }

    /// Upstream snapshot `id`: one package per `(name, version)`.
    pub(crate) fn snapshot(id: u64, pkgs: &[(&str, &str)]) -> RepoSnapshot {
        let mut index = Index::new();
        index.snapshot = id;
        let mut packages = Map::new();
        for &(name, version) in pkgs {
            let mut b = PackageBuilder::new(name, version);
            b.file(Entry::file(
                format!("usr/bin/{name}"),
                format!("{name}-bytes").into_bytes(),
            ));
            let blob = b.build(upstream_key(), "builder");
            index.upsert(Index::entry_for_blob(name, version, &[], &blob));
            packages.insert(name.to_string(), blob);
        }
        RepoSnapshot {
            snapshot_id: id,
            signed_index: index.sign(upstream_key(), "builder"),
            packages,
        }
    }

    pub(crate) fn mirrors() -> Vec<Mirror> {
        let mut ms: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut ms, &snapshot(1, &[("tool", "1.0")]));
        ms
    }

    pub(crate) fn service() -> TsrService {
        TsrService::new(b"svc-test", mirrors(), LatencyModel::default(), 1024)
    }

    pub(crate) fn sim_backend(fs: &Arc<Mutex<tsr_simfs::SimFs>>) -> Box<dyn StoreBackend> {
        Box::new(tsr_simfs::SimFsBackend::new(Arc::clone(fs), "/store"))
    }

    #[test]
    fn store_recovery_reproduces_identical_signed_index() {
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let (svc, report) = TsrService::with_store(
            b"svc-store",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        assert_eq!(report.replayed_records, 0);
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let index = svc.fetch_index(&id).unwrap();
        let pkg = svc.fetch_package(&id, "tool").unwrap();
        assert_eq!(svc.event_counter("wal_appends").get(), 2);
        drop(svc); // enclave crash: everything volatile is gone

        let (svc2, report2) = TsrService::with_store(
            b"svc-store",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        assert_eq!(report2.replayed_records, 2, "create + seal");
        assert_eq!(svc2.fetch_index(&id).unwrap(), index, "byte-identical");
        assert_eq!(svc2.fetch_package(&id, "tool").unwrap(), pkg);
        assert_eq!(svc2.event_counter("recovery_replayed_records").get(), 2);

        // Recovered services keep allocating fresh ids.
        let (id2, _) = svc2.create_repository(&policy_text()).unwrap();
        assert_ne!(id2, id);
    }

    #[test]
    fn store_recovery_discards_torn_wal_tail() {
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let (svc, _) = TsrService::with_store(
            b"svc-torn",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let index = svc.fetch_index(&id).unwrap();
        drop(svc);

        // Crash mid-append: tear the last WAL record, the refresh's seal.
        {
            let mut disk = fs.lock().unwrap();
            let wal = disk.read_file("/store/wal.log").unwrap().to_vec();
            disk.write_file("/store/wal.log", wal[..wal.len() - 7].to_vec())
                .unwrap();
        }
        let (svc2, report) = TsrService::with_store(
            b"svc-torn",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        assert!(report.torn_bytes_discarded > 0);
        assert_eq!(report.replayed_records, 1, "seal record torn away whole");
        // The refresh is lost whole: the tenant recovers unrefreshed.
        assert!(svc2.repository_ids().contains(&id));
        assert!(matches!(svc2.fetch_index(&id), Err(CoreError::NotFound(_))));
        // A fresh refresh converges back to the same served bytes.
        svc2.refresh(&id).unwrap();
        assert_eq!(svc2.fetch_index(&id).unwrap(), index);
    }

    /// Recovers a `b"svc-recover"` service from the store on `fs`.
    fn recover(fs: &Arc<Mutex<tsr_simfs::SimFs>>) -> Result<TsrService, CoreError> {
        let model = LatencyModel::default();
        TsrService::with_store(b"svc-recover", mirrors(), model, 1024, sim_backend(fs))
            .map(|(svc, _)| svc)
    }

    /// What every tenant serves: its signed index and each package blob
    /// (`None` where it serves nothing).
    fn served(svc: &TsrService) -> Map<String, Vec<Option<Vec<u8>>>> {
        svc.repository_ids()
            .into_iter()
            .map(|id| {
                let mut bytes = vec![svc.fetch_index(&id).ok()];
                for pkg in ["tool", "extra"] {
                    bytes.push(svc.fetch_package(&id, pkg).ok());
                }
                (id, bytes)
            })
            .collect()
    }

    #[test]
    fn parallel_recovery_serves_the_pre_kill_bytes() {
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let svc = recover(&fs).unwrap();
        let [twice, deleted, once, never] =
            std::array::from_fn(|_| svc.create_repository(&policy_text()).unwrap().0);
        svc.refresh(&twice).unwrap();
        svc.refresh(&deleted).unwrap();
        svc.with_mirrors(|ms| {
            publish_to_all(ms, &snapshot(2, &[("tool", "1.1"), ("extra", "1.0")]));
        });
        svc.refresh(&twice).unwrap();
        svc.refresh(&once).unwrap();
        svc.delete_repository(&deleted).unwrap();
        let before = served(&svc);
        assert_eq!(before.len(), 3);
        assert_eq!(before[&never], vec![None, None, None], "never refreshed");
        drop(svc); // enclave crash

        let svc = recover(&fs).unwrap();
        assert_eq!(
            svc.repository_ids(),
            [twice.clone(), once.clone(), never.clone()]
        );
        assert_eq!(served(&svc), before, "byte-identical after recovery");

        // A refresh after recovery seals on the recovered counters, and a
        // second recovery replays them.
        svc.with_mirrors(|ms| publish_to_all(ms, &snapshot(3, &[("tool", "1.2")])));
        svc.refresh(&once).unwrap();
        let before = served(&svc);
        assert_ne!(before[&once][0], None);
        drop(svc);
        let svc = recover(&fs).unwrap();
        assert_eq!(
            served(&svc),
            before,
            "byte-identical after a second recovery"
        );
    }

    #[test]
    fn recovery_fails_on_the_first_bad_seal_in_id_order() {
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let svc = recover(&fs).unwrap();
        let ids: Vec<String> = (0..3)
            .map(|_| svc.create_repository(&policy_text()).unwrap().0)
            .collect();
        for id in &ids {
            svc.refresh(id).unwrap();
        }
        drop(svc);
        {
            // The middle tenant's seal fails authentication, the last
            // one's does not even parse: the middle one is reported.
            let (mut eng, _) = StoreEngine::open(sim_backend(&fs)).unwrap();
            let repos = eng.state().repos.clone();
            let mut tampered = repos[&ids[1]].sealed.clone();
            *tampered.last_mut().unwrap() ^= 1;
            for (id, sealed) in [(&ids[1], tampered), (&ids[2], vec![0; 3])] {
                eng.append(&WalRecord::SealUpdated {
                    id: id.clone(),
                    sealed,
                    counter: repos[id].seal_counter,
                })
                .unwrap();
            }
        }
        let err = recover(&fs).unwrap_err();
        assert!(
            matches!(&err, CoreError::SealedState(m)
                if m == "unsealing failed: wrong enclave/cpu or tampered blob"),
            "{err:?}"
        );
    }

    #[test]
    fn create_refresh_fetch_cycle() {
        let svc = service();
        let (id, pem) = svc.create_repository(&policy_text()).unwrap();
        let key = RsaPublicKey::from_pem(&pem).unwrap();
        svc.refresh(&id).unwrap();
        let signed = svc.fetch_index(&id).unwrap();
        let idx = Index::parse_signed(&signed, &[(format!("tsr-{id}"), key.clone())]).unwrap();
        assert_eq!(idx.len(), 1);
        let blob = svc.fetch_package(&id, "tool").unwrap();
        tsr_apk::Package::parse(&blob)
            .unwrap()
            .verify(&key)
            .unwrap();
    }

    #[test]
    fn tenants_are_isolated() {
        let svc = service();
        let (id1, pem1) = svc.create_repository(&policy_text()).unwrap();
        let (id2, pem2) = svc.create_repository(&policy_text()).unwrap();
        assert_ne!(id1, id2);
        assert_ne!(pem1, pem2, "each repository gets its own signing key");
        svc.refresh(&id1).unwrap();
        // Packages from repo 1 do NOT verify under repo 2's key.
        let blob = svc.fetch_package(&id1, "tool").unwrap();
        let key2 = RsaPublicKey::from_pem(&pem2).unwrap();
        assert!(tsr_apk::Package::parse(&blob)
            .unwrap()
            .verify(&key2)
            .is_err());
    }

    #[test]
    fn a_failed_refresh_keeps_serving_the_index_it_left_in_place() {
        let svc = service();
        svc.with_mirrors(|ms| {
            publish_to_all(ms, &snapshot(2, &[("tool", "1.0"), ("extra", "1.0")]));
        });
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let index = svc.fetch_index(&id).unwrap();
        let extra = svc.fetch_package(&id, "extra").unwrap();

        // Snapshot 3 drops `extra` and adds `rogue`, signed by a key the
        // policy does not trust: the refresh downloads it, then fails.
        let mut next = snapshot(3, &[("tool", "1.0")]);
        let trusted = [("builder".to_string(), upstream_key().public_key().clone())];
        let mut index3 = Index::parse_signed(&next.signed_index, &trusted).unwrap();
        let rogue_key = RsaPrivateKey::generate(1024, &mut HmacDrbg::new(b"svc-rogue"));
        let mut b = PackageBuilder::new("rogue", "1.0");
        b.file(Entry::file("usr/bin/rogue", b"rogue-bytes".to_vec()));
        let rogue = b.build(&rogue_key, "builder");
        index3.upsert(Index::entry_for_blob("rogue", "1.0", &[], &rogue));
        next.signed_index = index3.sign(upstream_key(), "builder");
        next.packages.insert("rogue".to_string(), rogue);
        svc.with_mirrors(|ms| publish_to_all(ms, &next));
        let err = svc.refresh(&id).unwrap_err();
        assert!(matches!(err, CoreError::Package(_)), "{err:?}");

        // The old index is still the one served, and so is every package
        // it lists.
        assert_eq!(svc.fetch_index(&id).unwrap(), index);
        assert_eq!(svc.fetch_package(&id, "extra").unwrap(), extra);
    }

    #[test]
    fn attestation_report_verifies() {
        let svc = service();
        let (mr, data, sig) = svc.attestation_report(b"nonce!");
        let platform = RsaPublicKey::from_pem(&svc.platform_key_pem()).unwrap();
        let report = tsr_sgx::Report {
            mrenclave: tsr_sgx::Measurement(hex::from_hex(&mr).unwrap().try_into().unwrap()),
            report_data: hex::from_hex(&data).unwrap(),
            signature: hex::from_hex(&sig).unwrap(),
        };
        report
            .verify(&platform, &tsr_sgx::Measurement::of(ENCLAVE_CODE))
            .unwrap();
        assert!(report.report_data.starts_with(b"nonce!"));
    }

    #[test]
    fn crash_restart_recovers_all_tenants() {
        let svc = service();
        let (id1, _) = svc.create_repository(&policy_text()).unwrap();
        let (id2, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id1).unwrap();
        svc.refresh(&id2).unwrap();
        let before1 = svc.fetch_index(&id1).unwrap();
        let before2 = svc.fetch_index(&id2).unwrap();
        for (id, outcome) in svc.crash_restart() {
            outcome.unwrap_or_else(|e| panic!("{id}: {e}"));
        }
        assert_eq!(svc.fetch_index(&id1).unwrap(), before1);
        assert_eq!(svc.fetch_index(&id2).unwrap(), before2);
        svc.fetch_package(&id1, "tool").unwrap();
    }

    #[test]
    fn a_writer_in_flight_cannot_resurrect_a_deleted_tenant() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let parked = std::thread::scope(|s| {
            // `refresh` snapshots the mirror fleet after it looked the
            // shard up and before it locks it: holding the fleet parks
            // it exactly there while the tenant is deleted.
            let refresh = svc.with_mirrors(|_| {
                let refresh = s.spawn(|| svc.refresh(&id));
                std::thread::sleep(std::time::Duration::from_millis(200));
                svc.delete_repository(&id).unwrap();
                refresh
            });
            refresh.join().unwrap()
        });
        assert!(matches!(parked, Err(CoreError::NotFound(_))), "{parked:?}");
        assert!(svc.hot().lookup(&id, |_| ()).is_none(), "entry leaked");
        let poll = api_request("GET", &format!("/v1/repositories/{id}/index"), &[]);
        assert_eq!(svc.handle(&poll).status, 404, "a deleted tenant is gone");
    }

    #[test]
    fn mirror_request_counters_persist_across_refreshes() {
        // The refresh snapshots (clones) the fleet, but clones share the
        // per-mirror request counter — so request-keyed behaviours like
        // equivocation progress across refreshes instead of resetting.
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let before = svc.with_mirrors(|ms| ms.iter().map(|m| m.requests_served()).sum::<u64>());
        assert!(before > 0, "refresh requests land on the shared fleet");
        svc.refresh(&id).unwrap();
        let after = svc.with_mirrors(|ms| ms.iter().map(|m| m.requests_served()).sum::<u64>());
        assert!(after > before);
    }

    #[test]
    fn crash_restart_before_refresh_leaves_the_tenant_unrefreshed() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        let results = svc.crash_restart();
        assert_eq!(results.len(), 1);
        assert!(results[0].1.is_ok(), "{:?}", results[0].1);
        assert!(matches!(svc.fetch_index(&id), Err(CoreError::NotFound(_))));
    }

    #[test]
    fn set_model_swaps_network_conditions() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let spiked = LatencyModel::default().with_latency_factor(50.0);
        svc.set_model(spiked.clone());
        assert_eq!(svc.model(), spiked);
        // Refreshes keep working under the spiked model.
        svc.refresh(&id).unwrap();
    }

    pub(crate) fn api_request(method: &str, path: &str, headers: &[(&str, &str)]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: vec![],
        }
    }

    #[test]
    fn journal_attributes_wal_appends_to_the_request_id() {
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let (svc, _) = TsrService::with_store(
            b"svc-journal",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.obs_journal().drain();
        let resp = svc.handle(&api_request(
            "POST",
            &format!("/v1/repositories/{id}/refresh"),
            &[("x-request-id", "req-wal-1")],
        ));
        assert_eq!(resp.status, 200);
        let events = svc.obs_journal().drain();
        let kinds: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == "wal_append")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(kinds, ["seal_updated"]);
        assert!(
            events
                .iter()
                .filter(|e| e.kind == "wal_append")
                .all(|e| e.request_id == "req-wal-1"),
            "{events:?}"
        );
    }
}
