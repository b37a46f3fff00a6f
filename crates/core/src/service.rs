//! The multi-tenant TSR service (paper §5.2): tenant lifecycle (create,
//! refresh, restart, recovery, delete) and the replication hooks.
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
use tsr_sgx::Cpu;
use tsr_store::{RecoveryReport, StoreBackend, StoreEngine, WalRecord};
use tsr_tpm::Tpm;
use tsr_wire::dto::ReadyDto;

use crate::api::{self, Metrics};
use crate::error::CoreError;
use crate::hot::HotCache;
use crate::parallel::default_workers;
use crate::policy::Policy;
use crate::repository::{RefreshReport, TsrRepository};

/// The enclave code identity of this TSR build (what clients attest).
pub const ENCLAVE_CODE: &[u8] = b"tsr-enclave-v1";

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// request handler must not take the whole multi-tenant service down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps a storage-engine failure onto the durable-state error class.
fn store_err(e: tsr_store::StoreError) -> CoreError {
    CoreError::SealedState(format!("store: {e}"))
}

/// Maps a TPM failure during counter replay onto the same class.
fn seal_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::SealedState(e.to_string())
}

/// Hardware and fleet state shared by every repository: the simulated SGX
/// CPU (immutable after construction), the TPM (brief lock at seal time),
/// the mirror fleet (read-mostly), and the service DRBG (locked only long
/// enough to derive a per-operation child).
struct SharedState {
    cpu: Cpu,
    tpm: Mutex<Tpm>,
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
    /// The durable storage engine (WAL + content-addressed blobs), when
    /// the service was opened over one ([`TsrService::with_store`]).
    /// A leaf lock in the hierarchy, like `tpm`: taken while holding a
    /// repository shard lock (`repository → store`) but never while the
    /// TPM lock is held, and no other lock is ever acquired under it.
    store: Option<Mutex<StoreEngine>>,
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

/// The full replicable state of one repository — everything a peer node
/// needs to host a byte-identical copy: the policy, the index texts, the
/// package blob references (with bytes), and the TPM-bound seal. Produced
/// by [`TsrService::export_replicated_state`], consumed by
/// [`TsrService::apply_replicated_state`]; `tsr-cluster` maps it onto the
/// `/v1/cluster/*` wire DTOs.
#[derive(Debug, Clone)]
pub struct ReplicatedState {
    /// Repository id.
    pub id: String,
    /// The deployed policy document.
    pub policy_text: String,
    /// Upstream index text (empty before the first refresh).
    pub upstream_index: String,
    /// Sanitized index text (empty before the first refresh).
    pub sanitized_index: String,
    /// Per-package `(name, original hash, sanitized hash)` blob refs.
    pub packages: Vec<(String, String, String)>,
    /// The TPM-bound sealed metadata blob (empty before the first seal).
    pub sealed: Vec<u8>,
    /// The monotonic-counter value bound into `sealed`.
    pub seal_counter: u64,
    /// ETag of the signed sanitized index (the replication vote value).
    pub index_etag: String,
    /// Content-addressed blob payloads, `(hex hash, bytes)`.
    pub blobs: Vec<(String, Arc<[u8]>)>,
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
    shared: Arc<SharedState>,
    repos: Arc<RwLock<BTreeMap<String, Arc<Mutex<TsrRepository>>>>>,
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
    /// Creates a service on a simulated SGX CPU.
    ///
    /// `key_bits` sizes per-repository signing keys (2048 = paper-faithful,
    /// 1024 = fast tests). The refresh worker count defaults to
    /// [`default_workers`]; tune it with [`Self::set_workers`].
    pub fn new(seed: &[u8], mirrors: Vec<Mirror>, model: LatencyModel, key_bits: usize) -> Self {
        Self::build(seed, mirrors, model, key_bits, None)
    }

    fn build(
        seed: &[u8],
        mirrors: Vec<Mirror>,
        model: LatencyModel,
        key_bits: usize,
        store: Option<Mutex<StoreEngine>>,
    ) -> Self {
        let cpu = Cpu::new(seed);
        let tpm = Tpm::new(seed);
        let rng = HmacDrbg::new(&[b"tsr-service:", seed].concat());
        let obs_registry = Registry::new();
        let metrics = Metrics::new(&obs_registry);
        let hot = HotCache::new(metrics.hot_blob_evictions.clone());
        TsrService {
            shared: Arc::new(SharedState {
                cpu,
                tpm: Mutex::new(tpm),
                mirrors: RwLock::new(mirrors),
                model: RwLock::new(model),
                rng: Mutex::new(rng),
                next_id: AtomicU64::new(1),
                key_bits,
                workers: AtomicUsize::new(default_workers()),
                metrics,
                hot,
                store,
                obs_registry,
                obs_journal: Journal::default(),
                recovering: AtomicBool::new(false),
                draining: AtomicBool::new(false),
                cluster_epoch_ok: AtomicBool::new(true),
            }),
            repos: Arc::new(RwLock::new(BTreeMap::new())),
        }
    }

    /// Opens a service over a durable storage engine, running crash
    /// recovery: the engine replays its snapshot + write-ahead log, and
    /// every recovered repository is rebuilt — signing key re-derived
    /// inside the enclave, TPM monotonic counter replayed up to the
    /// durably recorded seal value, metadata indexes unsealed, and the
    /// package cache repopulated from the content-addressed blob store
    /// (hash-verified on load). The recovered signed index is
    /// byte-identical to what was served before the crash.
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
        let svc = Self::build(seed, mirrors, model, key_bits, Some(Mutex::new(engine)));
        // Not ready until the replay below finishes: anything polling
        // `/v1/readyz` (a load balancer, the drain runbook) must not
        // route traffic at a half-rebuilt node.
        svc.shared.recovering.store(true, Ordering::SeqCst);
        svc.shared
            .next_id
            .store(state.next_id.max(1), Ordering::Relaxed);
        let enclave = svc.shared.cpu.load_enclave(ENCLAVE_CODE);
        for (id, durable) in &state.repos {
            let policy = Policy::parse(&durable.policy_text)?;
            let mut repo = {
                let mut tpm = lock(&svc.shared.tpm);
                TsrRepository::init(id.clone(), policy, &enclave, &mut tpm, key_bits)
            };
            if !durable.sealed.is_empty() {
                repo.set_sealed_disk(durable.sealed.clone());
                let tpm = {
                    // Replay the monotonic counter to the sealed value: the
                    // fresh TPM counter starts at 0 and the unseal check
                    // requires hardware == sealed.
                    let mut tpm = lock(&svc.shared.tpm);
                    let cid = repo.counter_id();
                    while tpm.read_counter(cid).map_err(seal_err)? < durable.seal_counter {
                        tpm.increment_counter(cid).map_err(seal_err)?;
                    }
                    tpm
                };
                repo.restore(&enclave, &tpm)?;
                drop(tpm);
                // Repopulate the on-disk package cache from the blob
                // store, keyed by the content hashes pinned in the
                // *restored* indexes — so a WAL torn between the refresh
                // and seal records still recovers the exact state the
                // seal describes (older blobs are never deleted).
                let wanted: Vec<(String, String, bool)> = repo
                    .upstream_index()
                    .into_iter()
                    .flat_map(|idx| idx.iter())
                    .map(|e| (e.name.clone(), e.content_hash.clone(), false))
                    .chain(
                        repo.sanitized_index()
                            .into_iter()
                            .flat_map(|idx| idx.iter())
                            .map(|e| (e.name.clone(), e.content_hash.clone(), true)),
                    )
                    .collect();
                let store = svc.shared.store.as_ref().expect("built with a store");
                let mut eng = lock(store);
                for (name, hash, is_sanitized) in wanted {
                    // Policy-excluded upstream entries were never
                    // downloaded, so their blobs are legitimately absent.
                    if !eng.has_blob(&hash) {
                        continue;
                    }
                    let blob = eng.get_blob(&hash).map_err(store_err)?;
                    if is_sanitized {
                        repo.cache_mut().store_sanitized(&name, blob);
                    } else {
                        repo.cache_mut().store_original(&name, blob);
                    }
                }
            }
            svc.shared.hot.publish(id, repo.signed_index_etag());
            svc.repos
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(id.clone(), Arc::new(Mutex::new(repo)));
        }
        if let Some(store) = &svc.shared.store {
            svc.shared.metrics.count_store(&lock(store));
        }
        svc.shared.recovering.store(false, Ordering::SeqCst);
        Ok((svc, report))
    }

    /// Sets the worker count used for the parallel phases of
    /// [`Self::refresh`] (downloads, universe scan, sanitization).
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

    /// Replaces the mirror fleet (tests/benches reconfigure behaviours).
    pub fn set_mirrors(&self, mirrors: Vec<Mirror>) {
        *self
            .shared
            .mirrors
            .write()
            .unwrap_or_else(PoisonError::into_inner) = mirrors;
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
    fn wal_kind(record: &WalRecord) -> &'static str {
        match record {
            WalRecord::RepoCreated { .. } => "repo_created",
            WalRecord::RepoDeleted { .. } => "repo_deleted",
            WalRecord::RefreshApplied { .. } => "refresh_applied",
            WalRecord::SealUpdated { .. } => "seal_updated",
        }
    }

    /// Tags the request-id currently in scope onto a WAL append in the
    /// in-memory journal. The WAL bytes themselves never change — the
    /// attribution lives only here, where the chaos sim and operators
    /// read it.
    fn journal_wal(&self, record: &WalRecord) {
        self.shared.obs_journal.record(
            "wal_append",
            &tsr_obs::current_request_id().unwrap_or_default(),
            Self::wal_kind(record).to_string(),
        );
    }

    /// Appends one record to the write-ahead log (no-op without a
    /// store). Called before the mutation becomes observable to clients.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when the durable append fails — the
    /// mutation must not be published in that case.
    fn store_append(&self, record: &WalRecord) -> Result<(), CoreError> {
        let Some(store) = &self.shared.store else {
            return Ok(());
        };
        let mut eng = lock(store);
        eng.append(record).map_err(store_err)?;
        self.shared.metrics.count_store(&eng);
        drop(eng);
        self.journal_wal(record);
        Ok(())
    }

    /// Makes a completed refresh durable: writes the new original and
    /// sanitized blobs into the content-addressed store (deduplicated by
    /// the hashes already pinned in the indexes — unchanged packages cost
    /// nothing), then logs the refresh and the seal update. Runs under
    /// the repository shard lock, before the new state is observable.
    fn store_refresh(&self, repo: &TsrRepository, seal_counter: u64) -> Result<(), CoreError> {
        let Some(store) = &self.shared.store else {
            return Ok(());
        };
        let upstream = repo.upstream_index();
        let sanitized = repo.sanitized_index();
        let mut eng = lock(store);
        let mut packages = Vec::new();
        if let Some(up) = upstream {
            for entry in up.iter() {
                // Policy-excluded packages were never downloaded.
                let Some((orig, _)) = repo.cache().read_original_shared(&entry.name) else {
                    continue;
                };
                if !eng.has_blob(&entry.content_hash) {
                    eng.put_blob_shared(&orig).map_err(store_err)?;
                }
                let shash = sanitized
                    .and_then(|idx| idx.get(&entry.name))
                    .map(|e| e.content_hash.clone())
                    .unwrap_or_default();
                if !shash.is_empty() && !eng.has_blob(&shash) {
                    if let Some((san, _)) = repo.cache().read_sanitized_shared(&entry.name) {
                        eng.put_blob_shared(&san).map_err(store_err)?;
                    }
                }
                packages.push((entry.name.clone(), entry.content_hash.clone(), shash));
            }
        }
        let refresh = WalRecord::RefreshApplied {
            id: repo.id.clone(),
            upstream_index: upstream.map(|i| i.to_text()).unwrap_or_default(),
            sanitized_index: sanitized.map(|i| i.to_text()).unwrap_or_default(),
            packages,
        };
        eng.append(&refresh).map_err(store_err)?;
        let seal = WalRecord::SealUpdated {
            id: repo.id.clone(),
            sealed: repo.sealed_disk().map(<[u8]>::to_vec).unwrap_or_default(),
            counter: seal_counter,
        };
        eng.append(&seal).map_err(store_err)?;
        self.shared.metrics.count_store(&eng);
        drop(eng);
        self.journal_wal(&refresh);
        self.journal_wal(&seal);
        Ok(())
    }

    /// Looks up one repository shard.
    fn repo(&self, id: &str) -> Result<Arc<Mutex<TsrRepository>>, CoreError> {
        self.repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("repository {id}")))
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
        let enclave = self.shared.cpu.load_enclave(ENCLAVE_CODE);
        let repo = {
            let mut tpm = lock(&self.shared.tpm);
            TsrRepository::init(id.clone(), policy, &enclave, &mut tpm, self.shared.key_bits)
        };
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
        let enclave = self.shared.cpu.load_enclave(ENCLAVE_CODE);
        let mirrors = self
            .shared
            .mirrors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let model = self.model();
        let mut repo = lock(&shard);
        let report = repo.refresh_unsealed(&mirrors, &model, &mut rng, workers)?;
        let mut tpm = lock(&self.shared.tpm);
        repo.persist(&enclave, &mut tpm)?;
        let seal_counter = if self.shared.store.is_some() {
            tpm.read_counter(repo.counter_id()).map_err(seal_err)?
        } else {
            0
        };
        drop(tpm);
        // Lock order `repository → store` (the TPM lock is already
        // released; the two leaf locks are never held together).
        self.store_refresh(&repo, seal_counter)?;
        self.shared.hot.publish(id, repo.signed_index_etag());
        Ok(report)
    }

    /// Simulates an enclave crash followed by a restart on the *same*
    /// hardware: every repository loses its volatile in-enclave state
    /// (indexes, sanitizer, signed index) and recovers it from the
    /// TPM-counter-bound sealed blob on the untrusted disk. The package
    /// cache survives (it lives on disk and is re-verified lazily on every
    /// serve); signing keys are re-derived deterministically inside the
    /// enclave, so the restored signed index is byte-identical.
    ///
    /// Returns `(repository id, restore outcome)` per tenant. A tenant
    /// that was never refreshed has no sealed state and reports
    /// [`CoreError::SealedState`]; others must restore cleanly.
    pub fn crash_restart(&self) -> Vec<(String, Result<(), CoreError>)> {
        let enclave = self.shared.cpu.load_enclave(ENCLAVE_CODE);
        let shards: Vec<(String, Arc<Mutex<TsrRepository>>)> = self
            .repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(id, shard)| (id.clone(), shard.clone()))
            .collect();
        shards
            .into_iter()
            .map(|(id, shard)| {
                let mut repo = lock(&shard);
                repo.crash();
                // Lock order `repository → tpm` (see the struct docs).
                let tpm = lock(&self.shared.tpm);
                let outcome = repo.restore(&enclave, &tpm);
                drop(tpm);
                self.shared.hot.publish(&id, repo.signed_index_etag());
                (id, outcome)
            })
            .collect()
    }

    /// Sets the byte budget of the zero-copy hot-blob cache (default
    /// [`crate::DEFAULT_HOT_BLOB_BUDGET`]). A smaller budget takes effect
    /// at the next blob store; it does not synchronously shrink the cache.
    pub fn set_hot_blob_budget(&self, bytes: usize) {
        self.shared.hot.set_budget(bytes);
    }

    /// Exports the full replicable state of one repository: policy,
    /// index texts, per-package blob references with the blob bytes, the
    /// TPM-bound sealed metadata, and its counter value. This is what a
    /// cluster primary pushes to replicas after a refresh (and what
    /// anti-entropy serves); [`Self::apply_replicated_state`] is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids; [`CoreError::SealedState`]
    /// when the TPM counter cannot be read.
    pub fn export_replicated_state(&self, id: &str) -> Result<ReplicatedState, CoreError> {
        let shard = self.repo(id)?;
        let repo = lock(&shard);
        let upstream = repo.upstream_index();
        let sanitized = repo.sanitized_index();
        let mut packages = Vec::new();
        let mut blobs: Vec<(String, Arc<[u8]>)> = Vec::new();
        let mut have = std::collections::BTreeSet::new();
        if let Some(up) = upstream {
            for entry in up.iter() {
                // Policy-excluded packages were never downloaded.
                let Some((orig, _)) = repo.cache().read_original_shared(&entry.name) else {
                    continue;
                };
                if have.insert(entry.content_hash.clone()) {
                    blobs.push((entry.content_hash.clone(), orig));
                }
                let shash = sanitized
                    .and_then(|idx| idx.get(&entry.name))
                    .map(|e| e.content_hash.clone())
                    .unwrap_or_default();
                if !shash.is_empty() && have.insert(shash.clone()) {
                    if let Some((san, _)) = repo.cache().read_sanitized_shared(&entry.name) {
                        blobs.push((shash.clone(), san));
                    }
                }
                packages.push((entry.name.clone(), entry.content_hash.clone(), shash));
            }
        }
        let sealed = repo.sealed_disk().map(<[u8]>::to_vec).unwrap_or_default();
        let seal_counter = if sealed.is_empty() {
            0
        } else {
            // Lock order `repository → tpm`.
            lock(&self.shared.tpm)
                .read_counter(repo.counter_id())
                .map_err(seal_err)?
        };
        Ok(ReplicatedState {
            id: id.to_string(),
            policy_text: repo.policy().to_text(),
            upstream_index: upstream.map(tsr_apk::Index::to_text).unwrap_or_default(),
            sanitized_index: sanitized.map(tsr_apk::Index::to_text).unwrap_or_default(),
            packages,
            sealed,
            seal_counter,
            index_etag: repo.signed_index_etag().unwrap_or_default().to_string(),
            blobs,
        })
    }

    /// Applies a replicated repository state pushed by a cluster primary
    /// (or pulled by anti-entropy), returning the ETag of the signed
    /// index this node now serves for the repository.
    ///
    /// The state is applied through the same machinery as crash
    /// recovery: blob hashes are verified, the WAL records the refresh
    /// *before* it becomes observable, the sealed blob is installed, the
    /// local TPM monotonic counter is replayed up to the seal value, and
    /// the metadata is unsealed and re-signed with the deterministically
    /// derived repository key — so an identical platform seed yields a
    /// byte-identical signed index, and a forged or tampered seal fails
    /// to decrypt.
    ///
    /// # Errors
    ///
    /// [`CoreError::Policy`] for unparsable policies,
    /// [`CoreError::SealedState`] for blob-hash mismatches or seals that
    /// do not unseal, [`CoreError::RollbackDetected`] when the pushed
    /// seal counter is older than what this node already holds.
    pub fn apply_replicated_state(&self, state: &ReplicatedState) -> Result<String, CoreError> {
        let policy = Policy::parse(&state.policy_text)?;
        for (hash, blob) in &state.blobs {
            let actual = hex::to_hex(&tsr_crypto::Sha256::digest(blob));
            if actual != *hash {
                return Err(CoreError::SealedState(format!(
                    "replicated blob {hash} hash mismatch"
                )));
            }
        }
        let existing = self
            .repos
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&state.id)
            .cloned();
        let enclave = self.shared.cpu.load_enclave(ENCLAVE_CODE);
        let is_new = existing.is_none();
        let shard = match existing {
            Some(shard) => shard,
            None => {
                let repo = {
                    let mut tpm = lock(&self.shared.tpm);
                    TsrRepository::init(
                        state.id.clone(),
                        policy,
                        &enclave,
                        &mut tpm,
                        self.shared.key_bits,
                    )
                };
                Arc::new(Mutex::new(repo))
            }
        };
        let mut repo = lock(&shard);
        {
            // Rollback guard: a replica never moves its counter backwards.
            let tpm = lock(&self.shared.tpm);
            let current = tpm.read_counter(repo.counter_id()).map_err(seal_err)?;
            if state.seal_counter < current {
                return Err(CoreError::RollbackDetected(format!(
                    "replicated seal counter {} behind local {current}",
                    state.seal_counter
                )));
            }
        }
        // Vet the pushed seal before committing anything: it must
        // authenticate under the shared platform sealing key and bind
        // exactly the counter the sender claims. Without this, a forged
        // seal would be WAL-logged and the TPM counter pumped to the
        // forged value before `restore` failed — leaving the node
        // serving poison to its peers and rejecting honest state as
        // stale forever.
        if !state.sealed.is_empty() {
            let bound = crate::cache::SealedState::peek(&state.sealed, &enclave)?;
            if bound != state.seal_counter {
                return Err(CoreError::SealedState(format!(
                    "replicated seal binds counter {bound}, sender claims {}",
                    state.seal_counter
                )));
            }
        }
        // Durable before observable, exactly like a local refresh.
        self.store_replicated(state, is_new)?;
        if !state.sealed.is_empty() {
            repo.set_sealed_disk(state.sealed.clone());
            let tpm = {
                let mut tpm = lock(&self.shared.tpm);
                let cid = repo.counter_id();
                while tpm.read_counter(cid).map_err(seal_err)? < state.seal_counter {
                    tpm.increment_counter(cid).map_err(seal_err)?;
                }
                tpm
            };
            repo.restore(&enclave, &tpm)?;
            drop(tpm);
            let pushed: BTreeMap<&str, &Arc<[u8]>> =
                state.blobs.iter().map(|(h, b)| (h.as_str(), b)).collect();
            for (name, ohash, shash) in &state.packages {
                if let Some(blob) = self.replicated_blob(&pushed, ohash)? {
                    repo.cache_mut().store_original(name, blob);
                }
                if !shash.is_empty() {
                    if let Some(blob) = self.replicated_blob(&pushed, shash)? {
                        repo.cache_mut().store_sanitized(name, blob);
                    }
                }
            }
        }
        let etag = repo.signed_index_etag().unwrap_or_default().to_string();
        if is_new {
            self.repos
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(state.id.clone(), Arc::clone(&shard));
        }
        self.shared.hot.publish(&state.id, repo.signed_index_etag());
        self.shared.metrics.cluster_replicated_applies.inc();
        Ok(etag)
    }

    /// Resolves one content-addressed blob during a replicated apply:
    /// pushed bytes win, the local blob store covers hashes the sender
    /// skipped, and a miss in both is fine (the package re-downloads on
    /// the next refresh).
    fn replicated_blob(
        &self,
        pushed: &BTreeMap<&str, &Arc<[u8]>>,
        hash: &str,
    ) -> Result<Option<Arc<[u8]>>, CoreError> {
        if let Some(blob) = pushed.get(hash) {
            return Ok(Some(Arc::clone(blob)));
        }
        let Some(store) = &self.shared.store else {
            return Ok(None);
        };
        let mut eng = lock(store);
        if !eng.has_blob(hash) {
            return Ok(None);
        }
        eng.get_blob(hash).map(Some).map_err(store_err)
    }

    /// Makes a replicated apply durable: logs creation (for new
    /// repositories), writes the pushed blobs into the content-addressed
    /// store, and logs the refresh + seal — the same records a local
    /// refresh appends.
    fn store_replicated(&self, state: &ReplicatedState, is_new: bool) -> Result<(), CoreError> {
        let Some(store) = &self.shared.store else {
            return Ok(());
        };
        let mut eng = lock(store);
        let mut journaled: Vec<WalRecord> = Vec::new();
        if is_new {
            let created = WalRecord::RepoCreated {
                id: state.id.clone(),
                policy_text: state.policy_text.clone(),
            };
            eng.append(&created).map_err(store_err)?;
            journaled.push(created);
        }
        for (hash, blob) in &state.blobs {
            if !eng.has_blob(hash) {
                eng.put_blob_shared(blob).map_err(store_err)?;
            }
        }
        if !state.sealed.is_empty() {
            let refresh = WalRecord::RefreshApplied {
                id: state.id.clone(),
                upstream_index: state.upstream_index.clone(),
                sanitized_index: state.sanitized_index.clone(),
                packages: state.packages.clone(),
            };
            eng.append(&refresh).map_err(store_err)?;
            journaled.push(refresh);
            let seal = WalRecord::SealUpdated {
                id: state.id.clone(),
                sealed: state.sealed.clone(),
                counter: state.seal_counter,
            };
            eng.append(&seal).map_err(store_err)?;
            journaled.push(seal);
        }
        self.shared.metrics.count_store(&eng);
        drop(eng);
        for record in &journaled {
            self.journal_wal(record);
        }
        Ok(())
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
        repo.serve_package(name).map(|(b, _)| b)
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
    pub fn platform_key_pem(&self) -> String {
        self.shared.cpu.attestation_key().to_pem()
    }

    /// Produces an attestation report carrying `nonce` (SGX remote
    /// attestation, Figure 7 step ➊).
    pub fn attestation_report(&self, nonce: &[u8]) -> (String, String, String) {
        let enclave = self.shared.cpu.load_enclave(ENCLAVE_CODE);
        let report = enclave.report(nonce);
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

    /// Per-repository replication digest: `(id, signed-index ETag, seal
    /// counter)` for every hosted tenant — what a cluster node
    /// advertises during anti-entropy. Cheap relative to
    /// [`Self::export_replicated_state`]: no index texts, no blobs.
    pub fn replication_digest(&self) -> Vec<(String, String, u64)> {
        let mut out = Vec::new();
        for id in self.repository_ids() {
            let Ok(shard) = self.repo(&id) else { continue };
            let repo = lock(&shard);
            let etag = repo.signed_index_etag().unwrap_or_default().to_string();
            // Lock order `repository → tpm`.
            let counter = lock(&self.shared.tpm)
                .read_counter(repo.counter_id())
                .unwrap_or(0);
            out.push((id, etag, counter));
        }
        out
    }

    /// Deletes a repository, dropping its shard (the TPM counter is
    /// retired with it; a new repository under the same policy gets a
    /// fresh id and key).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids.
    pub fn delete_repository(&self, id: &str) -> Result<(), CoreError> {
        let mut repos = self.repos.write().unwrap_or_else(PoisonError::into_inner);
        if !repos.contains_key(id) {
            return Err(CoreError::NotFound(format!("repository {id}")));
        }
        // Durable before observable, under the map's write lock so a
        // racing create/delete cannot interleave between log and map.
        self.store_append(&WalRecord::RepoDeleted { id: id.to_string() })?;
        repos.remove(id);
        drop(repos);
        self.shared.hot.publish(id, None);
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
        let mut repo = lock(&shard);
        let r = f(&mut repo);
        // `f` may have changed the index or the package cache (fault
        // injection); republish before the shard lock is released.
        self.shared.hot.publish(id, repo.signed_index_etag());
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

    fn mirrors() -> Vec<Mirror> {
        let mut index = Index::new();
        index.snapshot = 1;
        let mut packages = Map::new();
        let mut b = PackageBuilder::new("tool", "1.0");
        b.file(Entry::file("usr/bin/tool", b"tool-bytes".to_vec()));
        let blob = b.build(upstream_key(), "builder");
        index.upsert(Index::entry_for_blob("tool", "1.0", &[], &blob));
        packages.insert("tool".to_string(), blob);
        let snap = RepoSnapshot {
            snapshot_id: 1,
            signed_index: index.sign(upstream_key(), "builder"),
            packages,
        };
        let mut ms: Vec<Mirror> = (0..3)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut ms, &snap);
        ms
    }

    pub(crate) fn service() -> TsrService {
        TsrService::new(b"svc-test", mirrors(), LatencyModel::default(), 1024)
    }

    fn sim_backend(fs: &Arc<Mutex<tsr_simfs::SimFs>>) -> Box<dyn StoreBackend> {
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
        assert!(svc.event_counter("wal_appends").get() >= 3);
        drop(svc); // enclave crash: everything volatile is gone

        let (svc2, report2) = TsrService::with_store(
            b"svc-store",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        assert_eq!(report2.replayed_records, 3, "create + refresh + seal");
        assert_eq!(svc2.fetch_index(&id).unwrap(), index, "byte-identical");
        assert_eq!(svc2.fetch_package(&id, "tool").unwrap(), pkg);
        assert_eq!(svc2.event_counter("recovery_replayed_records").get(), 3);

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

        // Crash mid-append: tear the last WAL record (a second delete
        // would start with these bytes; here we just chop the tail).
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
        assert_eq!(report.replayed_records, 2, "seal record torn away whole");
        // The torn seal record leaves the previous consistent state: the
        // repository exists but cannot unseal-restore... unless the
        // refresh's sealed blob was in the torn record, in which case the
        // repo recovers unrefreshed. Either way the service starts and
        // the surviving records are intact.
        assert!(svc2.repository_ids().contains(&id));
        // A fresh refresh converges back to the same served bytes.
        svc2.refresh(&id).unwrap();
        assert_eq!(svc2.fetch_index(&id).unwrap(), index);
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
    fn replicated_state_applies_byte_identically_on_a_peer() {
        let primary = service();
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let index = primary.fetch_index(&id).unwrap();
        let pkg = primary.fetch_package(&id, "tool").unwrap();
        let state = primary.export_replicated_state(&id).unwrap();
        assert!(!state.sealed.is_empty());
        assert!(state.seal_counter > 0);
        assert!(!state.blobs.is_empty());

        // The replica shares the platform seed (one logical fleet
        // identity) and runs over a durable store of its own.
        let fs = Arc::new(Mutex::new(tsr_simfs::SimFs::new()));
        let (replica, _) = TsrService::with_store(
            b"svc-test",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        let etag = replica.apply_replicated_state(&state).unwrap();
        assert_eq!(etag, state.index_etag);
        assert_eq!(replica.fetch_index(&id).unwrap(), index, "byte-identical");
        assert_eq!(replica.fetch_package(&id, "tool").unwrap(), pkg);
        assert_eq!(
            replica.hot().lookup(&id, |e| e.index_etag().to_string()),
            Some(etag.clone())
        );

        // Re-applying the same state is idempotent…
        assert_eq!(replica.apply_replicated_state(&state).unwrap(), etag);
        // …and the replicated state survives a replica crash-restart.
        drop(replica);
        let (recovered, _) = TsrService::with_store(
            b"svc-test",
            mirrors(),
            LatencyModel::default(),
            1024,
            sim_backend(&fs),
        )
        .unwrap();
        assert_eq!(recovered.fetch_index(&id).unwrap(), index);
        assert_eq!(recovered.fetch_package(&id, "tool").unwrap(), pkg);
    }

    #[test]
    fn stale_or_tampered_replicated_state_is_rejected() {
        let primary = service();
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let old = primary.export_replicated_state(&id).unwrap();
        primary.refresh(&id).unwrap();
        let fresh = primary.export_replicated_state(&id).unwrap();
        assert!(fresh.seal_counter > old.seal_counter);

        let replica = service();
        replica.apply_replicated_state(&fresh).unwrap();
        // Replaying the older seal is a rollback.
        assert!(matches!(
            replica.apply_replicated_state(&old),
            Err(CoreError::RollbackDetected(_))
        ));
        // A tampered blob payload never reaches the cache or the store.
        let mut tampered = fresh.clone();
        tampered.blobs[0].1 = Arc::from(b"evil".to_vec().into_boxed_slice());
        let peer = service();
        assert!(matches!(
            peer.apply_replicated_state(&tampered),
            Err(CoreError::SealedState(_))
        ));
    }

    #[test]
    fn forged_replicated_seal_leaves_no_side_effects() {
        let primary = service();
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let honest = primary.export_replicated_state(&id).unwrap();

        let replica = service();
        replica.apply_replicated_state(&honest).unwrap();
        let index = replica.fetch_index(&id).unwrap();
        let counter_before = replica
            .replication_digest()
            .into_iter()
            .find(|(r, _, _)| r == &id)
            .map(|(_, _, c)| c)
            .unwrap();

        // A Byzantine peer forges the sealed bytes AND inflates the
        // counter, hoping the replica pumps its TPM chasing the claim.
        let mut forged = honest.clone();
        for b in &mut forged.sealed {
            *b ^= 0x5a;
        }
        forged.seal_counter += 1_000;
        assert!(matches!(
            replica.apply_replicated_state(&forged),
            Err(CoreError::SealedState(_))
        ));

        // The rejection is side-effect free: same counter (no TPM
        // pump), same served index, and honest state still applies —
        // nothing stale-looking, nothing poisoned on disk.
        let counter_after = replica
            .replication_digest()
            .into_iter()
            .find(|(r, _, _)| r == &id)
            .map(|(_, _, c)| c)
            .unwrap();
        assert_eq!(counter_before, counter_after, "TPM counter was pumped");
        assert_eq!(replica.fetch_index(&id).unwrap(), index);
        let honest_mac_forged_counter = {
            let mut s = honest.clone();
            s.seal_counter += 1;
            s
        };
        // A valid seal whose claimed counter disagrees with the bound
        // one is equally rejected before any commit.
        assert!(matches!(
            replica.apply_replicated_state(&honest_mac_forged_counter),
            Err(CoreError::SealedState(_))
        ));
        primary.refresh(&id).unwrap();
        let next = primary.export_replicated_state(&id).unwrap();
        replica.apply_replicated_state(&next).unwrap();
        assert_eq!(
            replica.fetch_index(&id).unwrap(),
            primary.fetch_index(&id).unwrap()
        );
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
    fn crash_restart_before_refresh_reports_missing_seal() {
        let svc = service();
        let (_, _) = svc.create_repository(&policy_text()).unwrap();
        let results = svc.crash_restart();
        assert_eq!(results.len(), 1);
        assert!(matches!(results[0].1, Err(CoreError::SealedState(_))));
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
        assert!(
            kinds.contains(&"refresh_applied") && kinds.contains(&"seal_updated"),
            "{kinds:?}"
        );
        assert!(
            events
                .iter()
                .filter(|e| e.kind == "wal_append")
                .all(|e| e.request_id == "req-wal-1"),
            "{events:?}"
        );
    }
}
