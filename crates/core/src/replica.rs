//! One path for repository state. A repository's durable, replicable
//! state is one image type ([`ReplicatedState`]) with one way out and one
//! way in, shared by a local refresh, crash recovery, a replicated push
//! and an anti-entropy pull:
//!
//! - `image_of` — the way out: every cached blob the repository
//!   pins (`TsrRepository::pins`, its indexes under its policy);
//! - `commit` — the only place state becomes durable: `RepoCreated`
//!   for a new tenant, blobs into the content-addressed store, then one
//!   `SealUpdated` record — the seal is the only durable copy of the
//!   indexes, so a refresh is one WAL frame, all or nothing;
//! - `gather` — the only place a tenant's cache is filled from outside a
//!   refresh: each pinned blob from the push, else the blob the cache
//!   already holds under that hash, else the store. The cache, the store
//!   and the push are all keyed by content hash, so no name is consulted;
//! - `install` — the only place a seal is installed: sealed blob → TPM
//!   counter replay → unseal → re-sign.
//!
//! A refresh is `commit(image_of(..))`; crash recovery
//! ([`TsrService::with_store`]) and [`TsrService::crash_restart`] are one
//! `restart`: the durable seal read from the store and installed, then
//! the cache gathered from the store alone;
//! [`TsrService::apply_replicated_state`] is vet → `gather` → `commit` →
//! `install`. The seal and the tenant's policy alone say what a tenant
//! holds: a push need not carry the blobs the replica already holds, and
//! one that leaves out a pinned blob the replica lacks is refused.
//! Every service has a store (in memory for [`TsrService::new`]), so
//! none of these paths has a second arm.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

use tsr_apk::Index;
use tsr_crypto::hex;
use tsr_store::WalRecord;
pub use tsr_wire::ReplicatedState;

use crate::cache::{PackageCache, SealedState};
use crate::error::CoreError;
use crate::policy::Policy;
use crate::repository::{pins_of, TsrRepository};
use crate::service::{live, lock, seal_err, store_err, TsrService};

/// The image of `repo` as it stands: policy, index texts, the sealed
/// metadata with `seal_counter` (the TPM counter value it is bound to), and
/// every cached blob it pins.
pub(crate) fn image_of(repo: &TsrRepository, seal_counter: u64) -> ReplicatedState {
    let text = |index: Option<&Index>| index.map(Index::to_text).unwrap_or_default();
    let cached = |hash: String| {
        let blob = Arc::clone(repo.cache().get(&hash)?);
        Some((hash, blob))
    };
    ReplicatedState {
        id: repo.id.clone(),
        policy_text: repo.policy().to_text(),
        upstream_index: text(repo.upstream_index()),
        sanitized_index: text(repo.sanitized_index()),
        sealed: repo.sealed_disk().map(<[u8]>::to_vec).unwrap_or_default(),
        seal_counter,
        index_etag: repo.signed_index_etag().unwrap_or_default().to_string(),
        blobs: repo.pins().into_iter().filter_map(cached).collect(),
    }
}

impl TsrService {
    /// The TPM monotonic-counter value `repo`'s seal is bound to. Lock
    /// order `repository → tpm`.
    fn seal_counter(&self, repo: &TsrRepository) -> Result<u64, CoreError> {
        lock(&self.shared.tpm)
            .read_counter(repo.counter_id())
            .map_err(seal_err)
    }

    /// Makes `image` durable: logs the creation when the repository is
    /// new to this node, writes the blobs the store does not hold yet,
    /// then logs the seal. Runs under the repository shard lock, before
    /// the state is observable; lock order `repository → store`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when a durable write fails — the state
    /// must not be published in that case.
    pub(crate) fn commit(&self, image: &ReplicatedState, is_new: bool) -> Result<(), CoreError> {
        let created = is_new.then(|| WalRecord::RepoCreated {
            id: image.id.clone(),
            policy_text: image.policy_text.clone(),
        });
        let sealed = (!image.sealed.is_empty()).then(|| WalRecord::SealUpdated {
            id: image.id.clone(),
            sealed: image.sealed.clone(),
            counter: image.seal_counter,
        });
        let mut eng = lock(&self.shared.store);
        if let Some(record) = &created {
            eng.append(record).map_err(store_err)?;
        }
        for (hash, blob) in &image.blobs {
            if !eng.has_blob(hash) {
                eng.put_blob(blob).map_err(store_err)?;
            }
        }
        if let Some(record) = &sealed {
            eng.append(record).map_err(store_err)?;
        }
        self.metrics().count_store(&eng);
        drop(eng);
        created
            .iter()
            .chain(&sealed)
            .for_each(|r| self.journal_wal(r));
        Ok(())
    }

    /// Restarts `repo` from its durable seal: the one path shared by crash
    /// recovery ([`TsrService::with_store`], on a freshly initialised
    /// shard) and [`TsrService::crash_restart`]. The seal and its counter
    /// are read from the store; the in-enclave state and the package cache
    /// are dropped, the seal is installed, and only then is every pinned
    /// blob read back hash-checked from the store. A pin the store lacks
    /// is left out: the next refresh downloads it again.
    ///
    /// # Errors
    ///
    /// As [`Self::install`] and [`Self::gather`].
    pub(crate) fn restart(&self, repo: &mut TsrRepository) -> Result<(), CoreError> {
        let (sealed, counter) = lock(&self.shared.store)
            .state()
            .repos
            .get(&repo.id)
            .map(|durable| (durable.sealed.clone(), durable.seal_counter))
            .unwrap_or_default();
        repo.crash();
        *repo.cache_mut() = PackageCache::new();
        self.install(repo, &sealed, counter)?;
        let (cache, _) = self.gather(&repo.pins(), &[], &PackageCache::new())?;
        *repo.cache_mut() = cache;
        Ok(())
    }

    /// Installs a seal into `repo` (the empty seal of a never-refreshed
    /// repository unseals nothing): sets the sealed blob, replays the TPM
    /// monotonic counter up to `counter` (a fresh counter starts at 0 and
    /// the unseal check requires hardware == sealed), unseals and
    /// re-signs. The package cache is the caller's: [`Self::gather`]
    /// fills it for the unsealed indexes' pins.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] / [`CoreError::RollbackDetected`] when
    /// the seal does not unseal at `counter`.
    fn install(
        &self,
        repo: &mut TsrRepository,
        sealed: &[u8],
        counter: u64,
    ) -> Result<(), CoreError> {
        if sealed.is_empty() {
            return Ok(());
        }
        repo.set_sealed_disk(sealed.to_vec());
        // The TPM lock covers the counter replay and the unseal check
        // only; the re-sign runs after it is released.
        let state = {
            let mut tpm = lock(&self.shared.tpm);
            let cid = repo.counter_id();
            while tpm.read_counter(cid).map_err(seal_err)? < counter {
                tpm.increment_counter(cid).map_err(seal_err)?;
            }
            repo.unseal(&self.enclave(), &tpm)?
        };
        repo.restore_unsealed(state)
    }

    /// A package cache holding every blob of `pins`, each from `pushed`,
    /// else from `held` (a tenant's current cache: a kept entry is not
    /// hashed again here, every serve hashes it), else read and verified
    /// from the local blob store, which keeps no copy. Also returns the
    /// pins found in none of the three.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] when a store read fails, or its bytes
    /// do not hash to their name.
    fn gather(
        &self,
        pins: &BTreeSet<String>,
        pushed: &[(String, Arc<[u8]>)],
        held: &PackageCache,
    ) -> Result<(PackageCache, Vec<String>), CoreError> {
        let pushed: BTreeMap<&str, &Arc<[u8]>> =
            pushed.iter().map(|(h, b)| (h.as_str(), b)).collect();
        let mut cache = PackageCache::new();
        let mut lacking = Vec::new();
        for hash in pins {
            let blob = match pushed
                .get(hash.as_str())
                .copied()
                .or_else(|| held.get(hash))
            {
                Some(blob) => Arc::clone(blob),
                // One store-lock hold per blob, so other tenants' commits
                // and seal reads interleave with a long cache rebuild.
                None => {
                    let eng = lock(&self.shared.store);
                    if !eng.has_blob(hash) {
                        lacking.push(hash.clone());
                        continue;
                    }
                    eng.get_blob(hash).map_err(store_err)?
                }
            };
            cache.insert(hash, blob);
        }
        Ok((cache, lacking))
    }

    /// Exports the image of one repository — what a cluster primary
    /// pushes to replicas after a refresh and what anti-entropy serves;
    /// [`Self::apply_replicated_state`] is the inverse.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown ids; [`CoreError::SealedState`]
    /// when the TPM counter cannot be read.
    pub fn export_replicated_state(&self, id: &str) -> Result<ReplicatedState, CoreError> {
        let shard = self.repo(id)?;
        let repo = lock(&shard);
        Ok(image_of(&repo, self.seal_counter(&repo)?))
    }

    /// Applies an image pushed by a cluster primary (or pulled by
    /// anti-entropy), returning the ETag of the signed index this node
    /// now serves for the repository.
    ///
    /// The image is vetted before anything is touched: blob hashes, the
    /// seal, which must authenticate under the shared platform sealing key
    /// and bind exactly the counter the sender claims, and completeness:
    /// every blob the sealed indexes pin under the tenant's policy (the
    /// pushed one for a tenant new to this node) is gathered from the
    /// push, the tenant's cache or the store. A forged or incomplete push
    /// therefore costs no key generation, no TPM counter, no WAL record —
    /// and a forged one cannot pump the counter to a value that would make
    /// the node reject honest state as stale forever. An existing tenant
    /// is gathered under the shard lock, after the rollback guard; then
    /// `commit` and `install` — the steps a local refresh and crash
    /// recovery take, so an identical platform seed yields a
    /// byte-identical signed index.
    ///
    /// # Errors
    ///
    /// [`CoreError::Policy`] for unparsable policies,
    /// [`CoreError::SealedState`] for blob-hash mismatches, seals that do
    /// not unseal or store reads that fail, [`CoreError::NotFound`] naming
    /// the pinned blobs the push leaves out and this node lacks,
    /// [`CoreError::RollbackDetected`] when the pushed seal counter is
    /// older than what this node already holds.
    pub fn apply_replicated_state(&self, state: &ReplicatedState) -> Result<String, CoreError> {
        let policy = Policy::parse(&state.policy_text)?;
        for (hash, blob) in &state.blobs {
            if hex::to_hex(&tsr_crypto::Sha256::digest(blob)) != *hash {
                return Err(CoreError::SealedState(format!(
                    "replicated blob {hash} hash mismatch"
                )));
            }
        }
        let (mut upstream, mut sanitized) = (None, None);
        if !state.sealed.is_empty() {
            let sealed = SealedState::peek(&state.sealed, &self.enclave())?;
            if sealed.counter != state.seal_counter {
                return Err(CoreError::SealedState(format!(
                    "replicated seal binds counter {}, sender claims {}",
                    sealed.counter, state.seal_counter
                )));
            }
            (upstream, sanitized) = sealed.indexes()?;
        }
        let gather = |policy: &Policy, held: &PackageCache| {
            let pins = pins_of(upstream.as_ref(), sanitized.as_ref(), policy);
            let (cache, lacking) = self.gather(&pins, &state.blobs, held)?;
            if !lacking.is_empty() {
                return Err(CoreError::NotFound(format!(
                    "replicated push lacks blobs this node does not hold: {}",
                    lacking.join(" ")
                )));
            }
            Ok(cache)
        };
        let existing = self.repo(&state.id).ok();
        let is_new = existing.is_none();
        let (shard, gathered) = match existing {
            Some(shard) => (shard, None),
            None => {
                // A new tenant has no cache yet: gather before the shard,
                // its key and its TPM counter exist.
                let cache = gather(&policy, &PackageCache::new())?;
                let shard = Arc::new(Mutex::new(self.init_repo(&state.id, policy)));
                (shard, Some(cache))
            }
        };
        let mut repo = live(&shard)?;
        // Rollback guard: a replica never moves its counter backwards.
        let current = self.seal_counter(&repo)?;
        if state.seal_counter < current {
            return Err(CoreError::RollbackDetected(format!(
                "replicated seal counter {} behind local {current}",
                state.seal_counter
            )));
        }
        let cache = match gathered {
            Some(cache) => cache,
            None => gather(repo.policy(), repo.cache())?,
        };
        self.commit(state, is_new)?;
        self.install(&mut repo, &state.sealed, state.seal_counter)?;
        *repo.cache_mut() = cache;
        if is_new {
            self.repos
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(state.id.clone(), Arc::clone(&shard));
        }
        self.hot().publish(&state.id, repo.signed_index());
        self.metrics().cluster_replicated_applies.inc();
        Ok(repo.signed_index_etag().unwrap_or_default().to_string())
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
            out.push((id, etag, self.seal_counter(&repo).unwrap_or(0)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{
        api_request, mirrors, policy_text, service, sim_backend, snapshot,
    };
    use tsr_net::LatencyModel;
    use tsr_simfs::SimFs;
    use tsr_store::RecoveryReport;

    /// A service sharing `service()`'s platform seed, over a store on `fs`.
    fn stored_service(fs: &Arc<Mutex<SimFs>>) -> (TsrService, RecoveryReport) {
        let model = LatencyModel::default();
        TsrService::with_store(b"svc-test", mirrors(), model, 1024, sim_backend(fs)).unwrap()
    }

    /// The WAL on `fs`, decoded.
    fn wal(fs: &Arc<Mutex<SimFs>>) -> Vec<WalRecord> {
        let disk = fs.lock().unwrap();
        let scan = tsr_store::decode_frames(disk.read_file("/store/wal.log").unwrap());
        assert!(!scan.torn);
        let decode = |p: &Vec<u8>| WalRecord::decode(p).unwrap();
        scan.payloads.iter().map(decode).collect()
    }

    /// What a service serves for one repository and what its package
    /// cache holds for it.
    #[derive(Debug, PartialEq)]
    struct Served {
        index: Vec<u8>,
        etag: String,
        /// `(package, served bytes)` for every package of the index.
        packages: Vec<(String, Vec<u8>)>,
        /// `(pinned hash, hash of the cached bytes)` for every pin, and
        /// the cache's entry count.
        cached: Vec<(String, Option<String>)>,
        cache_entries: usize,
    }

    /// The content hash the sanitized index pins for `name`.
    fn pinned(repo: &TsrRepository, name: &str) -> String {
        let entry = repo.sanitized_index().unwrap().get(name).unwrap();
        entry.content_hash.clone()
    }

    /// The cached blob the sanitized index pins for `name`.
    fn cached(repo: &TsrRepository, name: &str) -> Arc<[u8]> {
        Arc::clone(repo.cache().get(&pinned(repo, name)).unwrap())
    }

    fn served(svc: &TsrService, id: &str) -> Served {
        let digest = |b: Option<&Arc<[u8]>>| b.map(|b| hex::to_hex(&tsr_crypto::Sha256::digest(b)));
        svc.with_repository(id, |repo| Served {
            index: repo.serve_index().unwrap(),
            etag: repo.signed_index_etag().unwrap().to_string(),
            packages: repo
                .sanitized_index()
                .unwrap()
                .iter()
                .map(|e| &e.name)
                .map(|n| (n.clone(), repo.serve_package(n).unwrap().to_vec()))
                .collect(),
            cached: repo
                .pins()
                .into_iter()
                .map(|h| {
                    let got = digest(repo.cache().get(&h));
                    (h, got)
                })
                .collect(),
            cache_entries: repo.cache().len(),
        })
        .unwrap()
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
        let (replica, _) = stored_service(&fs);
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
        let (recovered, _) = stored_service(&fs);
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

        // The same forgery for an id the node has never seen is vetted
        // before anything is allocated: no shard, no WAL record, and no
        // TPM counter (key generation runs with the counter's creation).
        let (stranger, _) = stored_service(&Arc::new(Mutex::new(tsr_simfs::SimFs::new())));
        assert!(matches!(
            stranger.apply_replicated_state(&forged),
            Err(CoreError::SealedState(_))
        ));
        assert!(stranger.repository_ids().is_empty());
        assert_eq!(stranger.event_counter("wal_appends").get(), 0);
        let next_counter = lock(&stranger.shared.tpm).create_counter();
        assert_eq!(next_counter, 0, "the rejected push allocated a TPM counter");
    }

    #[test]
    fn recovery_and_replication_install_the_same_state() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, _) = stored_service(&fs);
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        primary.refresh(&id).unwrap();
        let image = primary.export_replicated_state(&id).unwrap();
        let want = served(&primary, &id);
        // One `install`, one outcome: an in-process crash-restart, a
        // crash-recovered service and a fresh replica that applied the
        // export are indistinguishable.
        for (_, outcome) in primary.crash_restart() {
            outcome.unwrap();
        }
        assert_eq!(served(&primary, &id), want);
        drop(primary);

        let (recovered, _) = stored_service(&fs);
        let replica = service();
        replica.apply_replicated_state(&image).unwrap();
        assert_eq!(served(&recovered, &id), want);
        assert_eq!(served(&replica, &id), want);
        assert_eq!(recovered.export_replicated_state(&id).unwrap(), image);
        assert_eq!(replica.export_replicated_state(&id).unwrap(), image);
    }

    #[test]
    fn a_crash_restart_reads_the_blobs_back_from_the_store() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let pkg = svc.fetch_package(&id, "tool").unwrap();
        // No GET through `handle`, so the serve cache holds nothing.
        let tool = |repo: &TsrRepository| cached(repo, "tool");
        let before = Arc::downgrade(&svc.with_repository(&id, tool).unwrap());
        for (_, outcome) in svc.crash_restart() {
            outcome.unwrap();
        }
        assert!(before.upgrade().is_none(), "the pre-crash cache survived");
        assert_eq!(svc.fetch_package(&id, "tool").unwrap(), pkg);
    }

    #[test]
    fn crash_restart_replaces_a_tampered_cache_entry_from_the_store() {
        let svc = service();
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let pkg = svc.fetch_package(&id, "tool").unwrap();
        svc.with_repository_mut(&id, |repo| {
            let hash = pinned(repo, "tool");
            repo.cache_mut().insert(&hash, b"evil".to_vec());
        })
        .unwrap();
        assert!(matches!(
            svc.fetch_package(&id, "tool"),
            Err(CoreError::RollbackDetected(_))
        ));
        for (_, outcome) in svc.crash_restart() {
            outcome.unwrap();
        }
        assert_eq!(svc.fetch_package(&id, "tool").unwrap(), pkg);
    }

    #[test]
    fn a_tampered_store_blob_is_never_served() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (svc, _) = stored_service(&fs);
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let pkg = svc.fetch_package(&id, "tool").unwrap();
        let hash = svc
            .with_repository(&id, |repo| pinned(repo, "tool"))
            .unwrap();
        let flipped = {
            let path = format!("/store/blobs/{}/{hash}", &hash[..2]);
            let mut disk = fs.lock().unwrap();
            let mut blob = disk.read_file(&path).unwrap().to_vec();
            blob[0] ^= 1;
            disk.write_file(&path, blob.clone()).unwrap();
            blob
        };

        // Recovery reads every pinned blob back and refuses the tenant.
        let model = LatencyModel::default();
        let recovered =
            TsrService::with_store(b"svc-test", mirrors(), model, 1024, sim_backend(&fs));
        let err = recovered.unwrap_err();
        assert!(
            matches!(&err, CoreError::SealedState(m) if m.contains("hash mismatch")),
            "{err:?}"
        );
        // So does an in-process restart over the same store.
        let outcomes = svc.crash_restart();
        assert_eq!(outcomes.len(), 1);
        assert!(
            matches!(&outcomes[0], (tenant, Err(CoreError::SealedState(_))) if *tenant == id),
            "{outcomes:?}"
        );
        // No GET ever answers with the flipped bytes, whether the blob is
        // read through the shard or (the second time) the serve cache.
        let get = api_request("GET", &format!("/v1/repositories/{id}/packages/tool"), &[]);
        for _ in 0..2 {
            let resp = svc.handle(&get);
            assert_ne!(resp.body, flipped);
            assert!(resp.status != 200 || resp.body == pkg, "{}", resp.status);
        }
        if let Ok(served) = svc.fetch_package(&id, "tool") {
            assert_eq!(served, pkg);
        }
    }

    #[test]
    fn a_replica_drops_the_packages_that_left_upstream() {
        let primary = service();
        let publish = |pkgs: &[(&str, &str)], id| {
            primary.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &snapshot(id, pkgs)));
        };
        publish(&[("tool", "1.0"), ("extra", "1.0")], 2);
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let replica = service();
        replica
            .apply_replicated_state(&primary.export_replicated_state(&id).unwrap())
            .unwrap();
        assert_eq!(served(&replica, &id).cache_entries, 4);

        publish(&[("tool", "1.0")], 3);
        primary.refresh(&id).unwrap();
        replica
            .apply_replicated_state(&primary.export_replicated_state(&id).unwrap())
            .unwrap();
        assert_eq!(served(&replica, &id), served(&primary, &id));
    }

    #[test]
    fn a_push_carrying_a_tampered_unchanged_original_is_refused() {
        let primary = service();
        let publish = |pkgs: &[(&str, &str)], id| {
            primary.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &snapshot(id, pkgs)));
        };
        publish(&[("tool", "1.0"), ("extra", "1.0")], 2);
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let replica = service();
        replica
            .apply_replicated_state(&primary.export_replicated_state(&id).unwrap())
            .unwrap();
        let before = served(&replica, &id);

        // `tool` stays unchanged upstream, so the next refresh does not
        // read its original and the tampered bytes stay in the cache…
        primary
            .with_repository_mut(&id, |repo| {
                let hash = repo.upstream_index().unwrap().get("tool").unwrap();
                let hash = hash.content_hash.clone();
                repo.cache_mut().insert(&hash, b"evil".to_vec());
            })
            .unwrap();
        publish(&[("tool", "1.0"), ("extra", "1.1")], 3);
        primary.refresh(&id).unwrap();
        // …but a replica refuses the push that carries them.
        assert!(matches!(
            replica.apply_replicated_state(&primary.export_replicated_state(&id).unwrap()),
            Err(CoreError::SealedState(_))
        ));
        assert_eq!(served(&replica, &id), before);

        // A crash-restart replaces the original from the store.
        for (_, outcome) in primary.crash_restart() {
            outcome.unwrap();
        }
        replica
            .apply_replicated_state(&primary.export_replicated_state(&id).unwrap())
            .unwrap();
        assert_eq!(served(&replica, &id), served(&primary, &id));
    }

    /// `image` less every blob `held` carries: what a primary pushes to a
    /// replica that acked `held`.
    fn lean(image: &ReplicatedState, held: &ReplicatedState) -> ReplicatedState {
        let mut lean = image.clone();
        lean.blobs
            .retain(|(h, _)| held.blobs.iter().all(|(k, _)| k != h));
        lean
    }

    /// A primary with `tool` and `extra` refreshed once, a replica that
    /// applied that image over its own store, the image, and the
    /// primary's next image after `extra` moved to 1.1 upstream.
    fn caught_up_replica(
        fs: &Arc<Mutex<SimFs>>,
    ) -> (
        TsrService,
        TsrService,
        String,
        ReplicatedState,
        ReplicatedState,
    ) {
        let primary = service();
        let publish = |pkgs: &[(&str, &str)], id| {
            primary.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &snapshot(id, pkgs)));
        };
        publish(&[("tool", "1.0"), ("extra", "1.0")], 2);
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        let first = primary.export_replicated_state(&id).unwrap();
        let (replica, _) = stored_service(fs);
        replica.apply_replicated_state(&first).unwrap();
        publish(&[("tool", "1.0"), ("extra", "1.1")], 3);
        primary.refresh(&id).unwrap();
        let next = primary.export_replicated_state(&id).unwrap();
        (primary, replica, id, first, next)
    }

    #[test]
    fn a_lean_push_applies_on_a_caught_up_replica() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, replica, id, first, next) = caught_up_replica(&fs);
        let lean = lean(&next, &first);
        // Only `extra` 1.1's original and sanitized blobs are new.
        assert_eq!(lean.blobs.len(), 2, "{:?}", lean.blobs);
        assert_eq!(
            replica.apply_replicated_state(&lean).unwrap(),
            next.index_etag
        );
        let want = served(&primary, &id);
        assert_eq!(served(&replica, &id), want);
        // The cache holds exactly the pins, each under its own bytes.
        assert_eq!(want.cache_entries, want.cached.len());
        assert!(want.cached.iter().all(|(h, got)| got.as_ref() == Some(h)));
    }

    #[test]
    fn a_lean_push_the_replica_cannot_complete_is_refused_without_side_effects() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, replica, id, first, next) = caught_up_replica(&fs);
        let extra = primary
            .with_repository(&id, |repo| pinned(repo, "extra"))
            .unwrap();
        // The new sanitized `extra` is left out too, and the replica holds
        // it neither in its cache nor in its store.
        let mut short = lean(&next, &first);
        short.blobs.retain(|(h, _)| *h != extra);
        assert_eq!(short.blobs.len(), 1);
        let counter = |svc: &TsrService| {
            let digest = svc.replication_digest();
            digest.into_iter().find(|(r, _, _)| *r == id).unwrap().2
        };
        let (wal_before, counter_before) = (wal(&fs), counter(&replica));
        let before = served(&replica, &id);
        let err = replica.apply_replicated_state(&short).unwrap_err();
        assert!(
            matches!(&err, CoreError::NotFound(m) if m.contains(&extra)),
            "{err:?}"
        );
        assert_eq!(wal(&fs), wal_before);
        assert_eq!(counter(&replica), counter_before);
        assert_eq!(served(&replica, &id), before);

        // The full image then applies.
        replica.apply_replicated_state(&next).unwrap();
        assert_eq!(served(&replica, &id), served(&primary, &id));

        // A node that never hosted the tenant is refused before a shard,
        // a WAL record or a TPM counter exists.
        let (stranger, _) = stored_service(&Arc::new(Mutex::new(SimFs::new())));
        assert!(matches!(
            stranger.apply_replicated_state(&lean(&next, &first)),
            Err(CoreError::NotFound(_))
        ));
        assert!(stranger.repository_ids().is_empty());
        assert_eq!(stranger.event_counter("wal_appends").get(), 0);
        assert_eq!(lock(&stranger.shared.tpm).create_counter(), 0);
    }

    #[test]
    fn a_tampered_unchanged_replica_cache_entry_survives_a_lean_push() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, replica, id, first, next) = caught_up_replica(&fs);
        let pkg = primary.fetch_package(&id, "tool").unwrap();
        replica
            .with_repository_mut(&id, |repo| {
                let hash = pinned(repo, "tool");
                repo.cache_mut().insert(&hash, b"evil".to_vec());
            })
            .unwrap();
        // `tool` is unchanged, so the lean push does not carry it and the
        // replica keeps the entry it holds…
        replica
            .apply_replicated_state(&lean(&next, &first))
            .unwrap();
        // …which no serve ever answers with…
        assert!(matches!(
            replica.fetch_package(&id, "tool"),
            Err(CoreError::RollbackDetected(_))
        ));
        // …and a crash-restart replaces from the store.
        for (_, outcome) in replica.crash_restart() {
            outcome.unwrap();
        }
        assert_eq!(replica.fetch_package(&id, "tool").unwrap(), pkg);
        assert_eq!(served(&replica, &id), served(&primary, &id));
    }

    #[test]
    fn a_blacklisted_original_rides_no_push_and_sits_in_no_replica_cache() {
        let primary = service();
        let publish = |version: &str, id| {
            let pkgs = [("tool", "1.0"), ("extra", version), ("banned", version)];
            primary.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &snapshot(id, &pkgs)));
        };
        publish("1.0", 2);
        let mut policy = Policy::parse(&policy_text()).unwrap();
        policy.package_blacklist.push("banned".into());
        let (id, _) = primary.create_repository(&policy.to_text()).unwrap();
        let banned = || {
            let original = |repo: &TsrRepository| {
                let entry = repo.upstream_index().unwrap().get("banned").unwrap();
                entry.content_hash.clone()
            };
            primary.with_repository(&id, original).unwrap()
        };
        primary.refresh(&id).unwrap();
        let first = primary.export_replicated_state(&id).unwrap();
        let (replica, _) = stored_service(&Arc::new(Mutex::new(SimFs::new())));
        replica.apply_replicated_state(&first).unwrap();
        let old = banned();
        publish("1.1", 3);
        primary.refresh(&id).unwrap();
        let next = primary.export_replicated_state(&id).unwrap();
        let lean = lean(&next, &first);
        // `extra` 1.1's original and sanitized blobs, not `banned`'s.
        assert_eq!(lean.blobs.len(), 2, "{:?}", lean.blobs);
        replica.apply_replicated_state(&lean).unwrap();

        let new = banned();
        assert_ne!(old, new);
        for image in [&first, &next] {
            assert!(image.blobs.iter().all(|(h, _)| *h != old && *h != new));
        }
        let want = served(&primary, &id);
        assert_eq!(served(&replica, &id), want);
        assert!(want.cached.iter().all(|(h, _)| *h != old && *h != new));
        // Every pin is cached: the original of each permitted package and
        // each sanitized blob.
        assert_eq!(want.cache_entries, 4);
        assert!(want.cached.iter().all(|(h, got)| got.as_ref() == Some(h)));
    }

    #[test]
    fn a_lean_push_whose_kept_blob_fails_the_store_read_is_refused_before_commit() {
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, replica, id, first, next) = caught_up_replica(&fs);
        // The replica loses its cache entry for the unchanged `tool`, and
        // the store file behind it is flipped.
        let tool = replica
            .with_repository_mut(&id, |repo| {
                let hash = pinned(repo, "tool");
                repo.cache_mut().retain(|h| h != hash);
                hash
            })
            .unwrap();
        {
            let path = format!("/store/blobs/{}/{tool}", &tool[..2]);
            let mut disk = fs.lock().unwrap();
            let mut blob = disk.read_file(&path).unwrap().to_vec();
            blob[0] ^= 1;
            disk.write_file(&path, blob).unwrap();
        }
        let counter = |svc: &TsrService| {
            let digest = svc.replication_digest();
            digest.into_iter().find(|(r, _, _)| *r == id).unwrap().2
        };
        let (wal_before, counter_before) = (wal(&fs), counter(&replica));
        let index = replica.fetch_index(&id).unwrap();
        // `tool` is unchanged, so the lean push leaves it out.
        let err = replica
            .apply_replicated_state(&lean(&next, &first))
            .unwrap_err();
        assert!(
            matches!(&err, CoreError::SealedState(m) if m.contains("hash mismatch")),
            "{err:?}"
        );
        assert_eq!(wal(&fs), wal_before);
        assert_eq!(counter(&replica), counter_before);
        assert_eq!(replica.fetch_index(&id).unwrap(), index);

        // The full image, which carries `tool`, then applies.
        replica.apply_replicated_state(&next).unwrap();
        assert_eq!(served(&replica, &id), served(&primary, &id));
    }

    #[test]
    fn nothing_pins_a_superseded_package_version() {
        let (svc, _) = stored_service(&Arc::new(Mutex::new(SimFs::new())));
        let (id, _) = svc.create_repository(&policy_text()).unwrap();
        svc.refresh(&id).unwrap();
        let tool = |repo: &TsrRepository| cached(repo, "tool");
        let old = Arc::downgrade(&svc.with_repository(&id, tool).unwrap());
        // Served once, the serve cache holds the same allocation.
        let get = tsr_http::Request {
            method: "GET".into(),
            path: format!("/v1/repositories/{id}/packages/tool"),
            headers: Default::default(),
            body: Vec::new(),
        };
        assert_eq!(svc.handle(&get).status, 200);
        assert_eq!(old.strong_count(), 2, "package cache + serve cache");

        svc.with_mirrors(|ms| tsr_mirror::publish_to_all(ms, &snapshot(2, &[("tool", "1.1")])));
        svc.refresh(&id).unwrap();
        let new = svc.with_repository(&id, tool).unwrap();
        assert!(old.upgrade().is_none(), "the 1.0 blob is still resident");
        assert_eq!(svc.fetch_package(&id, "tool").unwrap()[..], new[..]);
    }

    #[test]
    fn commit_writes_the_same_wal_records_for_a_refresh_and_an_apply() {
        let kinds = |fs| wal(fs).iter().map(TsrService::wal_kind).collect::<Vec<_>>();
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let (primary, _) = stored_service(&fs);
        let (id, _) = primary.create_repository(&policy_text()).unwrap();
        primary.refresh(&id).unwrap();
        assert_eq!(kinds(&fs), ["repo_created", "seal_updated"]);
        // The seal record carries the image's seal, field for field.
        let image = primary.export_replicated_state(&id).unwrap();
        assert_eq!(
            wal(&fs)[1],
            WalRecord::SealUpdated {
                id: id.clone(),
                sealed: image.sealed.clone(),
                counter: image.seal_counter,
            }
        );

        // A replica logs the creation once, then one seal per apply.
        let replica_fs = Arc::new(Mutex::new(SimFs::new()));
        let (replica, _) = stored_service(&replica_fs);
        replica.apply_replicated_state(&image).unwrap();
        assert_eq!(wal(&replica_fs), wal(&fs));
        primary.refresh(&id).unwrap();
        let next = primary.export_replicated_state(&id).unwrap();
        replica.apply_replicated_state(&next).unwrap();
        assert_eq!(wal(&replica_fs), wal(&fs));
        assert_eq!(kinds(&fs).len(), 3);
    }
}
