//! A TSR repository instance: one client's logically separated, sanitized
//! view of the upstream repository (paper §5.2–§5.5).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsr_apk::package::read_scripts;
#[cfg(test)]
use tsr_apk::Package;
use tsr_apk::{Index, IndexEntry, InstallScripts};
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{RsaPrivateKey, RsaPublicKey};
use tsr_mirror::Mirror;
use tsr_net::LatencyModel;
use tsr_quorum::{fetch_package_verified, read_index_quorum, QuorumConfig};
use tsr_script::sanitize::creates_accounts;
use tsr_sgx::Enclave;
use tsr_tpm::Tpm;

use crate::cache::{PackageCache, SealedState};
use crate::error::CoreError;
use crate::parallel::parallel_map_ordered;
use crate::policy::Policy;
use crate::sanitizer::{fold_universe, PackageSanitizer, SanitizeRecord};

/// Statistics of one repository refresh.
#[derive(Debug, Clone, Default)]
pub struct RefreshReport {
    /// Simulated time of the quorum index read (Figure 13's quantity).
    pub quorum_elapsed: Duration,
    /// Mirrors contacted during the quorum read.
    pub quorum_contacted: usize,
    /// Packages downloaded from mirrors this refresh.
    pub downloaded: usize,
    /// Simulated download time.
    pub download_elapsed: Duration,
    /// Per-package sanitization records (packages processed this refresh).
    pub sanitized: Vec<SanitizeRecord>,
    /// Wall-clock time spent sanitizing.
    pub sanitize_elapsed: Duration,
    /// Packages rejected as unsupported, with reasons.
    pub rejected: Vec<(String, String)>,
}

/// One client's TSR repository.
#[derive(Debug)]
pub struct TsrRepository {
    /// Unique repository identifier.
    pub id: String,
    policy: Policy,
    signing_key: RsaPrivateKey,
    signer_name: String,
    cache: PackageCache,
    upstream_index: Option<Index>,
    sanitized_index: Option<Index>,
    /// The signed sanitized index with its quoted SHA-256 ETag, made
    /// together once per refresh/restore (so conditional GETs never hash
    /// the blob per request); `None` before the first. The bytes are the
    /// allocation the serve cache publishes.
    signed_index: Option<(String, Arc<[u8]>)>,
    sanitizer: Option<PackageSanitizer>,
    /// The scripts of each original a refresh has read, by content hash:
    /// volatile in-enclave state, filled only from bytes hashed against
    /// the index in the refresh that read them, pruned to [`Self::pins`]
    /// and lost in a [`Self::crash`]. The universe is a fold over it, so
    /// an unchanged original is neither parsed nor hashed again.
    scripts: BTreeMap<String, InstallScripts>,
    counter_id: u32,
    /// Sealed state as last written to the untrusted disk.
    sealed_disk: Option<Vec<u8>>,
    /// Rejected packages (name → reason) from the last refresh.
    rejected: Vec<(String, String)>,
    /// Set by `TsrService::delete_repository` under the shard lock: a
    /// writer still holding the shard must not publish it again.
    pub(crate) deleted: bool,
}

impl TsrRepository {
    /// Initializes a repository for a deployed policy (Figure 7): the
    /// signing key is generated *inside the enclave* from a seed derived
    /// via the enclave's key-derivation facility, and a fresh TPM monotonic
    /// counter protects the sealed state.
    ///
    /// `key_bits` controls the RSA modulus (2048 matches the paper's
    /// 256-byte signatures; tests may use 1024 for speed).
    pub fn init(
        id: impl Into<String>,
        policy: Policy,
        enclave: &Enclave<'_>,
        tpm: &mut Tpm,
        key_bits: usize,
    ) -> Self {
        let counter_id = tpm.create_counter();
        Self::with_counter(id.into(), policy, enclave, counter_id, key_bits)
    }

    /// [`Self::init`] over a TPM counter the caller already created: the
    /// key generation needs the enclave, not the TPM, so it runs with no
    /// TPM lock held.
    pub(crate) fn with_counter(
        id: String,
        policy: Policy,
        enclave: &Enclave<'_>,
        counter_id: u32,
        key_bits: usize,
    ) -> Self {
        let seed = enclave.derive_seed(format!("tsr-repo-key:{id}").as_bytes());
        let mut rng = HmacDrbg::new(&seed);
        let signing_key = RsaPrivateKey::generate(key_bits, &mut rng);
        let signer_name = format!("tsr-{id}");
        TsrRepository {
            id,
            policy,
            signing_key,
            signer_name,
            cache: PackageCache::new(),
            upstream_index: None,
            sanitized_index: None,
            signed_index: None,
            sanitizer: None,
            scripts: BTreeMap::new(),
            counter_id,
            sealed_disk: None,
            rejected: Vec::new(),
            deleted: false,
        }
    }

    /// The public portion of the repository signing key (returned to the
    /// client after policy deployment, step ➍ of Figure 7).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.signing_key.public_key()
    }

    /// The signer name under which sanitized artifacts are signed.
    pub fn signer_name(&self) -> &str {
        &self.signer_name
    }

    /// The deployed policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The quorum configuration implied by the policy.
    pub fn quorum_config(&self) -> QuorumConfig {
        QuorumConfig {
            f: self.policy.f,
            ..QuorumConfig::default()
        }
    }

    /// Packages rejected during the last refresh.
    pub fn rejected(&self) -> &[(String, String)] {
        &self.rejected
    }

    /// The package cache (the paper bins read originals from it).
    pub fn cache(&self) -> &PackageCache {
        &self.cache
    }

    /// Mutable cache access (failure-injection tests).
    pub fn cache_mut(&mut self) -> &mut PackageCache {
        &mut self.cache
    }

    /// The current sanitizer, if a refresh has happened.
    pub fn sanitizer(&self) -> Option<&PackageSanitizer> {
        self.sanitizer.as_ref()
    }

    /// Refreshes the repository from the mirror fleet: quorum-reads the
    /// upstream index, downloads new/changed packages, sanitizes them, and
    /// regenerates the signed sanitized index (§5.4). The download and
    /// sanitization phases fan out over `workers` threads; the universe
    /// fold between them runs serially over the memoised scripts, parsing
    /// only the control segments of originals it has not seen.
    ///
    /// The signed index, cache contents, and [`RefreshReport`] are
    /// byte-identical for every worker count: work items are planned
    /// sequentially (including per-package RNG derivation), executed on a
    /// work-stealing pool, and their results applied back in input order.
    ///
    /// Sealing is a separate step, [`Self::persist`], so that a caller
    /// sharing one TPM among tenants ([`TsrService`](crate::TsrService))
    /// takes its lock only for that step.
    ///
    /// # Errors
    ///
    /// Quorum failures, rollback detection (upstream snapshot went
    /// backwards), or package decode failures.
    pub fn refresh_unsealed(
        &mut self,
        mirrors: &[Mirror],
        model: &LatencyModel,
        rng: &mut HmacDrbg,
        workers: usize,
    ) -> Result<RefreshReport, CoreError> {
        let mut report = RefreshReport::default();
        let qcfg = self.quorum_config();
        let signers = self.policy.signer_keys_named();

        // 1. Quorum read of the upstream metadata index.
        let outcome = read_index_quorum(mirrors, &qcfg, model, &signers, rng)?;
        report.quorum_elapsed = outcome.elapsed;
        report.quorum_contacted = outcome.contacted;
        let new_index = outcome.index;

        // 2. Anti-rollback: snapshots must not go backwards.
        if let Some(prev) = &self.upstream_index {
            if new_index.snapshot < prev.snapshot {
                return Err(CoreError::RollbackDetected(format!(
                    "upstream snapshot {} < previously seen {}",
                    new_index.snapshot, prev.snapshot
                )));
            }
        }

        // 3. Decide which originals this refresh reads (`Self::reads`):
        //    each is hashed against the index, and downloaded when it is
        //    missing or the hash fails. An original that is memoised,
        //    creates no accounts and can be kept is not touched at all.
        //    Packages the policy's whitelist/blacklist excludes are skipped
        //    (§4.5 extension). Each download gets its own DRBG derived
        //    *sequentially* from the caller's, so mirror selection jitter
        //    is independent of how the downloads are later scheduled
        //    across workers.
        let mut read: Vec<&IndexEntry> = Vec::new();
        let mut downloads: Vec<(&IndexEntry, HmacDrbg)> = Vec::new();
        for e in new_index.iter() {
            if !self.policy.permits_package(&e.name) {
                continue;
            }
            let reads = self.reads(e);
            let fetch = match self.cache.get(&e.content_hash) {
                None => true,
                Some(_) => reads && self.cache.verified(&e.content_hash).is_err(),
            };
            if fetch {
                let mut seed = rng.bytes(32);
                seed.extend_from_slice(e.name.as_bytes());
                downloads.push((e, HmacDrbg::new(&seed)));
            } else if reads {
                read.push(e);
            }
        }
        let fetched = parallel_map_ordered(&downloads, workers, |_, (entry, drbg)| {
            let mut drbg = drbg.clone();
            fetch_package_verified(mirrors, &entry.name, &new_index, &qcfg, model, &mut drbg)
        });
        for ((entry, _), result) in downloads.iter().zip(fetched) {
            let (blob, elapsed) = result?;
            report.download_elapsed += elapsed;
            report.downloaded += 1;
            self.cache.insert(&entry.content_hash, blob);
            read.push(entry);
        }
        // Every original in `read` was hashed above or at its download, so
        // only verified bytes enter the memo.
        for entry in read {
            if !self.scripts.contains_key(&entry.content_hash) {
                let scripts = self.cache.get(&entry.content_hash);
                let scripts = scripts.and_then(|blob| read_scripts(blob).ok());
                self.scripts
                    .insert(entry.content_hash.clone(), scripts.unwrap_or_default());
            }
        }

        // 4. Rebuild the user/group universe over the whole repository,
        //    folded over the memoised scripts in index order to keep id
        //    assignment stable. The same fold tells which packages create
        //    accounts.
        let memoised: Vec<(&str, &InstallScripts)> = new_index
            .iter()
            .filter_map(|e| Some((e.name.as_str(), self.scripts.get(&e.content_hash)?)))
            .collect();
        let (universe, touches) = fold_universe(memoised.iter().map(|(_, s)| *s));
        let touches_accounts: BTreeSet<&str> = memoised
            .iter()
            .zip(touches)
            .filter_map(|(&(name, _), touches)| touches.then_some(name))
            .collect();
        drop(memoised);
        let sanitizer = match &self.sanitizer {
            Some(prev) => prev.successor(universe, &self.policy),
            None => PackageSanitizer::new(
                self.signing_key.clone(),
                self.signer_name.clone(),
                universe,
                &self.policy,
            ),
        };
        let universe_changed = self
            .sanitizer
            .as_ref()
            .map(PackageSanitizer::universe_fingerprint)
            != Some(sanitizer.universe_fingerprint());

        // 5. Sanitize new/changed packages; re-sanitize account-touching
        //    packages when the universe changed (their preambles and config
        //    signatures are stale otherwise). The plan (which packages to
        //    keep vs. re-sanitize) is decided sequentially; the expensive
        //    sanitize calls run on the pool; results are applied in index
        //    order so the signed index is identical for any worker count.
        let t = Instant::now();
        let mut sanitized_index = Index::new();
        sanitized_index.snapshot = new_index.snapshot;
        self.rejected.clear();
        let mut meta: Vec<(String, String, Vec<String>)> = Vec::new();
        let mut work: Vec<&[u8]> = Vec::new();
        for entry in new_index.iter() {
            if !self.policy.permits_package(&entry.name) {
                continue;
            }
            let needs_account_refresh =
                universe_changed && touches_accounts.contains(entry.name.as_str());
            let kept = if needs_account_refresh {
                None
            } else {
                self.keepable(entry)
            };
            if let Some(prev) = kept {
                sanitized_index.upsert(IndexEntry {
                    version: entry.version.clone(),
                    depends: entry.depends.clone(),
                    ..prev.clone()
                });
                continue;
            }
            let Some(original) = self.cache.get(&entry.content_hash) else {
                continue;
            };
            meta.push((
                entry.name.clone(),
                entry.version.clone(),
                entry.depends.clone(),
            ));
            work.push(original);
        }
        let results =
            parallel_map_ordered(&work, workers, |_, blob| sanitizer.sanitize(blob, &signers));
        drop(work);
        for ((name, version, depends), result) in meta.into_iter().zip(results) {
            match result {
                Ok((blob, record)) => {
                    let entry = Index::entry_for_blob(&name, &version, &depends, &blob);
                    self.cache.insert(&entry.content_hash, blob);
                    sanitized_index.upsert(entry);
                    report.sanitized.push(record);
                }
                Err(CoreError::Unsupported(e)) => self.rejected.push((name, e.to_string())),
                Err(e) => return Err(e),
            }
        }
        report.sanitize_elapsed = t.elapsed();
        report.rejected = self.rejected.clone();

        // 6. Sign the sanitized index with the TSR key.
        self.signed_index = Some(self.sign(&sanitized_index));
        self.upstream_index = Some(new_index);
        self.sanitized_index = Some(sanitized_index);
        self.sanitizer = Some(sanitizer);
        // 7. Only now, with the new indexes in place, drop what they no
        //    longer pin: a refresh that failed above left the old indexes
        //    serving, and every blob they pin with them.
        let keep = self.pins();
        self.cache.retain(|hash| keep.contains(hash));
        self.scripts.retain(|hash, _| keep.contains(hash));
        Ok(report)
    }

    /// The previous sanitized entry of `entry`'s package, when a refresh
    /// can keep it: the upstream hash is the one the previous upstream
    /// index pinned, the package was sanitized then (not new, not
    /// rejected), and its sanitized blob is cached. The cache (untrusted
    /// disk) is asked only whether that blob is there; a blob that is not
    /// the pinned one is caught when served.
    fn keepable(&self, entry: &IndexEntry) -> Option<&IndexEntry> {
        let unchanged = self
            .upstream_index
            .as_ref()
            .and_then(|idx| idx.get(&entry.name))
            .is_some_and(|e| e.content_hash == entry.content_hash);
        let prev = self.sanitized_index.as_ref()?.get(&entry.name)?;
        (unchanged && self.cache.get(&prev.content_hash).is_some()).then_some(prev)
    }

    /// Whether a refresh reads `entry`'s original, hashing it against the
    /// index first: its scripts are not memoised yet, or they create
    /// accounts (a universe change re-sanitizes it), or its package cannot
    /// be kept. Everything a refresh parses or sanitizes is in this set.
    fn reads(&self, entry: &IndexEntry) -> bool {
        let creates = |scripts: &InstallScripts| scripts.iter().any(|(_, b)| creates_accounts(b));
        self.scripts.get(&entry.content_hash).is_none_or(creates) || self.keepable(entry).is_none()
    }

    /// The content hashes this repository holds: [`pins_of`] its indexes
    /// under its policy. The package cache's one retention rule, so
    /// exactly what it holds after a refresh or an install.
    pub(crate) fn pins(&self) -> BTreeSet<String> {
        let (upstream, sanitized) = (&self.upstream_index, &self.sanitized_index);
        pins_of(upstream.as_ref(), sanitized.as_ref(), &self.policy)
    }

    /// Serves the signed sanitized metadata index.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] before the first refresh.
    pub fn serve_index(&self) -> Result<Vec<u8>, CoreError> {
        match self.signed_index() {
            Some((_, index)) => Ok(index.to_vec()),
            None => Err(CoreError::NotFound("repository not yet refreshed".into())),
        }
    }

    /// The quoted strong ETag of the signed index (`None` before the
    /// first refresh). Computed once per refresh, not per request.
    pub fn signed_index_etag(&self) -> Option<&str> {
        self.signed_index().map(|(etag, _)| etag)
    }

    /// The signed index's `(ETag, bytes)`, as the serve cache publishes
    /// them (`None` before the first refresh).
    pub(crate) fn signed_index(&self) -> Option<(&str, &Arc<[u8]>)> {
        self.signed_index
            .as_ref()
            .map(|(etag, index)| (&**etag, index))
    }

    /// Signs `index` with the TSR key: the quoted strong ETag
    /// (SHA-256) of the signed bytes, and the bytes.
    fn sign(&self, index: &Index) -> (String, Arc<[u8]>) {
        let signed = index.sign(&self.signing_key, &self.signer_name);
        let digest = tsr_crypto::Sha256::digest(&signed);
        (
            format!("\"{}\"", tsr_crypto::hex::to_hex(&digest)),
            signed.into(),
        )
    }

    /// Serves a sanitized package from the cache, verifying it against the
    /// in-enclave index first (rollback protection). Returns the cache's
    /// shared allocation: no copy between the verified read and the
    /// reactor's vectored writer.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] for unknown packages,
    /// [`CoreError::RollbackDetected`] when the cached bytes were tampered.
    pub fn serve_package(&self, name: &str) -> Result<Arc<[u8]>, CoreError> {
        let idx = self
            .sanitized_index
            .as_ref()
            .ok_or_else(|| CoreError::NotFound("repository not yet refreshed".into()))?;
        let entry = idx
            .get(name)
            .ok_or_else(|| CoreError::NotFound(format!("package {name}")))?;
        self.cache.verified(&entry.content_hash).cloned()
    }

    /// The sanitized index (after a refresh).
    pub fn sanitized_index(&self) -> Option<&Index> {
        self.sanitized_index.as_ref()
    }

    /// The last seen upstream index.
    pub fn upstream_index(&self) -> Option<&Index> {
        self.upstream_index.as_ref()
    }

    /// Seals the metadata indexes to the untrusted disk, bumping the
    /// monotonic counter (§5.5).
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] on counter failures.
    pub fn persist(&mut self, enclave: &Enclave<'_>, tpm: &mut Tpm) -> Result<(), CoreError> {
        let state = SealedState {
            upstream_index: self
                .upstream_index
                .as_ref()
                .map(|i| i.to_text())
                .unwrap_or_default(),
            sanitized_index: self
                .sanitized_index
                .as_ref()
                .map(|i| i.to_text())
                .unwrap_or_default(),
            counter: 0,
        };
        self.sealed_disk = Some(state.seal(enclave, tpm, self.counter_id)?);
        Ok(())
    }

    /// The sealed blob as stored on the untrusted disk.
    pub fn sealed_disk(&self) -> Option<&[u8]> {
        self.sealed_disk.as_deref()
    }

    /// The TPM monotonic-counter id protecting this repository's sealed
    /// state. Recovery replays the counter up to the durably recorded
    /// seal value before unsealing.
    pub fn counter_id(&self) -> u32 {
        self.counter_id
    }

    /// **Failure injection:** replace the sealed disk blob (adversary).
    pub fn set_sealed_disk(&mut self, blob: Vec<u8>) {
        self.sealed_disk = Some(blob);
    }

    /// **Failure injection:** simulates an enclave crash. All volatile
    /// in-enclave state is lost; what survives is exactly what lives on
    /// the untrusted disk (the package cache and the sealed blob) plus the
    /// deterministically re-derivable signing key. Follow with
    /// [`Self::restore`] to model the restart.
    pub fn crash(&mut self) {
        self.upstream_index = None;
        self.sanitized_index = None;
        self.signed_index = None;
        self.sanitizer = None;
        self.scripts.clear();
        self.rejected.clear();
    }

    /// Restores the metadata indexes after a restart, verifying the
    /// monotonic counter. The package cache is re-validated lazily: a
    /// sanitized blob on every [`Self::serve_package`], an original when
    /// the next refresh reads it.
    ///
    /// The sanitizer and the script memo are not sealed, so the first
    /// refresh after a restore reads (and hashes) every original once, and
    /// re-sanitizes the kept packages whose scripts create accounts; every
    /// other kept package stays as the seal pins it.
    ///
    /// # Errors
    ///
    /// [`CoreError::SealedState`] / [`CoreError::RollbackDetected`].
    pub fn restore(&mut self, enclave: &Enclave<'_>, tpm: &Tpm) -> Result<(), CoreError> {
        let state = self.unseal(enclave, tpm)?;
        self.restore_unsealed(state)
    }

    /// The half of [`Self::restore`] that needs the TPM: unseals the
    /// sealed disk and checks it against the hardware counter.
    pub(crate) fn unseal(
        &self,
        enclave: &Enclave<'_>,
        tpm: &Tpm,
    ) -> Result<SealedState, CoreError> {
        let blob = self
            .sealed_disk
            .as_ref()
            .ok_or_else(|| CoreError::SealedState("no sealed state on disk".into()))?;
        SealedState::unseal(blob, enclave, tpm, self.counter_id)
    }

    /// The half of [`Self::restore`] that does not: parses the unsealed
    /// indexes and re-signs the sanitized one.
    pub(crate) fn restore_unsealed(&mut self, state: SealedState) -> Result<(), CoreError> {
        let (upstream, sanitized) = state.indexes()?;
        self.upstream_index = upstream;
        self.signed_index = sanitized.as_ref().map(|idx| self.sign(idx));
        self.sanitized_index = sanitized;
        Ok(())
    }
}

/// The content hashes a tenant with these indexes holds under `policy`:
/// every sanitized blob, and the original of every upstream package the
/// policy permits — a refresh downloads each of those it lacks.
pub(crate) fn pins_of(
    upstream: Option<&Index>,
    sanitized: Option<&Index>,
    policy: &Policy,
) -> BTreeSet<String> {
    let originals = upstream.into_iter().flat_map(Index::iter);
    let originals = originals.filter(|e| policy.permits_package(&e.name));
    let sanitized = sanitized.into_iter().flat_map(Index::iter);
    originals
        .chain(sanitized)
        .map(|e| e.content_hash.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{InitConfigFile, MirrorRef};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;
    use tsr_apk::PackageBuilder;
    use tsr_archive::Entry;
    use tsr_mirror::{publish_to_all, Behavior, RepoSnapshot};
    use tsr_net::Continent;
    use tsr_sgx::Cpu;

    fn upstream_key() -> &'static RsaPrivateKey {
        static K: OnceLock<RsaPrivateKey> = OnceLock::new();
        K.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"repo-upstream");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    fn policy() -> Policy {
        Policy {
            mirrors: (0..3)
                .map(|i| MirrorRef {
                    hostname: format!("m{i}"),
                    continent: Continent::Europe,
                })
                .collect(),
            signers_keys: vec![upstream_key().public_key().clone()],
            init_config_files: vec![InitConfigFile {
                path: "/etc/passwd".into(),
                content: "root:x:0:0:root:/root:/bin/ash".into(),
            }],
            f: 1,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        }
    }

    fn build_pkg(name: &str, version: &str, script: Option<&str>) -> Vec<u8> {
        let mut b = PackageBuilder::new(name, version);
        b.file(Entry::file(
            format!("usr/bin/{name}"),
            name.as_bytes().to_vec(),
        ));
        if let Some(s) = script {
            b.post_install(s);
        }
        b.build(upstream_key(), "builder")
    }

    fn snapshot(id: u64, pkgs: &[(&str, &str, Option<&str>)]) -> RepoSnapshot {
        let mut index = Index::new();
        index.snapshot = id;
        let mut packages = BTreeMap::new();
        for (name, version, script) in pkgs {
            let blob = build_pkg(name, version, *script);
            index.upsert(Index::entry_for_blob(name, version, &[], &blob));
            packages.insert(name.to_string(), blob);
        }
        RepoSnapshot {
            snapshot_id: id,
            signed_index: index.sign(upstream_key(), "builder"),
            packages,
        }
    }

    /// Snapshot 2 of [`World`]: adds a package creating a NEW user, so the
    /// universe changes.
    fn snapshot_adding_dbsrv() -> RepoSnapshot {
        snapshot(
            2,
            &[
                ("plain", "1.0", None),
                (
                    "websrv",
                    "2.0",
                    Some("adduser -S -D -H www\nmkdir -p /var/www"),
                ),
                ("badpkg", "0.1", Some("echo x >> /etc/evil.conf")),
                ("dbsrv", "1.0", Some("adduser -S -D -H db")),
            ],
        )
    }

    struct World {
        cpu: Cpu,
        tpm: Tpm,
        mirrors: Vec<Mirror>,
        model: LatencyModel,
        rng: HmacDrbg,
    }

    impl World {
        fn new() -> Self {
            let mut mirrors: Vec<Mirror> = (0..3)
                .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
                .collect();
            publish_to_all(
                &mut mirrors,
                &snapshot(
                    1,
                    &[
                        ("plain", "1.0", None),
                        (
                            "websrv",
                            "2.0",
                            Some("adduser -S -D -H www\nmkdir -p /var/www"),
                        ),
                        ("badpkg", "0.1", Some("echo x >> /etc/evil.conf")),
                    ],
                ),
            );
            World {
                cpu: Cpu::new(b"cpu"),
                tpm: Tpm::new(b"tpm"),
                mirrors,
                model: LatencyModel::default(),
                rng: HmacDrbg::new(b"world"),
            }
        }

        fn repo(&mut self) -> TsrRepository {
            let enclave = self.cpu.load_enclave(b"tsr-enclave");
            TsrRepository::init("client-1", policy(), &enclave, &mut self.tpm, 1024)
        }

        fn refresh(&mut self, repo: &mut TsrRepository) -> Result<RefreshReport, CoreError> {
            let report = repo.refresh_unsealed(&self.mirrors, &self.model, &mut self.rng, 1)?;
            repo.persist(&self.cpu.load_enclave(b"tsr-enclave"), &mut self.tpm)?;
            Ok(report)
        }
    }

    #[test]
    fn end_to_end_refresh_and_serve() {
        let mut w = World::new();
        let mut repo = w.repo();
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.downloaded, 3);
        assert_eq!(report.sanitized.len(), 2, "badpkg rejected");
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "badpkg");

        // The served index is signed by the TSR key and lists 2 packages.
        let signed = repo.serve_index().unwrap();
        let keys = vec![(repo.signer_name().to_string(), repo.public_key().clone())];
        let idx = Index::parse_signed(&signed, &keys).unwrap();
        assert_eq!(idx.len(), 2);
        assert!(idx.get("badpkg").is_none());

        // Serving a package verifies against the index and the TSR key.
        let blob = repo.serve_package("websrv").unwrap();
        let pkg = Package::parse(&blob).unwrap();
        pkg.verify(repo.public_key()).unwrap();
        assert!(pkg
            .scripts
            .post_install
            .unwrap()
            .contains("canonical user/group creation"));
    }

    #[test]
    fn second_refresh_only_sanitizes_changes() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        // Publish snapshot 2 with one updated package (no account change).
        publish_to_all(
            &mut w.mirrors,
            &snapshot(
                2,
                &[
                    ("plain", "1.1", None), // updated
                    (
                        "websrv",
                        "2.0",
                        Some("adduser -S -D -H www\nmkdir -p /var/www"),
                    ),
                    ("badpkg", "0.1", Some("echo x >> /etc/evil.conf")),
                ],
            ),
        );
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.downloaded, 1, "only the changed package");
        assert_eq!(report.sanitized.len(), 1);
        assert_eq!(report.sanitized[0].name, "plain");
    }

    #[test]
    fn universe_change_resanitizes_account_packages() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        publish_to_all(&mut w.mirrors, &snapshot_adding_dbsrv());
        let report = w.refresh(&mut repo).unwrap();
        let names: Vec<&str> = report.sanitized.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"dbsrv"));
        assert!(
            names.contains(&"websrv"),
            "websrv preamble must now include db: {names:?}"
        );
        assert!(!names.contains(&"plain"), "plain untouched");
        // And the new preamble indeed lists both users.
        let blob = repo.serve_package("websrv").unwrap();
        let pkg = Package::parse(&blob).unwrap();
        let body = pkg.scripts.post_install.unwrap();
        assert!(body.contains(" db\n"));
        assert!(body.contains(" www\n"));
    }

    #[test]
    fn universe_change_after_restart_resanitizes_account_packages() {
        let snapshot2 = || {
            snapshot(
                2,
                &[
                    ("plain", "1.0", None),
                    (
                        "websrv",
                        "2.0",
                        Some("adduser -S -D -H www\nmkdir -p /var/www"),
                    ),
                    ("badpkg", "0.1", Some("echo x >> /etc/evil.conf")),
                    ("dbsrv", "1.0", Some("adduser -S -D -H db")),
                ],
            )
        };
        let served = |restart: bool| {
            let mut w = World::new();
            let mut repo = w.repo();
            w.refresh(&mut repo).unwrap();
            if restart {
                repo.crash();
                let enclave = w.cpu.load_enclave(b"tsr-enclave");
                repo.restore(&enclave, &w.tpm).unwrap();
            }
            publish_to_all(&mut w.mirrors, &snapshot2());
            w.refresh(&mut repo).unwrap();
            (
                repo.serve_index().unwrap(),
                repo.serve_package("websrv").unwrap(),
            )
        };
        assert_eq!(served(true), served(false), "restart changed the bytes");
    }

    #[test]
    fn the_first_refresh_after_a_restart_resanitizes_only_account_packages() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        repo.crash();
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        repo.restore(&enclave, &w.tpm).unwrap();
        publish_to_all(&mut w.mirrors, &snapshot_adding_dbsrv());
        let report = w.refresh(&mut repo).unwrap();
        let names: Vec<&str> = report.sanitized.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"websrv"), "{names:?}");
        assert!(names.contains(&"dbsrv"), "{names:?}");
        assert!(!names.contains(&"plain"), "plain is kept: {names:?}");
    }

    #[test]
    fn upstream_rollback_detected() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        publish_to_all(&mut w.mirrors, &snapshot(2, &[("plain", "1.1", None)]));
        w.refresh(&mut repo).unwrap();
        // All mirrors now replay snapshot 1 (e.g. colluding majority).
        for m in &mut w.mirrors {
            m.set_behavior(Behavior::Stale { snapshot: 0 });
        }
        assert!(matches!(
            w.refresh(&mut repo),
            Err(CoreError::RollbackDetected(_))
        ));
    }

    /// The content hash the sanitized index pins for `name`.
    fn pinned(repo: &TsrRepository, name: &str) -> String {
        let entry = repo.sanitized_index().unwrap().get(name).unwrap();
        entry.content_hash.clone()
    }

    #[test]
    fn cache_tamper_detected_on_serve() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let hash = pinned(&repo, "plain");
        repo.cache_mut().insert(&hash, vec![0u8; 10]);
        assert!(matches!(
            repo.serve_package("plain"),
            Err(CoreError::RollbackDetected(_))
        ));
    }

    #[test]
    fn a_tampered_cache_entry_is_never_signed_into_the_next_index() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let pinned = repo
            .sanitized_index()
            .unwrap()
            .get("plain")
            .unwrap()
            .clone();
        repo.cache_mut().insert(&pinned.content_hash, vec![0u8; 10]);
        // The refresh keeps `plain` (nothing changed upstream): the entry
        // it signs is the one the previous index pinned, whatever the
        // untrusted cache holds now.
        let report = w.refresh(&mut repo).unwrap();
        assert!(report.sanitized.is_empty());
        assert_eq!(repo.sanitized_index().unwrap().get("plain"), Some(&pinned));
        assert!(matches!(
            repo.serve_package("plain"),
            Err(CoreError::RollbackDetected(_))
        ));
    }

    /// The content hash the upstream index pins for `name`'s original.
    fn original(repo: &TsrRepository, name: &str) -> String {
        let entry = repo.upstream_index().unwrap().get(name).unwrap();
        entry.content_hash.clone()
    }

    #[test]
    fn an_unchanged_original_is_not_read_again() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let pinned = repo
            .sanitized_index()
            .unwrap()
            .get("plain")
            .unwrap()
            .clone();
        let served = repo.serve_package("plain").unwrap();
        let junk = b"junk".to_vec();
        let hash = original(&repo, "plain");
        repo.cache_mut().insert(&hash, junk.clone());
        // Only `websrv` changes upstream, and the universe stays the same.
        let www = Some("adduser -S -D -H www\nmkdir -p /var/www");
        let bump = |id, websrv| {
            snapshot(
                id,
                &[
                    ("plain", "1.0", None),
                    ("websrv", websrv, www),
                    ("badpkg", "0.1", Some("echo x >> /etc/evil.conf")),
                ],
            )
        };
        publish_to_all(&mut w.mirrors, &bump(2, "2.1"));
        let report = w.refresh(&mut repo).unwrap();
        // `plain`'s original is memoised, creates no accounts and is kept:
        // neither hashed nor downloaded, and never sanitized from junk.
        assert_eq!(report.downloaded, 1, "only the changed package");
        let names: Vec<&str> = report.sanitized.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["websrv"]);
        assert_eq!(repo.sanitized_index().unwrap().get("plain"), Some(&pinned));
        assert_eq!(repo.serve_package("plain").unwrap(), served);
        assert_eq!(
            repo.cache().get(&original(&repo, "plain")).unwrap()[..],
            junk
        );

        // A restart forgets the memo, so its first refresh reads (and
        // here re-downloads) every original again.
        repo.crash();
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        repo.restore(&enclave, &w.tpm).unwrap();
        publish_to_all(&mut w.mirrors, &bump(3, "2.2"));
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.downloaded, 2, "websrv 2.2 and the junk `plain`");
        repo.cache().verified(&original(&repo, "plain")).unwrap();
        assert_eq!(repo.serve_package("plain").unwrap(), served);
    }

    #[test]
    fn a_tampered_account_package_is_read_again_when_the_universe_changes() {
        let run = |tamper: bool| {
            let mut w = World::new();
            let mut repo = w.repo();
            w.refresh(&mut repo).unwrap();
            if tamper {
                let hash = original(&repo, "websrv");
                repo.cache_mut().insert(&hash, b"junk".to_vec());
            }
            publish_to_all(&mut w.mirrors, &snapshot_adding_dbsrv());
            let report = w.refresh(&mut repo).unwrap();
            let names: Vec<String> = report.sanitized.iter().map(|r| r.name.clone()).collect();
            assert!(names.contains(&"websrv".to_string()), "{names:?}");
            (
                report.downloaded,
                repo.serve_package("websrv").unwrap(),
                repo.serve_index().unwrap(),
            )
        };
        let (clean_downloads, clean_websrv, clean_index) = run(false);
        let (downloads, websrv, index) = run(true);
        assert_eq!(clean_downloads, 1, "dbsrv");
        assert_eq!(downloads, 2, "dbsrv and the tampered websrv");
        assert_eq!(websrv, clean_websrv, "re-sanitized from the honest bytes");
        assert_eq!(index, clean_index);
    }

    #[test]
    fn a_tampered_rejected_original_is_read_again() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let rejected = repo.rejected().to_vec();
        assert_eq!(rejected.len(), 1);
        let hash = original(&repo, "badpkg");
        repo.cache_mut().insert(&hash, b"junk".to_vec());
        // A rejected package has no sanitized entry to keep, so every
        // refresh reads its original: the junk is replaced, and the
        // package is rejected again for the same reason.
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.downloaded, 1);
        assert_eq!(report.rejected, rejected);
        repo.cache().verified(&hash).unwrap();
    }

    #[test]
    fn a_rejected_new_version_is_neither_served_nor_kept() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let old = Arc::downgrade(&repo.serve_package("plain").unwrap());
        // `plain` 1.1 adds a script the sanitizer cannot rewrite.
        publish_to_all(
            &mut w.mirrors,
            &snapshot(
                2,
                &[
                    ("plain", "1.1", Some("echo x >> /etc/evil.conf")),
                    (
                        "websrv",
                        "2.0",
                        Some("adduser -S -D -H www\nmkdir -p /var/www"),
                    ),
                ],
            ),
        );
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].0, "plain");
        assert!(matches!(
            repo.serve_package("plain"),
            Err(CoreError::NotFound(_))
        ));
        assert!(
            old.upgrade().is_none(),
            "the 1.0 sanitized blob is resident"
        );
    }

    #[test]
    fn restart_restore_roundtrip() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        // Simulate restart: indexes wiped, restored from sealed disk.
        let sealed = repo.sealed_disk().unwrap().to_vec();
        repo.set_sealed_disk(sealed);
        repo.restore(&enclave, &w.tpm).unwrap();
        assert!(repo.sanitized_index().is_some());
        assert!(repo.serve_package("plain").is_ok());
    }

    #[test]
    fn restore_rejects_replayed_sealed_state() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let old_sealed = repo.sealed_disk().unwrap().to_vec();
        // Another refresh → counter bumps → old sealed blob is stale.
        publish_to_all(&mut w.mirrors, &snapshot(2, &[("plain", "1.1", None)]));
        w.refresh(&mut repo).unwrap();
        repo.set_sealed_disk(old_sealed);
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        assert!(matches!(
            repo.restore(&enclave, &w.tpm),
            Err(CoreError::RollbackDetected(_))
        ));
    }

    #[test]
    fn crash_then_restore_serves_identical_index() {
        let mut w = World::new();
        let mut repo = w.repo();
        w.refresh(&mut repo).unwrap();
        let before = repo.serve_index().unwrap();
        repo.crash();
        assert!(repo.serve_index().is_err(), "volatile state gone");
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        repo.restore(&enclave, &w.tpm).unwrap();
        assert_eq!(repo.serve_index().unwrap(), before, "byte-identical");
        repo.serve_package("plain").unwrap();
    }

    #[test]
    fn serve_before_refresh_errors() {
        let mut w = World::new();
        let repo = w.repo();
        assert!(matches!(repo.serve_index(), Err(CoreError::NotFound(_))));
        assert!(matches!(
            repo.serve_package("plain"),
            Err(CoreError::NotFound(_))
        ));
    }

    #[test]
    fn one_byzantine_mirror_tolerated_end_to_end() {
        let mut w = World::new();
        w.mirrors[0].set_behavior(Behavior::CorruptPackages);
        let mut repo = w.repo();
        let report = w.refresh(&mut repo).unwrap();
        assert_eq!(report.sanitized.len(), 2);
        repo.serve_package("plain").unwrap();
    }

    #[test]
    fn repo_keys_differ_per_id_and_enclave() {
        let mut w = World::new();
        let enclave = w.cpu.load_enclave(b"tsr-enclave");
        let r1 = TsrRepository::init("a", policy(), &enclave, &mut w.tpm, 1024);
        let r2 = TsrRepository::init("b", policy(), &enclave, &mut w.tpm, 1024);
        assert_ne!(r1.public_key(), r2.public_key());
        // Same id + same enclave → same key (deterministic derivation).
        let r3 = TsrRepository::init("a", policy(), &enclave, &mut w.tpm, 1024);
        assert_eq!(r1.public_key(), r3.public_key());
    }
}
