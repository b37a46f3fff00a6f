//! The integrity-enforced operating system: simulated filesystem + IMA +
//! TPM, plus the apk-like package manager driving it (paper Figure 4/6).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tsr_apk::{Index, Package};
use tsr_crypto::{hex, RsaPublicKey, Sha256};
#[cfg(test)]
use tsr_ima::IMA_XATTR;
use tsr_ima::{AttestationEvidence, Ima};
use tsr_simfs::SimFs;
use tsr_tpm::{Tpm, IMA_PCR};

use crate::error::PkgError;
use crate::interp::run_script;

/// One installed package in the local database
/// (the file-based DB Alpine keeps under `/lib/apk/db`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledPackage {
    /// Installed version.
    pub version: String,
    /// Hex SHA-256 of the installed package blob.
    pub blob_hash: String,
    /// Files owned by the package.
    pub files: Vec<String>,
}

/// Timing breakdown of one installation (Figure 11's latency).
#[derive(Debug, Clone, Copy, Default)]
pub struct InstallTiming {
    /// Signature verification of the downloaded package.
    pub verify: Duration,
    /// Script execution (pre + post).
    pub scripts: Duration,
    /// File extraction including xattr (signature) installation.
    pub extract: Duration,
    /// IMA measurement of new/changed files.
    pub measure: Duration,
}

impl InstallTiming {
    /// Total installation time.
    pub fn total(&self) -> Duration {
        self.verify + self.scripts + self.extract + self.measure
    }
}

/// The integrity-enforced OS under management.
#[derive(Debug)]
pub struct TrustedOs {
    /// The filesystem.
    pub fs: SimFs,
    /// The kernel measurement subsystem.
    pub ima: Ima,
    /// The TPM chip.
    pub tpm: Tpm,
    /// Keys the package manager accepts for packages/indexes
    /// (`(signer name, key)`; TSR's key is added at enrolment).
    pub trusted_keys: Vec<(String, RsaPublicKey)>,
    /// Installed-package database.
    db: BTreeMap<String, InstalledPackage>,
    /// Enforce IMA appraisal before executing files (IMA-appraisal mode).
    pub appraisal_enforced: bool,
}

impl TrustedOs {
    /// Boots a fresh OS: measured boot chain, base filesystem, initial
    /// configuration files measured into PCR 10.
    pub fn boot(seed: &[u8], initial_configs: &[(String, String)]) -> Self {
        let mut fs = SimFs::new();
        let mut tpm = Tpm::new(seed);
        let mut ima = Ima::new();
        ima.boot_aggregate(&mut tpm);
        for (path, content) in initial_configs {
            let mut body = content.clone();
            if !body.is_empty() && !body.ends_with('\n') {
                body.push('\n');
            }
            fs.write_file(path, body.into_bytes()).expect("base config");
            ima.measure_file(&mut tpm, &fs, path).expect("base config");
        }
        TrustedOs {
            fs,
            ima,
            tpm,
            trusted_keys: Vec::new(),
            db: BTreeMap::new(),
            appraisal_enforced: false,
        }
    }

    /// Enrols a trusted signer (e.g. the TSR public key, Figure 7 step ➎).
    pub fn trust_key(&mut self, name: impl Into<String>, key: RsaPublicKey) {
        self.trusted_keys.push((name.into(), key));
    }

    /// The installed-package database.
    pub fn installed(&self) -> &BTreeMap<String, InstalledPackage> {
        &self.db
    }

    /// Whether `name` is installed at `version`.
    pub fn has_installed(&self, name: &str, version: &str) -> bool {
        self.db
            .get(name)
            .map(|p| p.version == version)
            .unwrap_or(false)
    }

    /// Installs a package blob (verify → pre-script → extract → post-script
    /// → measure), returning the timing breakdown.
    ///
    /// # Errors
    ///
    /// Verification failures, script failures, or filesystem errors.
    pub fn install(&mut self, blob: &[u8]) -> Result<InstallTiming, PkgError> {
        let mut timing = InstallTiming::default();

        let t = Instant::now();
        let pkg = Package::parse(blob)?;
        pkg.verify_any(&self.trusted_keys)?;
        timing.verify = t.elapsed();

        if self.has_installed(&pkg.meta.name, &pkg.meta.version) {
            return Err(PkgError::AlreadyInstalled(format!(
                "{} {}",
                pkg.meta.name, pkg.meta.version
            )));
        }

        let mut touched: Vec<String> = Vec::new();

        // Pre-install script.
        let t = Instant::now();
        if let Some(s) = &pkg.scripts.pre_install {
            touched.extend(run_script(&mut self.fs, s)?.written);
        }
        timing.scripts += t.elapsed();

        // Extract files; PAX xattrs (security.ima) are installed alongside.
        let t = Instant::now();
        let mut owned_files = Vec::new();
        for entry in &pkg.files {
            let path = if entry.path.starts_with('/') {
                entry.path.clone()
            } else {
                format!("/{}", entry.path)
            };
            match entry.kind {
                tsr_archive::EntryKind::Directory => self.fs.mkdir_p(&path),
                tsr_archive::EntryKind::Symlink => {
                    let _ = self.fs.symlink(&path, &entry.link_target);
                }
                tsr_archive::EntryKind::File => {
                    self.fs.write_file(&path, entry.data.clone())?;
                    self.fs.chmod(&path, entry.mode)?;
                    for (name, value) in entry.xattrs() {
                        self.fs.set_xattr(&path, name, value.to_vec())?;
                    }
                    owned_files.push(path.clone());
                    touched.push(path);
                }
            }
        }
        timing.extract = t.elapsed();

        // Post-install script (sanitized scripts install config signatures
        // here).
        let t = Instant::now();
        if let Some(s) = &pkg.scripts.post_install {
            touched.extend(run_script(&mut self.fs, s)?.written);
        }
        timing.scripts += t.elapsed();

        // IMA measures every new/changed file on (simulated) first use;
        // optionally enforcing appraisal first.
        let t = Instant::now();
        touched.sort();
        touched.dedup();
        for path in &touched {
            if !matches!(self.fs.node(path), Some(tsr_simfs::Node::File { .. })) {
                continue;
            }
            if self.appraisal_enforced {
                let keys: Vec<RsaPublicKey> =
                    self.trusted_keys.iter().map(|(_, k)| k.clone()).collect();
                Ima::appraise(&self.fs, path, &keys)?;
            }
            self.ima.measure_file(&mut self.tpm, &self.fs, path)?;
        }
        timing.measure = t.elapsed();

        self.db.insert(
            pkg.meta.name.clone(),
            InstalledPackage {
                version: pkg.meta.version.clone(),
                blob_hash: hex::to_hex(&Sha256::digest(blob)),
                files: owned_files,
            },
        );
        Ok(timing)
    }

    /// Uninstalls a package, removing its files (DB bookkeeping only; the
    /// measurement log keeps history, as a real IMA would).
    ///
    /// # Errors
    ///
    /// [`PkgError::NotFound`] when the package is not installed.
    pub fn uninstall(&mut self, name: &str) -> Result<(), PkgError> {
        let pkg = self
            .db
            .remove(name)
            .ok_or_else(|| PkgError::NotFound(name.to_string()))?;
        for f in &pkg.files {
            let _ = self.fs.remove(f);
        }
        Ok(())
    }

    /// **Failure injection:** mark an installed package as outdated in the
    /// local DB (the paper's Figure 11 methodology: tamper with the stored
    /// version/hash so the next install looks like an upgrade).
    pub fn force_outdated(&mut self, name: &str) {
        if let Some(p) = self.db.get_mut(name) {
            p.version = format!("{}-outdated", p.version);
            p.blob_hash = "0".repeat(64);
        }
    }

    /// Produces attestation evidence for a verifier nonce (Figure 6 ➏).
    pub fn attest(&self, nonce: &[u8]) -> AttestationEvidence {
        AttestationEvidence {
            quote: self.tpm.quote(&[IMA_PCR], nonce),
            log: self.ima.log().to_vec(),
        }
    }

    /// Directly tamper with a file (adversary action for tests): contents
    /// change but the signature xattr stays — IMA will expose it.
    pub fn tamper_file(&mut self, path: &str, data: Vec<u8>) -> Result<(), PkgError> {
        self.fs.write_file(path, data)?;
        self.ima.measure_file(&mut self.tpm, &self.fs, path)?;
        Ok(())
    }
}

/// A repository client: fetches the index and packages over HTTP and
/// installs them with dependency resolution.
#[derive(Debug)]
pub struct PackageManager {
    /// Base URL of the repository (TSR or a plain mirror).
    pub repo_url: String,
    client: tsr_http::Client,
}

impl PackageManager {
    /// Points the package manager at a repository URL.
    pub fn new(repo_url: impl Into<String>) -> Self {
        PackageManager {
            repo_url: repo_url.into(),
            client: tsr_http::Client::new(),
        }
    }

    /// Fetches and verifies the repository index using the OS's trusted keys.
    ///
    /// # Errors
    ///
    /// HTTP failures surface as [`PkgError::NotFound`]; signature failures
    /// as [`PkgError::Package`].
    pub fn fetch_index(&self, os: &TrustedOs) -> Result<Index, PkgError> {
        let url = format!("{}/APKINDEX", self.repo_url);
        let resp = self
            .client
            .get(&url)
            .map_err(|e| PkgError::NotFound(format!("index fetch: {e}")))?
            .into_result()
            .map_err(|e| PkgError::NotFound(format!("index fetch: {e}")))?;
        Index::parse_signed(&resp.body, &os.trusted_keys).map_err(PkgError::Package)
    }

    /// Downloads a package blob, verifying size and hash against the index.
    ///
    /// # Errors
    ///
    /// [`PkgError::NotFound`] / [`PkgError::Package`] on mismatches.
    pub fn fetch_package(&self, index: &Index, name: &str) -> Result<Vec<u8>, PkgError> {
        let entry = index
            .get(name)
            .ok_or_else(|| PkgError::NotFound(format!("{name} not in index")))?;
        let url = format!("{}/packages/{}", self.repo_url, name);
        let resp = self
            .client
            .get(&url)
            .map_err(|e| PkgError::NotFound(format!("package fetch: {e}")))?
            .into_result()
            .map_err(|e| PkgError::NotFound(format!("package fetch: {e}")))?;
        let blob = resp.body.into_vec();
        if blob.len() as u64 != entry.size
            || hex::to_hex(&Sha256::digest(&blob)) != entry.content_hash
        {
            return Err(PkgError::Package(tsr_apk::PackageError::DataHashMismatch));
        }
        Ok(blob)
    }

    /// Installs `name` and its transitive dependencies (depth-first,
    /// dependencies first), skipping packages already installed at the
    /// index's version.
    ///
    /// Returns the install order actually applied.
    ///
    /// # Errors
    ///
    /// [`PkgError::Dependency`] on cycles or missing dependencies, plus all
    /// fetch/install errors.
    pub fn install_with_deps(
        &self,
        os: &mut TrustedOs,
        index: &Index,
        name: &str,
    ) -> Result<Vec<String>, PkgError> {
        let mut order = Vec::new();
        let mut visiting = Vec::new();
        self.resolve(index, name, &mut order, &mut visiting)?;
        let mut installed = Vec::new();
        for pkg in order {
            let entry = index.get(&pkg).expect("resolved from index");
            if os.has_installed(&pkg, &entry.version) {
                continue;
            }
            let blob = self.fetch_package(index, &pkg)?;
            os.install(&blob)?;
            installed.push(pkg);
        }
        Ok(installed)
    }

    fn resolve(
        &self,
        index: &Index,
        name: &str,
        order: &mut Vec<String>,
        visiting: &mut Vec<String>,
    ) -> Result<(), PkgError> {
        if order.iter().any(|n| n == name) {
            return Ok(());
        }
        if visiting.iter().any(|n| n == name) {
            return Err(PkgError::Dependency(format!(
                "dependency cycle through {name}"
            )));
        }
        let entry = index
            .get(name)
            .ok_or_else(|| PkgError::Dependency(format!("missing dependency {name}")))?;
        visiting.push(name.to_string());
        for dep in &entry.depends {
            self.resolve(index, dep, order, visiting)?;
        }
        visiting.pop();
        order.push(name.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use tsr_apk::PackageBuilder;
    use tsr_archive::Entry;
    use tsr_crypto::drbg::HmacDrbg;
    use tsr_crypto::RsaPrivateKey;

    fn key() -> &'static RsaPrivateKey {
        static K: OnceLock<RsaPrivateKey> = OnceLock::new();
        K.get_or_init(|| {
            let mut rng = HmacDrbg::new(b"os-test");
            RsaPrivateKey::generate(1024, &mut rng)
        })
    }

    fn base_configs() -> Vec<(String, String)> {
        vec![
            (
                "/etc/passwd".into(),
                "root:x:0:0:root:/root:/bin/ash".into(),
            ),
            ("/etc/group".into(), "root:x:0:".into()),
            ("/etc/shadow".into(), "root:!::0:::::".into()),
        ]
    }

    fn os() -> TrustedOs {
        let mut os = TrustedOs::boot(b"os", &base_configs());
        os.trust_key("signer", key().public_key().clone());
        os
    }

    fn pkg(name: &str, version: &str, deps: &[&str]) -> Vec<u8> {
        let mut b = PackageBuilder::new(name, version);
        b.file(Entry::file(
            format!("usr/bin/{name}"),
            format!("bin-{name}").into_bytes(),
        ));
        for d in deps {
            b.depends_on(*d);
        }
        b.build(key(), "signer")
    }

    #[test]
    fn boot_measures_base_configs() {
        let os = os();
        // boot aggregate + 3 config files
        assert_eq!(os.ima.log().len(), 4);
        assert_eq!(Ima::replay(os.ima.log()), os.tpm.read_pcr(IMA_PCR).unwrap());
    }

    #[test]
    fn install_extracts_and_measures() {
        let mut os = os();
        let before = os.ima.log().len();
        let timing = os.install(&pkg("tool", "1.0", &[])).unwrap();
        assert!(os.fs.exists("/usr/bin/tool"));
        assert_eq!(os.ima.log().len(), before + 1);
        assert!(timing.total() > Duration::ZERO);
        assert!(os.has_installed("tool", "1.0"));
    }

    #[test]
    fn install_rejects_untrusted_signature() {
        let mut os = TrustedOs::boot(b"os2", &base_configs());
        // no trusted keys enrolled
        assert!(matches!(
            os.install(&pkg("tool", "1.0", &[])),
            Err(PkgError::Package(_))
        ));
    }

    #[test]
    fn reinstall_same_version_rejected() {
        let mut os = os();
        os.install(&pkg("tool", "1.0", &[])).unwrap();
        assert!(matches!(
            os.install(&pkg("tool", "1.0", &[])),
            Err(PkgError::AlreadyInstalled(_))
        ));
        // Upgrade works.
        os.install(&pkg("tool", "1.1", &[])).unwrap();
        assert!(os.has_installed("tool", "1.1"));
    }

    #[test]
    fn force_outdated_allows_reinstall() {
        let mut os = os();
        let blob = pkg("tool", "1.0", &[]);
        os.install(&blob).unwrap();
        os.force_outdated("tool");
        assert!(!os.has_installed("tool", "1.0"));
        os.install(&blob).unwrap();
    }

    #[test]
    fn scripts_run_and_config_measured() {
        let mut os = os();
        let mut b = PackageBuilder::new("svc", "1.0");
        b.file(Entry::file("usr/bin/svc", b"s".to_vec()));
        b.post_install("adduser -u 100 -S -D -H -s /sbin/nologin svc");
        let blob = b.build(key(), "signer");
        os.install(&blob).unwrap();
        let passwd = String::from_utf8(os.fs.read_file("/etc/passwd").unwrap().to_vec()).unwrap();
        assert!(passwd.contains("svc:x:100:"));
        // /etc/passwd and /etc/shadow re-measured.
        let measured: Vec<&str> = os.ima.log().iter().map(|e| e.path.as_str()).collect();
        assert!(measured.iter().filter(|p| **p == "/etc/passwd").count() >= 2);
    }

    #[test]
    fn xattr_signatures_installed_from_pax() {
        let mut os = os();
        let mut b = PackageBuilder::new("signed", "1.0");
        let mut f = Entry::file("usr/lib/lib.so", b"lib".to_vec());
        let sig = tsr_ima::sign_file_contents(key(), b"lib");
        f.set_xattr(IMA_XATTR, sig.clone());
        b.file(f);
        os.install(&b.build(key(), "signer")).unwrap();
        assert_eq!(
            os.fs.get_xattr("/usr/lib/lib.so", IMA_XATTR).unwrap(),
            &sig[..]
        );
        // The log entry carries the signature.
        let entry = os
            .ima
            .log()
            .iter()
            .find(|e| e.path == "/usr/lib/lib.so")
            .unwrap();
        assert!(entry.signature_verifies(&[key().public_key().clone()]));
    }

    #[test]
    fn appraisal_enforced_blocks_unsigned_files() {
        let mut os = os();
        os.appraisal_enforced = true;
        // Package files without security.ima xattrs fail appraisal.
        assert!(matches!(
            os.install(&pkg("tool", "1.0", &[])),
            Err(PkgError::Ima(_))
        ));
    }

    #[test]
    fn uninstall_removes_files() {
        let mut os = os();
        os.install(&pkg("tool", "1.0", &[])).unwrap();
        os.uninstall("tool").unwrap();
        assert!(!os.fs.exists("/usr/bin/tool"));
        assert!(os.installed().is_empty());
        assert!(matches!(os.uninstall("tool"), Err(PkgError::NotFound(_))));
    }

    #[test]
    fn attestation_covers_installs() {
        let mut os = os();
        os.install(&pkg("tool", "1.0", &[])).unwrap();
        let ev = os.attest(b"nonce");
        ev.quote.verify(os.tpm.attestation_key(), b"nonce").unwrap();
        assert_eq!(Ima::replay(&ev.log), *ev.quote.pcr(IMA_PCR).unwrap());
    }

    #[test]
    fn dependency_resolution_order() {
        let mut os = os();
        let mut index = Index::new();
        let blobs: BTreeMap<String, Vec<u8>> = [
            ("libc", vec![] as Vec<&str>),
            ("ssl", vec!["libc"]),
            ("app", vec!["ssl", "libc"]),
        ]
        .into_iter()
        .map(|(n, deps)| {
            let blob = pkg(n, "1.0", &deps);
            index.upsert(Index::entry_for_blob(
                n,
                "1.0",
                &deps.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                &blob,
            ));
            (n.to_string(), blob)
        })
        .collect();

        // Serve over a real HTTP server to exercise the full path.
        let signed = {
            // index must be signed for fetch_index; sign with the same key.
            index.sign(key(), "signer")
        };
        let server = tsr_http::Server::bind("127.0.0.1:0", move |req| {
            if req.path == "/APKINDEX" {
                tsr_http::Response::ok(signed.clone())
            } else if let Some(name) = req.path.strip_prefix("/packages/") {
                match blobs.get(name) {
                    Some(b) => tsr_http::Response::ok(b.clone()),
                    None => tsr_http::Response::not_found("no such package"),
                }
            } else {
                tsr_http::Response::not_found("route")
            }
        })
        .unwrap();

        let pm = PackageManager::new(format!("http://{}", server.local_addr()));
        let fetched = pm.fetch_index(&os).unwrap();
        let installed = pm.install_with_deps(&mut os, &fetched, "app").unwrap();
        assert_eq!(installed, vec!["libc", "ssl", "app"]);
        // Re-running installs nothing new.
        let again = pm.install_with_deps(&mut os, &fetched, "app").unwrap();
        assert!(again.is_empty());
        server.shutdown();
    }

    #[test]
    fn dependency_cycle_detected() {
        let os = os();
        let mut index = Index::new();
        let a = pkg("a", "1.0", &["b"]);
        let b = pkg("b", "1.0", &["a"]);
        index.upsert(Index::entry_for_blob("a", "1.0", &["b".into()], &a));
        index.upsert(Index::entry_for_blob("b", "1.0", &["a".into()], &b));
        let pm = PackageManager::new("http://127.0.0.1:1");
        let mut os = os;
        assert!(matches!(
            pm.install_with_deps(&mut os, &index, "a"),
            Err(PkgError::Dependency(_))
        ));
    }

    #[test]
    fn missing_dependency_detected() {
        let mut os = os();
        let mut index = Index::new();
        let a = pkg("a", "1.0", &["ghost"]);
        index.upsert(Index::entry_for_blob("a", "1.0", &["ghost".into()], &a));
        let pm = PackageManager::new("http://127.0.0.1:1");
        assert!(matches!(
            pm.install_with_deps(&mut os, &index, "a"),
            Err(PkgError::Dependency(_))
        ));
    }

    #[test]
    fn tampered_download_rejected() {
        let os = os();
        let blob = pkg("tool", "1.0", &[]);
        let mut index = Index::new();
        index.upsert(Index::entry_for_blob("tool", "1.0", &[], &blob));
        // Server returns corrupted bytes.
        let server = tsr_http::Server::bind("127.0.0.1:0", move |_req| {
            let mut bad = blob.clone();
            let n = bad.len();
            bad[n / 2] ^= 0xff;
            tsr_http::Response::ok(bad)
        })
        .unwrap();
        let pm = PackageManager::new(format!("http://{}", server.local_addr()));
        assert!(matches!(
            pm.fetch_package(&index, "tool"),
            Err(PkgError::Package(tsr_apk::PackageError::DataHashMismatch))
        ));
        server.shutdown();
        let _ = os;
    }
}
