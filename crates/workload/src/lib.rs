//! # tsr-workload
//!
//! The synthetic Alpine-like repository generator.
//!
//! The paper evaluates TSR on the real Alpine v3.11 main + community
//! repositories (11,581 packages, ~3 GB). This crate substitutes a
//! generator that reproduces the properties the evaluation depends on:
//!
//! - the **script census** of Tables 1 and 2 (97.6% of packages carry no
//!   scripts; the rest split into filesystem changes, empty scripts, text
//!   processing, config changes, empty-file creation, user/group creation,
//!   and shell activation in the paper's exact proportions),
//! - **right-skewed file-count and size distributions** (log-normal), so
//!   sanitization-time and size-overhead distributions have the paper's
//!   long-tailed shape (Figures 8 and 9),
//! - a package **dependency DAG**,
//! - versioned snapshots so update experiments can bump a subset of
//!   packages.
//!
//! Scale is configurable: proportions are preserved while package counts
//! and byte sizes shrink to laptop-friendly values.

use std::collections::BTreeMap;

use tsr_apk::{Index, PackageBuilder};
use tsr_archive::Entry;
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::RsaPrivateKey;
use tsr_mirror::RepoSnapshot;

/// The script category a generated package falls into (Tables 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScriptProfile {
    /// No installation scripts at all (the 97.6% case).
    NoScript,
    /// Safe: filesystem structure changes.
    FilesystemChanges,
    /// Safe: conditional checks / display only.
    EmptyScript,
    /// Safe: read-only text processing.
    TextProcessing,
    /// Unsafe, not sanitizable: modifies configuration files.
    ConfigChange,
    /// Unsafe, sanitizable: creates an empty file.
    EmptyFileCreation,
    /// Unsafe, sanitizable: creates users/groups.
    UserGroupCreation,
    /// Unsafe, not sanitized by policy: activates a shell.
    ShellActivation,
}

/// Per-category package counts (the census knobs).
///
/// Defaults reproduce the paper's Tables 1–2 for main + community combined:
/// 11,581 packages total with the per-operation counts of Table 2 (45 fs,
/// 22 empty, 36 text, 18 config, 1 empty-file, 201 user/group, 10 shell).
/// Because the generator assigns one profile per package while the paper
/// counts operations (packages may mix several), the scriptless bucket is
/// 11,248 here (97.1%) versus 11,303 (97.6%) in Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    /// Packages without scripts.
    pub no_script: usize,
    /// Packages whose scripts only change filesystem structure.
    pub filesystem_changes: usize,
    /// Packages with empty/no-op scripts.
    pub empty_script: usize,
    /// Packages with text-processing scripts.
    pub text_processing: usize,
    /// Packages whose scripts modify config files (unsupported).
    pub config_change: usize,
    /// Packages creating empty files.
    pub empty_file_creation: usize,
    /// Packages creating users/groups.
    pub user_group_creation: usize,
    /// Packages activating shells (unsupported).
    pub shell_activation: usize,
}

impl Default for Census {
    fn default() -> Self {
        Census {
            no_script: 11_248,
            filesystem_changes: 45,
            empty_script: 22,
            text_processing: 36,
            config_change: 18,
            empty_file_creation: 1,
            user_group_creation: 201,
            shell_activation: 10,
        }
    }
}

impl Census {
    /// Total number of packages.
    pub fn total(&self) -> usize {
        self.no_script
            + self.filesystem_changes
            + self.empty_script
            + self.text_processing
            + self.config_change
            + self.empty_file_creation
            + self.user_group_creation
            + self.shell_activation
    }

    /// Scales every bucket by `factor` (rounding, keeping ≥1 for nonzero
    /// buckets so every behaviour stays represented).
    pub fn scaled(&self, factor: f64) -> Census {
        let s = |v: usize| -> usize {
            if v == 0 {
                0
            } else {
                ((v as f64 * factor).round() as usize).max(1)
            }
        };
        Census {
            no_script: s(self.no_script),
            filesystem_changes: s(self.filesystem_changes),
            empty_script: s(self.empty_script),
            text_processing: s(self.text_processing),
            config_change: s(self.config_change),
            empty_file_creation: s(self.empty_file_creation),
            user_group_creation: s(self.user_group_creation),
            shell_activation: s(self.shell_activation),
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Deterministic seed.
    pub seed: Vec<u8>,
    /// Package census (see [`Census::scaled`] to shrink).
    pub census: Census,
    /// Multiplier on file sizes (1.0 ≈ Alpine-like kilobyte scale).
    pub size_scale: f64,
    /// Median number of files per package.
    pub median_files: f64,
    /// Log-normal sigma for the file-count distribution (tail heaviness).
    pub files_sigma: f64,
    /// Median total bytes per package (drawn independently of the file
    /// count, as in Alpine, where many-file packages are often doc/locale
    /// splits of ordinary size).
    pub median_pkg_bytes: f64,
    /// Log-normal sigma for package sizes.
    pub pkg_bytes_sigma: f64,
    /// Include the two CVE-2019-5021-style packages (empty password +
    /// login shell) the paper's sanitizer flagged.
    pub include_cve_pattern: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: b"tsr-workload".to_vec(),
            census: Census::default().scaled(0.02), // ~230 packages
            size_scale: 1.0,
            median_files: 4.0,
            files_sigma: 1.1,
            median_pkg_bytes: 8_000.0,
            pkg_bytes_sigma: 1.4,
            include_cve_pattern: true,
        }
    }
}

impl WorkloadConfig {
    /// A tiny configuration for fast unit tests.
    pub fn tiny(seed: &[u8]) -> Self {
        WorkloadConfig {
            seed: seed.to_vec(),
            census: Census {
                no_script: 12,
                filesystem_changes: 2,
                empty_script: 1,
                text_processing: 1,
                config_change: 1,
                empty_file_creation: 1,
                user_group_creation: 3,
                shell_activation: 1,
            },
            size_scale: 1.0,
            median_files: 3.0,
            files_sigma: 0.8,
            median_pkg_bytes: 1_200.0,
            pkg_bytes_sigma: 1.0,
            include_cve_pattern: true,
        }
    }
}

/// Description of one generated package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageSpec {
    /// Package name.
    pub name: String,
    /// Version string.
    pub version: String,
    /// Script category.
    pub profile: ScriptProfile,
    /// Number of data files.
    pub file_count: usize,
    /// Compressed blob size.
    pub blob_size: usize,
    /// Dependencies.
    pub depends: Vec<String>,
}

/// The generated repository.
#[derive(Debug)]
pub struct GeneratedRepo {
    /// The upstream signing key (the distribution's build key).
    pub signing_key: RsaPrivateKey,
    /// Signer name used in `.SIGN.RSA.<name>` files.
    pub signer_name: String,
    /// Per-package descriptions.
    pub specs: Vec<PackageSpec>,
    /// Name → blob of the current snapshot.
    pub blobs: BTreeMap<String, Vec<u8>>,
    /// Current snapshot id.
    pub snapshot_id: u64,
    rng: HmacDrbg,
    cfg: WorkloadConfig,
}

/// Samples a log-normal value: `median · exp(sigma · N(0,1))`.
fn log_normal(rng: &mut HmacDrbg, median: f64, sigma: f64) -> f64 {
    // Box–Muller from two uniform samples.
    let u1 = (rng.gen_range(1_000_000) + 1) as f64 / 1_000_001.0;
    let u2 = rng.gen_range(1_000_000) as f64 / 1_000_000.0;
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

/// Generates file contents with a compressible/incompressible mix.
fn file_contents(rng: &mut HmacDrbg, len: usize) -> Vec<u8> {
    let compressible = rng.gen_range(100) < 70;
    if compressible {
        let phrase = b"the quick brown fox jumps over the lazy dog \n";
        phrase.iter().copied().cycle().take(len).collect()
    } else {
        rng.bytes(len)
    }
}

fn script_for(profile: ScriptProfile, name: &str, idx: usize) -> Option<String> {
    match profile {
        ScriptProfile::NoScript => None,
        ScriptProfile::FilesystemChanges => Some(format!(
            "mkdir -p /var/lib/{name}\nchown {name} /var/lib/{name}\nln -s /usr/share/{name} /opt/{name}"
        )),
        ScriptProfile::EmptyScript => Some(format!(
            "if [ -f /etc/{name}.flag ]; then\n  echo {name} already configured\nfi\nexit 0"
        )),
        ScriptProfile::TextProcessing => Some(format!(
            "grep -q {name} /etc/passwd\ncat /etc/group | head -5"
        )),
        ScriptProfile::ConfigChange => Some(format!(
            "echo 'option={idx}' >> /etc/{name}.conf"
        )),
        ScriptProfile::EmptyFileCreation => Some(format!("touch /var/run/{name}.pid")),
        ScriptProfile::UserGroupCreation => Some(format!(
            "addgroup -S grp-{name}\nadduser -S -D -H -G grp-{name} -s /sbin/nologin -g '{name} service' svc-{name}"
        )),
        ScriptProfile::ShellActivation => Some(format!("add-shell /bin/{name}sh")),
    }
}

impl GeneratedRepo {
    /// Generates a repository from the configuration.
    pub fn generate(cfg: WorkloadConfig) -> Self {
        let mut rng = HmacDrbg::new(&[b"workload:", cfg.seed.as_slice()].concat());
        let mut key_rng = HmacDrbg::new(&[b"workload-key:", cfg.seed.as_slice()].concat());
        let signing_key = RsaPrivateKey::generate(1024, &mut key_rng);
        let signer_name = "alpine-build@synthetic".to_string();

        let mut profiles = Vec::with_capacity(cfg.census.total());
        let buckets = [
            (ScriptProfile::NoScript, cfg.census.no_script),
            (
                ScriptProfile::FilesystemChanges,
                cfg.census.filesystem_changes,
            ),
            (ScriptProfile::EmptyScript, cfg.census.empty_script),
            (ScriptProfile::TextProcessing, cfg.census.text_processing),
            (ScriptProfile::ConfigChange, cfg.census.config_change),
            (
                ScriptProfile::EmptyFileCreation,
                cfg.census.empty_file_creation,
            ),
            (
                ScriptProfile::UserGroupCreation,
                cfg.census.user_group_creation,
            ),
            (ScriptProfile::ShellActivation, cfg.census.shell_activation),
        ];
        for (profile, count) in buckets {
            for _ in 0..count {
                profiles.push(profile);
            }
        }
        // Deterministic shuffle so profiles are spread over names.
        for i in (1..profiles.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            profiles.swap(i, j);
        }

        let mut specs = Vec::with_capacity(profiles.len());
        let mut blobs = BTreeMap::new();
        let mut cve_remaining = if cfg.include_cve_pattern { 2usize } else { 0 };
        for (idx, profile) in profiles.iter().copied().enumerate() {
            let name = format!("pkg{idx:05}");
            let version = "1.0-r0".to_string();
            let file_count = (log_normal(&mut rng, cfg.median_files, cfg.files_sigma).round()
                as usize)
                .clamp(1, 400);
            let mut builder = PackageBuilder::new(&name, &version);
            builder.description(format!("synthetic package {idx} ({profile:?})"));

            // Dependencies: up to 3 edges to earlier packages. Unsupported
            // packages (config-change / shell-activation) are never targets:
            // TSR rejects them, and depending on them would break dependency
            // closure downstream (base libraries in real distributions do
            // not carry unsafe scripts).
            let mut depends = Vec::new();
            if idx > 0 {
                let n_deps = rng.gen_range(4) as usize;
                for _ in 0..n_deps.min(idx) {
                    let dep_idx = rng.gen_range(idx as u64) as usize;
                    if matches!(
                        profiles[dep_idx],
                        ScriptProfile::ConfigChange | ScriptProfile::ShellActivation
                    ) {
                        continue;
                    }
                    let dep = format!("pkg{dep_idx:05}");
                    if !depends.contains(&dep) {
                        builder.depends_on(&dep);
                        depends.push(dep);
                    }
                }
            }

            let total_bytes = (log_normal(&mut rng, cfg.median_pkg_bytes, cfg.pkg_bytes_sigma)
                * cfg.size_scale)
                .round()
                .clamp(64.0, 64_000_000.0) as usize;
            for f in 0..file_count {
                // Split the package total over its files with mild variation.
                let base = total_bytes / file_count;
                let len = (base / 2 + (rng.gen_range(base.max(1) as u64) as usize)).max(16);
                let mut entry = Entry::file(
                    format!("usr/share/{name}/file{f:03}"),
                    file_contents(&mut rng, len),
                );
                if f == 0 {
                    entry.path = format!("usr/bin/{name}");
                    entry.mode = 0o755;
                }
                builder.file(entry);
            }

            let mut script = script_for(profile, &name, idx);
            if profile == ScriptProfile::UserGroupCreation && cve_remaining > 0 {
                cve_remaining -= 1;
                // The risky pattern the paper reported upstream.
                script = Some(format!(
                    "{}\nadduser -D -s /bin/ash oper-{name}",
                    script.unwrap()
                ));
            }
            if let Some(s) = script {
                builder.post_install(s);
            }

            let blob = builder.build(&signing_key, &signer_name);
            specs.push(PackageSpec {
                name: name.clone(),
                version,
                profile,
                file_count,
                blob_size: blob.len(),
                depends,
            });
            blobs.insert(name, blob);
        }

        GeneratedRepo {
            signing_key,
            signer_name,
            specs,
            blobs,
            snapshot_id: 1,
            rng,
            cfg,
        }
    }

    /// The current snapshot: signed index + package blobs, ready to publish
    /// to mirrors.
    pub fn snapshot(&self) -> RepoSnapshot {
        let mut index = Index::new();
        index.snapshot = self.snapshot_id;
        for spec in &self.specs {
            let blob = &self.blobs[&spec.name];
            index.upsert(Index::entry_for_blob(
                &spec.name,
                &spec.version,
                &spec.depends,
                blob,
            ));
        }
        RepoSnapshot {
            snapshot_id: self.snapshot_id,
            signed_index: index.sign(&self.signing_key, &self.signer_name),
            packages: self.blobs.clone(),
        }
    }

    /// Publishes an update: bumps `count` deterministic-randomly chosen
    /// packages to a new version and increments the snapshot id. Returns
    /// the names of the updated packages.
    pub fn publish_update(&mut self, count: usize) -> Vec<String> {
        let mut updated = Vec::new();
        let n = self.specs.len();
        for _ in 0..count.min(n) {
            let idx = self.rng.gen_range(n as u64) as usize;
            let spec = &mut self.specs[idx];
            if updated.contains(&spec.name) {
                continue;
            }
            let rev: u32 = spec
                .version
                .rsplit("-r")
                .next()
                .and_then(|r| r.parse().ok())
                .unwrap_or(0);
            spec.version = format!("1.0-r{}", rev + 1);
            let mut builder = PackageBuilder::new(&spec.name, &spec.version);
            builder.description("updated synthetic package");
            for d in &spec.depends {
                builder.depends_on(d);
            }
            let total_bytes = (log_normal(
                &mut self.rng,
                self.cfg.median_pkg_bytes,
                self.cfg.pkg_bytes_sigma,
            ) * self.cfg.size_scale)
                .round()
                .clamp(64.0, 64_000_000.0) as usize;
            for f in 0..spec.file_count {
                let base = total_bytes / spec.file_count;
                let len = (base / 2 + (self.rng.gen_range(base.max(1) as u64) as usize)).max(16);
                builder.file(Entry::file(
                    format!("usr/share/{}/file{f:03}", spec.name),
                    file_contents(&mut self.rng, len),
                ));
            }
            if let Some(s) = script_for(spec.profile, &spec.name, idx) {
                builder.post_install(s);
            }
            let blob = builder.build(&self.signing_key, &self.signer_name);
            spec.blob_size = blob.len();
            self.blobs.insert(spec.name.clone(), blob);
            updated.push(spec.name.clone());
        }
        self.snapshot_id += 1;
        updated
    }

    /// Names of generated packages whose scripts the sanitizer must
    /// reject (config-change and shell-activation profiles) — the set
    /// fault-injection harnesses assert is never served by TSR.
    pub fn unsupported_names(&self) -> Vec<String> {
        self.specs
            .iter()
            .filter(|s| {
                matches!(
                    s.profile,
                    ScriptProfile::ConfigChange | ScriptProfile::ShellActivation
                )
            })
            .map(|s| s.name.clone())
            .collect()
    }

    /// Total bytes of all package blobs (the "repository size").
    pub fn total_bytes(&self) -> usize {
        self.blobs.values().map(Vec::len).sum()
    }

    /// Specs filtered by profile.
    pub fn specs_with_profile(&self, p: ScriptProfile) -> impl Iterator<Item = &PackageSpec> {
        self.specs.iter().filter(move |s| s.profile == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsr_apk::Package;

    fn tiny_repo() -> GeneratedRepo {
        GeneratedRepo::generate(WorkloadConfig::tiny(b"t1"))
    }

    #[test]
    fn census_counts_respected() {
        let repo = tiny_repo();
        let cfg = WorkloadConfig::tiny(b"t1");
        assert_eq!(repo.specs.len(), cfg.census.total());
        assert_eq!(
            repo.specs_with_profile(ScriptProfile::UserGroupCreation)
                .count(),
            cfg.census.user_group_creation
        );
        assert_eq!(
            repo.specs_with_profile(ScriptProfile::NoScript).count(),
            cfg.census.no_script
        );
    }

    #[test]
    fn packages_parse_and_verify() {
        let repo = tiny_repo();
        for (name, blob) in &repo.blobs {
            let pkg = Package::parse(blob).unwrap_or_else(|e| panic!("{name}: {e}"));
            pkg.verify(repo.signing_key.public_key())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn script_profiles_match_classification() {
        use tsr_script::classify::{classify_script, OperationKind};
        let repo = tiny_repo();
        for spec in &repo.specs {
            let pkg = Package::parse(&repo.blobs[&spec.name]).unwrap();
            match spec.profile {
                ScriptProfile::NoScript => assert!(pkg.scripts.is_empty()),
                ScriptProfile::UserGroupCreation => {
                    let c = classify_script(pkg.scripts.post_install.as_deref().unwrap());
                    assert_eq!(c.dominant(), OperationKind::UserGroupCreation);
                }
                ScriptProfile::ConfigChange => {
                    let c = classify_script(pkg.scripts.post_install.as_deref().unwrap());
                    assert_eq!(c.dominant(), OperationKind::ConfigChange);
                }
                ScriptProfile::ShellActivation => {
                    let c = classify_script(pkg.scripts.post_install.as_deref().unwrap());
                    assert_eq!(c.dominant(), OperationKind::ShellActivation);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratedRepo::generate(WorkloadConfig::tiny(b"same"));
        let b = GeneratedRepo::generate(WorkloadConfig::tiny(b"same"));
        assert_eq!(a.blobs, b.blobs);
        assert_eq!(a.specs, b.specs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratedRepo::generate(WorkloadConfig::tiny(b"s1"));
        let b = GeneratedRepo::generate(WorkloadConfig::tiny(b"s2"));
        assert_ne!(a.blobs, b.blobs);
    }

    #[test]
    fn snapshot_index_is_verifiable() {
        let repo = tiny_repo();
        let snap = repo.snapshot();
        let keys = vec![(
            repo.signer_name.clone(),
            repo.signing_key.public_key().clone(),
        )];
        let idx = Index::parse_signed(&snap.signed_index, &keys).unwrap();
        assert_eq!(idx.len(), repo.specs.len());
        for spec in &repo.specs {
            let e = idx.get(&spec.name).unwrap();
            assert_eq!(e.size as usize, spec.blob_size);
        }
    }

    #[test]
    fn update_bumps_versions_and_snapshot() {
        let mut repo = tiny_repo();
        let before = repo.snapshot_id;
        let updated = repo.publish_update(3);
        assert!(!updated.is_empty());
        assert_eq!(repo.snapshot_id, before + 1);
        for name in &updated {
            let spec = repo.specs.iter().find(|s| &s.name == name).unwrap();
            assert!(spec.version.ends_with("-r1"));
            let pkg = Package::parse(&repo.blobs[name]).unwrap();
            assert_eq!(pkg.meta.version, spec.version);
        }
    }

    #[test]
    fn cve_pattern_present() {
        let repo = tiny_repo();
        let mut found = 0;
        for blob in repo.blobs.values() {
            let pkg = Package::parse(blob).unwrap();
            if let Some(s) = &pkg.scripts.post_install {
                if s.contains("adduser -D -s /bin/ash") {
                    found += 1;
                }
            }
        }
        assert_eq!(found, 2, "exactly two CVE-style packages");
    }

    #[test]
    fn file_count_distribution_right_skewed() {
        let repo = GeneratedRepo::generate(WorkloadConfig {
            census: Census::default().scaled(0.01),
            ..WorkloadConfig::tiny(b"dist")
        });
        let counts: Vec<f64> = repo.specs.iter().map(|s| s.file_count as f64).collect();
        let p50 = tsr_stats::percentile(&counts, 50.0);
        let p95 = tsr_stats::percentile(&counts, 95.0);
        assert!(p95 > p50 * 2.0, "p50={p50} p95={p95}");
    }

    #[test]
    fn default_census_totals_match_paper() {
        let c = Census::default();
        assert_eq!(c.total(), 11_581);
        // 28 unsupported packages = 0.24%.
        let unsupported = c.config_change + c.shell_activation;
        assert_eq!(unsupported, 28);
        let frac = unsupported as f64 / c.total() as f64;
        assert!((frac - 0.0024).abs() < 0.0002);
    }

    #[test]
    fn unsupported_names_lists_rejectable_packages() {
        let repo = tiny_repo();
        let cfg = WorkloadConfig::tiny(b"t1");
        let names = repo.unsupported_names();
        assert_eq!(
            names.len(),
            cfg.census.config_change + cfg.census.shell_activation
        );
        for name in &names {
            let spec = repo.specs.iter().find(|s| &s.name == name).unwrap();
            assert!(matches!(
                spec.profile,
                ScriptProfile::ConfigChange | ScriptProfile::ShellActivation
            ));
        }
    }

    #[test]
    fn dependencies_point_backwards() {
        let repo = tiny_repo();
        for (i, spec) in repo.specs.iter().enumerate() {
            for d in &spec.depends {
                let dep_idx: usize = d[3..].parse().unwrap();
                assert!(dep_idx < i);
            }
        }
    }
}
