//! Failure-injection integration tests: every attack of the paper's threat
//! model (§3.1) exercised end-to-end against the real stack.

use tsr::core::{CoreError, InitConfigFile, MirrorRef, Policy, TsrRepository};
use tsr::crypto::drbg::HmacDrbg;
use tsr::crypto::RsaPrivateKey;
use tsr::mirror::{publish_to_all, Behavior, Mirror};
use tsr::net::{Continent, LatencyModel};
use tsr::sgx::Cpu;
use tsr::tpm::Tpm;
use tsr::workload::{GeneratedRepo, WorkloadConfig};

struct World {
    upstream: GeneratedRepo,
    mirrors: Vec<Mirror>,
    cpu: Cpu,
    tpm: Tpm,
    model: LatencyModel,
    rng: HmacDrbg,
    repo: TsrRepository,
}

const ENCLAVE: &[u8] = b"attack-test-enclave";

impl World {
    fn new(seed: &[u8]) -> Self {
        let upstream = GeneratedRepo::generate(WorkloadConfig::tiny(seed));
        let mut mirrors: Vec<Mirror> = (0..5)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        publish_to_all(&mut mirrors, &upstream.snapshot());
        let policy = Policy {
            mirrors: mirrors
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
            f: 2,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };
        let cpu = Cpu::new(seed);
        let mut tpm = Tpm::new(seed);
        let enclave = cpu.load_enclave(ENCLAVE);
        let repo = TsrRepository::init("attacks", policy, &enclave, &mut tpm, 1024);
        World {
            upstream,
            mirrors,
            cpu,
            tpm,
            model: LatencyModel::default(),
            rng: HmacDrbg::new(seed),
            repo,
        }
    }

    fn refresh(&mut self) -> Result<tsr::core::RefreshReport, CoreError> {
        let report = self
            .repo
            .refresh_unsealed(&self.mirrors, &self.model, &mut self.rng, 1)?;
        self.repo
            .persist(&self.cpu.load_enclave(ENCLAVE), &mut self.tpm)?;
        Ok(report)
    }

    fn publish_update(&mut self, n: usize) -> Vec<String> {
        let updated = self.upstream.publish_update(n);
        let snap = self.upstream.snapshot();
        publish_to_all(&mut self.mirrors, &snap);
        updated
    }
}

#[test]
fn replay_attack_masked_by_quorum() {
    let mut w = World::new(b"atk-replay");
    w.refresh().unwrap();
    w.publish_update(2);
    // f=2 mirrors replay the old snapshot (vulnerable packages).
    w.mirrors[0].set_behavior(Behavior::Stale { snapshot: 0 });
    w.mirrors[1].set_behavior(Behavior::Stale { snapshot: 0 });
    w.refresh().unwrap();
    assert_eq!(
        w.repo.upstream_index().unwrap().snapshot,
        2,
        "quorum must deliver the fresh snapshot"
    );
}

#[test]
fn freeze_attack_masked_by_quorum() {
    let mut w = World::new(b"atk-freeze");
    w.refresh().unwrap();
    // Two mirrors freeze (keep serving the current snapshot forever).
    w.mirrors[3].set_behavior(Behavior::Stale { snapshot: 0 });
    w.mirrors[4].set_behavior(Behavior::Stale { snapshot: 0 });
    w.publish_update(1);
    w.refresh().unwrap();
    assert_eq!(w.repo.upstream_index().unwrap().snapshot, 2);
}

#[test]
fn majority_collusion_rollback_detected() {
    let mut w = World::new(b"atk-collusion");
    w.refresh().unwrap();
    w.publish_update(1);
    w.refresh().unwrap();
    // ALL mirrors collude to replay snapshot 1 — beyond the threat model,
    // but the monotonic snapshot check still refuses to go backwards.
    for m in &mut w.mirrors {
        m.set_behavior(Behavior::Stale { snapshot: 0 });
    }
    assert!(matches!(w.refresh(), Err(CoreError::RollbackDetected(_))));
}

#[test]
fn corrupt_mirror_packages_never_served() {
    let mut w = World::new(b"atk-corrupt");
    // The two fastest mirrors corrupt every package blob.
    w.mirrors[0].set_behavior(Behavior::CorruptPackages);
    w.mirrors[1].set_behavior(Behavior::CorruptPackages);
    let report = w.refresh().unwrap();
    // Downloads fall through to honest mirrors thanks to index-pinned hashes.
    assert!(report.downloaded > 0);
    for entry in w.repo.sanitized_index().unwrap().iter() {
        let blob = w.repo.serve_package(&entry.name).unwrap();
        tsr::apk::Package::parse(&blob)
            .unwrap()
            .verify(w.repo.public_key())
            .unwrap();
    }
}

#[test]
fn offline_mirrors_tolerated() {
    let mut w = World::new(b"atk-offline");
    w.mirrors[0].set_behavior(Behavior::Offline);
    w.mirrors[2].set_behavior(Behavior::Offline);
    let report = w.refresh().unwrap();
    assert!(!report.sanitized.is_empty());
}

#[test]
fn disk_tamper_on_cache_detected_at_serve_time() {
    let mut w = World::new(b"atk-disk");
    w.refresh().unwrap();
    let victim = w.repo.sanitized_index().unwrap().iter().next().unwrap();
    let (victim, pinned) = (victim.name.clone(), victim.content_hash.clone());
    // Root on the TSR host rewrites the cached sanitized package.
    let evil = w.upstream.blobs[&victim].clone(); // valid-looking bytes
    w.repo.cache_mut().insert(&pinned, evil);
    assert!(matches!(
        w.repo.serve_package(&victim),
        Err(CoreError::RollbackDetected(_))
    ));
}

#[test]
fn sealed_state_replay_after_restart_detected() {
    let mut w = World::new(b"atk-seal");
    w.refresh().unwrap();
    let old_sealed = w.repo.sealed_disk().unwrap().to_vec();
    w.publish_update(1);
    w.refresh().unwrap();
    // Adversary restores the older sealed file and restarts TSR.
    w.repo.set_sealed_disk(old_sealed);
    let enclave = w.cpu.load_enclave(ENCLAVE);
    assert!(matches!(
        w.repo.restore(&enclave, &w.tpm),
        Err(CoreError::RollbackDetected(_))
    ));
}

#[test]
fn sealed_state_from_other_enclave_rejected() {
    let mut w = World::new(b"atk-enclave");
    w.refresh().unwrap();
    let evil_enclave = w.cpu.load_enclave(b"evil-code");
    let forged = evil_enclave.seal(b"forged state").to_bytes();
    w.repo.set_sealed_disk(forged);
    let enclave = w.cpu.load_enclave(ENCLAVE);
    assert!(matches!(
        w.repo.restore(&enclave, &w.tpm),
        Err(CoreError::SealedState(_))
    ));
}

#[test]
fn mitm_cannot_forge_packages_for_the_os() {
    use tsr::pkgmgr::TrustedOs;
    let mut w = World::new(b"atk-mitm");
    w.refresh().unwrap();

    let mut os = TrustedOs::boot(b"os", &[]);
    os.trust_key(
        w.repo.signer_name().to_string(),
        w.repo.public_key().clone(),
    );
    // A MITM (or compromised CDN) delivers an attacker-signed package.
    let mut rng = HmacDrbg::new(b"mallory");
    let mallory = RsaPrivateKey::generate(1024, &mut rng);
    let mut b = tsr::apk::PackageBuilder::new("pkg00000", "9.9");
    b.file(tsr::archive::Entry::file(
        "usr/bin/pkg00000",
        b"evil".to_vec(),
    ));
    let forged = b.build(&mallory, w.repo.signer_name());
    assert!(os.install(&forged).is_err());

    // The genuine sanitized package installs fine.
    let blob = w.repo.serve_package("pkg00000").unwrap();
    os.install(&blob).unwrap();
}

#[test]
fn cve_2019_5021_analogue_reported() {
    let mut w = World::new(b"atk-cve");
    w.refresh().unwrap();
    let findings = w.repo.sanitizer().unwrap().universe().findings().to_vec();
    assert_eq!(findings.len(), 2, "the two risky packages are flagged");
    for f in &findings {
        assert!(f.description.contains("without a password"));
    }
}

#[test]
fn byzantine_minority_cannot_block_or_poison_end_to_end() {
    // Combined attack: one stale + one corrupt + one offline (3 faults but
    // only ≤2 of any kind; quorum f=2 needs 3 of 5 agreeing, and the two
    // honest + the corrupt-packages one still agree on the INDEX).
    let mut w = World::new(b"atk-combo");
    w.refresh().unwrap();
    w.publish_update(1);
    w.mirrors[0].set_behavior(Behavior::Stale { snapshot: 0 });
    w.mirrors[1].set_behavior(Behavior::CorruptPackages); // index honest
    w.mirrors[2].set_behavior(Behavior::Offline);
    w.refresh().unwrap();
    assert_eq!(w.repo.upstream_index().unwrap().snapshot, 2);
    // And everything served still verifies.
    for entry in w.repo.sanitized_index().unwrap().iter().take(5) {
        let blob = w.repo.serve_package(&entry.name).unwrap();
        tsr::apk::Package::parse(&blob)
            .unwrap()
            .verify(w.repo.public_key())
            .unwrap();
    }
}

#[test]
fn private_repository_whitelist_enforced() {
    // The §4.5 extension: an OS owner restricts the repository to a
    // package subset; TSR neither downloads nor serves anything else.
    let mut w = World::new(b"atk-whitelist");
    let allowed = ["pkg00000".to_string(), "pkg00003".to_string()];
    {
        // Rebuild the repo with a whitelist policy.
        let mut policy = w.repo.policy().clone();
        policy.package_whitelist = allowed.to_vec();
        let enclave = w.cpu.load_enclave(ENCLAVE);
        w.repo = TsrRepository::init("private", policy, &enclave, &mut w.tpm, 1024);
    }
    let report = w.refresh().unwrap();
    assert_eq!(report.downloaded, allowed.len());
    let idx = w.repo.sanitized_index().unwrap();
    assert_eq!(idx.len(), allowed.len());
    for name in &allowed {
        assert!(idx.get(name).is_some());
        w.repo.serve_package(name).unwrap();
    }
    assert!(w.repo.serve_package("pkg00001").is_err());
}

#[test]
fn blacklisted_package_never_served() {
    let mut w = World::new(b"atk-blacklist");
    {
        let mut policy = w.repo.policy().clone();
        policy.package_blacklist = vec!["pkg00000".to_string()];
        let enclave = w.cpu.load_enclave(ENCLAVE);
        w.repo = TsrRepository::init("filtered", policy, &enclave, &mut w.tpm, 1024);
    }
    w.refresh().unwrap();
    assert!(w.repo.sanitized_index().unwrap().get("pkg00000").is_none());
    assert!(w.repo.serve_package("pkg00000").is_err());
    // Everything else still works.
    w.repo.serve_package("pkg00003").unwrap();
}
