//! Property-based integration tests for the paper's central determinism
//! claim (§4.2): any subset of sanitized packages, installed in any order,
//! drives the OS configuration into the same predicted state — so a single
//! set of predicted-content signatures covers every installation schedule.

use proptest::prelude::*;

use tsr::core::{InitConfigFile, MirrorRef, PackageSanitizer, Policy, TsrService};
use tsr::crypto::drbg::HmacDrbg;
use tsr::crypto::{hex, RsaPrivateKey, RsaPublicKey, Sha256};
use tsr::mirror::{publish_to_all, Mirror};
use tsr::net::{Continent, LatencyModel};
use tsr::pkgmgr::interp::run_script;
use tsr::pkgmgr::TrustedOs;
use tsr::script::UserGroupUniverse;
use tsr::simfs::SimFs;
use tsr::workload::{GeneratedRepo, WorkloadConfig};

use std::sync::OnceLock;

fn upstream_key() -> &'static RsaPrivateKey {
    static K: OnceLock<RsaPrivateKey> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"det-upstream");
        RsaPrivateKey::generate(1024, &mut rng)
    })
}

fn tsr_key() -> &'static RsaPrivateKey {
    static K: OnceLock<RsaPrivateKey> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"det-tsr");
        RsaPrivateKey::generate(1024, &mut rng)
    })
}

const INITIAL_PASSWD: &str = "root:x:0:0:root:/root:/bin/ash";
const INITIAL_GROUP: &str = "root:x:0:";
const INITIAL_SHADOW: &str = "root:!::0:::::";

fn policy() -> Policy {
    Policy {
        mirrors: vec![MirrorRef {
            hostname: "m".into(),
            continent: tsr::net::Continent::Europe,
        }],
        signers_keys: vec![upstream_key().public_key().clone()],
        init_config_files: vec![
            InitConfigFile {
                path: "/etc/passwd".into(),
                content: INITIAL_PASSWD.into(),
            },
            InitConfigFile {
                path: "/etc/group".into(),
                content: INITIAL_GROUP.into(),
            },
            InitConfigFile {
                path: "/etc/shadow".into(),
                content: INITIAL_SHADOW.into(),
            },
        ],
        f: 0,
        package_whitelist: Vec::new(),
        package_blacklist: Vec::new(),
    }
}

/// Builds `n` packages, each creating its own user/group pair.
fn account_packages(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut b = tsr::apk::PackageBuilder::new(format!("svc{i}"), "1.0");
            b.file(tsr::archive::Entry::file(
                format!("usr/bin/svc{i}"),
                format!("bin{i}").into_bytes(),
            ));
            b.post_install(format!(
                "addgroup -S grp{i}\nadduser -S -D -H -G grp{i} -s /sbin/nologin user{i}"
            ));
            b.build(upstream_key(), "builder")
        })
        .collect()
}

fn sanitized_packages(n: usize) -> (Vec<Vec<u8>>, PackageSanitizer) {
    let blobs = account_packages(n);
    let mut universe = UserGroupUniverse::new();
    for b in &blobs {
        let pkg = tsr::apk::Package::parse(b).unwrap();
        for (_, body) in pkg.scripts.iter() {
            universe.scan_script(body);
        }
    }
    universe.assign_ids();
    let sanitizer = PackageSanitizer::new(tsr_key().clone(), "tsr", universe, &policy());
    let trusted = vec![("builder".to_string(), upstream_key().public_key().clone())];
    let sanitized = blobs
        .iter()
        .map(|b| sanitizer.sanitize(b, &trusted).unwrap().0)
        .collect();
    (sanitized, sanitizer)
}

fn boot_os() -> TrustedOs {
    let mut os = TrustedOs::boot(
        b"det-os",
        &[
            ("/etc/passwd".into(), INITIAL_PASSWD.into()),
            ("/etc/group".into(), INITIAL_GROUP.into()),
            ("/etc/shadow".into(), INITIAL_SHADOW.into()),
        ],
    );
    os.trust_key("tsr", tsr_key().public_key().clone());
    os
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_install_order_reaches_predicted_config(order in Just(()).prop_perturb(|_, mut rng| {
        let mut idx: Vec<usize> = (0..5).collect();
        for i in (1..idx.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            idx.swap(i, j);
        }
        let take = 1 + (rng.next_u32() as usize) % idx.len();
        idx.truncate(take);
        idx
    })) {
        let (pkgs, sanitizer) = sanitized_packages(5);
        let mut os = boot_os();
        for &i in &order {
            os.install(&pkgs[i]).unwrap();
        }
        // Every subset/order ends in the predicted configuration.
        for (path, predicted, _) in sanitizer.predicted_configs() {
            let got = String::from_utf8(os.fs.read_file(path).unwrap().to_vec()).unwrap();
            prop_assert_eq!(&got, predicted, "config {} diverged for order {:?}", path, order);
        }
        // And the predicted-content signatures appraise on the live files.
        for (path, _, _) in sanitizer.predicted_configs() {
            tsr::ima::Ima::appraise(
                &os.fs,
                path,
                &[tsr_key().public_key().clone()],
            ).unwrap();
        }
    }

    #[test]
    fn sanitization_is_deterministic(seed in any::<u64>()) {
        let _ = seed; // same inputs → same outputs regardless of environment
        let (a, _) = sanitized_packages(3);
        let (b, _) = sanitized_packages(3);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn preamble_idempotent_under_repetition(reps in 1usize..5) {
        let blobs = account_packages(3);
        let mut universe = UserGroupUniverse::new();
        for b in &blobs {
            let pkg = tsr::apk::Package::parse(b).unwrap();
            for (_, body) in pkg.scripts.iter() {
                universe.scan_script(body);
            }
        }
        universe.assign_ids();
        let mut fs = SimFs::new();
        fs.write_file("/etc/passwd", format!("{INITIAL_PASSWD}\n").into_bytes()).unwrap();
        fs.write_file("/etc/group", format!("{INITIAL_GROUP}\n").into_bytes()).unwrap();
        fs.write_file("/etc/shadow", format!("{INITIAL_SHADOW}\n").into_bytes()).unwrap();
        let preamble = universe.canonical_preamble();
        for _ in 0..reps {
            run_script(&mut fs, &preamble).unwrap();
        }
        let got = String::from_utf8(fs.read_file("/etc/passwd").unwrap().to_vec()).unwrap();
        prop_assert_eq!(got, universe.predict_passwd(INITIAL_PASSWD));
    }
}

#[test]
fn attestation_agrees_across_machines_with_same_history() {
    // Two machines installing the same packages in the same order produce
    // identical PCR-10 values (full determinism of the measurement chain).
    let (pkgs, _) = sanitized_packages(3);
    let run = |seed: &[u8]| {
        let mut os = TrustedOs::boot(
            seed,
            &[
                ("/etc/passwd".into(), INITIAL_PASSWD.into()),
                ("/etc/group".into(), INITIAL_GROUP.into()),
                ("/etc/shadow".into(), INITIAL_SHADOW.into()),
            ],
        );
        os.trust_key("tsr", tsr_key().public_key().clone());
        for p in &pkgs {
            os.install(p).unwrap();
        }
        os.tpm.read_pcr(tsr::tpm::IMA_PCR).unwrap()
    };
    assert_eq!(run(b"machine-1"), run(b"machine-2"));
}

/// SHA-256 over the signed index and every sanitized package, in index
/// order, of a tiny world that one refresh syncs. Sanitizing re-gzips and
/// re-signs every package, so this pins the bytes TSR emits *across
/// commits*: a change to deflate, the signer or the sanitizer that alters
/// one byte fails here, and the literal changes only on purpose.
#[test]
fn sanitized_bytes_are_pinned() {
    let upstream = GeneratedRepo::generate(WorkloadConfig::tiny(b"pinned"));
    let mut mirrors = vec![Mirror::new("m", Continent::Europe)];
    publish_to_all(&mut mirrors, &upstream.snapshot());
    let service = TsrService::new(b"pinned", mirrors, LatencyModel::default(), 1024);
    let mut policy = policy();
    policy.signers_keys = vec![upstream.signing_key.public_key().clone()];
    let (id, pem) = service.create_repository(&policy.to_text()).unwrap();
    service.refresh(&id).unwrap();

    let signed = service.fetch_index(&id).unwrap();
    let key = RsaPublicKey::from_pem(&pem).unwrap();
    let index = tsr::apk::Index::parse_signed(&signed, &[(format!("tsr-{id}"), key)]).unwrap();
    assert!(
        index.len() > 10,
        "the world syncs: {} packages",
        index.len()
    );
    let mut all = signed;
    for entry in index.iter() {
        all.extend(service.fetch_package(&id, &entry.name).unwrap());
    }
    assert_eq!(
        hex::to_hex(&Sha256::digest(&all)),
        "9d0f72fbd4ec56e56ab7a43e30b98ac0ee822da383178c8969a0a4e587954d88"
    );
}
