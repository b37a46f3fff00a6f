//! End-to-end integration: the full Figure 6 flow over real (loopback)
//! HTTP — generate upstream → mirrors → TSR service → package manager →
//! IMA/TPM attestation → monitoring system.

use tsr::core::TsrService;
use tsr::crypto::RsaPublicKey;
use tsr::mirror::{publish_to_all, Mirror};
use tsr::monitor::Monitor;
use tsr::net::{Continent, LatencyModel};
use tsr::pkgmgr::{PackageManager, TrustedOs};
use tsr::workload::{GeneratedRepo, WorkloadConfig};

fn policy_text(repo: &GeneratedRepo) -> String {
    let pem: String = repo
        .signing_key
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
         init_config_files:\n\
         \x20 - path: /etc/passwd\n\
         \x20   content: |-\n\
         \x20     root:x:0:0:root:/root:/bin/ash\n\
         \x20 - path: /etc/group\n\
         \x20   content: |-\n\
         \x20     root:x:0:\n\
         \x20 - path: /etc/shadow\n\
         \x20   content: |-\n\
         \x20     root:!::0:::::\n\
         f: 1\n"
    )
}

struct Setup {
    service: TsrService,
    repo_id: String,
    tsr_key: RsaPublicKey,
    upstream: GeneratedRepo,
}

fn setup(seed: &[u8]) -> Setup {
    let upstream = GeneratedRepo::generate(WorkloadConfig::tiny(seed));
    let mut mirrors: Vec<Mirror> = (0..3)
        .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
        .collect();
    publish_to_all(&mut mirrors, &upstream.snapshot());
    let service = TsrService::new(seed, mirrors, LatencyModel::default(), 1024);
    let (repo_id, pem) = service.create_repository(&policy_text(&upstream)).unwrap();
    let tsr_key = RsaPublicKey::from_pem(&pem).unwrap();
    service.refresh(&repo_id).unwrap();
    Setup {
        service,
        repo_id,
        tsr_key,
        upstream,
    }
}

fn boot_os(s: &Setup, seed: &[u8]) -> TrustedOs {
    let mut os = TrustedOs::boot(
        seed,
        &[
            (
                "/etc/passwd".into(),
                "root:x:0:0:root:/root:/bin/ash".into(),
            ),
            ("/etc/group".into(), "root:x:0:".into()),
            ("/etc/shadow".into(), "root:!::0:::::".into()),
        ],
    );
    os.trust_key(format!("tsr-{}", s.repo_id), s.tsr_key.clone());
    os
}

fn monitor_for(s: &Setup, os: &TrustedOs) -> Monitor {
    let mut m = Monitor::new();
    m.whitelist_log(os.ima.log());
    m.trust_signer(s.tsr_key.clone());
    m
}

#[test]
fn full_flow_over_http_keeps_attestation_green() {
    let s = setup(b"it-e2e-1");
    let server = s.service.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}/repositories/{}", server.local_addr(), s.repo_id);

    let mut os = boot_os(&s, b"os-1");
    let monitor = monitor_for(&s, &os);

    // What the package manager fetches is the `/v1` index, byte for
    // byte and ETag for ETag: one handler behind both paths.
    let http = tsr::http::Client::new();
    let apk = http.get(&format!("{base}/APKINDEX")).unwrap();
    let v1 = http
        .get(&format!(
            "http://{}/v1/repositories/{}/index",
            server.local_addr(),
            s.repo_id
        ))
        .unwrap();
    assert_eq!((apk.status, v1.status), (200, 200));
    assert!(apk.headers.contains_key("etag"));
    assert_eq!(apk.headers.get("etag"), v1.headers.get("etag"));
    assert_eq!(apk.body, v1.body);

    let pm = PackageManager::new(base);
    let index = pm.fetch_index(&os).unwrap();
    assert!(index.len() >= 20, "most tiny-workload packages sanitized");

    // Install several packages including scripted ones.
    let mut installed = 0;
    for entry in index.iter().take(8) {
        installed += pm
            .install_with_deps(&mut os, &index, &entry.name)
            .unwrap()
            .len();
    }
    assert!(installed >= 8);

    let evidence = os.attest(b"nonce-e2e");
    let verdict = monitor.verify(&evidence, os.tpm.attestation_key(), b"nonce-e2e");
    assert!(verdict.is_trusted(), "violations: {:?}", verdict.violations);
    assert!(
        verdict.signed > 0,
        "updates must be explained by signatures"
    );
    server.shutdown();
}

#[test]
fn update_cycle_stays_trusted() {
    let mut s = setup(b"it-e2e-2");
    let mut os = boot_os(&s, b"os-2");
    let monitor = monitor_for(&s, &os);

    // Install everything installable from the first snapshot (direct API).
    let index = {
        let signed = s.service.fetch_index(&s.repo_id).unwrap();
        tsr::apk::Index::parse_signed(
            &signed,
            &[(format!("tsr-{}", s.repo_id), s.tsr_key.clone())],
        )
        .unwrap()
    };
    for entry in index.iter() {
        let blob = s.service.fetch_package(&s.repo_id, &entry.name).unwrap();
        os.install(&blob).unwrap();
    }
    let v1 = monitor_for(&s, &os); // fresh baseline incl. installed state
    let _ = v1;

    // Upstream publishes an update; TSR refreshes; the OS upgrades.
    let updated = s.upstream.publish_update(4);
    let snap = s.upstream.snapshot();
    s.service
        .with_mirrors(|mirrors| publish_to_all(mirrors, &snap));
    let report = s.service.refresh(&s.repo_id).unwrap();
    assert!(report.downloaded >= 1);

    let index2 = {
        let signed = s.service.fetch_index(&s.repo_id).unwrap();
        tsr::apk::Index::parse_signed(
            &signed,
            &[(format!("tsr-{}", s.repo_id), s.tsr_key.clone())],
        )
        .unwrap()
    };
    let mut upgraded = 0;
    for name in &updated {
        if let Some(entry) = index2.get(name) {
            let blob = s.service.fetch_package(&s.repo_id, name).unwrap();
            if !os.has_installed(name, &entry.version) {
                os.install(&blob).unwrap();
                upgraded += 1;
            }
        }
    }
    assert!(upgraded >= 1, "at least one supported package upgraded");

    let evidence = os.attest(b"nonce-upd");
    let verdict = monitor.verify(&evidence, os.tpm.attestation_key(), b"nonce-upd");
    assert!(
        verdict.is_trusted(),
        "update broke attestation: {:?}",
        verdict.violations
    );
}

#[test]
fn unsupported_packages_absent_from_tsr_index() {
    let s = setup(b"it-e2e-3");
    let index = {
        let signed = s.service.fetch_index(&s.repo_id).unwrap();
        tsr::apk::Index::parse_signed(
            &signed,
            &[(format!("tsr-{}", s.repo_id), s.tsr_key.clone())],
        )
        .unwrap()
    };
    // The tiny census has 1 config-change + 1 shell-activation package.
    assert_eq!(s.upstream.specs.len() - index.len(), 2);
    let rejected = s
        .service
        .with_repository(&s.repo_id, |r| r.rejected().to_vec())
        .unwrap();
    assert_eq!(rejected.len(), 2);
}

#[test]
fn sanitized_packages_pass_local_appraisal_enforcement() {
    let s = setup(b"it-e2e-4");
    let mut os = boot_os(&s, b"os-4");
    os.appraisal_enforced = true; // IMA-appraisal mode (kernel enforcement)
    let index = {
        let signed = s.service.fetch_index(&s.repo_id).unwrap();
        tsr::apk::Index::parse_signed(
            &signed,
            &[(format!("tsr-{}", s.repo_id), s.tsr_key.clone())],
        )
        .unwrap()
    };
    // Pick a scriptless package (its files all carry TSR signatures; config
    // files from the base system are not re-measured).
    let name = index
        .iter()
        .map(|e| e.name.clone())
        .find(|n| {
            let blob = s.service.fetch_package(&s.repo_id, n).unwrap();
            tsr::apk::Package::parse(&blob).unwrap().scripts.is_empty()
        })
        .expect("scriptless package exists");
    let blob = s.service.fetch_package(&s.repo_id, &name).unwrap();
    os.install(&blob).unwrap();
}

#[test]
fn attestation_detects_post_install_tampering() {
    let s = setup(b"it-e2e-5");
    let mut os = boot_os(&s, b"os-5");
    let monitor = monitor_for(&s, &os);
    let index = {
        let signed = s.service.fetch_index(&s.repo_id).unwrap();
        tsr::apk::Index::parse_signed(
            &signed,
            &[(format!("tsr-{}", s.repo_id), s.tsr_key.clone())],
        )
        .unwrap()
    };
    let name = &index.iter().next().unwrap().name;
    let blob = s.service.fetch_package(&s.repo_id, name).unwrap();
    os.install(&blob).unwrap();
    let v = monitor.verify(&os.attest(b"n1"), os.tpm.attestation_key(), b"n1");
    assert!(v.is_trusted());
    // Adversary tampers with an installed binary.
    let victim = format!("/usr/bin/{name}");
    os.tamper_file(&victim, b"malware".to_vec()).unwrap();
    let v = monitor.verify(&os.attest(b"n2"), os.tpm.attestation_key(), b"n2");
    assert!(!v.is_trusted());
}
