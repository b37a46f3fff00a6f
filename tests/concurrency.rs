//! Concurrency integration tests for the sharded TSR service: refreshes
//! of different tenants must run in parallel without deadlock while reads
//! are hammering a third tenant, and the bytes served must be identical
//! to a fully sequential service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tsr::core::TsrService;
use tsr::crypto::drbg::HmacDrbg;
use tsr::crypto::RsaPrivateKey;
use tsr::mirror::{publish_to_all, Mirror, RepoSnapshot};
use tsr::net::{Continent, LatencyModel};

fn upstream_key() -> RsaPrivateKey {
    let mut rng = HmacDrbg::new(b"conc-upstream");
    RsaPrivateKey::generate(1024, &mut rng)
}

fn policy_text(key: &RsaPrivateKey) -> String {
    let pem: String = key
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

/// Builds a mirror fleet carrying `n` packages, several with
/// account-touching scripts so sanitization does real work.
fn mirrors(key: &RsaPrivateKey, n: usize) -> Vec<Mirror> {
    let mut index = tsr::apk::Index::new();
    index.snapshot = 1;
    let mut packages = std::collections::BTreeMap::new();
    for i in 0..n {
        let name = format!("pkg{i}");
        let mut b = tsr::apk::PackageBuilder::new(&name, "1.0");
        b.file(tsr::archive::Entry::file(
            format!("usr/bin/{name}"),
            vec![i as u8; 2048],
        ));
        if i % 3 == 0 {
            b.post_install(format!("adduser -S -D -H svc{i}\nmkdir -p /var/lib/{name}"));
        }
        let blob = b.build(key, "builder");
        index.upsert(tsr::apk::Index::entry_for_blob(&name, "1.0", &[], &blob));
        packages.insert(name, blob);
    }
    let snap = RepoSnapshot {
        snapshot_id: 1,
        signed_index: index.sign(key, "builder"),
        packages,
    };
    let mut ms: Vec<Mirror> = (0..3)
        .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
        .collect();
    publish_to_all(&mut ms, &snap);
    ms
}

fn service_with_tenants(seed: &[u8], tenants: usize) -> (TsrService, Vec<String>) {
    let key = upstream_key();
    let svc = TsrService::new(seed, mirrors(&key, 12), LatencyModel::default(), 1024);
    let ids = (0..tenants)
        .map(|_| svc.create_repository(&policy_text(&key)).unwrap().0)
        .collect();
    (svc, ids)
}

#[test]
fn parallel_refreshes_with_concurrent_reads_do_not_deadlock() {
    let (svc, ids) = service_with_tenants(b"conc-1", 3);
    // Pre-refresh the third tenant so readers have something to fetch.
    svc.refresh(&ids[2]).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // Hammer GET /APKINDEX on tenant 3 from four reader threads while the
    // first two tenants refresh on two more threads.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let svc = svc.clone();
            let id = ids[2].clone();
            let stop = stop.clone();
            thread::spawn(move || {
                let mut reads = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let idx = svc.fetch_index(&id).unwrap();
                    assert!(!idx.is_empty());
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Refreshers report back over a channel so the deadlock guard is a
    // bounded recv_timeout, never an unbounded join().
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    for id in &ids[..2] {
        let svc = svc.clone();
        let id = id.clone();
        let done_tx = done_tx.clone();
        thread::spawn(move || {
            let report = svc.refresh(&id).unwrap();
            done_tx.send(report).unwrap();
        });
    }
    drop(done_tx);

    let deadline = Instant::now() + Duration::from_secs(120);
    for _ in 0..2 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let report = done_rx
            .recv_timeout(remaining)
            .expect("refresh threads did not finish in time (deadlock?)");
        assert!(!report.sanitized.is_empty());
    }
    stop.store(true, Ordering::Relaxed);
    let total_reads: usize = readers
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .sum();
    assert!(total_reads > 0, "readers made progress during refreshes");

    // All three tenants serve valid indexes afterwards.
    for id in &ids {
        assert!(!svc.fetch_index(id).unwrap().is_empty());
    }
}

#[test]
fn concurrent_service_serves_bytes_identical_to_sequential() {
    // Sequential baseline: one worker, one thread, same seed.
    let (seq, seq_ids) = service_with_tenants(b"conc-2", 2);
    seq.set_workers(1);
    for id in &seq_ids {
        seq.refresh(id).unwrap();
    }

    // Concurrent service: many workers, refreshes from separate threads.
    let (par, par_ids) = service_with_tenants(b"conc-2", 2);
    par.set_workers(8);
    let handles: Vec<_> = par_ids
        .iter()
        .map(|id| {
            let svc = par.clone();
            let id = id.clone();
            thread::spawn(move || svc.refresh(&id).unwrap())
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Tenant ids are assigned in creation order, and each repository's
    // signing key is derived deterministically from (enclave, id) — so the
    // signed indexes and every package blob must match byte-for-byte.
    for (a, b) in seq_ids.iter().zip(&par_ids) {
        assert_eq!(a, b, "tenant ids must be assigned identically");
        let idx_seq = seq.fetch_index(a).unwrap();
        let idx_par = par.fetch_index(b).unwrap();
        assert_eq!(idx_seq, idx_par, "signed APKINDEX diverged for {a}");
        for i in 0..12 {
            let name = format!("pkg{i}");
            assert_eq!(
                seq.fetch_package(a, &name).unwrap(),
                par.fetch_package(b, &name).unwrap(),
                "sanitized package {name} diverged for {a}"
            );
        }
    }
}

#[test]
fn repository_refresh_parallel_matches_sequential_bytes() {
    // Below the service layer: `refresh_unsealed` + `persist` at several
    // worker counts produce the same signed index as workers = 1.
    use tsr::core::{Policy, TsrRepository};
    use tsr::sgx::Cpu;
    use tsr::tpm::Tpm;

    let key = upstream_key();
    let ms = mirrors(&key, 12);
    let model = LatencyModel::default();
    let policy = Policy::parse(&policy_text(&key)).unwrap();

    let run = |workers: usize| {
        let cpu = Cpu::new(b"conc-cpu");
        let mut tpm = Tpm::new(b"conc-tpm");
        let enclave = cpu.load_enclave(b"conc-enclave");
        let mut repo = TsrRepository::init("r", policy.clone(), &enclave, &mut tpm, 1024);
        let mut rng = HmacDrbg::new(b"conc-rng");
        repo.refresh_unsealed(&ms, &model, &mut rng, workers)
            .unwrap();
        repo.persist(&enclave, &mut tpm).unwrap();
        repo.serve_index().unwrap()
    };

    let baseline = run(1);
    for workers in [2, 4, 8] {
        assert_eq!(
            run(workers),
            baseline,
            "signed index diverged at {workers} workers"
        );
    }
}
