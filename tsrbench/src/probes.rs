//! The layer probes of the traced run: direct calls into the public
//! functions of single layers, timed from outside, on the same inputs
//! the workload used. Each probe is one `probe.<layer>` span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tsr_apk::package::build_from_parts;
use tsr_apk::{Index, Package};
use tsr_archive::Archive;
use tsr_core::sanitizer::scan_universe;
use tsr_core::{Policy, TsrRepository, TsrService};
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::Sha256;
use tsr_http::{Client, Request, Response, Server};
use tsr_net::LatencyModel;
use tsr_quorum::{fetch_package_verified, read_index_quorum, QuorumConfig};
use tsr_script::sanitize_script;
use tsr_sgx::Cpu;
use tsr_store::{DirBackend, StoreEngine, WalRecord};
use tsr_tpm::Tpm;
use tsr_wire::{PackagePage, WireDto};

use crate::spec::{KEY_BITS, PAGE_LIMIT, TIMEOUT};
use crate::stats;
use crate::trace::Trace;
use crate::world::{mirrors_with, Error, WorkDir, World};

/// Metric name → value.
pub type Layers = BTreeMap<&'static str, f64>;

/// Median wall time of `n` calls of `f`, microseconds.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Megabytes per second for `bytes` processed since `since`.
fn mb_per_s(bytes: usize, since: Instant) -> f64 {
    bytes as f64 / 1e6 / since.elapsed().as_secs_f64().max(1e-9)
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        headers: Default::default(),
        body: Vec::new(),
    }
}

/// The probes that need only the upstream snapshot: `crypto`, `apk`,
/// `archive`, `script`, `quorum`, `repository.persist_ms`, `store`
/// (direct engine) and the bare-HTTP round trip.
pub fn offline(
    trace: &mut Trace,
    parent: u32,
    world: &World,
    out: &mut Layers,
) -> Result<(), Error> {
    let snapshot = &world.base_snapshot;
    let key = &world.upstream.signing_key;
    let signer = world.upstream.signer_name.as_str();
    let policy = world.policy.as_str();
    let blobs: Vec<&Vec<u8>> = snapshot.packages.values().collect();
    let blob_bytes: usize = blobs.iter().map(|b| b.len()).sum();
    let public = key.public_key().clone();
    let signers = [(signer.to_string(), public.clone())];

    let span = trace.begin("probe.crypto", parent);
    let t = Instant::now();
    for b in &blobs {
        black_box(Sha256::digest(b));
    }
    out.insert("crypto.sha256_mb_per_s", mb_per_s(blob_bytes, t));
    let msg = Sha256::digest(b"tsrbench");
    let sig = key.sign_pkcs1_sha256(&msg);
    out.insert(
        "crypto.rsa_sign_us",
        median_us(200, || {
            black_box(key.sign_pkcs1_sha256(black_box(&msg)));
        }),
    );
    out.insert(
        "crypto.rsa_verify_us",
        median_us(200, || {
            black_box(public.verify_pkcs1_sha256(black_box(&msg), &sig).is_ok());
        }),
    );
    trace.end(span);

    let span = trace.begin("probe.apk", parent);
    let t = Instant::now();
    let packages: Vec<Package> = blobs
        .iter()
        .map(|b| Package::parse(b))
        .collect::<Result<_, _>>()?;
    out.insert("apk.decode_mb_per_s", mb_per_s(blob_bytes, t));
    let t = Instant::now();
    let rebuilt: usize = packages
        .iter()
        .map(|p| build_from_parts(&p.meta, &p.scripts, &p.files, key, signer).len())
        .sum();
    out.insert("apk.encode_mb_per_s", mb_per_s(rebuilt, t));
    let index = Index::parse_signed(&snapshot.signed_index, &signers)?;
    out.insert(
        "apk.index_verify_us",
        median_us(20, || {
            black_box(Index::parse_signed(&snapshot.signed_index, &signers).is_ok());
        }),
    );
    out.insert(
        "apk.index_sign_us",
        median_us(20, || {
            black_box(index.sign(key, signer));
        }),
    );
    trace.end(span);

    let span = trace.begin("probe.archive", parent);
    let entries: Vec<_> = packages.iter().map(|p| p.files.clone()).collect();
    let t = Instant::now();
    let tars: Vec<Vec<u8>> = entries.into_iter().map(Archive::build).collect();
    let tar_bytes: usize = tars.iter().map(Vec::len).sum();
    out.insert("archive.build_mb_per_s", mb_per_s(tar_bytes, t));
    let t = Instant::now();
    for tar in &tars {
        black_box(Archive::parse(tar)?);
    }
    out.insert("archive.parse_mb_per_s", mb_per_s(tar_bytes, t));
    drop(tars);
    trace.end(span);

    let span = trace.begin("probe.script", parent);
    let t = Instant::now();
    let mut universe = scan_universe(blobs.iter().map(|b| b.as_slice()));
    out.insert("script.universe_scan_ms", t.elapsed().as_secs_f64() * 1e3);
    universe.assign_ids();
    let scripts: Vec<&str> = packages
        .iter()
        .flat_map(|p| p.scripts.iter().map(|(_, body)| body))
        .collect();
    let per_script: Vec<f64> = scripts
        .iter()
        .map(|s| median_us(5, || drop(black_box(sanitize_script(s, &universe)))))
        .collect();
    out.insert(
        "script.sanitize_us",
        stats::median(&per_script).unwrap_or(0.0),
    );
    trace.end(span);

    let span = trace.begin("probe.quorum", parent);
    let mirrors = mirrors_with(snapshot);
    let (cfg, model) = (QuorumConfig::default(), LatencyModel::default());
    let mut rng = HmacDrbg::new(b"tsrbench-probe");
    out.insert(
        "quorum.index_read_ms",
        median_us(10, || {
            black_box(read_index_quorum(&mirrors, &cfg, &model, &signers, &mut rng).is_ok());
        }) / 1e3,
    );
    let fetches: Vec<f64> = index
        .iter()
        .map(|e| {
            let t = Instant::now();
            black_box(
                fetch_package_verified(&mirrors, &e.name, &index, &cfg, &model, &mut rng).is_ok(),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.insert(
        "quorum.fetch_verified_us",
        stats::median(&fetches).unwrap_or(0.0),
    );
    trace.end(span);

    // `persist` alone: a repository driven by hand through the unsealed
    // refresh, then the seal is timed.
    let span = trace.begin("probe.repository", parent);
    let cpu = Cpu::new(b"tsrbench-probe");
    let mut tpm = Tpm::new(b"tsrbench-probe");
    let enclave = cpu.load_enclave(b"tsrbench-probe-enclave");
    let mut repo = TsrRepository::init(
        "probe",
        Policy::parse(policy)?,
        &enclave,
        &mut tpm,
        KEY_BITS,
    );
    repo.refresh_unsealed(&mirrors, &model, &mut rng, tsr_core::default_workers())?;
    out.insert(
        "repository.persist_ms",
        median_us(5, || {
            black_box(repo.persist(&enclave, &mut tpm).is_ok());
        }) / 1e3,
    );
    drop(repo);
    trace.end(span);

    let span = trace.begin("probe.store", parent);
    let dir = WorkDir::new("probe-store")?;
    let (mut engine, _) = StoreEngine::open(Box::new(DirBackend::new(dir.path())?))?;
    let mut n = 0u32;
    let mut failed = false;
    out.insert(
        "store.wal_append_us",
        median_us(200, || {
            n += 1;
            failed |= engine
                .append(&WalRecord::RepoCreated {
                    id: format!("repo-{n}"),
                    policy_text: policy.to_string(),
                })
                .is_err();
        }),
    );
    let t = Instant::now();
    for b in &blobs {
        failed |= engine.put_blob(b).is_err();
    }
    out.insert("store.put_blob_mb_per_s", mb_per_s(blob_bytes, t));
    out.insert(
        "store.snapshot_ms",
        median_us(5, || failed |= engine.write_snapshot().is_err()) / 1e3,
    );
    drop(engine);
    if failed {
        return Err("a direct store operation failed".into());
    }
    trace.end(span);

    let span = trace.begin("probe.http", parent);
    let server = Server::bind("127.0.0.1:0", |_req: &mut Request| {
        Response::text(200, "ok")
    })?;
    let url = format!("http://{}/", server.local_addr());
    let client = Client::with_keep_alive(TIMEOUT);
    let mut failed = false;
    out.insert(
        "http.roundtrip_floor_us",
        median_us(2000, || failed |= client.get(&url).is_err()),
    );
    server.shutdown();
    if failed {
        return Err("the bare HTTP ping-pong failed".into());
    }
    trace.end(span);
    Ok(())
}

/// The probes that call a live, refreshed service in-process: the
/// `service.handle_*` routes without a socket, the exposition render,
/// and the JSON encode/parse of one package page.
pub fn in_process(
    trace: &mut Trace,
    parent: u32,
    svc: &TsrService,
    repo: &str,
    names: &[String],
    out: &mut Layers,
) -> Result<(), Error> {
    let span = trace.begin("probe.service", parent);
    let index_req = get(&format!("/v1/repositories/{repo}/index"));
    let first = svc.handle(&index_req);
    let etag = first
        .headers
        .get("etag")
        .cloned()
        .ok_or("index without ETag")?;
    let mut cond_req = index_req.clone();
    cond_req.headers.insert("if-none-match".into(), etag);
    let mut i = 0usize;
    let mut statuses_ok = true;
    let mut call = |req: &Request, want: u16| {
        statuses_ok &= black_box(svc.handle(req)).status == want;
    };
    out.insert(
        "service.handle_index_us",
        median_us(2000, || call(&index_req, 200)),
    );
    out.insert(
        "service.handle_index_304_us",
        median_us(2000, || call(&cond_req, 304)),
    );
    let package_reqs: Vec<Request> = names
        .iter()
        .map(|n| get(&format!("/v1/repositories/{repo}/packages/{n}")))
        .collect();
    out.insert(
        "service.handle_package_us",
        median_us(2000, || {
            i += 1;
            call(&package_reqs[i % package_reqs.len()], 200);
        }),
    );
    let page_req = get(&format!(
        "/v1/repositories/{repo}/packages?offset=0&limit={PAGE_LIMIT}"
    ));
    out.insert(
        "service.handle_page_us",
        median_us(2000, || call(&page_req, 200)),
    );
    let health_req = get("/v1/healthz");
    out.insert(
        "service.handle_health_us",
        median_us(2000, || call(&health_req, 200)),
    );
    if !statuses_ok {
        return Err("an in-process handle call answered an unexpected status".into());
    }
    trace.end(span);

    let span = trace.begin("probe.obs", parent);
    out.insert(
        "obs.render_prometheus_us",
        median_us(50, || {
            black_box(svc.render_prometheus());
        }),
    );
    trace.end(span);

    let span = trace.begin("probe.wire", parent);
    let body = svc.handle(&page_req).body.into_vec();
    let text = String::from_utf8(body)?;
    let page = PackagePage::decode(&text)?;
    out.insert(
        "wire.json_parse_us",
        median_us(500, || {
            black_box(PackagePage::decode(black_box(&text)).is_ok());
        }),
    );
    out.insert(
        "wire.json_encode_us",
        median_us(500, || {
            black_box(page.encode());
        }),
    );
    trace.end(span);
    Ok(())
}

/// The replication primitives, called directly: export on `from`, apply
/// on `onto` (a node of the same platform seed).
pub fn replication(
    trace: &mut Trace,
    parent: u32,
    from: &TsrService,
    onto: &TsrService,
    repo: &str,
    out: &mut Layers,
) -> Result<(), Error> {
    let span = trace.begin("probe.cluster", parent);
    let state = from.export_replicated_state(repo)?;
    out.insert(
        "cluster.export_state_ms",
        median_us(5, || {
            black_box(from.export_replicated_state(repo).is_ok());
        }) / 1e3,
    );
    let bytes = state.upstream_index.len()
        + state.sanitized_index.len()
        + state.sealed.len()
        + state.blobs.iter().map(|(_, b)| b.len()).sum::<usize>();
    out.insert("cluster.state_bytes", bytes as f64);
    let mut failed = false;
    out.insert(
        "cluster.apply_state_ms",
        median_us(3, || failed |= onto.apply_replicated_state(&state).is_err()) / 1e3,
    );
    if failed {
        return Err("apply_replicated_state failed in the probe".into());
    }
    trace.end(span);
    Ok(())
}

/// Median wall time of opening the storage engine on `store_dir`,
/// milliseconds, and the bytes the directory holds.
pub fn store_open(store_dir: &Path) -> Result<(f64, u64), Error> {
    let mut failed = false;
    let ms = median_us(3, || {
        failed |= DirBackend::new(store_dir)
            .and_then(|b| StoreEngine::open(Box::new(b)))
            .is_err();
    }) / 1e3;
    if failed {
        return Err("the storage engine did not reopen".into());
    }
    fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            total += if meta.is_dir() {
                dir_bytes(&entry.path())?
            } else {
                meta.len()
            };
        }
        Ok(total)
    }
    Ok((ms, dir_bytes(store_dir)?))
}
