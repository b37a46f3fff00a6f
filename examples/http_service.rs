//! Serve the TSR REST API on a local port against a synthetic upstream,
//! then drive it end to end with the typed [`TsrClient`] SDK.
//!
//! Everything after server start goes through the `/v1` JSON API: policy
//! deployment, refresh (with the full structured report), health, the
//! paginated package listing, a conditional index fetch, and client-side
//! verified attestation. The server keeps running so the API can also be
//! driven with any HTTP client:
//!
//! ```console
//! cargo run --example http_service -- 8080 &
//! curl http://127.0.0.1:8080/v1/healthz
//! curl http://127.0.0.1:8080/v1/repositories/repo-1/packages?limit=3
//! curl http://127.0.0.1:8080/repositories/repo-1/APKINDEX   # what a package manager fetches
//! ```
//!
//! The first argument is the port (default 0 = OS-assigned; the bound
//! address is printed). The server runs until the process is killed.

use tsr_crypto::RsaPublicKey;
use tsr_mirror::{publish_to_all, Mirror};
use tsr_net::{Continent, LatencyModel};
use tsr_wire::{IndexFetch, TsrClient};
use tsr_workload::{GeneratedRepo, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let port: u16 = std::env::args()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);

    println!("==> generating synthetic upstream repository");
    let repo = GeneratedRepo::generate(WorkloadConfig::tiny(b"http-service"));
    let mut mirrors: Vec<Mirror> = (0..3)
        .map(|i| Mirror::new(format!("mirror-{i}"), Continent::Europe))
        .collect();
    publish_to_all(&mut mirrors, &repo.snapshot());

    println!("==> starting TSR service");
    let service =
        tsr_core::TsrService::new(b"http-service-cpu", mirrors, LatencyModel::default(), 1024);
    let server = service.serve(&format!("127.0.0.1:{port}"))?;
    let base = format!("http://{}", server.local_addr());
    println!("==> serving on {base}");

    // Everything below runs over the wire, through the typed SDK.
    let client = TsrClient::new(&base);

    let health = client.health()?;
    println!(
        "    healthz: status={} repositories={}",
        health.status, health.repositories
    );

    println!("==> deploying a policy over POST /v1/repositories");
    let signer_pem: String = repo
        .signing_key
        .public_key()
        .to_pem()
        .lines()
        .map(|l| format!("      {l}\n"))
        .collect();
    let policy = format!(
        "mirrors:\n\
         \x20 - hostname: mirror-0\n\
         \x20   continent: europe\n\
         \x20 - hostname: mirror-1\n\
         \x20   continent: europe\n\
         \x20 - hostname: mirror-2\n\
         \x20   continent: europe\n\
         signers_keys:\n\
         \x20 - |-\n{signer_pem}\
         f: 1\n"
    );
    let created = client.create_repository(&policy)?;
    let id = created.id.clone();
    println!("    created {id}");

    println!("==> refreshing over POST /v1/repositories/{id}/refresh");
    let report = client.refresh(&id)?;
    println!(
        "    downloaded {} / sanitized {} / rejected {} (quorum {} µs over {} mirrors)",
        report.downloaded,
        report.sanitized.len(),
        report.rejected.len(),
        report.quorum_elapsed_us,
        report.quorum_contacted,
    );

    let page = client.packages(&id, 0, 5)?;
    println!("    {} packages total; first page:", page.total);
    for item in &page.items {
        println!("      {} {} ({} bytes)", item.name, item.version, item.size);
    }

    // Conditional GET: the second fetch with the ETag comes back 304.
    let (index_bytes, etag) = client.index(&id)?;
    println!("    index: {} bytes, etag {:?}", index_bytes.len(), etag);
    if let Some(etag) = etag {
        match client.index_if_none_match(&id, &etag)? {
            IndexFetch::NotModified => println!("    conditional re-fetch: 304 not modified"),
            IndexFetch::Fresh { bytes, .. } => {
                println!("    unexpected fresh body: {} bytes", bytes.len())
            }
        }
    }

    // Client-side verified attestation (Figure 7 step ➊).
    let platform_key = RsaPublicKey::from_pem(&service.platform_key_pem())?;
    let attestation =
        client.attest(b"sdk-nonce", &platform_key, tsr_core::service::ENCLAVE_CODE)?;
    println!(
        "==> attestation verified client-side (mrenclave {}…)",
        &attestation.mrenclave[..16]
    );

    println!("==> try:");
    println!("    curl {base}/v1/healthz");
    println!("    curl {base}/v1/metrics");
    println!("    curl {base}/v1/repositories/{id}/packages?limit=3");
    println!("    curl {base}/repositories/{id}/APKINDEX   # what a package manager fetches");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
