//! The discrete-event engine: executes a [`Scenario`]'s
//! schedule against a *real* [`TsrService`] under a virtual clock.
//!
//! The engine owns the whole world — the generated upstream, the mirror
//! fleet (inside the service), the network model overlay, and the service
//! itself — and interprets [`SimEvent`]s in virtual-time order. Wall-clock
//! time never enters the simulation: the clock advances by scheduled event
//! times plus the *simulated* durations the service reports (quorum and
//! download times), so a run is reproducible bit-for-bit from its seed.
//!
//! After every relevant event the engine asserts the paper's safety
//! invariants and aborts with [`SimError::Invariant`] on violation:
//!
//! 1. the served snapshot number never decreases,
//! 2. every served package carries a valid signature by the repository
//!    key (only sanitized packages are ever signed),
//! 3. packages the sanitizer must reject (config-change /
//!    shell-activation scripts) never appear in the served index,
//! 4. a crash-restart recovers a byte-identical signed index.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use tsr_apk::{Index, Package};
use tsr_core::{InitConfigFile, MirrorRef, Policy, TsrService};
use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{hex, RsaPublicKey};
use tsr_mirror::{publish_to_all, Mirror};
use tsr_monitor::Monitor;
use tsr_net::{Continent, LatencyModel};
use tsr_pkgmgr::TrustedOs;
use tsr_tpm::IMA_PCR;
use tsr_workload::GeneratedRepo;

use crate::event::SimEvent;
use crate::scenario::Scenario;
use crate::trace::EventTrace;

/// Why a simulation run aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scenario description itself is unusable (bad mirror index,
    /// malformed policy, …).
    Config(String),
    /// A safety invariant was violated — the bug class this harness hunts.
    Invariant(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "scenario configuration error: {m}"),
            SimError::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl Error for SimError {}

/// A failed run: the error plus the event trace recorded up to the
/// failure point, so CI can surface the trace of the scenario that
/// actually went red (a successful-run report is never produced then).
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// What went wrong.
    pub error: SimError,
    /// The trace up to (but excluding) the failing event's outcome.
    pub trace: EventTrace,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl Error for SimFailure {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Per-refresh statistics collected into the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshStat {
    /// Whether the refresh succeeded.
    pub ok: bool,
    /// Simulated quorum-read time.
    pub quorum: Duration,
    /// Packages downloaded.
    pub downloaded: usize,
    /// Packages sanitized this refresh.
    pub sanitized: usize,
    /// Packages rejected as unsupported.
    pub rejected: usize,
    /// Mirrors contacted by the quorum read.
    pub contacted: usize,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run was driven by.
    pub seed: u64,
    /// Events executed.
    pub events: usize,
    /// Successful refreshes.
    pub refresh_ok: usize,
    /// Failed refreshes (masked faults, partitions, rollback attempts).
    pub refresh_err: usize,
    /// Packages served and verified across all probes.
    pub served_packages: usize,
    /// Final virtual time.
    pub virtual_elapsed: Duration,
    /// The last signed index served (the byte-identity witness).
    pub final_index: Vec<u8>,
    /// Per-refresh statistics, in execution order.
    pub refreshes: Vec<RefreshStat>,
    /// The full event trace.
    pub trace: EventTrace,
}

impl SimReport {
    /// The trace as text (what CI stores as a failure artifact).
    pub fn trace_text(&self) -> String {
        self.trace.to_text()
    }

    /// The trace determinism fingerprint.
    pub fn trace_digest(&self) -> String {
        self.trace.digest()
    }
}

/// The live world a run mutates.
struct Sim<'a> {
    scenario: &'a Scenario,
    upstream: GeneratedRepo,
    service: TsrService,
    repo_id: String,
    signer_name: String,
    repo_key: RsaPublicKey,
    base_model: LatencyModel,
    isolated: Vec<Continent>,
    latency_factor: f64,
    clock: Duration,
    trace: EventTrace,
    last_index: Vec<u8>,
    last_snapshot: u64,
    unsupported: BTreeSet<String>,
    refreshes: Vec<RefreshStat>,
    refresh_ok: usize,
    refresh_err: usize,
    served_packages: usize,
    rng: HmacDrbg,
}

/// Turns a setup-stage error into a [`SimFailure`] with an empty trace.
fn config_failure(msg: String) -> SimFailure {
    SimFailure {
        error: SimError::Config(msg),
        trace: EventTrace::new(),
    }
}

/// Executes `scenario`, returning the report or the failure (first
/// violated invariant / configuration error) with its partial trace.
pub(crate) fn run(scenario: &Scenario) -> Result<SimReport, SimFailure> {
    let seed_bytes = format!("sim:{}:{}", scenario.name, scenario.seed);
    let upstream = GeneratedRepo::generate(scenario.workload.clone());
    let unsupported: BTreeSet<String> = upstream.unsupported_names().into_iter().collect();

    let mut mirrors: Vec<Mirror> = scenario
        .fleet
        .iter()
        .enumerate()
        .map(|(i, &continent)| Mirror::new(format!("m{i}"), continent))
        .collect();
    publish_to_all(&mut mirrors, &upstream.snapshot());
    // The deployed security policy, rendered through the core serializer
    // (single source of truth for the policy grammar).
    let policy = Policy {
        mirrors: mirrors
            .iter()
            .map(|m| MirrorRef {
                hostname: m.name.clone(),
                continent: m.continent,
            })
            .collect(),
        signers_keys: vec![upstream.signing_key.public_key().clone()],
        init_config_files: vec![
            InitConfigFile {
                path: "/etc/passwd".into(),
                content: "root:x:0:0:root:/root:/bin/ash".into(),
            },
            InitConfigFile {
                path: "/etc/group".into(),
                content: "root:x:0:".into(),
            },
            InitConfigFile {
                path: "/etc/shadow".into(),
                content: "root:!::0:::::".into(),
            },
        ],
        f: scenario.f,
        package_whitelist: Vec::new(),
        package_blacklist: Vec::new(),
    };

    let base_model = LatencyModel::default();
    let service = TsrService::new(seed_bytes.as_bytes(), mirrors, base_model.clone(), 1024);
    // One refresh worker: an equivocating mirror answers by its shared
    // request count, so with parallel downloads the thread schedule would
    // decide which package gets stale bytes, and with it `download_us`
    // and the sim clock. Worker-count invariance of the served bytes is
    // covered by `ablation_parallel` and `tests/concurrency.rs`.
    service.set_workers(1);
    let (repo_id, pem) = service
        .create_repository(&policy.to_text())
        .map_err(|e| config_failure(format!("policy rejected: {e}")))?;
    let repo_key = RsaPublicKey::from_pem(&pem)
        .map_err(|e| config_failure(format!("unparsable repository key: {e}")))?;

    let mut sim = Sim {
        signer_name: format!("tsr-{repo_id}"),
        scenario,
        upstream,
        service,
        repo_id,
        repo_key,
        base_model,
        isolated: Vec::new(),
        latency_factor: 1.0,
        clock: Duration::ZERO,
        trace: EventTrace::new(),
        last_index: Vec::new(),
        last_snapshot: 0,
        unsupported,
        refreshes: Vec::new(),
        refresh_ok: 0,
        refresh_err: 0,
        served_packages: 0,
        rng: HmacDrbg::new(format!("sim-run:{seed_bytes}").as_bytes()),
    };
    sim.trace.record(
        Duration::ZERO,
        format!(
            "scenario {} seed {} mirrors {} f {} packages {}",
            scenario.name,
            scenario.seed,
            scenario.fleet.len(),
            scenario.f,
            sim.upstream.specs.len()
        ),
    );

    for (t, event) in &scenario.schedule {
        sim.clock = sim.clock.max(*t);
        if let Err(error) = sim.execute(event) {
            sim.trace
                .record(sim.clock, format!("FAILED {event}: {error}"));
            return Err(SimFailure {
                error,
                trace: sim.trace,
            });
        }
    }

    Ok(SimReport {
        scenario: scenario.name.clone(),
        seed: scenario.seed,
        events: scenario.schedule.len(),
        refresh_ok: sim.refresh_ok,
        refresh_err: sim.refresh_err,
        served_packages: sim.served_packages,
        virtual_elapsed: sim.clock,
        final_index: sim.last_index,
        refreshes: sim.refreshes,
        trace: sim.trace,
    })
}

impl Sim<'_> {
    fn execute(&mut self, event: &SimEvent) -> Result<(), SimError> {
        match event {
            SimEvent::PublishUpdate { packages } => self.publish(*packages),
            SimEvent::SetBehavior { mirror, behavior } => {
                let fleet = self.scenario.fleet.len();
                if *mirror >= fleet {
                    return Err(SimError::Config(format!(
                        "mirror {mirror} out of range (fleet {fleet})"
                    )));
                }
                self.service
                    .with_mirrors(|ms| ms[*mirror].set_behavior(*behavior));
                self.record(format!("mirror m{mirror} behavior {behavior:?}"));
                Ok(())
            }
            SimEvent::Partition { isolated } => {
                self.isolated = isolated.clone();
                self.apply_model();
                self.record(SimEvent::Partition {
                    isolated: isolated.clone(),
                });
                Ok(())
            }
            SimEvent::Heal => {
                // Heals the partition only: an active latency spike keeps
                // holding until its own end event, so overlapping
                // injectors compose without cancelling each other.
                self.isolated.clear();
                self.apply_model();
                self.record("partition healed");
                Ok(())
            }
            SimEvent::LatencySpike { factor } => {
                self.latency_factor = *factor;
                self.apply_model();
                self.record(format!("latency factor {factor}"));
                Ok(())
            }
            SimEvent::Refresh => self.refresh(),
            SimEvent::ServeAll => self.serve_all(),
            SimEvent::CrashRestart => self.crash_restart(),
            SimEvent::AttestedInstall { packages } => self.attested_install(*packages),
        }
    }

    fn record(&mut self, msg: impl ToString) {
        self.trace.record(self.clock, msg.to_string());
    }

    fn apply_model(&mut self) {
        self.service.set_model(
            self.base_model
                .clone()
                .with_latency_factor(self.latency_factor)
                .with_isolated(self.isolated.clone()),
        );
    }

    fn publish(&mut self, packages: usize) -> Result<(), SimError> {
        let updated = self.upstream.publish_update(packages);
        let snap = self.upstream.snapshot();
        self.service.with_mirrors(|ms| publish_to_all(ms, &snap));
        self.record(format!(
            "publish snapshot={} updated=[{}]",
            snap.snapshot_id,
            updated.join(",")
        ));
        Ok(())
    }

    fn refresh(&mut self) -> Result<(), SimError> {
        match self.service.refresh(&self.repo_id) {
            Ok(report) => {
                self.clock += report.quorum_elapsed + report.download_elapsed;
                self.refresh_ok += 1;
                self.refreshes.push(RefreshStat {
                    ok: true,
                    quorum: report.quorum_elapsed,
                    downloaded: report.downloaded,
                    sanitized: report.sanitized.len(),
                    rejected: report.rejected.len(),
                    contacted: report.quorum_contacted,
                });
                self.record(format!(
                    "refresh ok downloaded={} sanitized={} rejected={} contacted={} quorum_us={} download_us={}",
                    report.downloaded,
                    report.sanitized.len(),
                    report.rejected.len(),
                    report.quorum_contacted,
                    report.quorum_elapsed.as_micros(),
                    report.download_elapsed.as_micros(),
                ));
                self.check_served_index()
            }
            Err(e) => {
                // Faults cost the client a timeout-scale delay.
                self.clock += Duration::from_secs(1);
                self.refresh_err += 1;
                self.refreshes.push(RefreshStat {
                    ok: false,
                    quorum: Duration::ZERO,
                    downloaded: 0,
                    sanitized: 0,
                    rejected: 0,
                    contacted: 0,
                });
                self.record(format!("refresh err {e}"));
                // A failed refresh must not have clobbered what is served.
                if !self.last_index.is_empty() {
                    self.check_served_index()?;
                }
                Ok(())
            }
        }
    }

    /// Fetches + verifies the served signed index and updates the
    /// monotonicity witness.
    fn check_served_index(&mut self) -> Result<(), SimError> {
        let signed = self
            .service
            .fetch_index(&self.repo_id)
            .map_err(|e| SimError::Invariant(format!("index unavailable after refresh: {e}")))?;
        let keys = vec![(self.signer_name.clone(), self.repo_key.clone())];
        let index = Index::parse_signed(&signed, &keys)
            .map_err(|e| SimError::Invariant(format!("served index fails verification: {e}")))?;
        if index.snapshot < self.last_snapshot {
            return Err(SimError::Invariant(format!(
                "served snapshot went backwards: {} < {}",
                index.snapshot, self.last_snapshot
            )));
        }
        for name in &self.unsupported {
            if index.get(name).is_some() {
                return Err(SimError::Invariant(format!(
                    "unsupported package {name} appears in the served index"
                )));
            }
        }
        self.last_snapshot = index.snapshot;
        self.last_index = signed;
        Ok(())
    }

    fn serve_all(&mut self) -> Result<(), SimError> {
        if self.last_index.is_empty() {
            self.record("serve skipped (not yet refreshed)");
            return Ok(());
        }
        let keys = vec![(self.signer_name.clone(), self.repo_key.clone())];
        let index = Index::parse_signed(&self.last_index, &keys)
            .map_err(|e| SimError::Invariant(format!("stored index invalid: {e}")))?;
        let mut bytes = 0usize;
        let mut count = 0usize;
        for entry in index.iter() {
            let blob = self
                .service
                .fetch_package(&self.repo_id, &entry.name)
                .map_err(|e| {
                    SimError::Invariant(format!("indexed package {} unserved: {e}", entry.name))
                })?;
            let pkg = Package::parse(&blob).map_err(|e| {
                SimError::Invariant(format!("served package {} unparsable: {e}", entry.name))
            })?;
            pkg.verify(&self.repo_key).map_err(|e| {
                SimError::Invariant(format!(
                    "served package {} not signed by the repository: {e}",
                    entry.name
                ))
            })?;
            bytes += blob.len();
            count += 1;
        }
        self.served_packages += count;
        self.record(format!("serve ok packages={count} bytes={bytes}"));
        Ok(())
    }

    fn crash_restart(&mut self) -> Result<(), SimError> {
        let results = self.service.crash_restart();
        for (id, outcome) in &results {
            if let Err(e) = outcome {
                return Err(SimError::Invariant(format!(
                    "repository {id} failed to restore after crash: {e}"
                )));
            }
        }
        // A never-refreshed tenant serves no index, before or after.
        let after = self.service.fetch_index(&self.repo_id).unwrap_or_default();
        if after != self.last_index {
            return Err(SimError::Invariant(
                "signed index changed across crash-restart".into(),
            ));
        }
        self.record(format!(
            "crash-restart ok repos={} index_identical=true",
            results.len()
        ));
        Ok(())
    }

    fn attested_install(&mut self, packages: usize) -> Result<(), SimError> {
        if self.last_index.is_empty() {
            self.record("attested install skipped (not yet refreshed)");
            return Ok(());
        }
        let keys = vec![(self.signer_name.clone(), self.repo_key.clone())];
        let index = Index::parse_signed(&self.last_index, &keys)
            .map_err(|e| SimError::Invariant(format!("stored index invalid: {e}")))?;
        let os_seed = self.rng.bytes(16);
        let mut os = TrustedOs::boot(
            &os_seed,
            &[
                (
                    "/etc/passwd".into(),
                    "root:x:0:0:root:/root:/bin/ash".into(),
                ),
                ("/etc/group".into(), "root:x:0:".into()),
                ("/etc/shadow".into(), "root:!::0:::::".into()),
            ],
        );
        os.trust_key(self.signer_name.clone(), self.repo_key.clone());
        let mut monitor = Monitor::new();
        monitor.whitelist_log(os.ima.log());
        monitor.trust_signer(self.repo_key.clone());

        let mut installed = 0usize;
        for entry in index.iter().take(packages) {
            let blob = self
                .service
                .fetch_package(&self.repo_id, &entry.name)
                .map_err(|e| {
                    SimError::Invariant(format!("indexed package {} unserved: {e}", entry.name))
                })?;
            os.install(&blob).map_err(|e| {
                SimError::Invariant(format!(
                    "sanitized package {} failed to install: {e}",
                    entry.name
                ))
            })?;
            installed += 1;
        }
        self.served_packages += installed;

        let nonce = self.rng.bytes(16);
        let evidence = os.attest(&nonce);
        let verdict = monitor.verify(&evidence, os.tpm.attestation_key(), &nonce);
        if !verdict.is_trusted() {
            return Err(SimError::Invariant(format!(
                "attestation broken after installing sanitized packages: {:?}",
                verdict.violations
            )));
        }
        let pcr = os
            .tpm
            .read_pcr(IMA_PCR)
            .map_err(|e| SimError::Config(format!("pcr read: {e}")))?;
        self.record(format!(
            "attest trusted=true installed={installed} explained={} signed={} pcr10={}",
            verdict.explained(),
            verdict.signed,
            &hex::to_hex(&pcr)[..16],
        ));
        Ok(())
    }
}
