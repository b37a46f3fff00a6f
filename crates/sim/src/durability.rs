//! Crash-at-any-event durability scenarios for the storage engine.
//!
//! The store contract (`tsr-store`) says: every state mutation is WAL'd
//! before it becomes observable, so killing the process at *any* point
//! and replaying snapshot + log reproduces the byte-identical signed
//! index. This module turns that claim into a sweep: a store-backed
//! [`TsrService`] runs a schedule of mutation events on a shared
//! [`SimFs`] disk, and **after every event** the driver clones the disk
//! (a simulated `kill -9` at that instant), recovers a *fresh* service
//! from the clone, and compares the recovered observable state — signed
//! index bytes and every served package blob, per tenant — against the
//! live service.
//!
//! A final **torn-tail sweep** truncates the surviving WAL at evenly
//! spaced byte offsets (including mid-frame and mid-record cuts):
//! recovery must still succeed, and the recovered state must equal one
//! of the previously observed event-boundary states — a torn tail may
//! lose the suffix, never invent state or wedge recovery.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tsr_apk::Index;
use tsr_core::{InitConfigFile, MirrorRef, Policy, TsrService};
use tsr_crypto::RsaPublicKey;
use tsr_mirror::{publish_to_all, Mirror};
use tsr_net::{Continent, LatencyModel};
use tsr_simfs::{SimFs, SimFsBackend};
use tsr_workload::GeneratedRepo;

use crate::engine::{SimError, SimFailure};
use crate::scenario::default_workload;
use crate::trace::EventTrace;

/// Where the store engine lives on the simulated disk.
const STORE_ROOT: &str = "/store";

/// One durable-state mutation in a durability schedule.
///
/// Tenant-indexed events address the *live* tenant list modulo its
/// length (and no-op while it is empty), so schedules stay valid under
/// create/delete churn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityEvent {
    /// Upstream publishes an update and all mirrors pick it up.
    PublishUpdate {
        /// Packages changed in the update.
        packages: usize,
    },
    /// A new tenant repository is created (one `RepoCreated` record).
    CreateTenant,
    /// Live tenant `tenant % live.len()` is deleted (`RepoDeleted`).
    DeleteTenant {
        /// Index into the live-tenant list.
        tenant: usize,
    },
    /// Live tenant `tenant % live.len()` refreshes (one `SealUpdated`
    /// record).
    Refresh {
        /// Index into the live-tenant list.
        tenant: usize,
    },
}

impl std::fmt::Display for DurabilityEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityEvent::PublishUpdate { packages } => write!(f, "publish packages={packages}"),
            DurabilityEvent::CreateTenant => write!(f, "create-tenant"),
            DurabilityEvent::DeleteTenant { tenant } => write!(f, "delete-tenant {tenant}"),
            DurabilityEvent::Refresh { tenant } => write!(f, "refresh {tenant}"),
        }
    }
}

/// A runnable durability scenario: a seeded schedule plus the size of
/// the closing torn-tail sweep.
#[derive(Debug, Clone)]
pub struct DurabilityScenario {
    /// Stable name (trace artifacts, CI).
    pub name: String,
    /// Master seed: drives the workload, the service, and the trace.
    pub seed: u64,
    /// The mutation schedule, executed in order.
    pub events: Vec<DurabilityEvent>,
    /// Evenly spaced WAL truncation offsets checked after the schedule
    /// (0 disables the sweep).
    pub torn_cuts: usize,
}

/// The outcome of one durability run.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run was driven by.
    pub seed: u64,
    /// Events executed.
    pub events: usize,
    /// Kill-point recoveries performed (one per event).
    pub recoveries: usize,
    /// WAL records replayed across all recoveries.
    pub replayed_records_total: usize,
    /// Torn-tail truncation offsets checked.
    pub torn_cuts_checked: usize,
    /// The structured event trace (determinism witness).
    pub trace: EventTrace,
}

impl DurabilityReport {
    /// The trace as text (what CI stores as a failure artifact).
    pub fn trace_text(&self) -> String {
        self.trace.to_text()
    }

    /// The trace determinism fingerprint.
    pub fn trace_digest(&self) -> String {
        self.trace.digest()
    }
}

/// The observable durable state: the signed index bytes each tenant
/// currently serves. Tenants that serve nothing — deleted, or created
/// but never refreshed — are absent, which keeps witnesses taken at
/// different points of the run comparable (a tenant that does not exist
/// yet and one that serves nothing are observationally identical).
type StateWitness = BTreeMap<String, Vec<u8>>;

/// Recovers a poisoned `SimFs` handle (panicking writers never leave the
/// map half-updated — every mutation is a single `BTreeMap` operation).
fn lock_fs(fs: &Arc<Mutex<SimFs>>) -> std::sync::MutexGuard<'_, SimFs> {
    fs.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn invariant(msg: impl Into<String>) -> SimError {
    SimError::Invariant(msg.into())
}

impl DurabilityScenario {
    /// Runs the scenario: executes the schedule with a kill-point
    /// recovery check after every event, then the torn-tail sweep.
    ///
    /// # Errors
    ///
    /// [`SimFailure`] with the trace up to the failing check — a
    /// recovery that diverges from the live service, loses a tenant,
    /// resurrects a deleted one, or fails outright.
    pub fn run(&self) -> Result<DurabilityReport, SimFailure> {
        let mut driver = Driver::new(self).map_err(|error| SimFailure {
            error,
            trace: EventTrace::new(),
        })?;
        match driver.run_schedule(&self.events, self.torn_cuts) {
            Ok((recoveries, replayed, cuts)) => Ok(DurabilityReport {
                scenario: self.name.clone(),
                seed: self.seed,
                events: self.events.len(),
                recoveries,
                replayed_records_total: replayed,
                torn_cuts_checked: cuts,
                trace: driver.trace,
            }),
            Err(error) => Err(SimFailure {
                error,
                trace: driver.trace,
            }),
        }
    }
}

/// The live world of one durability run.
struct Driver {
    seed_bytes: String,
    upstream: GeneratedRepo,
    policy_text: String,
    fleet: usize,
    fs: Arc<Mutex<SimFs>>,
    service: TsrService,
    /// Live tenants, in creation order.
    live: Vec<String>,
    /// Every tenant id ever created (deleted ones stay listed so the
    /// witness can assert they *remain* deleted after recovery).
    ever: Vec<String>,
    /// Repository verification key per tenant ever created.
    keys: BTreeMap<String, RsaPublicKey>,
    /// Observable state after every event boundary (and the initial
    /// empty state) — the legal landing set for torn-tail recoveries.
    history: Vec<StateWitness>,
    clock: Duration,
    trace: EventTrace,
}

impl Driver {
    fn new(scenario: &DurabilityScenario) -> Result<Driver, SimError> {
        let seed_bytes = format!("durability:{}:{}", scenario.name, scenario.seed);
        let upstream = GeneratedRepo::generate(default_workload(&scenario.name, scenario.seed));
        let fleet = 3usize;
        let mut mirrors: Vec<Mirror> = (0..fleet)
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
            f: 1,
            package_whitelist: Vec::new(),
            package_blacklist: Vec::new(),
        };
        let fs = Arc::new(Mutex::new(SimFs::new()));
        let backend = Box::new(SimFsBackend::new(Arc::clone(&fs), STORE_ROOT));
        let (service, _) = TsrService::with_store(
            seed_bytes.as_bytes(),
            mirrors,
            LatencyModel::default(),
            1024,
            backend,
        )
        .map_err(|e| SimError::Config(format!("store-backed service: {e}")))?;
        let mut driver = Driver {
            seed_bytes,
            upstream,
            policy_text: policy.to_text(),
            fleet,
            fs,
            service,
            live: Vec::new(),
            ever: Vec::new(),
            keys: BTreeMap::new(),
            history: Vec::new(),
            clock: Duration::ZERO,
            trace: EventTrace::new(),
        };
        driver.trace.record(
            Duration::ZERO,
            format!(
                "durability {} seed {} mirrors {} packages {}",
                scenario.name,
                scenario.seed,
                driver.fleet,
                driver.upstream.specs.len()
            ),
        );
        let initial = driver.witness_of(&driver.service);
        driver.history.push(initial);
        Ok(driver)
    }

    fn record(&mut self, msg: impl ToString) {
        self.trace.record(self.clock, msg.to_string());
    }

    fn run_schedule(
        &mut self,
        events: &[DurabilityEvent],
        torn_cuts: usize,
    ) -> Result<(usize, usize, usize), SimError> {
        let mut recoveries = 0usize;
        let mut replayed = 0usize;
        for event in events {
            self.clock += Duration::from_millis(10);
            self.execute(event)?;
            replayed += self.verify_kill_point_recovery()?;
            recoveries += 1;
            self.history.push(self.witness_of(&self.service));
        }
        let cuts = self.verify_torn_tails(torn_cuts)?;
        Ok((recoveries, replayed, cuts))
    }

    fn execute(&mut self, event: &DurabilityEvent) -> Result<(), SimError> {
        match event {
            DurabilityEvent::PublishUpdate { packages } => {
                let updated = self.upstream.publish_update(*packages);
                let snap = self.upstream.snapshot();
                self.service.with_mirrors(|ms| publish_to_all(ms, &snap));
                self.record(format!(
                    "publish snapshot={} updated=[{}]",
                    snap.snapshot_id,
                    updated.join(",")
                ));
                Ok(())
            }
            DurabilityEvent::CreateTenant => {
                let (id, pem) = self
                    .service
                    .create_repository(&self.policy_text)
                    .map_err(|e| invariant(format!("create failed: {e}")))?;
                let key = RsaPublicKey::from_pem(&pem)
                    .map_err(|e| SimError::Config(format!("unparsable repo key: {e}")))?;
                self.record(format!("create {id}"));
                self.keys.insert(id.clone(), key);
                self.live.push(id.clone());
                self.ever.push(id);
                Ok(())
            }
            DurabilityEvent::DeleteTenant { tenant } => {
                if self.live.is_empty() {
                    self.record("delete skipped (no tenants)");
                    return Ok(());
                }
                let id = self.live.remove(tenant % self.live.len());
                self.service
                    .delete_repository(&id)
                    .map_err(|e| invariant(format!("delete {id} failed: {e}")))?;
                self.record(format!("delete {id}"));
                Ok(())
            }
            DurabilityEvent::Refresh { tenant } => {
                if self.live.is_empty() {
                    self.record("refresh skipped (no tenants)");
                    return Ok(());
                }
                let id = self.live[tenant % self.live.len()].clone();
                // The fleet is honest: a refresh failure here is a bug,
                // not a masked fault.
                let report = self
                    .service
                    .refresh(&id)
                    .map_err(|e| invariant(format!("refresh {id} failed: {e}")))?;
                self.clock += report.quorum_elapsed + report.download_elapsed;
                self.record(format!(
                    "refresh {id} ok downloaded={} sanitized={} rejected={}",
                    report.downloaded,
                    report.sanitized.len(),
                    report.rejected.len()
                ));
                Ok(())
            }
        }
    }

    /// The observable durable state of `service` over every tenant ever
    /// created (deleted and not-yet-refreshed tenants serve nothing and
    /// are absent — see [`StateWitness`]).
    fn witness_of(&self, service: &TsrService) -> StateWitness {
        self.ever
            .iter()
            .filter_map(|id| {
                service
                    .fetch_index(id)
                    .ok()
                    .map(|signed| (id.clone(), signed))
            })
            .collect()
    }

    /// Recovers a fresh service from `disk` with the run's seed. The
    /// mirror fleet is rebuilt empty: recovery must not need the network.
    fn recover(&self, disk: SimFs) -> Result<(TsrService, usize), SimError> {
        let mirrors: Vec<Mirror> = (0..self.fleet)
            .map(|i| Mirror::new(format!("m{i}"), Continent::Europe))
            .collect();
        let backend = Box::new(SimFsBackend::new(Arc::new(Mutex::new(disk)), STORE_ROOT));
        let (service, report) = TsrService::with_store(
            self.seed_bytes.as_bytes(),
            mirrors,
            LatencyModel::default(),
            1024,
            backend,
        )
        .map_err(|e| invariant(format!("recovery failed: {e}")))?;
        Ok((service, report.replayed_records as usize))
    }

    /// Simulates a kill right after the last event: recovers from a
    /// clone of the disk and requires byte-identical observable state —
    /// indexes *and* every indexed package blob.
    fn verify_kill_point_recovery(&mut self) -> Result<usize, SimError> {
        let disk = lock_fs(&self.fs).clone();
        let (recovered, replayed) = self.recover(disk)?;
        let want = self.witness_of(&self.service);
        let got = self.witness_of(&recovered);
        if want != got {
            let diff: Vec<&String> = self
                .ever
                .iter()
                .filter(|id| want.get(*id) != got.get(*id))
                .collect();
            return Err(invariant(format!(
                "recovered state diverges for tenants {diff:?}"
            )));
        }
        let mut packages = 0usize;
        for id in &self.live {
            for name in self.indexed_names(&self.service, id)? {
                let live = self
                    .service
                    .fetch_package(id, &name)
                    .map_err(|e| invariant(format!("live {id}/{name} unserved: {e}")))?;
                let rec = recovered
                    .fetch_package(id, &name)
                    .map_err(|e| invariant(format!("recovered {id}/{name} unserved: {e}")))?;
                if live != rec {
                    return Err(invariant(format!(
                        "recovered package {id}/{name} differs from live bytes"
                    )));
                }
                packages += 1;
            }
        }
        self.record(format!(
            "recover ok replayed={replayed} tenants={} packages={packages}",
            self.live.len()
        ));
        Ok(replayed)
    }

    /// Names listed in `id`'s current signed index (empty when the
    /// tenant has never refreshed). The index signature is verified
    /// against the key minted at create time — recovery must reproduce
    /// not just the bytes but a *valid* signature chain.
    fn indexed_names(&self, service: &TsrService, id: &str) -> Result<Vec<String>, SimError> {
        let Ok(signed) = service.fetch_index(id) else {
            return Ok(Vec::new());
        };
        let key = self
            .keys
            .get(id)
            .ok_or_else(|| SimError::Config(format!("no key recorded for {id}")))?;
        let keys = vec![(format!("tsr-{id}"), key.clone())];
        let index = Index::parse_signed(&signed, &keys)
            .map_err(|e| invariant(format!("{id}: served index fails verification: {e}")))?;
        Ok(index.iter().map(|e| e.name.clone()).collect())
    }

    /// Truncates the surviving WAL at `cuts` evenly spaced offsets; each
    /// cut must recover cleanly to one of the event-boundary states.
    fn verify_torn_tails(&mut self, cuts: usize) -> Result<usize, SimError> {
        if cuts == 0 {
            return Ok(0);
        }
        let wal_path = format!("{STORE_ROOT}/wal.log");
        let wal = lock_fs(&self.fs)
            .read_file(&wal_path)
            .map(<[u8]>::to_vec)
            .ok();
        let Some(wal) = wal else {
            self.record("torn-tail sweep skipped (no residual wal)");
            return Ok(0);
        };
        if wal.is_empty() {
            self.record("torn-tail sweep skipped (empty wal)");
            return Ok(0);
        }
        let mut checked = 0usize;
        for i in 0..cuts {
            // Offsets spread over [0, len): every cut loses at least the
            // final byte, so each recovery exercises the torn-frame path.
            let cut = (wal.len() * i) / cuts;
            let mut disk = lock_fs(&self.fs).clone();
            disk.write_file(&wal_path, wal[..cut].to_vec())
                .map_err(|e| SimError::Config(format!("torn cut setup: {e}")))?;
            let (recovered, replayed) = self.recover(disk)?;
            let got = self.witness_of(&recovered);
            if !self.history.contains(&got) {
                return Err(invariant(format!(
                    "torn wal cut at {cut}/{} recovered to a state outside \
                     the event-boundary history",
                    wal.len()
                )));
            }
            self.record(format!("torn cut={cut} ok replayed={replayed}"));
            checked += 1;
        }
        Ok(checked)
    }
}

/// The canned durability library — every entry runs the real
/// store-backed `TsrService` and is deterministic per seed.
pub fn durability_scenarios(seed: u64) -> Vec<DurabilityScenario> {
    use DurabilityEvent::{CreateTenant, DeleteTenant, PublishUpdate, Refresh};
    vec![
        // 1. One tenant across a full update cycle: every record kind
        //    except RepoDeleted, with a kill after every refresh.
        DurabilityScenario {
            name: "single_tenant_update_cycle".into(),
            seed,
            events: vec![
                CreateTenant,
                Refresh { tenant: 0 },
                PublishUpdate { packages: 2 },
                Refresh { tenant: 0 },
                PublishUpdate { packages: 1 },
                Refresh { tenant: 0 },
            ],
            torn_cuts: 8,
        },
        // 2. Tenant churn: creates, interleaved refreshes, a delete, a
        //    re-create (id continuity across recovery), more refreshes.
        DurabilityScenario {
            name: "multi_tenant_churn".into(),
            seed,
            events: vec![
                CreateTenant,
                CreateTenant,
                Refresh { tenant: 0 },
                Refresh { tenant: 1 },
                PublishUpdate { packages: 1 },
                Refresh { tenant: 0 },
                DeleteTenant { tenant: 0 },
                CreateTenant,
                Refresh { tenant: 1 },
            ],
            torn_cuts: 8,
        },
        // 3. Delete-heavy: the deleted tenant must stay deleted through
        //    every recovery and its id must never be reissued.
        DurabilityScenario {
            name: "delete_survives_recovery".into(),
            seed,
            events: vec![
                CreateTenant,
                Refresh { tenant: 0 },
                DeleteTenant { tenant: 0 },
                CreateTenant,
                Refresh { tenant: 0 },
                PublishUpdate { packages: 2 },
                Refresh { tenant: 0 },
            ],
            torn_cuts: 6,
        },
    ]
}

/// Looks one canned durability scenario up by name.
pub fn durability_scenario(name: &str, seed: u64) -> Option<DurabilityScenario> {
    durability_scenarios(seed)
        .into_iter()
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_names_are_unique_and_nonempty() {
        let all = durability_scenarios(1);
        assert!(all.len() >= 3);
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.iter().all(|s| !s.events.is_empty()));
    }

    #[test]
    fn smoke_scenario_runs_and_is_deterministic() {
        // A minimal schedule keeps this tier-1 test fast; the canned
        // library runs in the workspace `durability` tier.
        let sc = DurabilityScenario {
            name: "unit_smoke".into(),
            seed: 7,
            events: vec![
                DurabilityEvent::CreateTenant,
                DurabilityEvent::Refresh { tenant: 0 },
            ],
            torn_cuts: 3,
        };
        let a = sc.run().unwrap_or_else(|f| {
            panic!("failed: {f}\n{}", f.trace.to_text());
        });
        assert_eq!(a.recoveries, sc.events.len());
        assert!(a.replayed_records_total > 0);
        assert!(a.torn_cuts_checked > 0);
        let b = sc.run().unwrap();
        assert_eq!(a.trace_digest(), b.trace_digest());
    }
}
