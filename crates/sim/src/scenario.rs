//! Scenario description, the builder, and the canned scenario library.
//!
//! A [`Scenario`] is pure data: a mirror fleet plan, a workload, a fault
//! tolerance `f`, and a virtual-time schedule of [`SimEvent`]s. Running it
//! ([`Scenario::run`]) builds a fresh world from the seed and interprets
//! the schedule — so the same scenario value always produces the same
//! [`SimReport`].
//!
//! [`canned_scenarios`] is the library the `scenarios` test tier
//! iterates: eight-plus fleets covering every fault family the paper's
//! threat model names, including the mandated combination of Byzantine
//! mirrors + continent partition + enclave crash-restart in one run.

use std::time::Duration;

use tsr_crypto::drbg::HmacDrbg;
use tsr_net::Continent;
use tsr_workload::{Census, WorkloadConfig};

use crate::engine::{self, SimFailure, SimReport};
use crate::event::{FaultKind, Injector, SimEvent};

/// A fully expanded, runnable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable identifier used in traces and artifacts).
    pub name: String,
    /// Master seed: drives workload generation, mirror selection inside
    /// injectors, service randomness, and therefore the entire trace.
    pub seed: u64,
    /// Mirror fleet plan (mirror `i` is named `m{i}` on this continent).
    pub fleet: Vec<Continent>,
    /// Byzantine fault tolerance deployed in the policy (`2f+1` needed).
    pub f: usize,
    /// The generated upstream workload.
    pub workload: WorkloadConfig,
    /// The expanded `(virtual time, event)` schedule, time-ordered.
    pub schedule: Vec<(Duration, SimEvent)>,
}

impl Scenario {
    /// Runs the scenario against a freshly built world.
    ///
    /// # Errors
    ///
    /// [`SimFailure`] carrying an
    /// [`SimError::Invariant`](crate::SimError::Invariant) when the
    /// service violates a safety invariant (or a
    /// [`SimError::Config`](crate::SimError::Config) for unusable
    /// scenario descriptions), plus the event trace up to the failure —
    /// so a red run still yields its artifact.
    pub fn run(&self) -> Result<SimReport, SimFailure> {
        engine::run(self)
    }
}

/// Composes a [`Scenario`] from a fleet plan, direct events, and
/// [`Injector`]s.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    fleet: Vec<Continent>,
    f: usize,
    workload: Option<WorkloadConfig>,
    schedule: Vec<(Duration, SimEvent)>,
    injectors: Vec<Injector>,
}

impl ScenarioBuilder {
    /// Starts a scenario named `name` driven by `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        ScenarioBuilder {
            name: name.into(),
            seed,
            fleet: vec![Continent::Europe; 3],
            f: 1,
            workload: None,
            schedule: Vec::new(),
            injectors: Vec::new(),
        }
    }

    /// Sets the mirror fleet plan (defaults to 3 European mirrors).
    pub fn fleet(mut self, continents: &[Continent]) -> Self {
        self.fleet = continents.to_vec();
        self
    }

    /// Sets the Byzantine fault tolerance (defaults to 1).
    pub fn tolerance(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Overrides the workload (defaults to [`default_workload`]).
    pub fn workload(mut self, cfg: WorkloadConfig) -> Self {
        self.workload = Some(cfg);
        self
    }

    /// Schedules one event at virtual time `ms`.
    pub fn at_ms(mut self, ms: u64, event: SimEvent) -> Self {
        self.schedule.push((Duration::from_millis(ms), event));
        self
    }

    /// Composes a fault injector into the schedule.
    pub fn inject(mut self, injector: Injector) -> Self {
        self.injectors.push(injector);
        self
    }

    /// Expands injectors (seeded) and produces the time-ordered scenario.
    pub fn build(self) -> Scenario {
        let mut rng = HmacDrbg::new(format!("sim-inject:{}:{}", self.name, self.seed).as_bytes());
        let mut schedule = self.schedule;
        // Byzantine injectors share one compromised-mirror set, so a
        // composed fault mix lands on distinct mirrors under every seed.
        let mut compromised = Vec::new();
        for injector in &self.injectors {
            schedule.extend(injector.expand(&mut rng, self.fleet.len(), &mut compromised));
        }
        // Stable by time: simultaneous events keep composition order.
        schedule.sort_by_key(|(t, _)| *t);
        let workload = self
            .workload
            .unwrap_or_else(|| default_workload(&self.name, self.seed));
        Scenario {
            name: self.name,
            seed: self.seed,
            fleet: self.fleet,
            f: self.f,
            workload,
            schedule,
        }
    }
}

/// The default seed for the canned scenario tier (CI pins the same value
/// via `TSR_SCENARIO_SEED` so failures replay exactly).
pub const DEFAULT_SEED: u64 = 0xC0FF_EE42;

/// The scenario seed: `TSR_SCENARIO_SEED` when set and parsable,
/// [`DEFAULT_SEED`] otherwise. The single source both the test tier and
/// the throughput bench read, so they always replay the same library.
pub fn env_seed() -> u64 {
    std::env::var("TSR_SCENARIO_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The default scenario workload: every script category represented
/// (including the two unsupported ones and the CVE-style pattern) at a
/// package count small enough for the scenario tier to stay fast.
pub fn default_workload(name: &str, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        census: Census {
            no_script: 6,
            filesystem_changes: 1,
            empty_script: 1,
            text_processing: 1,
            config_change: 1,
            empty_file_creation: 1,
            user_group_creation: 2,
            shell_activation: 1,
        },
        ..WorkloadConfig::tiny(format!("workload:{name}:{seed}").as_bytes())
    }
}

/// The canned scenario library — every entry runs the real `TsrService`
/// and is deterministic per seed. See the module docs for the families.
pub fn canned_scenarios(seed: u64) -> Vec<Scenario> {
    use Continent::{Asia, Europe, NorthAmerica};
    vec![
        // 1. Honest fleet baseline: refreshes, updates, full serving.
        ScenarioBuilder::new("honest_baseline", seed)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(10, SimEvent::ServeAll)
            .at_ms(20, SimEvent::PublishUpdate { packages: 3 })
            .at_ms(30, SimEvent::Refresh)
            .at_ms(40, SimEvent::ServeAll)
            .build(),
        // 2. A Byzantine minority (≤ f) of corrupting + stale mirrors.
        ScenarioBuilder::new("byzantine_minority", seed)
            .fleet(&[Europe, Europe, NorthAmerica, Asia, Europe])
            .tolerance(2)
            .at_ms(0, SimEvent::Refresh)
            .inject(Injector::Byzantine {
                at_ms: 5,
                count: 1,
                kind: FaultKind::Corrupt,
            })
            .inject(Injector::Byzantine {
                at_ms: 6,
                count: 1,
                kind: FaultKind::Stale,
            })
            .at_ms(10, SimEvent::PublishUpdate { packages: 2 })
            .at_ms(20, SimEvent::Refresh)
            .at_ms(30, SimEvent::ServeAll)
            .build(),
        // 3. Equivocating mirrors serving alternating signed views.
        ScenarioBuilder::new("equivocating_mirrors", seed)
            .fleet(&[Europe, Europe, Europe, NorthAmerica, Europe])
            .tolerance(2)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(5, SimEvent::PublishUpdate { packages: 2 })
            .inject(Injector::Byzantine {
                at_ms: 8,
                count: 2,
                kind: FaultKind::Equivocate,
            })
            .at_ms(10, SimEvent::Refresh)
            .at_ms(20, SimEvent::ServeAll)
            .at_ms(25, SimEvent::PublishUpdate { packages: 1 })
            .at_ms(30, SimEvent::Refresh)
            .at_ms(35, SimEvent::ServeAll)
            .build(),
        // 4. The whole fleet colludes to replay an old snapshot: the refresh
        //    must fail (rollback detection) and the served index must stay on
        //    the newer snapshot.
        ScenarioBuilder::new("stale_majority_rollback", seed)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(10, SimEvent::PublishUpdate { packages: 2 })
            .at_ms(20, SimEvent::Refresh)
            .inject(Injector::Byzantine {
                at_ms: 30,
                count: 3,
                kind: FaultKind::Stale,
            })
            .at_ms(40, SimEvent::Refresh)
            .at_ms(50, SimEvent::ServeAll)
            .build(),
        // 5. TSR's continent is partitioned off: quorum starves, refreshes
        //    fail; after the heal the update goes through.
        ScenarioBuilder::new("partition_outage", seed)
            .fleet(&[Europe, Asia, Asia, NorthAmerica, NorthAmerica])
            .tolerance(2)
            .at_ms(0, SimEvent::Refresh)
            .inject(Injector::Partition {
                from_ms: 10,
                until_ms: 30,
                isolated: vec![Europe],
            })
            .at_ms(15, SimEvent::PublishUpdate { packages: 1 })
            .at_ms(20, SimEvent::Refresh)
            .at_ms(40, SimEvent::Refresh)
            .at_ms(50, SimEvent::ServeAll)
            .build(),
        // 6. A WAN latency spike: refreshes stay correct, only slower.
        ScenarioBuilder::new("latency_spike", seed)
            .fleet(&[Europe, NorthAmerica, Asia])
            .at_ms(0, SimEvent::Refresh)
            .inject(Injector::LatencySpike {
                from_ms: 5,
                until_ms: 25,
                factor: 20.0,
            })
            .at_ms(10, SimEvent::PublishUpdate { packages: 1 })
            .at_ms(15, SimEvent::Refresh)
            .at_ms(30, SimEvent::Refresh)
            .at_ms(35, SimEvent::ServeAll)
            .build(),
        // 7. Enclave crash-restart with TPM-sealed state recovery.
        ScenarioBuilder::new("crash_restart_recovery", seed)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(10, SimEvent::ServeAll)
            .inject(Injector::CrashRestart { at_ms: 20 })
            .at_ms(30, SimEvent::ServeAll)
            .at_ms(40, SimEvent::PublishUpdate { packages: 2 })
            .at_ms(50, SimEvent::Refresh)
            .at_ms(60, SimEvent::ServeAll)
            .build(),
        // 8. The mandated combination: Byzantine mirrors + continent partition
        //    + crash-restart (+ a slow mirror) in one run.
        ScenarioBuilder::new("combined_chaos", seed)
            .fleet(&[
                Europe,
                Europe,
                Europe,
                NorthAmerica,
                NorthAmerica,
                Asia,
                Asia,
            ])
            .tolerance(2)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(5, SimEvent::PublishUpdate { packages: 2 })
            .inject(Injector::Byzantine {
                at_ms: 8,
                count: 1,
                kind: FaultKind::Corrupt,
            })
            .inject(Injector::Byzantine {
                at_ms: 8,
                count: 1,
                kind: FaultKind::Equivocate,
            })
            .inject(Injector::Byzantine {
                at_ms: 9,
                count: 1,
                kind: FaultKind::Slow,
            })
            .at_ms(10, SimEvent::Refresh)
            .inject(Injector::Partition {
                from_ms: 15,
                until_ms: 35,
                isolated: vec![Asia],
            })
            .at_ms(20, SimEvent::PublishUpdate { packages: 1 })
            .at_ms(25, SimEvent::Refresh)
            .inject(Injector::CrashRestart { at_ms: 30 })
            .at_ms(40, SimEvent::Refresh)
            .at_ms(45, SimEvent::ServeAll)
            .build(),
        // 9. An update storm with the fault mix shifting between rounds.
        ScenarioBuilder::new("update_storm_with_faults", seed)
            .fleet(&[Europe; 5])
            .tolerance(2)
            .at_ms(0, SimEvent::Refresh)
            .inject(Injector::UpdateStorm {
                start_ms: 10,
                every_ms: 10,
                rounds: 4,
                packages: 2,
            })
            .inject(Injector::Byzantine {
                at_ms: 12,
                count: 1,
                kind: FaultKind::Stale,
            })
            .inject(Injector::Byzantine {
                at_ms: 22,
                count: 1,
                kind: FaultKind::Offline,
            })
            .inject(Injector::Byzantine {
                at_ms: 32,
                count: 1,
                kind: FaultKind::Corrupt,
            })
            .at_ms(55, SimEvent::ServeAll)
            .build(),
        // 10. End-to-end: attested OS installs across an update cycle stay
        //     trusted by the monitoring system.
        ScenarioBuilder::new("attested_install", seed)
            .at_ms(0, SimEvent::Refresh)
            .at_ms(10, SimEvent::AttestedInstall { packages: 4 })
            .at_ms(20, SimEvent::PublishUpdate { packages: 3 })
            .at_ms(30, SimEvent::Refresh)
            .at_ms(40, SimEvent::AttestedInstall { packages: 4 })
            .at_ms(50, SimEvent::ServeAll)
            .build(),
    ]
}

/// Looks one canned scenario up by name.
pub fn canned_scenario(name: &str, seed: u64) -> Option<Scenario> {
    canned_scenarios(seed).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_schedule_and_expands_injectors() {
        let sc = ScenarioBuilder::new("t", 1)
            .fleet(&[Continent::Europe; 4])
            .at_ms(30, SimEvent::Refresh)
            .at_ms(0, SimEvent::Refresh)
            .inject(Injector::CrashRestart { at_ms: 10 })
            .build();
        let times: Vec<u64> = sc
            .schedule
            .iter()
            .map(|(t, _)| t.as_millis() as u64)
            .collect();
        assert_eq!(times, vec![0, 10, 30]);
        assert!(matches!(sc.schedule[1].1, SimEvent::CrashRestart));
    }

    #[test]
    fn builder_expansion_is_deterministic() {
        let a = ScenarioBuilder::new("det", 7)
            .fleet(&[Continent::Europe; 6])
            .inject(Injector::Byzantine {
                at_ms: 1,
                count: 3,
                kind: FaultKind::Offline,
            })
            .build();
        let b = ScenarioBuilder::new("det", 7)
            .fleet(&[Continent::Europe; 6])
            .inject(Injector::Byzantine {
                at_ms: 1,
                count: 3,
                kind: FaultKind::Offline,
            })
            .build();
        assert_eq!(a.schedule, b.schedule);
        // A different seed picks different mirrors (with overwhelming
        // probability for 3-of-6).
        let c = ScenarioBuilder::new("det", 8)
            .fleet(&[Continent::Europe; 6])
            .inject(Injector::Byzantine {
                at_ms: 1,
                count: 3,
                kind: FaultKind::Offline,
            })
            .build();
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn canned_library_has_the_required_coverage() {
        let all = canned_scenarios(1);
        assert!(all.len() >= 8, "at least eight scenarios");
        let names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"combined_chaos"));
        // The combined scenario must compose Byzantine faults, a
        // partition, and a crash-restart.
        let chaos = canned_scenario("combined_chaos", 1).unwrap();
        assert!(chaos
            .schedule
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::SetBehavior { .. })));
        assert!(chaos
            .schedule
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::Partition { .. })));
        assert!(chaos
            .schedule
            .iter()
            .any(|(_, e)| matches!(e, SimEvent::CrashRestart)));
    }

    #[test]
    fn default_workload_keeps_unsupported_categories() {
        let w = default_workload("x", 3);
        assert!(w.census.config_change >= 1);
        assert!(w.census.shell_activation >= 1);
        assert!(w.census.total() <= 20, "scenario tier stays fast");
    }
}
