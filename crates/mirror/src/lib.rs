//! # tsr-mirror
//!
//! Repository mirrors with configurable (Byzantine) behaviours — the threat
//! surface of §3 and Figure 5 of the paper:
//!
//! - **Honest** mirrors serve the latest snapshot published by the original
//!   repository,
//! - **Stale** mirrors serve an old-but-correctly-signed snapshot (the
//!   replay/freeze attacks: vulnerable versions, or hiding that updates
//!   exist),
//! - **Corrupt** mirrors tamper with package bytes (detected by signature
//!   or content-hash verification),
//! - **Offline** mirrors do not answer (an adversary dropping traffic),
//! - **Equivocating** mirrors alternate between the fresh and a stale
//!   snapshot across requests (serving different observers different
//!   correctly-signed views),
//! - **Slow** mirrors serve honest content at a fraction of the nominal
//!   bandwidth (a degraded or throttled mirror).
//!
//! A mirror stores full repository snapshots as published; behaviour only
//! affects what is *served*. Timed fetches also honour continent-level
//! partitions injected through [`LatencyModel::reachable`].
//!
//! A published snapshot is immutable, so the history holds shared
//! handles: cloning a mirror (or a whole fleet, as a refresh does to stop
//! holding the fleet lock) copies pointers, never package bytes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tsr_crypto::drbg::HmacDrbg;
use tsr_net::{Continent, LatencyModel};

/// Errors produced when fetching from a mirror.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirrorError {
    /// The mirror did not answer (offline / traffic dropped).
    Unreachable(String),
    /// The mirror has no published snapshot yet.
    Empty(String),
    /// The requested package is not in the served snapshot.
    NoSuchPackage(String),
}

impl fmt::Display for MirrorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MirrorError::Unreachable(m) => write!(f, "mirror {m} unreachable"),
            MirrorError::Empty(m) => write!(f, "mirror {m} has no snapshot"),
            MirrorError::NoSuchPackage(p) => write!(f, "no such package: {p}"),
        }
    }
}

impl Error for MirrorError {}

/// One published repository state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoSnapshot {
    /// Monotone snapshot number (set by the original repository).
    pub snapshot_id: u64,
    /// The signed metadata index blob (`tsr_apk::Index::sign` output).
    pub signed_index: Vec<u8>,
    /// Package name → package blob.
    pub packages: BTreeMap<String, Vec<u8>>,
}

/// How a mirror (mis)behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Serves the latest snapshot faithfully.
    Honest,
    /// Serves the snapshot it had at "compromise time" forever
    /// (replay and freeze attacks).
    Stale {
        /// Index into the snapshot history to keep serving.
        snapshot: usize,
    },
    /// Serves the latest index but flips bytes in package blobs.
    CorruptPackages,
    /// Drops all traffic.
    Offline,
    /// Alternates between the latest snapshot and the snapshot at
    /// `stale` on successive requests — a Byzantine mirror showing
    /// different observers different (correctly signed) views.
    Equivocate {
        /// Index into the snapshot history served on every other request.
        stale: usize,
    },
    /// Serves honest content with transfers `factor`× slower than the
    /// network model's nominal time (still bounded by the timeout).
    Slow {
        /// Transfer-time multiplier (≥ 1 to be meaningful).
        factor: u32,
    },
}

/// A repository mirror.
///
/// A clone is another handle to the same remote mirror: it shares the
/// published snapshots (each held behind an `Arc`, so a clone costs one
/// pointer per snapshot, not a copy of its packages) and the request
/// counter. Behaviour and name are per handle.
#[derive(Debug, Clone)]
pub struct Mirror {
    /// Mirror hostname-like identifier.
    pub name: String,
    /// Where the mirror is hosted (drives simulated latency).
    pub continent: Continent,
    behavior: Behavior,
    history: Vec<Arc<RepoSnapshot>>,
    /// Requests answered so far (drives equivocation and statistics).
    /// Shared across clones: a clone is another handle to the same
    /// (remote) mirror, and the request count is that mirror's
    /// server-side state — so behaviours keyed on it (equivocation)
    /// progress even when callers snapshot the fleet per refresh.
    requests: Arc<AtomicU64>,
}

impl Mirror {
    /// Creates an honest mirror with no content yet.
    pub fn new(name: impl Into<String>, continent: Continent) -> Self {
        Mirror {
            name: name.into(),
            continent,
            behavior: Behavior::Honest,
            history: Vec::new(),
            requests: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Publishes a new snapshot (the original repository → mirror sync).
    pub fn publish(&mut self, snapshot: RepoSnapshot) {
        self.history.push(Arc::new(snapshot));
    }

    /// Changes the behaviour (e.g. when the adversary compromises it).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// The current behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Number of snapshots this mirror has seen.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Requests this mirror has answered (or dropped) so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Counts a request, returning its 0-based sequence number.
    fn next_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed)
    }

    fn served_snapshot(&self, request: u64) -> Result<&RepoSnapshot, MirrorError> {
        let snapshot = match self.behavior {
            Behavior::Offline => return Err(MirrorError::Unreachable(self.name.clone())),
            Behavior::Stale { snapshot } => {
                self.history.get(snapshot).or_else(|| self.history.last())
            }
            Behavior::Equivocate { stale } if request % 2 == 1 => {
                self.history.get(stale).or_else(|| self.history.last())
            }
            Behavior::Honest
            | Behavior::CorruptPackages
            | Behavior::Equivocate { .. }
            | Behavior::Slow { .. } => self.history.last(),
        };
        snapshot
            .map(|s| &**s)
            .ok_or_else(|| MirrorError::Empty(self.name.clone()))
    }

    /// Serves the signed metadata index.
    ///
    /// # Errors
    ///
    /// [`MirrorError::Unreachable`] / [`MirrorError::Empty`].
    pub fn fetch_index(&self) -> Result<Vec<u8>, MirrorError> {
        let request = self.next_request();
        Ok(self.served_snapshot(request)?.signed_index.clone())
    }

    /// Serves a package blob (possibly corrupted, per behaviour).
    ///
    /// # Errors
    ///
    /// [`MirrorError`] variants for offline/empty mirrors and unknown names.
    pub fn fetch_package(&self, name: &str) -> Result<Vec<u8>, MirrorError> {
        let request = self.next_request();
        let snap = self.served_snapshot(request)?;
        let mut blob = snap
            .packages
            .get(name)
            .cloned()
            .ok_or_else(|| MirrorError::NoSuchPackage(name.to_string()))?;
        if self.behavior == Behavior::CorruptPackages && !blob.is_empty() {
            let mid = blob.len() / 2;
            blob[mid] ^= 0xff;
        }
        Ok(blob)
    }

    /// The transfer-time multiplier this mirror's behaviour imposes.
    fn slow_factor(&self) -> u32 {
        match self.behavior {
            Behavior::Slow { factor } => factor.max(1),
            _ => 1,
        }
    }

    /// Simulated-latency index fetch from an observer on `from`.
    ///
    /// Offline mirrors — and mirrors cut off by a network partition in
    /// `model` — cost the full `timeout`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::fetch_index`] errors (the duration is still
    /// meaningful for the caller's elapsed-time accounting via `timeout`).
    pub fn fetch_index_timed(
        &self,
        model: &LatencyModel,
        from: Continent,
        rng: &mut HmacDrbg,
        timeout: Duration,
    ) -> (Result<Vec<u8>, MirrorError>, Duration) {
        if !model.reachable(from, self.continent) {
            return (Err(MirrorError::Unreachable(self.name.clone())), timeout);
        }
        match self.fetch_index() {
            Ok(blob) => {
                let d =
                    model.transfer_time(from, self.continent, blob.len(), rng) * self.slow_factor();
                (Ok(blob), d.min(timeout))
            }
            Err(e) => (Err(e), timeout),
        }
    }

    /// Simulated-latency package fetch.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::fetch_package`] errors; partitioned mirrors are
    /// unreachable at full timeout cost.
    pub fn fetch_package_timed(
        &self,
        name: &str,
        model: &LatencyModel,
        from: Continent,
        rng: &mut HmacDrbg,
        timeout: Duration,
    ) -> (Result<Vec<u8>, MirrorError>, Duration) {
        if !model.reachable(from, self.continent) {
            return (Err(MirrorError::Unreachable(self.name.clone())), timeout);
        }
        match self.fetch_package(name) {
            Ok(blob) => {
                let d =
                    model.transfer_time(from, self.continent, blob.len(), rng) * self.slow_factor();
                (Ok(blob), d.min(timeout))
            }
            Err(e) => (Err(e), timeout),
        }
    }
}

/// Convenience: publishes a snapshot to every mirror in the fleet
/// (the "sync" arrow of Figure 2). The mirrors share one copy of it.
pub fn publish_to_all(mirrors: &mut [Mirror], snapshot: &RepoSnapshot) {
    let shared = Arc::new(snapshot.clone());
    for m in mirrors.iter_mut() {
        m.history.push(Arc::clone(&shared));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(id: u64, marker: u8) -> RepoSnapshot {
        let mut packages = BTreeMap::new();
        packages.insert("pkg".to_string(), vec![marker; 64]);
        RepoSnapshot {
            snapshot_id: id,
            signed_index: vec![marker; 32],
            packages,
        }
    }

    #[test]
    fn honest_serves_latest() {
        let mut m = Mirror::new("m1", Continent::Europe);
        m.publish(snapshot(1, 0xaa));
        m.publish(snapshot(2, 0xbb));
        assert_eq!(m.fetch_index().unwrap(), vec![0xbb; 32]);
        assert_eq!(m.fetch_package("pkg").unwrap(), vec![0xbb; 64]);
        assert_eq!(m.history_len(), 2);
    }

    #[test]
    fn stale_serves_old_snapshot() {
        let mut m = Mirror::new("m1", Continent::Europe);
        m.publish(snapshot(1, 0xaa));
        m.publish(snapshot(2, 0xbb));
        m.set_behavior(Behavior::Stale { snapshot: 0 });
        assert_eq!(m.fetch_index().unwrap(), vec![0xaa; 32]);
        assert_eq!(m.fetch_package("pkg").unwrap(), vec![0xaa; 64]);
    }

    #[test]
    fn corrupt_flips_package_bytes_only() {
        let mut m = Mirror::new("m1", Continent::Asia);
        m.publish(snapshot(1, 0xaa));
        m.set_behavior(Behavior::CorruptPackages);
        assert_eq!(m.fetch_index().unwrap(), vec![0xaa; 32]); // index untouched
        let pkg = m.fetch_package("pkg").unwrap();
        assert_ne!(pkg, vec![0xaa; 64]);
        assert_eq!(pkg.len(), 64);
    }

    #[test]
    fn offline_unreachable() {
        let mut m = Mirror::new("m1", Continent::Asia);
        m.publish(snapshot(1, 0xaa));
        m.set_behavior(Behavior::Offline);
        assert!(matches!(m.fetch_index(), Err(MirrorError::Unreachable(_))));
        assert!(matches!(
            m.fetch_package("pkg"),
            Err(MirrorError::Unreachable(_))
        ));
    }

    #[test]
    fn empty_mirror_errors() {
        let m = Mirror::new("m1", Continent::Europe);
        assert!(matches!(m.fetch_index(), Err(MirrorError::Empty(_))));
    }

    #[test]
    fn unknown_package() {
        let mut m = Mirror::new("m1", Continent::Europe);
        m.publish(snapshot(1, 1));
        assert!(matches!(
            m.fetch_package("ghost"),
            Err(MirrorError::NoSuchPackage(_))
        ));
    }

    #[test]
    fn timed_fetch_has_latency() {
        let mut m = Mirror::new("m1", Continent::Asia);
        m.publish(snapshot(1, 1));
        let model = LatencyModel::default();
        let mut rng = HmacDrbg::new(b"t");
        let (res, d) =
            m.fetch_index_timed(&model, Continent::Europe, &mut rng, Duration::from_secs(5));
        assert!(res.is_ok());
        assert!(d >= Duration::from_millis(100)); // EU↔Asia base is 175 ms ± 25%
    }

    #[test]
    fn offline_costs_timeout() {
        let mut m = Mirror::new("m1", Continent::Europe);
        m.publish(snapshot(1, 1));
        m.set_behavior(Behavior::Offline);
        let model = LatencyModel::default();
        let mut rng = HmacDrbg::new(b"t");
        let timeout = Duration::from_millis(750);
        let (res, d) = m.fetch_index_timed(&model, Continent::Europe, &mut rng, timeout);
        assert!(res.is_err());
        assert_eq!(d, timeout);
    }

    #[test]
    fn publish_to_all_mirrors() {
        let mut fleet = vec![
            Mirror::new("a", Continent::Europe),
            Mirror::new("b", Continent::Asia),
        ];
        publish_to_all(&mut fleet, &snapshot(1, 7));
        assert!(fleet.iter().all(|m| m.history_len() == 1));
    }

    #[test]
    fn a_cloned_fleet_shares_its_snapshots() {
        let mut fleet = vec![
            Mirror::new("a", Continent::Europe),
            Mirror::new("b", Continent::Asia),
        ];
        publish_to_all(&mut fleet, &snapshot(1, 0xaa));
        publish_to_all(&mut fleet, &snapshot(2, 0xbb));
        fleet[0].set_behavior(Behavior::Stale { snapshot: 0 });
        fleet[1].set_behavior(Behavior::Equivocate { stale: 0 });
        let cloned = fleet.clone();
        for (m, c) in fleet.iter().zip(&cloned) {
            assert_eq!(m.history.len(), c.history.len());
            for (s, t) in m.history.iter().zip(&c.history) {
                assert!(Arc::ptr_eq(s, t), "a clone copied a snapshot");
            }
        }
        // One published snapshot, one allocation across the fleet.
        assert!(Arc::ptr_eq(&fleet[0].history[1], &fleet[1].history[1]));
        // Behaviours still pick the indexed snapshot through a clone.
        assert_eq!(cloned[0].fetch_package("pkg").unwrap(), vec![0xaa; 64]);
        assert_eq!(cloned[1].fetch_index().unwrap(), vec![0xbb; 32]);
        assert_eq!(cloned[1].fetch_index().unwrap(), vec![0xaa; 32]);
        assert_eq!(fleet[1].fetch_package("pkg").unwrap(), vec![0xbb; 64]);
    }

    #[test]
    fn stale_with_missing_index_falls_back_to_last() {
        let mut m = Mirror::new("m", Continent::Europe);
        m.publish(snapshot(1, 1));
        m.set_behavior(Behavior::Stale { snapshot: 9 });
        assert!(m.fetch_index().is_ok());
    }

    #[test]
    fn equivocating_mirror_alternates_views() {
        let mut m = Mirror::new("m", Continent::Europe);
        m.publish(snapshot(1, 0xaa));
        m.publish(snapshot(2, 0xbb));
        m.set_behavior(Behavior::Equivocate { stale: 0 });
        assert_eq!(m.fetch_index().unwrap(), vec![0xbb; 32], "fresh first");
        assert_eq!(m.fetch_index().unwrap(), vec![0xaa; 32], "then stale");
        assert_eq!(m.fetch_index().unwrap(), vec![0xbb; 32], "fresh again");
        assert_eq!(m.requests_served(), 3);
    }

    #[test]
    fn slow_mirror_is_honest_but_late() {
        let mut m = Mirror::new("m", Continent::Europe);
        m.publish(snapshot(1, 0xcc));
        let model = LatencyModel::default().with_jitter(0.0);
        let timeout = Duration::from_secs(60);
        let mut r1 = HmacDrbg::new(b"s");
        let (fast_res, fast) = m.fetch_index_timed(&model, Continent::Europe, &mut r1, timeout);
        m.set_behavior(Behavior::Slow { factor: 10 });
        let mut r2 = HmacDrbg::new(b"s");
        let (slow_res, slow) = m.fetch_index_timed(&model, Continent::Europe, &mut r2, timeout);
        assert_eq!(fast_res.unwrap(), slow_res.unwrap(), "content honest");
        assert_eq!(slow, fast * 10);
    }

    #[test]
    fn partitioned_mirror_unreachable_at_timeout_cost() {
        let mut m = Mirror::new("m", Continent::Asia);
        m.publish(snapshot(1, 1));
        let model = LatencyModel::default().with_isolated(vec![Continent::Asia]);
        let mut rng = HmacDrbg::new(b"p");
        let timeout = Duration::from_millis(500);
        let (res, d) = m.fetch_index_timed(&model, Continent::Europe, &mut rng, timeout);
        assert!(matches!(res, Err(MirrorError::Unreachable(_))));
        assert_eq!(d, timeout);
        // Same-continent observers still reach it.
        let (res, _) = m.fetch_index_timed(&model, Continent::Asia, &mut rng, timeout);
        assert!(res.is_ok());
    }

    #[test]
    fn clones_share_the_request_counter() {
        // A clone is another handle to the same mirror: requests made
        // through a fleet snapshot advance the shared server-side count,
        // so equivocation keeps alternating across snapshot-and-refresh
        // cycles.
        let mut m = Mirror::new("m", Continent::Europe);
        m.publish(snapshot(1, 0xaa));
        m.publish(snapshot(2, 0xbb));
        m.set_behavior(Behavior::Equivocate { stale: 0 });
        let snapshot_handle = m.clone();
        assert_eq!(snapshot_handle.fetch_index().unwrap(), vec![0xbb; 32]);
        assert_eq!(
            m.requests_served(),
            1,
            "clone's request visible on original"
        );
        assert_eq!(m.fetch_index().unwrap(), vec![0xaa; 32], "parity advanced");
    }
}
