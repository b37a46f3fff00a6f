//! What the benchmark runs and what it reports: the fixed conditions,
//! the four workload plans, and the metric tables. `BENCHMARK.json` at
//! the repository root repeats the names, units, directions and bounds;
//! a self-test keeps the two in step in both directions.

use std::time::Duration;

/// The seed whose input digests are pinned in `PINNED.json`.
pub const PINNED_SEED: u64 = 3_237_998_146;
/// The measured window the driver asks for (`run_seconds`).
pub const RUN_SECONDS: u64 = 18;
/// RSA modulus of every key the worlds generate.
pub const KEY_BITS: usize = 1024;
/// Client timeout; a request that hits it is a failed op.
pub const TIMEOUT: Duration = Duration::from_secs(10);
/// Load threads, one request in flight each.
pub const LOAD_THREADS: usize = 2;
/// Open-loop rate of the quiet polling phase, requests per second over
/// both threads.
pub const POLL_RATE: f64 = 1000.0;
/// Open-loop rate of the one reader of the event phase, requests per
/// second: it leaves the CPU to the refresh.
pub const EVENT_RATE: f64 = 200.0;
/// How long after an event's due instant the reader sends a package-page
/// read of its own, microseconds: by then the refresh holds the
/// repository lock.
pub const CANARY_US: u64 = 10_000;
/// Seconds of polling before the quiet phase that are sent and checked
/// but not measured: the first second on fresh connections reads a fifth
/// slower at the median and twice slower at the p95 than those after it.
pub const WARMUP_S: f64 = 1.0;
/// Latency limit of the quiet phase, microseconds.
pub const POLL_LIMIT_US: u64 = 5_000;
/// A read slower than this during an event counts as stalled.
pub const STALL_US: u64 = 20_000;
/// Length of the slices the closed phase is cut into: a slice holds some
/// fifteen thousand reads.
pub const SLICE_S: f64 = 0.5;
/// Page size of the package-listing reads.
pub const PAGE_LIMIT: u32 = 8;
/// Full set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Kill → recover repetitions per run; `recovery_ms` is their median.
pub const RECOVERY_REPS: usize = 5;
/// Packages an update wave bumps upstream.
pub const BUMP: usize = 2;
/// A token bucket this deep never throttles the two load threads, so
/// the rate-limit layer stays in the chain without shaping the load.
pub const RATE_LIMIT: (u32, f64) = (1_000_000, 1.0e9);

/// The read mix, per mille: conditional index GET, unconditional index
/// GET, package GET, package page, healthz.
pub const MIX_PER_MILLE: [u32; 5] = [450, 100, 300, 100, 50];

/// What an event of the event phase is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An upstream update of [`BUMP`] packages lands in the
    /// mirrors and the tenant is refreshed.
    Wave,
    /// A fresh tenant is created and cold-refreshed.
    Onboard,
}

/// One workload: a world and how the measured window is split.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Census scale of the upstream repository.
    pub scale: f64,
    /// Nodes serving the tenant (1 = a single service).
    pub nodes: usize,
    /// Share of the window spent polling with nothing else going on.
    pub quiet_frac: f64,
    /// Share of the window in which events land under a reader.
    pub event_frac: f64,
    /// What an event is.
    pub event: EventKind,
    /// Seconds between event due instants.
    pub event_period: f64,
}

impl Plan {
    /// Share of the window spent in the closed loop, in two halves on both
    /// sides of the event phase.
    pub fn closed_frac(&self) -> f64 {
        1.0 - self.quiet_frac - self.event_frac
    }

    /// Events that fit the event phase of a `seconds` window.
    pub fn events(&self, seconds: f64) -> usize {
        // The small excess keeps a phase of exactly n periods at n events
        // whichever way the division rounds.
        ((self.event_frac * seconds / self.event_period + 1e-6).floor() as usize).max(1)
    }
}

/// The four workloads. The driver reads every end-to-end metric from
/// every workload, so each runs a closed phase, at least a few events and
/// the recoveries; what differs is the world, what an event is, and where
/// the window's weight lies. Only `fleet_poll` has a quiet phase.
pub const PLANS: [Plan; 4] = [
    Plan {
        name: "fleet_poll",
        scale: 0.004,
        nodes: 1,
        quiet_frac: 0.25,
        event_frac: 0.25,
        event: EventKind::Wave,
        event_period: 0.5,
    },
    Plan {
        name: "cold_sync",
        scale: 0.01,
        nodes: 1,
        quiet_frac: 0.0,
        event_frac: 0.62,
        event: EventKind::Onboard,
        event_period: 2.2,
    },
    Plan {
        name: "update_wave",
        scale: 0.004,
        nodes: 1,
        quiet_frac: 0.0,
        event_frac: 0.7,
        event: EventKind::Wave,
        event_period: 0.9,
    },
    Plan {
        name: "cluster_wave",
        scale: 0.004,
        nodes: 3,
        quiet_frac: 0.0,
        event_frac: 0.7,
        event: EventKind::Wave,
        event_period: 0.9,
    },
];

/// Looks a plan up by name.
pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("poll_p50_us", "us", false, 0.25),
    e2e("poll_rps", "1/s", true, 0.25),
    e2e("sync_pkgs_per_s", "pkg/s", true, 0.25),
    e2e("size_overhead_pct", "%", false, 0.05),
    e2e("recovery_ms", "ms", false, 0.25),
    e2e("update_visible_ms", "ms", false, 0.25),
];

/// Per-layer metrics, reported by every traced run. A metric a workload
/// cannot measure (no cluster, no scraped series) is reported as 0 and
/// listed as missing.
pub const PER_LAYER: [MetricSpec; 88] = [
    layer("crypto.sha256_mb_per_s", "MB/s", true),
    layer("crypto.rsa_sign_us", "us", false),
    layer("crypto.rsa_verify_us", "us", false),
    layer("apk.decode_mb_per_s", "MB/s", true),
    layer("apk.encode_mb_per_s", "MB/s", true),
    layer("apk.index_sign_us", "us", false),
    layer("apk.index_verify_us", "us", false),
    layer("archive.parse_mb_per_s", "MB/s", true),
    layer("archive.build_mb_per_s", "MB/s", true),
    layer("script.sanitize_us", "us", false),
    layer("script.universe_scan_ms", "ms", false),
    layer("sanitizer.check_integrity_ms", "ms", false),
    layer("sanitizer.unpack_ms", "ms", false),
    layer("sanitizer.modify_scripts_ms", "ms", false),
    layer("sanitizer.generate_signatures_ms", "ms", false),
    layer("sanitizer.repack_ms", "ms", false),
    layer("sanitizer.pkg_p50_us", "us", false),
    layer("sanitizer.pkg_p95_us", "us", false),
    layer("sanitizer.packages", "count", true),
    layer("sanitizer.rejected", "count", false),
    layer("repository.create_ms", "ms", false),
    layer("repository.refresh_cold_ms", "ms", false),
    layer("repository.refresh_incr_ms", "ms", false),
    layer("repository.unattributed_ms", "ms", false),
    layer("repository.persist_ms", "ms", false),
    layer("repository.workers", "count", true),
    layer("quorum.index_read_ms", "ms", false),
    layer("quorum.fetch_verified_us", "us", false),
    layer("service.handle_index_us", "us", false),
    layer("service.handle_index_304_us", "us", false),
    layer("service.handle_package_us", "us", false),
    layer("service.handle_page_us", "us", false),
    layer("service.handle_health_us", "us", false),
    layer("service.hot_blob_hit_ratio", "ratio", true),
    layer("http.roundtrip_floor_us", "us", false),
    layer("http.server_p50_us", "us", false),
    layer("http.server_p99_us", "us", false),
    layer("http.transport_us", "us", false),
    layer("http.queue_peak_serve", "count", false),
    layer("http.queue_peak_bulk", "count", false),
    layer("http.in_flight_peak", "count", false),
    layer("http.pool_size", "count", true),
    layer("wire.json_encode_us", "us", false),
    layer("wire.json_parse_us", "us", false),
    layer("obs.render_prometheus_us", "us", false),
    layer("obs.access_log_bytes_per_req", "bytes", false),
    layer("obs.access_log_p50_us", "us", false),
    layer("store.wal_append_us", "us", false),
    layer("store.put_blob_mb_per_s", "MB/s", true),
    layer("store.snapshot_ms", "ms", false),
    layer("store.open_ms", "ms", false),
    layer("store.disk_bytes_ratio", "ratio", false),
    layer("store.wal_appends_per_refresh", "count", false),
    layer("store.wal_bytes_per_refresh", "bytes", false),
    layer("cluster.commit_ms", "ms", false),
    layer("cluster.replication_overhead_ms", "ms", false),
    layer("cluster.export_state_ms", "ms", false),
    layer("cluster.apply_state_ms", "ms", false),
    layer("cluster.state_bytes", "bytes", false),
    layer("cluster.replica_read_p50_us", "us", false),
    layer("cluster.primary_read_p50_us", "us", false),
    layer("pkgmgr.install_ms", "ms", false),
    layer("monitor.verify_ms", "ms", false),
    layer("monitor.violations", "count", false),
    layer("poll.open_p50_us", "us", false),
    layer("poll.open_p95_us", "us", false),
    layer("poll.open_p99_us", "us", false),
    layer("poll.open_p999_us", "us", false),
    layer("poll.open_over_limit_pct", "%", false),
    layer("poll.open_samples", "count", true),
    layer("poll.closed_p99_us", "us", false),
    layer("wave.read_p50_us", "us", false),
    layer("wave.read_p99_us", "us", false),
    layer("wave.stalled_reads_pct", "%", false),
    layer("wave.stall_ms", "ms", false),
    layer("wave.events", "count", true),
    layer("client.index_p50_us", "us", false),
    layer("client.package_p50_us", "us", false),
    layer("client.page_p50_us", "us", false),
    layer("client.health_p50_us", "us", false),
    layer("setup.generate_s", "s", false),
    layer("setup.boot_s", "s", false),
    layer("setup.precompute_s", "s", false),
    layer("harness.late_p50_us", "us", false),
    layer("harness.late_p99_us", "us", false),
    layer("harness.trace_overhead_pct", "%", false),
    layer("harness.spans", "count", false),
    layer("harness.self_time_gap_pct", "%", false),
];
