//! The typed metric registry.
//!
//! Metrics are registered once (by name) and updated through cloneable
//! handles — an [`Counter::inc`] is a single relaxed atomic add, so hot
//! paths never hash a string per request the way a map-keyed `bump`
//! does. The registry renders every family (plus any scrape-time
//! gauge callbacks) into Prometheus text exposition via
//! [`Registry::render_prometheus`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use tsr_stats::Histogram;

use crate::expo;

/// Canonical latency bucket upper bounds, in microseconds, shared by
/// every latency-histogram family (50 µs … 10 s, roughly geometric).
/// Cumulative counts at these bounds are computed from the backing
/// [`Histogram`] via [`Histogram::count_le`], so exposition inherits its
/// ≤ 1/64 relative bucket error.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// A monotonically-increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct GaugeInner {
    value: AtomicI64,
    peak: AtomicI64,
}

/// A gauge handle tracking both the current value and its high-water
/// mark ([`Gauge::peak`]) — the peak is what an end-of-run scrape needs
/// for "max in-flight" style series.
#[derive(Clone)]
pub struct Gauge(Arc<GaugeInner>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(GaugeInner {
            value: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }))
    }
}

impl Gauge {
    /// Sets the value (updates the peak).
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds one (updates the peak).
    pub fn inc(&self) {
        let now = self.0.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.0.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// The largest value ever held.
    pub fn peak(&self) -> i64 {
        self.0.peak.load(Ordering::Relaxed)
    }
}

/// A handle onto one (possibly labeled) latency-histogram series.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl Default for HistogramHandle {
    fn default() -> Self {
        HistogramHandle(Arc::new(Mutex::new(Histogram::new())))
    }
}

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(v);
    }

    /// A snapshot of the backing histogram.
    pub fn snapshot(&self) -> Histogram {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A histogram family keyed by one label (e.g. `route`): series are
/// created lazily per label value and cached, so steady-state
/// observation is one map lookup plus one histogram record.
#[derive(Clone)]
pub struct HistogramVec {
    label: &'static str,
    series: Arc<Mutex<BTreeMap<String, HistogramHandle>>>,
}

impl HistogramVec {
    /// The handle for `value` of the family's label (created on first
    /// use).
    pub fn with(&self, value: &str) -> HistogramHandle {
        let mut series = self.series.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = series.get(value) {
            return h.clone();
        }
        let h = HistogramHandle::default();
        series.insert(value.to_string(), h.clone());
        h
    }

    /// Snapshots of every series, by label value.
    pub fn snapshot(&self) -> Vec<(String, Histogram)> {
        self.series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

/// A counter family keyed by a fixed set of labels (e.g. `route`,
/// `status`): series are created lazily per label-value tuple, and
/// [`CounterVec::with`] hands out the series' [`Counter`] handle — hot
/// paths fetch it once and keep it, so counting is one relaxed atomic
/// add.
#[derive(Clone)]
pub struct CounterVec {
    labels: &'static [&'static str],
    series: Arc<Mutex<BTreeMap<Vec<String>, Counter>>>,
}

impl CounterVec {
    /// The handle for one tuple of label values, in the order the
    /// family's labels were registered (created at zero on first use).
    ///
    /// # Panics
    ///
    /// Panics when `values` does not have one value per label.
    pub fn with(&self, values: &[&str]) -> Counter {
        assert_eq!(values.len(), self.labels.len(), "one value per label");
        let key: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone()
    }

    /// The current value of every series, by label values.
    pub fn snapshot(&self) -> Vec<(Vec<String>, u64)> {
        self.series
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }
}

/// A scrape-time gauge callback: returns `(label pairs, value)` samples.
type GaugeFn = Arc<dyn Fn() -> Vec<(Vec<(String, String)>, i64)> + Send + Sync>;

enum MetricKind {
    Counter(Counter),
    CounterVec(CounterVec),
    Gauge(Gauge),
    Hist {
        vec: HistogramVec,
        buckets: &'static [u64],
    },
    GaugeFn(GaugeFn),
}

struct MetricFamily {
    name: String,
    help: String,
    kind: MetricKind,
}

/// The metric registry: an ordered set of named families.
///
/// Cloning is cheap (the registry is an `Arc` internally); every clone
/// sees and renders the same families.
#[derive(Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<Vec<MetricFamily>>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, kind: MetricKind) -> usize {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = families.iter().position(|f| f.name == name) {
            return i;
        }
        families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
        });
        families.len() - 1
    }

    /// Registers (or fetches) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name, or if `name` is already
    /// registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let i = self.register(name, help, MetricKind::Counter(Counter::default()));
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        match &families[i].kind {
            MetricKind::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or fetches) a counter family over `labels`.
    ///
    /// # Panics
    ///
    /// Same as [`Registry::counter`].
    pub fn counter_vec(
        &self,
        name: &str,
        help: &str,
        labels: &'static [&'static str],
    ) -> CounterVec {
        let vec = CounterVec {
            labels,
            series: Arc::new(Mutex::new(BTreeMap::new())),
        };
        let i = self.register(name, help, MetricKind::CounterVec(vec));
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        match &families[i].kind {
            MetricKind::CounterVec(vec) => vec.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or fetches) an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Same as [`Registry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let i = self.register(name, help, MetricKind::Gauge(Gauge::default()));
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        match &families[i].kind {
            MetricKind::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or fetches) a one-label histogram family over the
    /// given bucket upper bounds (rendered cumulatively with a final
    /// `+Inf`).
    ///
    /// # Panics
    ///
    /// Same as [`Registry::counter`].
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        label: &'static str,
        buckets: &'static [u64],
    ) -> HistogramVec {
        let vec = HistogramVec {
            label,
            series: Arc::new(Mutex::new(BTreeMap::new())),
        };
        let i = self.register(name, help, MetricKind::Hist { vec, buckets });
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        match &families[i].kind {
            MetricKind::Hist { vec, .. } => vec.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers a gauge family sampled at scrape time by a callback
    /// (for values owned elsewhere, e.g. the reactor's job-queue
    /// depths). Re-registering the same name replaces the callback.
    pub fn gauge_fn<F>(&self, name: &str, help: &str, f: F)
    where
        F: Fn() -> Vec<(Vec<(String, String)>, i64)> + Send + Sync + 'static,
    {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let kind = MetricKind::GaugeFn(Arc::new(f));
        if let Some(existing) = families.iter_mut().find(|fam| fam.name == name) {
            existing.kind = kind;
            existing.help = help.to_string();
        } else {
            families.push(MetricFamily {
                name: name.to_string(),
                help: help.to_string(),
                kind,
            });
        }
    }

    /// Renders every family as Prometheus text exposition (format
    /// version 0.0.4): `# HELP` / `# TYPE` per family, escaped label
    /// values, and cumulative `_bucket`/`_sum`/`_count` histogram
    /// series ending in `le="+Inf"`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        for fam in families.iter() {
            match &fam.kind {
                MetricKind::Counter(c) => {
                    expo::render_header(&mut out, &fam.name, &fam.help, "counter");
                    expo::render_sample(&mut out, &fam.name, &[], &c.get().to_string());
                }
                MetricKind::CounterVec(vec) => {
                    expo::render_header(&mut out, &fam.name, &fam.help, "counter");
                    for (values, count) in vec.snapshot() {
                        let pairs: Vec<(&str, &str)> = vec
                            .labels
                            .iter()
                            .copied()
                            .zip(values.iter().map(String::as_str))
                            .collect();
                        expo::render_sample(&mut out, &fam.name, &pairs, &count.to_string());
                    }
                }
                MetricKind::Gauge(g) => {
                    expo::render_header(&mut out, &fam.name, &fam.help, "gauge");
                    expo::render_sample(&mut out, &fam.name, &[], &g.get().to_string());
                }
                MetricKind::GaugeFn(f) => {
                    expo::render_header(&mut out, &fam.name, &fam.help, "gauge");
                    for (labels, value) in f() {
                        let pairs: Vec<(&str, &str)> = labels
                            .iter()
                            .map(|(k, v)| (k.as_str(), v.as_str()))
                            .collect();
                        expo::render_sample(&mut out, &fam.name, &pairs, &value.to_string());
                    }
                }
                MetricKind::Hist { vec, buckets } => {
                    expo::render_header(&mut out, &fam.name, &fam.help, "histogram");
                    for (label_value, hist) in vec.snapshot() {
                        expo::render_histogram(
                            &mut out,
                            &fam.name,
                            vec.label,
                            &label_value,
                            &hist,
                            buckets,
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles() {
        let r = Registry::new();
        let c = r.counter("c_total", "help");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Fetching the same name returns the same series.
        let c2 = r.counter("c_total", "help");
        c2.inc();
        assert_eq!(c.get(), 4);

        let g = r.gauge("g", "help");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 2);
        g.set(9);
        assert_eq!(g.peak(), 9);
        g.set(1);
        assert_eq!(g.peak(), 9);
    }

    #[test]
    fn histogram_vec_caches_series() {
        let r = Registry::new();
        let v = r.histogram_vec("lat_us", "help", "route", LATENCY_BUCKETS_US);
        v.with("GET /a").observe(100);
        v.with("GET /a").observe(200);
        v.with("GET /b").observe(300);
        let snap = v.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1.count(), 2);
    }

    #[test]
    fn counter_vec_renders_what_the_parser_reads_back() {
        use crate::expo::Exposition;
        let r = Registry::new();
        let v = r.counter_vec("req_total", "help", &["route", "status"]);
        v.with(&["GET /a", "200"]).add(3);
        // A series exists from the moment its handle is fetched, at zero.
        let idle = v.with(&["GET /b", "404"]);
        // Label values are escaped on the way out and restored on the way in.
        let odd = "quote\" back\\slash new\nline";
        v.with(&[odd, "500"]).inc();
        // Re-registering the family and re-fetching a series both return
        // the handle that already exists.
        let again = r.counter_vec("req_total", "help", &["route", "status"]);
        again.with(&["GET /a", "200"]).inc();
        assert_eq!(v.with(&["GET /a", "200"]).get(), 4);

        let text = r.render_prometheus();
        let expo = Exposition::parse(&text).unwrap();
        let fam = &expo.families["req_total"];
        assert_eq!(fam.kind.as_deref(), Some("counter"));
        assert_eq!(fam.samples.len(), 3, "{text}");
        let sample =
            |route, status| expo.sample("req_total", &[("route", route), ("status", status)]);
        assert_eq!(sample("GET /a", "200"), Some(4.0));
        assert_eq!(sample("GET /b", "404"), Some(0.0), "zero-valued series");
        assert_eq!(sample(odd, "500"), Some(1.0), "{text}");
        idle.inc();
        assert_eq!(v.snapshot().len(), 3);
    }

    #[test]
    #[should_panic(expected = "one value per label")]
    fn counter_vec_rejects_a_short_label_tuple() {
        Registry::new()
            .counter_vec("c_total", "h", &["a", "b"])
            .with(&["only-a"]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflict_panics() {
        let r = Registry::new();
        r.counter("m", "h");
        r.gauge("m", "h");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("9bad", "h");
    }

    #[test]
    fn gauge_fn_sampled_at_render() {
        let r = Registry::new();
        let depth = Arc::new(AtomicI64::new(0));
        let d = depth.clone();
        r.gauge_fn("queue_depth", "h", move || {
            vec![(
                vec![("class".to_string(), "serve".to_string())],
                d.load(Ordering::Relaxed),
            )]
        });
        depth.store(7, Ordering::Relaxed);
        assert!(r
            .render_prometheus()
            .contains("queue_depth{class=\"serve\"} 7"));
    }
}
