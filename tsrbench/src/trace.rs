//! The in-memory span recorder of the traced run. Spans are recorded
//! around calls into the program, from the benchmark's side of the
//! boundary, and written to `trace.json` when the run ends.
//!
//! The load loops keep `(due, sent, done, kind, node)` for every op in
//! both modes — the latency metrics need them — so tracing adds no work
//! to the timed path: a traced run turns those records into `op.*` spans
//! afterwards and adds the set-up, phase and probe spans around them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique in the trace, never 0.
    pub id: u32,
    /// The span that caused this one; 0 for the root.
    pub parent: u32,
    /// Thread the span ran on: 0 is the main thread, load thread `i` is
    /// `i + 1`.
    pub track: u8,
    /// `workload`, `setup`, `phase.*`, `op.*`, `probe.*`, …
    pub name: String,
    /// Identifier shared by the spans of one request or admin call; 0
    /// when the span belongs to none.
    pub op: u64,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. When off, every call is a no-op and ids are 0.
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `on` is the `--trace` flag.
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a main-thread span now and returns its id.
    pub fn begin(&mut self, name: &str, parent: u32) -> u32 {
        let now = self.ns(Instant::now());
        self.add(name, parent, 0, 0, now, now)
    }

    /// Closes a span opened with [`Trace::begin`] now.
    pub fn end(&mut self, id: u32) {
        if id != 0 {
            let now = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        name: &str,
        parent: u32,
        track: u8,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            track,
            name: name.to_string(),
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// All spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as JSON text: `{"unit":"ns","spans":[…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"unit\":\"ns\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Names are benchmark-chosen ASCII without quotes or
            // backslashes, so no escaping is needed.
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"track\":{},\"name\":\"{}\",\"op\":{},\"start\":{},\"end\":{}}}",
                s.id, s.parent, s.track, s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed by span name, microseconds, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += selfs[&s.id];
        e.1 += 1;
    }
    let mut rows: Vec<(String, f64, usize)> = by_name
        .into_iter()
        .map(|(n, (ns, count))| (n.to_string(), ns as f64 / 1e3, count))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// How far the self times of the main-thread spans under `root` are
/// from the root's duration, as a share of it. Spans on load threads run
/// beside the main thread and are left out: two threads busy for a
/// second are two seconds of self time in one second of wall time.
pub fn main_track_gap(spans: &[Span], root: u32) -> f64 {
    let main: Vec<Span> = spans.iter().filter(|s| s.track == 0).cloned().collect();
    let selfs = self_times(&main);
    let Some(root_span) = main.iter().find(|s| s.id == root) else {
        return 1.0;
    };
    let total: u64 = main.iter().map(|s| selfs[&s.id]).sum();
    let wall = root_span.duration().max(1);
    (total as f64 - wall as f64).abs() / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, track: u8, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            track,
            name: format!("s{id}"),
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        // root 0..100; children 10..30 and 20..50 overlap (cover 40), a
        // third 90..120 sticks out of the parent (covers 10).
        let spans = vec![
            span(1, 0, 0, 0, 100),
            span(2, 1, 0, 10, 30),
            span(3, 1, 0, 20, 50),
            span(4, 1, 0, 90, 120),
            span(5, 3, 0, 25, 45),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 30 - 20);
        assert_eq!(selfs[&5], 20);
    }

    #[test]
    fn nested_main_track_self_times_sum_to_the_root() {
        let spans = vec![
            span(1, 0, 0, 0, 1000),
            span(2, 1, 0, 0, 400),
            span(3, 1, 0, 400, 900),
            span(4, 3, 0, 500, 600),
            // Load-thread spans under phase 3 are not counted.
            span(5, 3, 1, 400, 900),
            span(6, 3, 2, 400, 900),
        ];
        assert!(main_track_gap(&spans, 1) < 1e-9);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.begin("workload", 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
        let mut t = Trace::new(true);
        let root = t.begin("workload", 0);
        let child = t.add("op.index", root, 1, 7, 5, 9);
        t.end(root);
        assert_eq!((root, child), (1, 2));
        assert!(t.to_json().contains("\"name\":\"op.index\",\"op\":7"));
    }
}
