//! What the program says about itself: the Prometheus exposition at
//! `GET /v1/metrics?format=prometheus` and the access log. The parser is
//! the benchmark's own, so a change to the product's parser cannot hide
//! a change to its renderer. An absent series is `None`, never a crash.

use std::collections::BTreeMap;
use std::path::Path;

use tsr_wire::Json;

/// One sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name (`family`, `family_bucket`, `family_count`, …).
    pub name: String,
    /// Labels.
    pub labels: BTreeMap<String, String>,
    /// Value.
    pub value: f64,
}

/// A parsed exposition.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: Vec<Sample>,
}

fn parse_labels(text: &str) -> Option<BTreeMap<String, String>> {
    let mut labels = BTreeMap::new();
    let mut rest = text;
    while !rest.is_empty() {
        let (name, after) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                '"' => break i,
                other => value.push(other),
            }
        };
        labels.insert(name.trim().to_string(), value);
        rest = after[end + 1..].trim_start_matches(',');
    }
    Some(labels)
}

impl Sample {
    fn has(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        self.name == name
            && labels
                .iter()
                .all(|(k, v)| self.labels.get(*k).map(String::as_str) == Some(*v))
    }
}

impl Scrape {
    /// Parses exposition text, skipping comments and lines it cannot
    /// read.
    pub fn parse(text: &str) -> Scrape {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (head, value) = match line.rsplit_once(' ') {
                Some(parts) => parts,
                None => continue,
            };
            let value = match value {
                "+Inf" => f64::INFINITY,
                v => match v.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => continue,
                },
            };
            let (name, labels) = match head.split_once('{') {
                None => (head, BTreeMap::new()),
                Some((name, rest)) => match rest.strip_suffix('}').and_then(parse_labels) {
                    Some(labels) => (name, labels),
                    None => continue,
                },
            };
            samples.push(Sample {
                name: name.to_string(),
                labels,
                value,
            });
        }
        Scrape { samples }
    }

    /// The value of the sample `name` whose labels include `labels`.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.has(name, labels))
            .map(|s| s.value)
    }

    /// A named event counter of `tsr_core_events_total`.
    pub fn event(&self, event: &str) -> Option<f64> {
        self.value("tsr_core_events_total", &[("event", event)])
    }

    /// Sum of `tsr_http_requests_total` over the routes `keep` accepts,
    /// status 200 only.
    pub fn requests_ok(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.samples
            .iter()
            .filter(|s| {
                s.name == "tsr_http_requests_total"
                    && s.labels.get("status").map(String::as_str) == Some("200")
                    && s.labels.get("route").is_some_and(|r| keep(r))
            })
            .map(|s| s.value)
            .sum()
    }

    /// The `q`-quantile of histogram `family` for the series carrying
    /// `labels`, interpolated inside the bucket like PromQL's
    /// `histogram_quantile`.
    pub fn histogram_quantile(&self, family: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let bucket = format!("{family}_bucket");
        let mut buckets: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.has(&bucket, labels))
            .filter_map(|s| {
                let le = s.labels.get("le")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = q * total;
        let mut lower = (0.0, 0.0);
        for (le, count) in buckets {
            if count >= rank {
                if le.is_infinite() {
                    return Some(lower.0);
                }
                let span = count - lower.1;
                let frac = if span > 0.0 {
                    (rank - lower.1) / span
                } else {
                    1.0
                };
                return Some(lower.0 + (le - lower.0) * frac);
            }
            lower = (le, count);
        }
        None
    }
}

/// What the access log says: lines, body bytes, and the median
/// `latency_us` per route.
#[derive(Debug, Clone, Default)]
pub struct AccessLog {
    /// Lines read.
    pub lines: u64,
    /// Size of the file, bytes.
    pub file_bytes: u64,
    /// Median handler latency per route pattern, microseconds.
    pub route_p50_us: BTreeMap<String, f64>,
}

/// Reads the access log at `path`; lines that do not parse are counted
/// in the error.
pub fn read_access_log(path: &Path) -> Result<AccessLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut by_route: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("access log line {}: {e}", lines + 1))?;
        let route = json.get("route").and_then(Json::as_str);
        let latency = json.get("latency_us").and_then(Json::as_u64);
        let (Some(route), Some(latency)) = (route, latency) else {
            return Err(format!(
                "access log line {} lacks route/latency_us",
                lines + 1
            ));
        };
        by_route.entry(route.to_string()).or_default().push(latency);
        lines += 1;
    }
    Ok(AccessLog {
        lines,
        file_bytes: text.len() as u64,
        route_p50_us: by_route
            .into_iter()
            .filter_map(|(r, v)| Some((r, crate::stats::quantile(&v, 0.5)? as f64)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP x y\n# TYPE h histogram\n\
        h_bucket{route=\"GET /a\",le=\"100\"} 10\n\
        h_bucket{route=\"GET /a\",le=\"200\"} 30\n\
        h_bucket{route=\"GET /a\",le=\"+Inf\"} 40\n\
        h_count{route=\"GET /a\"} 40\n\
        tsr_core_events_total{event=\"wal_appends\"} 7\n\
        tsr_http_requests_total{route=\"GET /a\",status=\"200\"} 5\n\
        tsr_http_requests_total{route=\"GET /a\",status=\"304\"} 9\n\
        tsr_http_requests_total{route=\"GET /b \\\"q\\\"\",status=\"200\"} 2\n\
        plain 3.5\n";

    #[test]
    fn parses_samples_labels_and_quantiles() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.value("plain", &[]), Some(3.5));
        assert_eq!(s.event("wal_appends"), Some(7.0));
        assert_eq!(s.event("absent"), None);
        assert_eq!(s.requests_ok(|r| r.starts_with("GET /a")), 5.0);
        assert_eq!(s.requests_ok(|_| true), 7.0);
        // rank 20 lies in (100, 200]: 100 + 100 · (20-10)/(30-10).
        assert_eq!(
            s.histogram_quantile("h", &[("route", "GET /a")], 0.5),
            Some(150.0)
        );
        assert_eq!(
            s.histogram_quantile("h", &[("route", "GET /zzz")], 0.5),
            None
        );
    }
}
