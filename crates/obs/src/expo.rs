//! Prometheus text exposition: rendering helpers and a strict parser.
//!
//! The renderer emits format version 0.0.4 — `# HELP` / `# TYPE` lines,
//! backslash-escaped help text and label values, and cumulative
//! histogram `_bucket` series that end in `le="+Inf"` and agree with
//! the `_count` sample. The parser is the other half of the contract:
//! the load-contract and API test tiers scrape
//! `/v1/metrics?format=prometheus`, parse with [`Exposition::parse`],
//! and fail on malformed lines, broken bucket monotonicity, or missing
//! required series.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tsr_stats::Histogram;

/// Escapes a HELP string (`\` and newline).
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (`\`, `"`, and newline).
pub fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Writes the `# HELP` / `# TYPE` preamble of one family.
pub fn render_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one sample line with optional labels.
pub fn render_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Writes the cumulative `_bucket`/`_sum`/`_count` series of one
/// histogram series (one label value of a family). Bucket counts come
/// from [`Histogram::count_le`], so they are monotone by construction
/// and the `+Inf` bucket equals the total count.
pub fn render_histogram(
    out: &mut String,
    name: &str,
    label: &str,
    label_value: &str,
    hist: &Histogram,
    buckets: &[u64],
) {
    let bucket_name = format!("{name}_bucket");
    for &bound in buckets {
        render_sample(
            out,
            &bucket_name,
            &[(label, label_value), ("le", &bound.to_string())],
            &hist.count_le(bound).to_string(),
        );
    }
    render_sample(
        out,
        &bucket_name,
        &[(label, label_value), ("le", "+Inf")],
        &hist.count().to_string(),
    );
    render_sample(
        out,
        &format!("{name}_sum"),
        &[(label, label_value)],
        &hist.sum().to_string(),
    );
    render_sample(
        out,
        &format!("{name}_count"),
        &[(label, label_value)],
        &hist.count().to_string(),
    );
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric name as written (including `_bucket` etc. suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One metric family: the samples sharing a base name, plus its
/// `# HELP`/`# TYPE` metadata. Histogram `_bucket`/`_sum`/`_count`
/// samples are grouped under the base family name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Family {
    /// HELP text (unescaped), when present.
    pub help: Option<String>,
    /// TYPE (`counter`, `gauge`, `histogram`, …), when present.
    pub kind: Option<String>,
    /// The family's samples in source order.
    pub samples: Vec<Sample>,
}

/// A parsed exposition: families keyed by base metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Families by base name.
    pub families: BTreeMap<String, Family>,
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Parses one `{k="v",…}` label block; returns the pairs and the byte
/// offset just past the closing `}`.
fn parse_labels(s: &str) -> Result<(Vec<(String, String)>, usize), String> {
    debug_assert!(s.starts_with('{'));
    let bytes = s.as_bytes();
    let mut labels = Vec::new();
    let mut i = 1usize;
    loop {
        // Label name up to '='.
        if bytes.get(i) == Some(&b'}') {
            return Ok((labels, i + 1));
        }
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        if i >= bytes.len() {
            return Err("unterminated label name".to_string());
        }
        let name = s[name_start..i].trim().to_string();
        i += 1; // '='
        if bytes.get(i) != Some(&b'"') {
            return Err(format!("label {name:?} value is not quoted"));
        }
        i += 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated value for label {name:?}")),
                Some(b'\\') => {
                    let esc = bytes
                        .get(i + 1)
                        .ok_or_else(|| "dangling escape in label value".to_string())?;
                    value.push(match esc {
                        b'n' => '\n',
                        other => *other as char,
                    });
                    i += 2;
                }
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied verbatim.
                    let ch_len = s[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                    value.push_str(&s[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        labels.push((name, value));
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                return Ok((labels, i + 1));
            }
            other => return Err(format!("expected ',' or '}}' after label, got {other:?}")),
        }
    }
}

/// The family a sample belongs to: `_bucket`/`_sum`/`_count` suffixes
/// attach to a known histogram family's base name.
fn base_name<'e>(name: &'e str, families: &BTreeMap<String, Family>) -> &'e str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).and_then(|f| f.kind.as_deref()) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

impl Exposition {
    /// Parses exposition text.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.is_empty() {
                continue;
            }
            let fail = |m: String| format!("line {}: {m} ({line:?})", lineno + 1);
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest
                    .split_once(' ')
                    .map(|(n, h)| (n, Some(h)))
                    .unwrap_or((rest, None));
                families.entry(name.to_string()).or_default().help =
                    Some(unescape(help.unwrap_or("")));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| fail("TYPE line missing type".to_string()))?;
                families.entry(name.to_string()).or_default().kind = Some(kind.to_string());
            } else if line.starts_with('#') {
                continue; // comment
            } else {
                let name_end = line
                    .find(['{', ' '])
                    .ok_or_else(|| fail("sample has no value".to_string()))?;
                let name = &line[..name_end];
                if name.is_empty() {
                    return Err(fail("empty metric name".to_string()));
                }
                let (labels, rest) = if line.as_bytes()[name_end] == b'{' {
                    let (labels, used) = parse_labels(&line[name_end..]).map_err(&fail)?;
                    (labels, &line[name_end + used..])
                } else {
                    (Vec::new(), &line[name_end..])
                };
                let value_text = rest.split_whitespace().next().unwrap_or("");
                let value: f64 = match value_text {
                    "+Inf" => f64::INFINITY,
                    "-Inf" => f64::NEG_INFINITY,
                    "NaN" => f64::NAN,
                    other => other
                        .parse()
                        .map_err(|_| fail(format!("bad sample value {other:?}")))?,
                };
                let base = base_name(name, &families).to_string();
                families.entry(base).or_default().samples.push(Sample {
                    name: name.to_string(),
                    labels,
                    value,
                });
            }
        }
        Ok(Exposition { families })
    }

    /// The value of the sample named `name` whose labels include every
    /// pair in `labels`.
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.families
            .values()
            .flat_map(|f| &f.samples)
            .find_map(|s| {
                let matches = s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v));
                if matches {
                    Some(s.value)
                } else {
                    None
                }
            })
    }

    /// Estimates quantile `q` of a histogram family's series whose
    /// labels include every pair in `labels`, by linear interpolation
    /// within the bucket holding the target rank (the
    /// `histogram_quantile` estimator). Returns `None` when the family
    /// is missing or empty.
    pub fn histogram_quantile(&self, family: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        let fam = self.families.get(family)?;
        let bucket_name = format!("{family}_bucket");
        let mut buckets: Vec<(f64, f64)> = fam
            .samples
            .iter()
            .filter(|s| s.name == bucket_name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
            .filter_map(|s| {
                let le = s.label("le")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total = buckets.last().filter(|(b, _)| b.is_infinite())?.1;
        if total <= 0.0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total;
        let mut prev_bound = 0.0;
        let mut prev_cum = 0.0;
        for &(bound, cum) in &buckets {
            if cum >= target {
                if bound.is_infinite() {
                    return Some(prev_bound);
                }
                let in_bucket = (cum - prev_cum).max(1.0);
                return Some(prev_bound + (bound - prev_bound) * (target - prev_cum) / in_bucket);
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        None
    }

    /// Validates every histogram family: buckets cumulative and
    /// monotone per series, a `+Inf` bucket present and equal to the
    /// `_count` sample, and a `_sum` sample present.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate_histograms(&self) -> Result<(), String> {
        for (name, fam) in &self.families {
            if fam.kind.as_deref() != Some("histogram") {
                continue;
            }
            let bucket_name = format!("{name}_bucket");
            // Group bucket samples by their non-`le` label set.
            let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
            for s in fam.samples.iter().filter(|s| s.name == bucket_name) {
                let key: String = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v};"))
                    .collect();
                let le = s
                    .label("le")
                    .ok_or_else(|| format!("{name}: bucket sample without le label"))?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse()
                        .map_err(|_| format!("{name}: unparsable le {le:?}"))?
                };
                series.entry(key).or_default().push((bound, s.value));
            }
            if series.is_empty() {
                continue; // a family with no series yet is fine
            }
            for (key, mut buckets) in series {
                buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                let mut prev = 0.0;
                for &(bound, cum) in &buckets {
                    if cum < prev {
                        return Err(format!(
                            "{name}{{{key}}}: bucket le={bound} count {cum} < previous {prev}"
                        ));
                    }
                    prev = cum;
                }
                let Some(&(last_bound, inf_count)) = buckets.last() else {
                    continue;
                };
                if !last_bound.is_infinite() {
                    return Err(format!("{name}{{{key}}}: missing +Inf bucket"));
                }
                let count = fam
                    .samples
                    .iter()
                    .find(|s| s.name == format!("{name}_count") && key_of(s) == key)
                    .ok_or_else(|| format!("{name}{{{key}}}: missing _count"))?;
                if (count.value - inf_count).abs() > f64::EPSILON {
                    return Err(format!(
                        "{name}{{{key}}}: +Inf bucket {inf_count} != _count {}",
                        count.value
                    ));
                }
                fam.samples
                    .iter()
                    .find(|s| s.name == format!("{name}_sum") && key_of(s) == key)
                    .ok_or_else(|| format!("{name}{{{key}}}: missing _sum"))?;
            }
        }
        Ok(())
    }
}

fn key_of(s: &Sample) -> String {
    s.labels
        .iter()
        .filter(|(k, _)| k != "le")
        .map(|(k, v)| format!("{k}={v};"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, LATENCY_BUCKETS_US};

    #[test]
    fn escaping_round_trips_through_parser() {
        let mut out = String::new();
        render_header(&mut out, "m", "line1\nline2 \\ backslash", "gauge");
        render_sample(&mut out, "m", &[("k", "a\"b\\c\nd")], "1");
        let expo = Exposition::parse(&out).unwrap();
        let fam = &expo.families["m"];
        assert_eq!(fam.help.as_deref(), Some("line1\nline2 \\ backslash"));
        assert_eq!(fam.samples[0].label("k"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rendered_histogram_passes_validation() {
        let r = Registry::new();
        let v = r.histogram_vec("lat_us", "latency", "route", LATENCY_BUCKETS_US);
        for i in 0..1000u64 {
            v.with("GET /x").observe(i * 37 % 50_000);
        }
        v.with("GET /y").observe(123);
        let text = r.render_prometheus();
        let expo = Exposition::parse(&text).unwrap();
        expo.validate_histograms().unwrap();
        assert_eq!(
            expo.sample("lat_us_count", &[("route", "GET /x")]),
            Some(1000.0)
        );
        // +Inf bucket equals _count.
        assert_eq!(
            expo.sample("lat_us_bucket", &[("route", "GET /x"), ("le", "+Inf")]),
            Some(1000.0)
        );
    }

    #[test]
    fn quantile_estimate_tracks_recorded_values() {
        let r = Registry::new();
        let v = r.histogram_vec("lat_us", "latency", "route", LATENCY_BUCKETS_US);
        let h = v.with("GET /x");
        for _ in 0..500 {
            h.observe(400);
        }
        for _ in 0..500 {
            h.observe(4_000);
        }
        let expo = Exposition::parse(&r.render_prometheus()).unwrap();
        let p50 = expo
            .histogram_quantile("lat_us", &[("route", "GET /x")], 0.50)
            .unwrap();
        // True p50 is 400; the estimate must land in its bucket range.
        assert!((250.0..=500.0).contains(&p50), "p50 estimate {p50}");
        let p99 = expo
            .histogram_quantile("lat_us", &[("route", "GET /x")], 0.99)
            .unwrap();
        assert!((2_500.0..=5_000.0).contains(&p99), "p99 estimate {p99}");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(Exposition::parse("metric{k=\"v\" 1").is_err()); // unterminated labels
        assert!(Exposition::parse("metric{k=v} 1").is_err()); // unquoted value
        assert!(Exposition::parse("metric notanumber").is_err());
        assert!(Exposition::parse("{} 1").is_err()); // empty name
    }

    #[test]
    fn validation_catches_broken_monotonicity() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let expo = Exposition::parse(text).unwrap();
        let err = expo.validate_histograms().unwrap_err();
        assert!(err.contains("< previous"), "{err}");
    }

    #[test]
    fn validation_catches_missing_inf_and_count_mismatch() {
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n";
        assert!(Exposition::parse(no_inf)
            .unwrap()
            .validate_histograms()
            .unwrap_err()
            .contains("+Inf"));
        let mismatch = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n";
        assert!(Exposition::parse(mismatch)
            .unwrap()
            .validate_histograms()
            .unwrap_err()
            .contains("!= _count"));
    }
}
