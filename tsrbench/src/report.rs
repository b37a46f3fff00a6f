//! What a run prints and writes: one `workload metric value unit` line
//! per metric, the driver's result line, and the JSON report.

use std::fmt::Write as _;
use std::process::Command;

use crate::spec::{MetricSpec, END_TO_END, KEY_BITS, LOAD_THREADS, PER_LAYER, PLANS};
use crate::workload::Outcome;
use crate::Options;

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured. Non-finite values (a
/// ratio over nothing) are written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn specs(traced: bool) -> &'static [MetricSpec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints every metric of `o` as `workload metric value unit n=…`, then
/// the checks, the op counts and the notes.
pub fn print_outcome(o: &Outcome) {
    for spec in specs(o.traced) {
        let Some(m) = o.metrics.get(spec.name) else {
            continue;
        };
        if o.missing.contains(&spec.name) {
            println!("{} {} missing", o.workload, spec.name);
        } else {
            println!(
                "{} {} {} {} n={}",
                o.workload,
                spec.name,
                json_number(m.value),
                spec.unit,
                m.n
            );
        }
    }
    if o.traced {
        // A traced run still shows what the user would have seen, for
        // orientation; only an untraced run's values count.
        for spec in &END_TO_END {
            if let Some(m) = o.metrics.get(spec.name) {
                println!(
                    "{} {} {} {} n={} (traced, not for comparison)",
                    o.workload,
                    spec.name,
                    json_number(m.value),
                    spec.unit,
                    m.n
                );
            }
        }
    }
    for (kind, (attempted, failed)) in &o.ops {
        println!(
            "{} ops {kind} attempted={attempted} failed={failed}",
            o.workload
        );
    }
    for c in &o.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{} check {} {verdict}: {}", o.workload, c.name, c.detail);
    }
    for line in &o.failures {
        println!("{} failure: {line}", o.workload);
    }
    for line in &o.notes {
        println!("{} note: {line}", o.workload);
    }
    println!(
        "{} input_digest {} seed={} seconds={} wall={:.1}s",
        o.workload, o.input_digest, o.seed, o.seconds, o.wall_s
    );
}

fn metrics_json(o: &Outcome, which: &[MetricSpec]) -> String {
    let fields: Vec<String> = which
        .iter()
        .filter_map(|spec| {
            let m = o.metrics.get(spec.name)?;
            Some(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(spec.name),
                json_number(m.value),
                json_string(spec.unit)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics` — every end-to-end metric of an untraced run, every
/// per-layer metric of a traced one.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct(),
        o.attempted().max(1),
        o.failed(),
        metrics_json(o, specs(o.traced))
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The report header: the conditions every number was taken under.
pub fn header_json(o: &Options) -> String {
    let (seed, seconds) = (o.seed, o.seconds);
    let placement = crate::affinity::conditions();
    let nproc = placement.nproc;
    let scales: Vec<String> = PLANS
        .iter()
        .map(|p| format!("{}:{}", json_string(p.name), p.scale))
        .collect();
    format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"nproc\":{nproc},\"polling_confined\":{},\"spinners\":{},\"load_threads\":{LOAD_THREADS},\
         \"refresh_workers\":{},\"http_pool_size\":{},\"key_bits\":{KEY_BITS},\"scale\":{{{}}},\
         \"rustc\":{},\"git_commit\":{},\"fsync\":false,\
         \"simulated\":[\"sgx\",\"tpm\",\"mirror_latency\",\"process_kill\"]}}",
        placement.placed,
        placement.spinners,
        tsr_core::default_workers(),
        tsr_http::default_pool_size(),
        scales.join(","),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn outcome_json(o: &Outcome) -> String {
    let ops: Vec<String> = o
        .ops
        .iter()
        .map(|(k, (a, f))| format!("{}:{{\"attempted\":{a},\"failed\":{f}}}", json_string(k)))
        .collect();
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_string(c.name),
                c.ok,
                json_string(&c.detail)
            )
        })
        .collect();
    let counts: Vec<String> = specs(o.traced)
        .iter()
        .filter_map(|s| {
            Some(format!(
                "{}:{}",
                json_string(s.name),
                o.metrics.get(s.name)?.n
            ))
        })
        .collect();
    let strings = |v: &[String]| {
        v.iter()
            .map(|s| json_string(s))
            .collect::<Vec<_>>()
            .join(",")
    };
    let missing: Vec<String> = o.missing.iter().map(|m| json_string(m)).collect();
    format!(
        "{{\"workload\":{},\"traced\":{},\"correct\":{},\"input_digest\":{},\"wall_s\":{},\
         \"metrics\":{},\"samples\":{{{}}},\"missing\":[{}],\"ops\":{{{}}},\"checks\":[{}],\
         \"failures\":[{}],\"notes\":[{}]}}",
        json_string(o.workload),
        o.traced,
        o.correct(),
        json_string(&o.input_digest),
        json_number(o.wall_s),
        metrics_json(o, specs(o.traced)),
        counts.join(","),
        missing.join(","),
        ops.join(","),
        checks.join(","),
        strings(&o.failures),
        strings(&o.notes),
    )
}

/// The JSON report of a set of runs.
pub fn report_json(o: &Options, outcomes: &[Outcome]) -> String {
    let runs: Vec<String> = outcomes.iter().map(outcome_json).collect();
    format!(
        "{{\"benchmark\":\"tsrbench\",\"header\":{},\"runs\":[{}]}}\n",
        header_json(o),
        runs.join(",")
    )
}

/// The direction a metric may move without counting as worse.
pub fn better(spec: &MetricSpec) -> &'static str {
    if spec.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Check, Measured};
    use std::collections::BTreeMap;
    use tsr_wire::Json;

    fn outcome(traced: bool) -> Outcome {
        let which = specs(traced);
        Outcome {
            workload: "fleet_poll",
            seed: 1,
            seconds: 2.0,
            traced,
            input_digest: "ab".into(),
            metrics: which
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (
                        s.name,
                        Measured {
                            value: i as f64 + 0.25,
                            n: i,
                        },
                    )
                })
                .collect(),
            missing: Vec::new(),
            ops: BTreeMap::from([("index".to_string(), (10, 0))]),
            checks: vec![Check {
                name: "index_signatures",
                ok: true,
                detail: "a \"quoted\" detail\nwith a newline".into(),
            }],
            notes: vec!["note".into()],
            failures: Vec::new(),
            wall_s: 1.5,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let o = outcome(traced);
            let json = Json::parse(&result_line(&o)).expect("result line parses");
            let keys: Vec<&str> = json
                .as_obj()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = json.get("metrics").and_then(Json::as_obj).expect("metrics");
            let which = specs(traced);
            assert_eq!(metrics.len(), which.len());
            for spec in which {
                let m = metrics.get(spec.name).expect(spec.name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
            }
            assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        }
    }

    #[test]
    fn a_failed_check_or_op_makes_the_run_incorrect() {
        let mut o = outcome(false);
        assert!(o.correct());
        o.checks[0].ok = false;
        assert!(!o.correct());
        assert_eq!(crate::exit_code(&[o.clone()]), 1);
        o.checks[0].ok = true;
        o.ops.insert("page".into(), (5, 1));
        assert!(!o.correct());
        assert_eq!(crate::exit_code(&[o.clone()]), 1);
        assert!(result_line(&o).contains("\"correct\":false"));
        assert_eq!(crate::exit_code(&[outcome(false)]), 0);
    }

    #[test]
    fn trace_overhead_is_the_traced_median_over_the_untraced_one() {
        let untraced = outcome(false);
        let mut traced = outcome(true);
        traced.missing.push("harness.trace_overhead_pct");
        for (name, m) in &untraced.metrics {
            let slower = Measured {
                value: m.value * 1.1,
                n: m.n,
            };
            traced.metrics.insert(name, slower);
        }
        traced.set_trace_overhead(&untraced);
        let got = traced.metrics["harness.trace_overhead_pct"].value;
        assert!((got - 10.0).abs() < 1e-9, "{got}");
        assert!(traced.missing.is_empty());
    }

    #[test]
    fn report_reparses_and_names_match_benchmark_json() {
        let options = crate::parse(&[]).expect("defaults");
        let report = report_json(&options, &[outcome(false), outcome(true)]);
        let json = Json::parse(&report).expect("report parses");
        let runs = json.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), 2);
        assert!(json.get("header").and_then(|h| h.get("nproc")).is_some());

        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let ours =
            |specs: &[MetricSpec]| specs.iter().map(|s| s.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        assert_eq!(
            names("workloads"),
            PLANS.iter().map(|p| p.name.to_string()).collect::<Vec<_>>()
        );
        for (listed, spec) in bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(better(spec))
            );
            let bound = listed
                .get("bound")
                .and_then(crate::repeat::number)
                .expect("a numeric bound");
            assert!((bound - spec.bound).abs() < 1e-12, "{}", spec.name);
        }
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_u64),
            Some(crate::spec::RUN_SECONDS)
        );
        // The metric names of the report equal those of BENCHMARK.json.
        let reported: Vec<String> = runs[0]
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .keys()
            .cloned()
            .collect();
        let mut listed = names("end_to_end");
        listed.sort();
        assert_eq!(reported, listed);
    }
}
