//! `tsrbench repeat`: runs the full set several times, each time with
//! another seed and each run in a process of its own, and holds every
//! end-to-end metric's spread against its bound — the check the driver
//! makes before it accepts the benchmark, made the way the driver makes it.

use std::collections::BTreeMap;
use std::process::Command;

use tsr_wire::Json;

use crate::report::better;
use crate::spec::{Plan, END_TO_END, PLANS};
use crate::stats;
use crate::world::Error;
use crate::Options;

type Table = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// What one child run printed: whether it was correct, its end-to-end
/// metrics in table order, and its input digest.
struct ChildRun {
    correct: bool,
    values: Vec<f64>,
    input_digest: String,
}

/// Runs `plan` with `seed` untraced in a child process, as the driver
/// does, and reads its result line.
fn run_child(plan: &Plan, seed: u64, o: &Options) -> Result<ChildRun, Error> {
    let started = std::time::Instant::now();
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", plan.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed} exited with {} and no result line ({e}): {}",
            plan.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    if !correct {
        print!("{stdout}");
    }
    let values = END_TO_END
        .iter()
        .map(|spec| {
            result
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(number)
                .ok_or_else(|| format!("{} seed {seed} reports no {}", plan.name, spec.name))
        })
        .collect::<Result<_, _>>()?;
    let digest_tag = format!("{} input_digest ", plan.name);
    let input_digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&digest_tag))
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_default()
        .to_string();
    eprintln!(
        "{} seed {seed} took {:.1} s",
        plan.name,
        started.elapsed().as_secs_f64()
    );
    Ok(ChildRun {
        correct,
        values,
        input_digest,
    })
}

/// A JSON number, whole or not.
pub fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Runs the set `o.runs` times with seeds `o.seed`, `o.seed + 1`, …
pub fn repeat(o: &Options) -> Result<u8, Error> {
    let mut table: Table = BTreeMap::new();
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..o.runs {
        let seed = o.seed + i as u64;
        for plan in &PLANS {
            let run = run_child(plan, seed, o)?;
            all_correct &= run.correct;
            digests.insert(format!("{}/{seed}", plan.name), run.input_digest);
            for (spec, value) in END_TO_END.iter().zip(run.values) {
                table.entry((plan.name, spec.name)).or_default().push(value);
            }
        }
    }

    println!(
        "`tsrbench repeat --runs {} --seed {} --seconds {}`: seeds {}..={}, spread = (Q3 - Q1) / median with Python's `statistics.quantiles(v, n=4)`.\n",
        o.runs,
        o.seed,
        o.seconds,
        o.seed,
        o.seed + o.runs as u64 - 1
    );
    println!("| workload | metric | unit | better | median | Q1 | Q3 | spread | (max-min)/median | bound | verdict | every run |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut over = 0;
    let mut medians: BTreeMap<String, f64> = BTreeMap::new();
    for plan in &PLANS {
        for spec in &END_TO_END {
            let values = &table[&(plan.name, spec.name)];
            let median = stats::median(values).unwrap_or(0.0);
            let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
            let spread = (q3 - q1) / median.abs().max(f64::MIN_POSITIVE);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let range = (max - min) / median.abs().max(f64::MIN_POSITIVE);
            // The set-up time's spread is reported but, as in the driver's
            // check, not held against its bound.
            let verdict = if spread <= spec.bound / 3.0 {
                "steady"
            } else if spread <= spec.bound || spec.name == "setup_s" {
                "within bound"
            } else {
                over += 1;
                "OVER BOUND"
            };
            let every: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {} | {} | {} | {} | {median:.4} | {q1:.4} | {q3:.4} | {:.1}% | {:.1}% | {:.0}% | {verdict} | {} |",
                plan.name,
                spec.name,
                spec.unit,
                better(spec),
                spread * 100.0,
                range * 100.0,
                spec.bound * 100.0,
                every.join(" ")
            );
            medians.insert(format!("{}/{}", plan.name, spec.name), median);
        }
    }

    if let Some(path) = &o.compare {
        let earlier = Json::parse(&std::fs::read_to_string(path)?)?;
        println!("\nAgainst the medians in `{path}`:\n");
        println!("| workload/metric | earlier | now | worse by | bound | verdict |");
        println!("|---|---|---|---|---|---|");
        for plan in &PLANS {
            for spec in &END_TO_END {
                let key = format!("{}/{}", plan.name, spec.name);
                let Some(before) = earlier
                    .get("medians")
                    .and_then(|m| m.get(&key))
                    .and_then(number)
                else {
                    continue;
                };
                let now = medians[&key];
                let worse = worse_by(before, now, spec.higher_is_better);
                let verdict = if worse.abs() <= spec.bound {
                    "agrees"
                } else {
                    over += 1;
                    "DISAGREES"
                };
                println!(
                    "| {key} | {before:.4} | {now:.4} | {:.1}% | {:.0}% | {verdict} |",
                    worse * 100.0,
                    spec.bound * 100.0
                );
            }
        }
        let same = digests.iter().all(|(k, v)| {
            earlier
                .get("input_digests")
                .and_then(|d| d.get(k))
                .and_then(Json::as_str)
                .is_none_or(|e| e == v)
        });
        println!("\ninput digests identical to the earlier set: {same}");
        if !same {
            over += 1;
        }
    }

    if let Some(path) = &o.out {
        let medians: Vec<String> = medians
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let digests: Vec<String> = digests
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        std::fs::write(
            path,
            format!(
                "{{\"seed\":{},\"runs\":{},\"seconds\":{},\"medians\":{{{}}},\"input_digests\":{{{}}}}}\n",
                o.seed,
                o.runs,
                o.seconds,
                medians.join(","),
                digests.join(",")
            ),
        )?;
    }
    println!("\nall runs correct: {all_correct}; metrics over their bound: {over}");
    Ok(u8::from(over > 0 || !all_correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, true) - 0.10).abs() < 1e-12);
    }
}
