//! `tsrbench` — the pinned benchmark of the TSR workspace.
//!
//! ```text
//! tsrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, the driver's contract
//! tsrbench run    [--seed n] [--seconds s] [--out file]               every workload, untraced
//! tsrbench trace  [--seed n] [--seconds s] [--out file]               every workload, traced, with the layer probes
//! tsrbench repeat [--runs n] [--seed n] [--seconds s] [--out file] [--compare file]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and the product API the benchmark depends on.

mod affinity;
mod load;
mod probes;
mod repeat;
mod report;
mod schedule;
mod scrape;
mod spec;
mod stats;
mod trace;
mod workload;
mod world;

use std::process::ExitCode;

use spec::{PINNED_SEED, PLANS, RUN_SECONDS};
use workload::Outcome;

/// Command-line options, all optional.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
    compare: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: PINNED_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 10,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(o.seconds >= 1.0 && o.seconds <= 600.0) {
                    return Err(bad("between 1 and 600"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                o.runs = value.parse().map_err(|_| bad("a whole number"))?;
                if o.runs < 2 {
                    return Err(bad("at least 2"));
                }
            }
            "--out" => o.out = Some(value.clone()),
            "--compare" => o.compare = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// 0 when every run is correct, 1 otherwise.
fn exit_code(outcomes: &[Outcome]) -> u8 {
    u8::from(!outcomes.iter().all(Outcome::correct))
}

/// Runs every workload untraced and prints each outcome; with `traced`,
/// runs each once more with the span recorder on, and the difference of
/// the two is the tracing overhead.
fn run_all(o: &Options, traced: bool) -> Result<Vec<Outcome>, world::Error> {
    let mut outcomes = Vec::new();
    for plan in &PLANS {
        let mut outcome = workload::run(plan, o.seed, o.seconds, false)?;
        if traced {
            let untraced = outcome;
            outcome = workload::run(plan, o.seed, o.seconds, true)?;
            outcome.set_trace_overhead(&untraced);
        }
        report::print_outcome(&outcome);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn write_out(path: Option<&str>, text: &str) -> Result<(), world::Error> {
    if let Some(path) = path {
        std::fs::write(path, text)?;
        println!("report written to {path}");
    }
    Ok(())
}

fn real_main() -> Result<u8, world::Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let o = parse(rest)?;
    if command == "repeat" {
        // Every run is a child process that fixes its own conditions.
        return repeat::repeat(&o);
    }
    // The conditions are constants of the benchmark: nothing the product
    // reads from the environment reaches the worlds.
    for name in ["TSR_WORKERS", "TSR_SCALE", "TSR_KEY_BITS"] {
        std::env::remove_var(name);
    }
    affinity::keep_heap();
    let _awake = affinity::KeepAwake::start();
    match command {
        "one" => {
            let name = o.workload.as_deref().ok_or("--workload is required")?;
            let plan = spec::plan(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let outcome = workload::run(plan, o.seed, o.seconds, o.trace)?;
            report::print_outcome(&outcome);
            println!("{}", report::result_line(&outcome));
            Ok(exit_code(&[outcome]))
        }
        _ => {
            let outcomes = run_all(&o, command == "trace")?;
            write_out(o.out.as_deref(), &report::report_json(&o, &outcomes))?;
            Ok(exit_code(&outcomes))
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("tsrbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let o = parse(&args(
            "--workload cold_sync --seed 42 --seconds 18 --trace 1",
        ))
        .expect("parses");
        assert_eq!(o.workload.as_deref(), Some("cold_sync"));
        assert_eq!((o.seed, o.seconds, o.trace), (42, 18.0, true));
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus 1")).is_err());
        assert_eq!(parse(&[]).expect("defaults").seed, PINNED_SEED);
    }

    /// The whole path on a world of scale 0.002: set-up, the three load
    /// phases, kill and recovery, the output checks.
    #[test]
    fn a_tiny_world_runs_end_to_end_and_checks_out() {
        static TINY: spec::Plan = spec::Plan {
            name: "tiny",
            scale: 0.002,
            nodes: 1,
            quiet_frac: 0.3,
            event_frac: 0.5,
            event: spec::EventKind::Wave,
            event_period: 0.5,
        };
        let o = workload::run(&TINY, 11, 2.0, true).expect("the tiny world runs");
        for c in &o.checks {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
        assert_eq!(o.failed(), 0, "{:?}", o.failures);
        assert!(o.correct());
        assert!(
            affinity::conditions().placed,
            "the polling phases were not confined to one CPU"
        );
        for m in &spec::END_TO_END {
            assert!(o.metrics[m.name].value > 0.0, "{} is 0", m.name);
        }
        assert_eq!(exit_code(&[o]), 0);
    }
}
