//! The HGNAS-rs benchmark.
//!
//! ```text
//! perfbench --workload <paper_search|serve_cold|serve_warm|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--corrupt-digest]
//! perfbench --compare <record.json> <record.json>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! print the per-layer ones and write every span to
//! `.perfbench/spans/<workload>-<seed>.jsonl`. Either way the full record,
//! with its host header, goes to `.perfbench/records/`, and the last line
//! of standard output is the result object. A failed output check prints
//! `"correct": false` and exits with status 1. `--size tiny` and
//! `--corrupt-digest` exist for the benchmark's own tests.
//!
//! Workloads, metrics and which layer should move which end-to-end
//! number are described in `perfbench/README.md` and `perfbench/layers.json`.

mod common;
mod declared;
mod host;
mod paper;
mod probes;
mod report;
mod rusage;
mod serve;
mod stats;
mod trace;

use common::{out_dir, Size};
use host::Host;
use report::{record_json, required, result_line, Outcome};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["paper_search", "serve_cold", "serve_warm"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Flip one bit of the measured outputs before the checks (tests only).
    pub corrupt_digest: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <paper_search|serve_cold|serve_warm|all> --seed <n> \
     --seconds <s> --trace <0|1> [--size full|tiny] [--corrupt-digest]\n       \
     perfbench --compare <record.json> <record.json>"
        .into()
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        size: Size::Full,
        corrupt_digest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--corrupt-digest" => args.corrupt_digest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// Runs one workload, prints its block and writes its record and spans.
fn run_one(args: &Args, host: &Host) -> Outcome {
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "paper_search" => paper::run(args, &tracer),
        "serve_cold" => serve::run(args, &tracer, false),
        "serve_warm" => serve::run(args, &tracer, true),
        other => unreachable!("workload {other} was validated by parse"),
    };
    println!(
        "== {} (seed {}, trace {})",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit) in required(args.trace) {
        match outcome.get(name) {
            Some(v) => println!("{name:<40} {v:>14.4} {unit}"),
            None => println!("{name:<40} {:>14} {unit}", "missing"),
        }
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for failure in &outcome.check_failures {
        println!("  CHECK FAILED: {failure}");
    }

    let dir = out_dir();
    let stem = format!(
        "{}-{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = record_json(host, &args.workload, args.seed, args.trace, &outcome);
    let records = dir.join("records");
    if let Err(e) = std::fs::create_dir_all(&records)
        .and_then(|()| std::fs::write(records.join(format!("{stem}.json")), record))
    {
        eprintln!("perfbench: could not write the record: {e}");
    }
    if args.trace {
        let spans = tracer.spans();
        let coverage = trace::coverage(&spans);
        for (parent, (n, pct)) in &coverage {
            println!("  coverage: {parent} ({n} span(s)) covered {pct:.1}% by its children");
        }
        let path = dir.join("spans");
        if let Err(e) = std::fs::create_dir_all(&path).and_then(|()| {
            std::fs::write(
                path.join(format!("{stem}.jsonl")),
                trace::to_json_lines(&spans),
            )
        }) {
            eprintln!("perfbench: could not write the span file: {e}");
        }
    }
    outcome
}

/// `--compare a b`: whether two records come from comparable hosts.
fn compare(a: &str, b: &str) -> ExitCode {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| Host::from_record(&s).ok_or_else(|| format!("{p}: no host header")))
    };
    match (read(a), read(b)) {
        (Ok(ha), Ok(hb)) => {
            let diffs = ha.incomparable(&hb);
            if diffs.is_empty() {
                println!(
                    "comparable: same host and build ({} vs {})",
                    ha.commit, hb.commit
                );
                ExitCode::SUCCESS
            } else {
                println!("NOT COMPARABLE: {}", diffs.join("; "));
                ExitCode::from(3)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match &argv[1..] {
            [a, b] => compare(a, b),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::current();
    println!("host: {}", host.to_json());

    let (correct, line) = if args.workload == "all" {
        // Every workload in turn; the combined line prefixes each metric
        // with its workload.
        let (mut correct, mut attempted, mut failed) = (true, 0, 0);
        let mut metrics = Vec::new();
        for w in WORKLOADS {
            let one = run_one(
                &Args {
                    workload: w.into(),
                    ..args.clone()
                },
                &host,
            );
            correct &= one.correct();
            attempted += one.attempted.max(1);
            failed += one.failed;
            for (name, unit) in required(args.trace) {
                if let Some(v) = one.get(name) {
                    metrics.push(format!(
                        "\"{w}/{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    ));
                }
            }
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        (correct, line)
    } else {
        let one = run_one(&args, &host);
        (one.correct(), result_line(&one, args.trace))
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload serve_cold --seed 4 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve_cold", 4, true)
        );
        assert_eq!(a.seconds, Duration::from_secs(20));
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload all --trace 2")).is_err());
        assert!(parse(&argv("--workload all --seconds 0")).is_err());
    }
}
