//! Tests of the benchmark itself, at reduced size: every workload runs,
//! reports every metric `BENCHMARK.json` names with its unit, and fails
//! when an output is corrupted.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const WORKLOADS: [&str; 3] = ["paper_search", "serve_cold", "serve_warm"];

#[path = "../src/declared.rs"]
mod declared;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(&'static str, &'static str)> {
    let out = declared::metrics(include_str!("../../BENCHMARK.json"), list);
    assert!(!out.is_empty(), "{list} lists no metrics");
    out
}

struct Run {
    dir: PathBuf,
    status: i32,
    last_line: String,
    stdout: String,
}

fn run(workload: &str, extra: &[&str]) -> Run {
    // Tests run concurrently: each run gets a directory of its own.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{workload}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    Run {
        dir,
        status: out.status.code().unwrap_or(-1),
        last_line: stdout.lines().last().unwrap_or_default().to_string(),
        stdout,
    }
}

fn assert_reports(list: &str, trace: &str) {
    let metrics = declared(list);
    for w in WORKLOADS {
        let r = run(w, &["--trace", trace]);
        assert_eq!(r.status, 0, "{w} trace {trace} failed:\n{}", r.stdout);
        assert!(
            r.last_line
                .starts_with("{\"correct\": true, \"attempted\": "),
            "{w}: {}",
            r.last_line
        );
        for (name, unit) in &metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = r
                .last_line
                .find(&key)
                .unwrap_or_else(|| panic!("{w} trace {trace} lacks {name}: {}", r.last_line));
            let rest = &r.last_line[at + key.len()..];
            let (value, tail) = rest.split_once(',').expect("value then unit");
            assert!(
                value.parse::<f64>().is_ok_and(f64::is_finite),
                "{name} = {value}"
            );
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{name}: {tail}"
            );
        }
        let listed = r.last_line.matches("\"unit\"").count();
        assert_eq!(
            listed,
            metrics.len(),
            "{w} prints exactly the {list} metrics"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    assert_reports("end_to_end", "0");
}

#[test]
fn every_workload_reports_every_per_layer_metric_when_traced() {
    assert_reports("per_layer", "1");
}

#[test]
fn a_corrupted_digest_fails_the_run() {
    for w in WORKLOADS {
        let r = run(w, &["--trace", "0", "--corrupt-digest"]);
        assert_ne!(
            r.status, 0,
            "{w} passed with a corrupted output:\n{}",
            r.stdout
        );
        assert!(
            r.last_line.starts_with("{\"correct\": false"),
            "{w}: {}",
            r.last_line
        );
        assert!(
            r.stdout.contains("CHECK FAILED"),
            "{w} names the failed check"
        );
    }
}

#[test]
fn traced_runs_write_spans_with_one_trace_per_request() {
    let r = run("serve_cold", &["--trace", "1"]);
    assert_eq!(r.status, 0, "{}", r.stdout);
    let spans =
        std::fs::read_to_string(r.dir.join(".perfbench/spans/serve_cold-3-trace1.jsonl")).unwrap();
    let traces_of = |name: &str| -> Vec<String> {
        spans
            .lines()
            .filter(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .map(|l| {
                l.split("\"trace\": ")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    let requests = traces_of("serve.request");
    assert!(!requests.is_empty());
    let mut unique = requests.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), requests.len(), "one trace id per request");
    for t in traces_of("serve.submit") {
        assert!(
            requests.contains(&t),
            "submit spans belong to a request trace"
        );
    }
    assert!(spans.contains("{\"coverage\": \"serve.request\""));
    assert!(r.stdout.contains("coverage: core.search"));
}

#[test]
fn records_from_different_hosts_are_flagged() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-compare");
    std::fs::create_dir_all(&dir).unwrap();
    let record = |cores: u32, commit: &str| {
        format!(
            "{{\"host\": {{\"cores\": \"{cores}\", \"cpu\": \"x\", \"lane_path\": \"Avx2\", \
             \"rustc\": \"rustc 1\", \"profile\": \"release\", \"commit\": \"{commit}\"}}}}"
        )
    };
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let c = dir.join("c.json");
    std::fs::write(&a, record(2, "aaa")).unwrap();
    std::fs::write(&b, record(2, "bbb")).unwrap();
    std::fs::write(&c, record(8, "aaa")).unwrap();
    let compare = |x: &PathBuf, y: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("--compare")
            .args([x, y])
            .output()
            .unwrap()
    };
    let same = compare(&a, &b);
    assert!(same.status.success());
    let other = compare(&a, &c);
    assert!(!other.status.success());
    assert!(String::from_utf8_lossy(&other.stdout).starts_with("NOT COMPARABLE: cores: 2 vs 8"));
}
