//! Metric names, the run's result, and its two renderings: the result
//! line the benchmark ends with and the record file with its host header.

use crate::declared;
use crate::host::{escape, Host};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The benchmark's manifest; its `end_to_end` and `per_layer` lists are
/// the metric tables.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches or requests).
    pub attempted: u64,
    /// Operations that failed (client errors, failed shards).
    pub failed: u64,
    /// Metric values by name (units come from [`required`]).
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means every output was correct.
    pub check_failures: Vec<String>,
    /// Human-readable context lines (sample counts, bases of ratios,
    /// quality figures with the paper's values beside them).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

/// The metric table a run must report, as `BENCHMARK.json` lists it:
/// end-to-end when untraced, per-layer when traced.
pub fn required(trace: bool) -> &'static [(&'static str, &'static str)] {
    static TABLES: OnceLock<[Vec<(&str, &str)>; 2]> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        [
            declared::metrics(MANIFEST, "end_to_end"),
            declared::metrics(MANIFEST, "per_layer"),
        ]
    });
    &tables[usize::from(trace)]
}

/// The result line: `correct`, `attempted`, `failed` and every required
/// metric with its unit.
///
/// # Panics
///
/// Panics if a workload left a required metric unset (a benchmark bug).
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, unit)) in required(trace).iter().enumerate() {
        let v = o
            .get(name)
            .unwrap_or_else(|| panic!("workload did not report metric {name}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        );
    }
    s.push_str("}}");
    s
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The record written beside the result: host header, run identity,
/// every metric that was set, failed checks and notes.
pub fn record_json(host: &Host, workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    let mut s = format!(
        "{{\n  \"host\": {},\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \
         \"trace\": {trace},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"metrics\": {{",
        host.to_json(),
        o.correct(),
        o.attempted,
        o.failed
    );
    for (i, (name, v)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    \"{name}\": {}", json_num(*v));
    }
    s.push_str("\n  },\n  \"check_failures\": [");
    let list = |items: &[String]| {
        items
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.push_str(&list(&o.check_failures));
    s.push_str("],\n  \"notes\": [");
    s.push_str(&list(&o.notes));
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        assert!(!required(false).is_empty() && !required(true).is_empty());
        for (name, unit) in required(false).iter().chain(required(true)) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_lists_every_required_metric() {
        let mut o = Outcome::default();
        for (name, _) in required(false) {
            o.set(name, 1.5);
        }
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"requests_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
        o.check(false, || "bad".into());
        assert!(result_line(&o, false).starts_with("{\"correct\": false"));
    }

    /// `layers.json` maps exactly the per-layer metrics `BENCHMARK.json`
    /// declares, and defines every end-to-end one.
    #[test]
    fn layers_json_describes_the_declared_metrics() {
        let layers = include_str!("../layers.json");
        let mut mapped = std::collections::BTreeSet::new();
        for group in layers.split("\"metrics\": [").skip(1) {
            let list = &group[..group.find(']').expect("closed metric list")];
            mapped.extend(list.split(',').map(|m| m.trim().trim_matches('"')));
        }
        let per_layer: std::collections::BTreeSet<&str> =
            required(true).iter().map(|m| m.0).collect();
        assert_eq!(mapped, per_layer);
        for (name, _) in required(false) {
            assert!(
                layers.contains(&format!("\"{name}\": \"")),
                "layers.json does not define {name}"
            );
        }
    }
}
