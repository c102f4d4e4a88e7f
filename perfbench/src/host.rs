//! The record's host header, and whether two records may be compared.
//!
//! Timings only compare between records of the same host and build: the
//! core count, CPU model, kernel lane path, compiler and build profile all
//! change what a run measures. The commit is recorded but is exactly what
//! a comparison is allowed to differ in.

use std::fmt::Write as _;

/// Where and how a record was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// `hgnas_tensor::simd::active()` — the lane path kernels dispatch to.
    pub lane_path: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile (`release` for every comparable record).
    pub profile: String,
    /// Source revision, `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// The host this process runs on.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            lane_path: format!("{:?}", hgnas_tensor::simd::active()),
            rustc: env!("PERFBENCH_RUSTC").into(),
            profile: env!("PERFBENCH_PROFILE").into(),
            commit: env!("PERFBENCH_COMMIT").into(),
        }
    }

    /// The header fields as `(key, value)` pairs, in record order.
    pub fn fields(&self) -> [(&'static str, String); 6] {
        [
            ("cores", self.cores.to_string()),
            ("cpu", self.cpu.clone()),
            ("lane_path", self.lane_path.clone()),
            ("rustc", self.rustc.clone()),
            ("profile", self.profile.clone()),
            ("commit", self.commit.clone()),
        ]
    }

    /// Renders the header as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.fields().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", escape(v));
        }
        s.push('}');
        s
    }

    /// Reads the header back out of a record written by
    /// [`crate::report::Record::to_json`].
    pub fn from_record(json: &str) -> Option<Host> {
        let field = |k: &str| string_field(json, k);
        Some(Host {
            cores: field("cores")?.parse().ok()?,
            cpu: field("cpu")?,
            lane_path: field("lane_path")?,
            rustc: field("rustc")?,
            profile: field("profile")?,
            commit: field("commit")?,
        })
    }

    /// Why records from `self` and `other` cannot be compared; empty when
    /// they can. The commit may differ — that is what comparisons are for.
    pub fn incomparable(&self, other: &Host) -> Vec<String> {
        self.fields()
            .iter()
            .zip(other.fields().iter())
            .filter(|((k, a), (_, b))| *k != "commit" && a != b)
            .map(|((k, a), (_, b))| format!("{k}: {a} vs {b}"))
            .collect()
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The first `"key": "value"` string field in `json` (no nesting rules:
/// the record writes each host key exactly once).
fn string_field(json: &str, key: &str) -> Option<String> {
    let at = json.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let mut out = String::new();
    let mut chars = json[at..].chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_flags_other_hosts() {
        let a = Host::current();
        let back = Host::from_record(&format!("{{\"host\": {}}}", a.to_json())).unwrap();
        assert_eq!(back, a);
        let mut b = a.clone();
        b.commit = "other".into();
        assert!(a.incomparable(&b).is_empty(), "commits may differ");
        b.cores += 1;
        b.lane_path = "Other".into();
        assert_eq!(a.incomparable(&b).len(), 2);
    }
}
