//! Results: named metrics with units, host metadata, the one-line JSON
//! result, the full result record, and the record comparison.

use crate::stats::{Samples, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind a timing, when it has more than one.
    pub summary: Option<Summary>,
}

/// Operations attempted and failed, with the first few errors.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what.into());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded but left off the result line.
    pub ungated: Vec<Metric>,
    /// Counters that must repeat exactly across runs of one seed.
    pub counters: Vec<(String, u64)>,
    /// Operations and checks attempted, and those that failed.
    pub tally: Tally,
    /// Observations worth a reader's attention that are not failures,
    /// e.g. retries or speculative attempts on a fault-free run.
    pub findings: Vec<String>,
    pub meta: Vec<(&'static str, String)>,
    /// Wall seconds of each part of the run, for sizing it.
    pub phases: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    fn push_summary(&mut self, name: &str, unit: &'static str, value: f64, s: Option<Summary>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: s,
        });
    }

    /// A timing reported by its median, with the samples' summary.
    pub fn median(&mut self, name: &str, unit: &'static str, s: &Samples) {
        let summary = s.summary();
        self.push_summary(name, unit, summary.map_or(0.0, |x| x.median), summary);
    }

    /// A timing reported by its tail, with the samples' summary.
    pub fn tail(&mut self, name: &str, unit: &'static str, s: &Samples) {
        let summary = s.summary();
        self.push_summary(name, unit, summary.map_or(0.0, |x| x.tail), summary);
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// Human-readable report: metadata, every metric with its unit and
    /// sample count (`~` marks those left off the result line), counters,
    /// findings and errors.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", self.workload);
        let meta: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(s, "meta {}", meta.join(" "));
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(k, v)| format!("{k} {v:.1}s"))
            .collect();
        let _ = writeln!(s, "phases {}", phases.join(", "));
        for (m, gated) in self
            .metrics
            .iter()
            .map(|m| (m, true))
            .chain(self.ungated.iter().map(|m| (m, false)))
        {
            let mark = if gated { ' ' } else { '~' };
            let _ = write!(
                s,
                " {mark}{:<44} {:>16} {:<8}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
            if let Some(sum) = m.summary {
                let _ = write!(
                    s,
                    " median {} p{} {} n={}",
                    fmt_value(sum.median),
                    sum.tail_pct,
                    fmt_value(sum.tail),
                    sum.n
                );
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            " ~{:<44} {:>16} {:<8} ({} of {} operations)",
            "failed_frac",
            fmt_value(self.failed_frac()),
            "ratio",
            self.tally.failed,
            self.tally.attempted
        );
        for (k, v) in &self.counters {
            let _ = writeln!(s, "  counter {k} = {v}");
        }
        for f in &self.findings {
            let _ = writeln!(s, "  FINDING: {f}");
        }
        for e in &self.tally.errors {
            let _ = writeln!(s, "  ERROR: {e}");
        }
        s
    }

    /// The full result record: a flat JSON object of metadata, metric
    /// summaries and counters (the input of `perfbench compare`).
    pub fn record(&self) -> String {
        let mut fields: Vec<(String, String)> = Vec::new();
        for (k, v) in &self.meta {
            fields.push((format!("meta.{k}"), json_str(v)));
        }
        for m in self.metrics.iter().chain(&self.ungated) {
            fields.push((format!("metric.{}.value", m.name), json_num(m.value)));
            fields.push((format!("metric.{}.unit", m.name), json_str(m.unit)));
            if let Some(s) = m.summary {
                fields.push((format!("metric.{}.median", m.name), json_num(s.median)));
                fields.push((format!("metric.{}.tail_pct", m.name), json_num(s.tail_pct)));
                fields.push((format!("metric.{}.tail", m.name), json_num(s.tail)));
                fields.push((format!("metric.{}.n", m.name), s.n.to_string()));
            }
        }
        for (k, v) in &self.counters {
            fields.push((format!("counter.{k}"), v.to_string()));
        }
        fields.push(("attempted".into(), self.tally.attempted.to_string()));
        fields.push(("failed".into(), self.tally.failed.to_string()));
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("  {}: {v}", json_str(k)))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", dod_obs::json::escape(s))
}

/// A JSON number with every digit of the measurement; non-finite values
/// (which JSON cannot carry) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Metadata that must agree before two records are compared. Seed and
/// source are stamped too, but differ by design between the sides of a
/// comparison.
const HOST_KEYS: [&str; 8] = [
    "meta.workload",
    "meta.scale",
    "meta.trace",
    "meta.seconds",
    "meta.nproc",
    "meta.rustc",
    "meta.backend",
    "meta.plan_backend",
];

/// Parses a record written by [`Outcome::record`]: one `"key": value`
/// pair per line.
pub fn parse_record(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (k, v) = line
            .split_once("\": ")
            .ok_or_else(|| format!("not a record line: {line}"))?;
        let k = k.trim_start_matches('"');
        map.insert(k.to_string(), v.trim_matches('"').to_string());
    }
    Ok(map)
}

/// Compares two records. Refuses (returns `Err`) when their host
/// metadata differ, and reports deterministic-counter mismatches between
/// runs of one seed and one source tree as errors too.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let (a, b) = (parse_record(a)?, parse_record(b)?);
    let differing: Vec<String> = HOST_KEYS
        .iter()
        .filter(|k| a.get(**k) != b.get(**k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(*k), b.get(*k)))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "refusing to compare results with different metadata:\n  {}",
            differing.join("\n  ")
        ));
    }
    let mut out = String::new();
    let same_input = a.get("meta.seed") == b.get("meta.seed");
    let same_source = a.get("meta.source") == b.get("meta.source");
    if same_input && same_source {
        let mismatched: Vec<String> = a
            .iter()
            .filter(|(k, _)| k.starts_with("counter."))
            .filter(|(k, v)| b.get(*k) != Some(*v))
            .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
            .collect();
        if !mismatched.is_empty() {
            return Err(format!(
                "deterministic counters differ across runs of one seed:\n  {}",
                mismatched.join("\n  ")
            ));
        }
        let _ = writeln!(out, "deterministic counters identical");
    }
    let _ = writeln!(out, "{:<44} {:>16} {:>16} {:>8}", "metric", "a", "b", "b/a");
    for (k, va) in a.iter().filter(|(k, _)| k.ends_with(".value")) {
        let name = &k["metric.".len()..k.len() - ".value".len()];
        let (Ok(x), Some(Ok(y))) = (va.parse::<f64>(), b.get(k).map(|v| v.parse::<f64>())) else {
            continue;
        };
        let ratio = if x != 0.0 {
            format!("{:.3}", y / x)
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{name:<44} {:>16} {:>16} {ratio:>8}",
            fmt_value(x),
            fmt_value(y)
        );
    }
    Ok(out)
}

/// Host and build metadata stamped on every result.
pub fn metadata(root: &Path) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        (
            "backend",
            dod_core::kernel::active_backend().name().to_string(),
        ),
        ("commit", git_commit(root).unwrap_or_else(|| "none".into())),
        ("source", format!("{:016x}", source_hash(root))),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// from, so results from checkouts without git history still name the
/// code they measured.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "compat", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seed: &str, shuffle: u64) -> Outcome {
        let mut o = Outcome {
            workload: "w".into(),
            meta: vec![
                ("workload", "w".into()),
                ("nproc", "2".into()),
                ("seed", seed.into()),
            ],
            counters: vec![("shuffle_records".into(), shuffle)],
            tally: Tally {
                attempted: 3,
                ..Tally::default()
            },
            ..Outcome::default()
        };
        o.push("setup_s", "s", 0.5);
        o
    }

    #[test]
    fn records_round_trip_and_compare() {
        let a = outcome("1", 10).record();
        let parsed = parse_record(&a).unwrap();
        assert_eq!(parsed["metric.setup_s.value"], "0.5");
        assert_eq!(parsed["meta.nproc"], "2");
        assert!(compare(&a, &a).unwrap().contains("identical"));
        // Same seed, different counter: a finding, not a comparison.
        assert!(compare(&a, &outcome("1", 11).record()).is_err());
        // Different seeds compare metrics only.
        assert!(compare(&a, &outcome("2", 11).record()).is_ok());
        let other_host = a.replace("\"2\"", "\"4\"");
        assert!(compare(&a, &other_host).unwrap_err().contains("meta.nproc"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = outcome("1", 1);
        let line = result_line(o.correct(), o.tally.attempted, o.tally.failed, &o.metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
