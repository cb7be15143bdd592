//! Runs the smoke mode of every workload and checks what the benchmark
//! promises: every declared metric, with its unit, from a run that passed
//! the correctness gate, and deterministic counters that repeat exactly.

use perfbench::workload::{Scale, Spec};
use perfbench::Options;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric one section of BENCHMARK.json declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn names(metrics: &[perfbench::report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn smoke_runs_every_workload_with_every_metric_and_a_clean_gate() {
    let outcomes = perfbench::smoke(&root(), 7).expect("smoke run");
    assert_eq!(outcomes.len(), 6, "three workloads, untraced and traced");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 6);
    assert!(per_layer.len() >= 30);
    for (i, o) in outcomes.iter().enumerate() {
        let traced = i % 2 == 1;
        assert!(o.correct(), "{}: {:?}", o.workload, o.tally.errors);
        assert_eq!(o.tally.failed, 0);
        let expected = if traced { &per_layer } else { &end_to_end };
        assert_eq!(
            &names(&o.metrics),
            expected,
            "{} traced={traced}",
            o.workload
        );
        for m in &o.metrics {
            assert!(m.value.is_finite(), "{} {}", o.workload, m.name);
        }
        let report = o.render();
        for (name, unit) in expected {
            assert!(report.contains(name.as_str()) && report.contains(unit.as_str()));
        }
        if traced {
            assert!(!o.counters.is_empty(), "traced runs check counters");
        } else {
            // The ungated metrics and failed_frac are printed beside the
            // result line.
            assert_eq!(o.ungated.len(), 6);
            assert!(report.contains("failed_frac"));
            for m in &o.metrics {
                assert!(
                    m.value > 0.0,
                    "{} {}: end-to-end metrics are never 0",
                    o.workload,
                    m.name
                );
            }
        }
        for key in [
            "nproc",
            "rustc",
            "backend",
            "plan_backend",
            "commit",
            "source",
            "seed",
            "seconds",
        ] {
            assert!(o.meta.iter().any(|(k, _)| *k == key), "metadata {key}");
        }
    }
}

#[test]
fn deterministic_counters_repeat_across_runs_of_one_seed() {
    let spec = Spec::get("batch-4d", Scale::Smoke).expect("workload");
    let opts = Options {
        seed: 11,
        seconds: 0.5,
        trace: true,
        scale: Scale::Smoke,
        root: root(),
    };
    let a = perfbench::run(&spec, &opts).expect("first run");
    let b = perfbench::run(&spec, &opts).expect("second run");
    assert!(
        a.correct() && b.correct(),
        "{:?} {:?}",
        a.tally.errors,
        b.tally.errors
    );
    assert!(!a.counters.is_empty());
    assert_eq!(a.counters, b.counters);
    let table = perfbench::report::compare(&a.record(), &b.record()).expect("comparable");
    assert!(table.contains("deterministic counters identical"));
}
