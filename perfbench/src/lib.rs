//! End-to-end and per-layer benchmark of the DOD batch pipeline and the
//! resident engine. See `perfbench/README.md` for the workloads, the
//! metrics and how to run it.

pub mod batch;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;

use batch::Replay;
use dod_core::PointSet;
use dod_obs::{MetricsRecorder, Obs};
use report::Outcome;
use serve::ServeRun;
use spans::SpanLog;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Scale, Spec};

/// `dod-obs.unattributed_frac` the traced run must stay within: the
/// share of untraced `detect_s` that no named layer accounts for.
pub const RESIDUAL_BOUND: f64 = 0.10;

/// Where runs keep their generated inputs and span logs, relative to the
/// checkout root.
pub const WORK_DIR: &str = ".perfbench";

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// The checkout root: inputs are written under it, and the source
    /// hash is taken over it.
    pub root: PathBuf,
}

/// Runs one workload. With `trace` off the outcome holds the end-to-end
/// metrics; with it on, the per-layer metrics.
pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let dir = opts.root.join(WORK_DIR).join(format!(
        "{}-seed{}-pid{}",
        spec.name,
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = run_in(spec, opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Everything one run measured, before it becomes metrics.
#[derive(Default)]
struct Measured {
    setup_s: Samples,
    build_s: Samples,
    detect_s: Samples,
    replays: Vec<Replay>,
    serve: ServeRun,
    peak_rss_mb: f64,
    kernel_pairs_per_s: f64,
    score_work_per_point: f64,
    plan_backend: String,
}

fn run_in(spec: &Spec, opts: &Options, dir: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let steal_at_start = stats::host_steal_s();
    let csv = dir.join("data.csv");
    dod_data::io::write_csv(&csv, &spec.dataset(opts.seed))
        .map_err(|e| format!("writing {}: {e}", csv.display()))?;
    let inputs = started.elapsed();
    let mut m = Measured::default();
    let mut out = Outcome {
        workload: spec.name.to_string(),
        ..Outcome::default()
    };
    let mut spans = SpanLog::default();
    let metrics = Arc::new(MetricsRecorder::new());
    let engine_obs = if opts.trace {
        Obs::new(Arc::clone(&metrics) as Arc<dyn dod_obs::Recorder>)
    } else {
        Obs::null()
    };

    // Setup: what must happen before the first unit of work is accepted.
    let mut data = PointSet::new(spec.dim()).expect("dim >= 1");
    let mut engine = None;
    for _ in 0..spec.setups {
        drop(engine.take());
        let t0 = Instant::now();
        data =
            dod_data::io::read_csv(&csv).map_err(|e| format!("reading {}: {e}", csv.display()))?;
        if spec.setup_builds_engine {
            let t1 = Instant::now();
            engine = Some(serve::build_engine(spec, &data, engine_obs.clone())?);
            m.build_s.push_secs(t1.elapsed());
        }
        m.setup_s.push_secs(t0.elapsed());
    }

    let engine = match engine {
        Some(e) => e,
        None => {
            let t0 = Instant::now();
            let e = serve::build_engine(spec, &data, engine_obs.clone())?;
            m.build_s.push_secs(t0.elapsed());
            e
        }
    };
    m.plan_backend = engine.plan_report().map_or("none".into(), |p| p.backend);

    // The measured phases run in rounds, each a slice of every phase, so
    // a slow spell on the host lands on all metrics alike instead of on
    // whichever phase it happened to hit.
    let runner = batch::runner(spec, Obs::null());
    let rounds = spec.rounds;
    let seconds = |share: f64| Duration::from_secs_f64(share * opts.seconds);
    let mut batch_budget = Budget::new(seconds(spec.batch_share), spec.min_detects);
    let mut read_budget = Budget::new(seconds(spec.read_share), 0);
    let mut resident_budget = Budget::new(seconds(spec.resident_share), spec.min_resident);
    let mut clients = serve::Clients::new(spec, opts.seed, &data);
    let mut detected = Vec::new();
    let mut resident = None;
    for round in 0..rounds {
        // Batch: `detect_s` samples, alternating with traced replays.
        while batch_budget.more(round, rounds) {
            let t0 = Instant::now();
            out.tally.attempted += 1;
            match batch::detect_once(&runner, &data) {
                Ok((took, outcome)) => {
                    m.detect_s.push_secs(took);
                    detected.push(outcome.outliers);
                }
                Err(e) => out.tally.fail(format!("detect: {e}")),
            }
            if opts.trace {
                spans.next_run();
                out.tally.attempted += 1;
                match batch::replay(spec, &csv, &mut spans) {
                    Ok(r) => m.replays.push(r),
                    Err(e) => out.tally.fail(format!("replay: {e}")),
                }
            }
            batch_budget.spend(t0.elapsed());
        }
        // Serving: reads, reads beside the writer, full detects.
        let t0 = Instant::now();
        clients.read(&engine, read_budget.left(round, rounds), &mut m.serve);
        read_budget.spend(t0.elapsed());
        let share = |n: usize| (round + 1) * n / rounds - round * n / rounds;
        clients.churn(&engine, share(spec.churn_cycles), &mut m.serve);
        resident = None;
        while resident_budget.more(round, rounds) {
            let t0 = Instant::now();
            resident = serve::resident_detect(&engine, &mut m.serve);
            resident_budget.spend(t0.elapsed());
        }
    }
    m.peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    if opts.trace {
        m.kernel_pairs_per_s = batch::kernel_pairs_per_s(spec, &data, 15);
        let work: u64 = metrics
            .snapshot()
            .counters
            .iter()
            .filter(|((name, labels), _)| {
                name == dod_obs::names::ENGINE_PARTITION_WORK
                    && labels.iter().any(|(k, v)| k == "op" && v == "score")
            })
            .map(|(_, v)| v)
            .sum();
        m.score_work_per_point = work as f64 / m.serve.scored_points.max(1) as f64;
        let path = opts
            .root
            .join(WORK_DIR)
            .join(format!("spans-{}-seed{}.jsonl", spec.name, opts.seed));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    // Correctness gate, outside every timed region.
    let gate_start = Instant::now();
    if resident.is_none() {
        // No timed Detect followed the last churn slice: take one for the
        // check alone.
        resident = serve::resident_detect(&engine, &mut serve::ServeRun::default());
    }
    let probe = workload::rows(&spec.fresh(workload::BATCH_POINTS, opts.seed, 3));
    gate(
        spec, &data, &detected, &m.replays, &clients, resident, &engine, &probe, &mut out,
    )?;
    drop(engine);
    out.tally.absorb(std::mem::take(&mut m.serve.tally));
    out.tally.absorb(std::mem::take(&mut m.serve.writes.tally));

    out.phases = vec![
        ("inputs", inputs.as_secs_f64()),
        ("setup", m.setup_s.values().iter().sum()),
        ("batch", batch_budget.spent.as_secs_f64()),
        ("read", read_budget.spent.as_secs_f64()),
        ("churn", m.serve.churn_elapsed.as_secs_f64()),
        ("resident", resident_budget.spent.as_secs_f64()),
        ("gate", gate_start.elapsed().as_secs_f64()),
        ("total", started.elapsed().as_secs_f64()),
    ];
    if let (Some(a), Some(b)) = (steal_at_start, stats::host_steal_s()) {
        // Share of this run's CPU capacity the host took: a busy host
        // slows every timing of the run alike.
        let capacity = started.elapsed().as_secs_f64() * report::nproc() as f64;
        out.meta
            .push(("host_steal_frac", format!("{:.4}", (b - a) / capacity)));
    }
    out.meta.extend(report::metadata(&opts.root));
    out.meta.extend([
        ("plan_backend", m.plan_backend.clone()),
        ("workload", spec.name.to_string()),
        ("scale", format!("{:?}", opts.scale).to_lowercase()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
    ]);
    if opts.trace {
        per_layer(spec, &m, &mut out);
    } else {
        end_to_end(&m, &mut out);
    }
    Ok(out)
}

/// A phase's share of the run, spent across rounds: by the end of round
/// `i` of `n`, at most `(i + 1) / n` of the budget, but at least that
/// share of the phase's minimum sample count.
struct Budget {
    total: Duration,
    min: usize,
    spent: Duration,
    count: usize,
    last: Duration,
}

impl Budget {
    fn new(total: Duration, min: usize) -> Self {
        Budget {
            total,
            min,
            spent: Duration::ZERO,
            count: 0,
            last: Duration::ZERO,
        }
    }

    fn allowed(&self, round: usize, rounds: usize) -> Duration {
        self.total * (round as u32 + 1) / rounds as u32
    }

    /// Whether round `round` should take another sample: it is owed one,
    /// or one more (judged by the last) ends nearer the round's budget
    /// than stopping now.
    fn more(&self, round: usize, rounds: usize) -> bool {
        self.count < (round + 1) * self.min / rounds
            || self.spent + self.last / 2 <= self.allowed(round, rounds)
    }

    /// Time this round may still spend.
    fn left(&self, round: usize, rounds: usize) -> Duration {
        self.allowed(round, rounds).saturating_sub(self.spent)
    }

    fn spend(&mut self, d: Duration) {
        self.spent += d;
        self.last = d;
        self.count += 1;
    }
}

/// Checks every answer the run produced; each mismatch counts as failed.
#[allow(clippy::too_many_arguments)]
fn gate(
    spec: &Spec,
    data: &PointSet,
    detected: &[Vec<dod_core::PointId>],
    replays: &[Replay],
    clients: &serve::Clients,
    resident: Option<Vec<dod_core::PointId>>,
    engine: &dod_engine::Engine,
    probe: &[Vec<f64>],
    out: &mut Outcome,
) -> Result<(), String> {
    let expected = batch::expected_outliers(spec, data)?;
    for got in detected.iter().chain(replays.iter().map(|r| &r.outliers)) {
        if *got != expected {
            out.tally.fail(format!(
                "batch outliers differ from the oracle ({} vs {})",
                got.len(),
                expected.len()
            ));
        }
    }
    // Deterministic counters repeat exactly across replays of one input.
    // Work counters also count what speculative or retried task attempts
    // did, so they repeat only across replays that wasted none; a
    // difference there is a finding, not a failure.
    let clean = replays.iter().find(|r| !r.wasted()).or(replays.first());
    if let Some(base) = clean {
        out.counters = base
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        for r in replays {
            let differing: Vec<&str> = base
                .counters()
                .into_iter()
                .zip(r.counters())
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.0)
                .collect();
            if differing.is_empty() {
                continue;
            }
            let work_only = differing
                .iter()
                .all(|n| n.ends_with(".distance_evals") || n.ends_with(".index_ops"));
            if work_only && (r.wasted() || base.wasted()) {
                out.findings.push(format!(
                    "{differing:?} differ in a replay with wasted task attempts"
                ));
            } else {
                out.tally.fail(format!(
                    "deterministic counters {differing:?} differ between replays"
                ));
            }
        }
    }
    let mut kept: Vec<&serve::Kept> = clients.kept.iter().collect();
    kept.sort_by_key(|k| k.inserted_batches);
    for group in kept.chunk_by(|a, b| a.inserted_batches == b.inserted_batches) {
        let resident = clients.resident_after(data, group[0].inserted_batches);
        for k in group {
            out.tally.attempted += 1;
            if !serve::score_matches(spec, &resident, &k.query, k.answer) {
                out.tally.fail(format!(
                    "read-phase score of {:?} disagrees with brute force",
                    k.query
                ));
            }
        }
    }
    // After churn: the resident set must answer like a fresh pipeline
    // run over the surviving points, and score like a brute-force count.
    let (points, ids) = serve::survivors(data, &clients.streamed);
    out.tally.attempted += 1;
    let fresh = batch::runner(spec, Obs::null())
        .run(&points)
        .map_err(|e| format!("fresh run over survivors: {e}"))?;
    let mut fresh_ids: Vec<_> = fresh.outliers.iter().map(|&i| ids[i as usize]).collect();
    fresh_ids.sort_unstable();
    if resident.as_ref() != Some(&fresh_ids) {
        out.tally
            .fail("resident Detect differs from a fresh run over the survivors");
    }
    out.tally.attempted += 1;
    let answer = engine
        .submit(dod_engine::Request::Score {
            points: probe.to_vec(),
        })
        .and_then(|p| p.wait())
        .map(dod_engine::Response::into_score);
    match answer {
        Ok(Some(scores)) => {
            for (q, s) in probe.iter().zip(scores) {
                if !serve::score_matches(spec, &points, q, s) {
                    out.tally.fail(format!(
                        "post-churn score of {q:?} disagrees with brute force"
                    ));
                }
            }
        }
        other => out.tally.fail(format!("post-churn score: {other:?}")),
    }
    Ok(())
}

fn median(s: &Samples) -> f64 {
    s.summary().map_or(0.0, |s| s.median)
}

/// The end-to-end metrics, measured with tracing off. The result line
/// carries the medians and sizes that hold still across runs; the rest
/// are printed and recorded but left off it. On a shared 2-core host one
/// stall moves a p99 several-fold between runs of one seed, and the
/// sub-millisecond handoffs of the churn phase amplify the host's steal.
fn end_to_end(m: &Measured, out: &mut Outcome) {
    let s = &m.serve;
    let w = &s.writes;
    out.median("setup_s", "s", &m.setup_s);
    out.median("detect_s", "s", &m.detect_s);
    out.push("peak_rss_mb", "MiB", m.peak_rss_mb);
    out.median("score1_p50_us", "us", &s.score1_us);
    out.median("score64_p50_us", "us", &s.score64_us);
    out.median("resident_detect_ms", "ms", &s.resident_detect_ms);
    let mut ungated = Outcome::default();
    // The splice path's rate: points inserted per second spent in spliced
    // inserts and removes. Refreshes are measured on their own
    // (`dod-engine.insert_refresh_ms`, and `Engine::build` in `setup_s`).
    let ingest = ratio(w.spliced_points as f64, w.splice_time.as_secs_f64());
    ungated.push("ingest_pts_per_s", "1/s", ingest);
    ungated.median("churn_score64_p50_us", "us", &s.churn_score64_us);
    ungated.tail("churn_score64_p99_us", "us", &s.churn_score64_us);
    ungated.tail("score1_p99_us", "us", &s.score1_us);
    ungated.tail("score64_p99_us", "us", &s.score64_us);
    ungated.tail("insert64_p99_ms", "ms", &w.insert_ms);
    out.ungated = ungated.metrics;
}

/// The per-layer metrics of the traced run.
fn per_layer(spec: &Spec, m: &Measured, out: &mut Outcome) {
    let replays = &m.replays;
    let each = |f: &dyn Fn(&Replay) -> f64| -> Samples {
        let mut s = Samples::new();
        replays.iter().for_each(|r| s.push(f(r)));
        s
    };
    let secs = |f: fn(&Replay) -> Duration| each(&|r| f(r).as_secs_f64());
    let first = replays.first().cloned().unwrap_or_default();
    let (cb, nl) = (&first.cell_based, &first.nested_loop);
    out.median("dod-data.read_csv_s", "s", &secs(|r| r.read_csv));
    out.median("dod-partition.preprocess_s", "s", &secs(|r| r.preprocess));
    let partitions = (cb.partitions + nl.partitions) as f64;
    out.push("dod-partition.partitions", "count", partitions);
    out.push(
        "dod-partition.plan.cell_based",
        "count",
        cb.partitions as f64,
    );
    out.push(
        "dod-partition.plan.nested_loop",
        "count",
        nl.partitions as f64,
    );
    out.push("dod-partition.predicted_work", "ops", first.predicted_work);
    out.median("mapreduce.blockstore_s", "s", &secs(|r| r.blockstore));
    out.median("mapreduce.map_s", "s", &secs(|r| r.map));
    out.median("mapreduce.shuffle_s", "s", &secs(|r| r.shuffle));
    out.median("mapreduce.reduce_s", "s", &secs(|r| r.reduce));
    out.median("mapreduce.reduce_skew", "ratio", &each(&|r| r.reduce_skew));
    let records = first.shuffle_records as f64;
    out.push("mapreduce.shuffle_records", "count", records);
    out.push(
        "mapreduce.shuffle_bytes",
        "bytes",
        first.shuffle_bytes as f64,
    );
    out.push(
        "mapreduce.replication",
        "ratio",
        records / spec.points as f64,
    );
    let retries: u64 = replays.iter().map(|r| r.retries).sum();
    let speculative: u64 = replays.iter().map(|r| r.speculative).sum();
    out.push("mapreduce.retries", "count", retries as f64);
    out.push("mapreduce.speculative", "count", speculative as f64);
    if retries + speculative > 0 {
        out.findings.push(format!(
            "{retries} retried and {speculative} speculative task attempts over {} fault-free replays",
            replays.len()
        ));
    }
    type Pick = fn(&Replay) -> &batch::TacticWork;
    let tactics: [(&str, Pick); 2] = [
        ("cell_based", |r| &r.cell_based),
        ("nested_loop", |r| &r.nested_loop),
    ];
    for (tactic, pick) in tactics {
        let w = pick(&first);
        let name = |metric: &str| format!("dod-detect.{tactic}.{metric}");
        let work = (w.distance_evals + w.index_ops) as f64;
        out.median(&name("busy_s"), "s", &each(&|r| pick(r).busy.as_secs_f64()));
        out.push(&name("distance_evals"), "count", w.distance_evals as f64);
        out.push(&name("index_ops"), "count", w.index_ops as f64);
        out.push(
            &name("pruned_frac"),
            "ratio",
            ratio(w.pruned as f64, w.core_points as f64),
        );
        out.push(
            &name("work_over_predicted"),
            "ratio",
            ratio(work, w.predicted),
        );
    }
    out.push("dod-core.kernel.pairs_per_s", "1/s", m.kernel_pairs_per_s);
    let s = &m.serve;
    let w = &s.writes;
    out.median("dod-engine.build_s", "s", &m.build_s);
    out.median("dod-engine.submit_us", "us", &s.submit1_us);
    // Idle: the read phase, with no writer at all.
    out.median("dod-engine.score64_idle_us", "us", &s.score64_us);
    out.median(
        "dod-engine.score64_while_writing_us",
        "us",
        &s.churn_writing64_us,
    );
    out.median("dod-engine.insert_splice_us", "us", &w.insert_splice_us);
    out.median("dod-engine.insert_refresh_ms", "ms", &w.insert_refresh_ms);
    out.median("dod-engine.remove_us", "us", &w.remove_splice_us);
    out.median("dod-engine.remove_refresh_ms", "ms", &w.remove_refresh_ms);
    out.push("dod-engine.refreshes", "count", w.refreshes as f64);
    let splice_frac = 1.0 - ratio(w.refreshes as f64, w.mutations as f64);
    out.push("dod-engine.splice_frac", "ratio", splice_frac);
    out.push(
        "dod-engine.score_work_per_point",
        "ops",
        m.score_work_per_point,
    );
    let untraced = median(&m.detect_s);
    let traced = median(&secs(|r| r.detect()));
    let attributed = median(&secs(|r| r.attributed()));
    let overhead = ratio(traced - untraced, untraced);
    out.push("dod-obs.trace_overhead_frac", "ratio", overhead);
    let unattributed = 1.0 - ratio(attributed, untraced);
    out.push("dod-obs.unattributed_frac", "ratio", unattributed);
    if unattributed.abs() > RESIDUAL_BOUND {
        out.findings.push(format!(
            "layer self times miss untraced detect_s by {:.1}% (bound {:.0}%)",
            unattributed * 100.0,
            RESIDUAL_BOUND * 100.0
        ));
    }
}

/// `a / b`, or 0 when `b` is 0 (a tactic no partition chose).
fn ratio(a: f64, b: f64) -> f64 {
    if b != 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs every workload at smoke scale, untraced then traced, for about
/// a second each.
pub fn smoke(root: &Path, seed: u64) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for name in workload::NAMES {
        let spec = Spec::get(name, Scale::Smoke).expect("known workload");
        for trace in [false, true] {
            let opts = Options {
                seed,
                seconds: 1.0,
                trace,
                scale: Scale::Smoke,
                root: root.to_path_buf(),
            };
            outcomes.push(run(&spec, &opts)?);
        }
    }
    Ok(outcomes)
}
