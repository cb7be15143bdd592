//! The batch path: `DodRunner::run` as `dod --input` drives it, the
//! traced replay of the calls it makes, the kernel probe, and the batch
//! correctness gate.

use crate::spans::SpanLog;
use crate::workload::Spec;
use dod::framework::{DodMapper, DodReducer, InputPoint};
use dod::prelude::*;
use dod::DodError;
use dod_core::kernel::NeighborPredicate;
use dod_core::PointId;
use dod_detect::{Detector, Partition, Reference};
use dod_obs::{MemoryRecorder, Obs};
use mapreduce::{run_job_obs, BlockStore};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest dataset the brute-force `Reference` detector checks; larger
/// ones are checked against an independent fixed-tactic run.
const REFERENCE_LIMIT: usize = 100_000;

/// The `dod --input` pipeline: DMT, multi-tactic mode, 16 reducers, 64
/// target partitions, sample rate 0.005, Euclidean metric.
pub fn runner(spec: &Spec, obs: Obs) -> DodRunner {
    let config = DodConfig::builder(spec.params())
        .num_reducers(16)
        .target_partitions(64)
        .sample_rate(0.005)
        .obs(obs)
        .build()
        .expect("CLI defaults are a valid configuration");
    DodRunner::builder()
        .config(config)
        .strategy(Dmt::default())
        .multi_tactic()
        .build()
}

/// Formats outlier rows exactly as `dod --input` prints them, into a
/// buffer instead of stdout.
pub fn format_rows(data: &PointSet, outliers: &[PointId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(outliers.len() * 32);
    for &id in outliers {
        let coords: Vec<String> = data
            .point(id as usize)
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect();
        writeln!(out, "  {id}: [{}]", coords.join(", ")).expect("writing to a Vec");
    }
    out
}

/// One timed `detect_s` sample: `DodRunner::run` through formatted rows.
pub fn detect_once(
    runner: &DodRunner,
    data: &PointSet,
) -> Result<(Duration, DodOutcome), DodError> {
    let t0 = Instant::now();
    let outcome = runner.run(data)?;
    let rows = format_rows(data, &outcome.outliers);
    let elapsed = t0.elapsed();
    std::hint::black_box(rows);
    Ok((elapsed, outcome))
}

/// Per-tactic work of one replayed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TacticWork {
    pub partitions: u64,
    pub core_points: u64,
    pub busy: Duration,
    pub distance_evals: u64,
    pub index_ops: u64,
    pub pruned: u64,
    pub predicted: f64,
}

/// What one traced replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub read_csv: Duration,
    pub preprocess: Duration,
    pub blockstore: Duration,
    pub run_job: Duration,
    pub map: Duration,
    pub shuffle: Duration,
    pub reduce: Duration,
    pub output: Duration,
    pub reduce_skew: f64,
    pub shuffle_records: u64,
    pub shuffle_bytes: u64,
    pub retries: u64,
    pub speculative: u64,
    pub predicted_work: f64,
    pub cell_based: TacticWork,
    pub nested_loop: TacticWork,
    pub outliers: Vec<PointId>,
}

impl Replay {
    /// The replayed detection: every span after the CSV read, which the
    /// untraced `detect_s` excludes too.
    pub fn detect(&self) -> Duration {
        self.preprocess + self.blockstore + self.run_job + self.output
    }

    /// Time inside named layers: preprocess, block store, the three
    /// MapReduce stages and output. What `run_job` spends outside its
    /// stages is the unattributed residual.
    pub fn attributed(&self) -> Duration {
        self.preprocess + self.blockstore + self.map + self.shuffle + self.reduce + self.output
    }

    /// Whether a task attempt was retried or speculatively re-run, so the
    /// work counters include work whose output was thrown away.
    pub fn wasted(&self) -> bool {
        self.retries + self.speculative > 0
    }

    /// Counters that must repeat exactly across runs of one seed.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "partitions",
                self.cell_based.partitions + self.nested_loop.partitions,
            ),
            ("plan.cell_based", self.cell_based.partitions),
            ("plan.nested_loop", self.nested_loop.partitions),
            ("shuffle_records", self.shuffle_records),
            ("shuffle_bytes", self.shuffle_bytes),
            ("cell_based.distance_evals", self.cell_based.distance_evals),
            ("cell_based.index_ops", self.cell_based.index_ops),
            (
                "nested_loop.distance_evals",
                self.nested_loop.distance_evals,
            ),
            ("nested_loop.index_ops", self.nested_loop.index_ops),
        ]
    }
}

/// Replays the calls `DodRunner::run` makes on the supporting-area path
/// (`read_csv` → `preprocess` → `BlockStore::from_items` →
/// `run_job_obs`, then output), with a span around each call and a
/// `MemoryRecorder` attached for the program's own stage and detector
/// events.
pub fn replay(spec: &Spec, csv: &Path, spans: &mut SpanLog) -> Result<Replay, String> {
    let memory = Arc::new(MemoryRecorder::new());
    let obs = Obs::new(Arc::clone(&memory) as Arc<dyn dod_obs::Recorder>);
    let runner = runner(spec, obs.clone());
    let cfg = runner.config().clone();
    let root = spans.open("run", None);

    let s = spans.open("dod-data.read_csv", Some(root));
    let data =
        dod_data::io::read_csv(csv).map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let read_csv = spans.close(s);

    let s = spans.open("dod-partition.preprocess", Some(root));
    let pre = runner.preprocess(&data).map_err(|e| e.to_string())?;
    let preprocess = spans.close(s);

    let s = spans.open("mapreduce.blockstore", Some(root));
    let items: Vec<InputPoint> = (0..data.len())
        .map(|i| (i as PointId, data.point(i).to_vec()))
        .collect();
    let store = BlockStore::from_items(items, cfg.block_size, cfg.replication);
    let blockstore = spans.close(s);

    let s = spans.open("mapreduce.run_job", Some(root));
    let mt = &pre.mt;
    let reducer = DodReducer::new(cfg.params, data.dim(), Arc::new(mt.algorithms.clone()))
        .with_obs(obs.clone());
    let allocation = mt.allocation.clone();
    let partitioner = move |k: &u32, _n: usize| allocation[*k as usize];
    let job = run_job_obs(
        &cfg.cluster,
        &store,
        &DodMapper::new(Arc::clone(&pre.router)),
        &reducer,
        &partitioner,
        cfg.num_reducers,
        &obs,
    )
    .map_err(|e| e.to_string())?;
    let run_job = spans.close(s);

    let s = spans.open("dod.output", Some(root));
    let mut outliers = job.outputs;
    outliers.sort_unstable();
    std::hint::black_box(format_rows(&data, &outliers));
    let output = spans.close(s);
    spans.close(root);

    let stage = |name: &str| -> Duration {
        memory
            .events_named("mapreduce.stage")
            .iter()
            .filter(|e| e.label("stage").and_then(|v| v.as_str()) == Some(name))
            .filter_map(|e| e.span_nanos())
            .map(Duration::from_nanos)
            .sum()
    };
    let metrics = &job.metrics;
    let mut reduce_times: Vec<Duration> = metrics.reduce_task_times.clone();
    reduce_times.sort();
    let reduce_skew = match (
        reduce_times.last(),
        reduce_times.get(reduce_times.len() / 2),
    ) {
        (Some(max), Some(med)) if !med.is_zero() => max.as_secs_f64() / med.as_secs_f64(),
        _ => 1.0,
    };

    // Per-tactic attribution: partitions and predicted cost from the
    // plan, core sizes from the plan's own `locate`, busy time from the
    // job's per-key times, and work from the `detect.*` counters.
    let tactic_of = |pid: usize| mt.algorithms.get(pid).copied();
    let mut work = [TacticWork::default(), TacticWork::default()];
    let slot = |kind: Option<AlgorithmKind>| match kind {
        Some(AlgorithmKind::CellBased) => Some(0),
        Some(AlgorithmKind::NestedLoop) => Some(1),
        _ => None,
    };
    for (pid, &kind) in mt.algorithms.iter().enumerate() {
        if let Some(i) = slot(Some(kind)) {
            work[i].partitions += 1;
            work[i].predicted += mt.predicted_costs.get(pid).copied().unwrap_or(0.0);
        }
    }
    for p in data.iter() {
        if let Some(i) = slot(tactic_of(mt.plan.locate(p) as usize)) {
            work[i].core_points += 1;
        }
    }
    for (pid, d) in &job.key_times {
        if let Some(i) = slot(tactic_of(*pid as usize)) {
            work[i].busy += *d;
        }
    }
    for event in memory.events() {
        let Some(delta) = event.counter_delta() else {
            continue;
        };
        let kind = match event.label("algorithm").and_then(|v| v.as_str()) {
            Some("cell-based") => 0,
            Some("nested-loop") => 1,
            _ => continue,
        };
        match event.name.as_ref() {
            "detect.distance_evals" => work[kind].distance_evals += delta,
            "detect.index_ops" => work[kind].index_ops += delta,
            "detect.pruned_points" => work[kind].pruned += delta,
            _ => {}
        }
    }
    let [cell_based, nested_loop] = work;
    Ok(Replay {
        read_csv,
        preprocess,
        blockstore,
        run_job,
        map: stage("map"),
        shuffle: stage("shuffle"),
        reduce: stage("reduce"),
        output,
        reduce_skew,
        shuffle_records: metrics.shuffle_records,
        shuffle_bytes: metrics.shuffle_bytes,
        retries: metrics.task_retries,
        speculative: metrics.speculative_launched,
        predicted_work: mt.predicted_costs.iter().sum(),
        cell_based,
        nested_loop,
        outliers,
    })
}

/// Neighbor-pair throughput of the public `count_within_tile` kernel on
/// tiles of the workload's own points (full scans, no early exit), in
/// pairs per second: the median of `reps` timings of 16 passes over 64
/// queries each.
pub fn kernel_pairs_per_s(spec: &Spec, data: &PointSet, reps: usize) -> f64 {
    let dim = data.dim();
    let tile_points = data.len().min(4096);
    let tile: Vec<f64> = (0..tile_points)
        .flat_map(|i| data.point(i).to_vec())
        .collect();
    let step = (data.len() / 64).max(1);
    let queries: Vec<&[f64]> = (0..data.len())
        .step_by(step)
        .take(64)
        .map(|i| data.point(i))
        .collect();
    const PASSES: usize = 16;
    let predicate = NeighborPredicate::new(spec.params());
    let mut rates = crate::stats::Samples::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let mut found = 0usize;
        for _ in 0..PASSES {
            for q in &queries {
                found += predicate.count_within_tile(q, &tile, usize::MAX).found;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(found);
        let pairs = PASSES * queries.len() * tile.len() / dim;
        rates.push(pairs as f64 / secs.max(1e-9));
    }
    rates.summary().map_or(0.0, |s| s.median)
}

/// The batch correctness oracle: the brute-force `Reference` detector
/// where it is affordable, else an independent run with Nested-Loop
/// fixed on every partition (the default run picks Cell-Based on them).
pub fn expected_outliers(spec: &Spec, data: &PointSet) -> Result<Vec<PointId>, String> {
    if data.len() <= REFERENCE_LIMIT {
        return Ok(Reference
            .detect(&Partition::standalone(data.clone()), spec.params())
            .outliers);
    }
    let base = runner(spec, Obs::null());
    let fixed = DodRunner::builder()
        .config(base.config().clone())
        .strategy(Dmt::default())
        .fixed(AlgorithmKind::NestedLoop)
        .build();
    fixed
        .run(data)
        .map(|o| o.outliers)
        .map_err(|e| e.to_string())
}
