//! The serving path: a resident `Engine` with `dod serve`'s defaults,
//! driven closed-loop by at most two client threads.

use crate::report::Tally;
use crate::stats::Samples;
use crate::workload::{mix, rows, Spec, BATCH_POINTS, STREAM_LAG};
use dod_core::kernel::NeighborPredicate;
use dod_core::{PointId, PointSet};
use dod_engine::{Engine, EngineError, Request, Response, ScorePoint};
use dod_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Query points the readers draw their requests from.
const QUERY_POOL: usize = 4096;

/// Every this many read-phase requests, the first point and its answer
/// are kept for the brute-force check.
const CHECK_EVERY: usize = 64;

/// Most read-phase answers kept for the brute-force check.
const CHECKED_POINTS: usize = 256;

/// A read-phase answer kept for the brute-force check, with the number of
/// streamed batches inserted before it (which fixes the resident set).
#[derive(Debug, Clone)]
pub struct Kept {
    pub query: Vec<f64>,
    pub answer: ScorePoint,
    pub inserted_batches: usize,
}

/// `dod serve`'s engine over `data`: the CLI pipeline, 2 workers, a
/// 64-deep submission queue.
pub fn build_engine(spec: &Spec, data: &PointSet, obs: Obs) -> Result<Engine, String> {
    Engine::builder(crate::batch::runner(spec, obs))
        .workers(2)
        .queue_capacity(64)
        .build(data)
        .map_err(|e| format!("engine build: {e}"))
}

/// What the churn writer measured.
#[derive(Debug, Default)]
pub struct Writes {
    pub insert_ms: Samples,
    pub insert_splice_us: Samples,
    pub insert_refresh_ms: Samples,
    pub remove_splice_us: Samples,
    pub remove_refresh_ms: Samples,
    pub refreshes: u64,
    pub mutations: u64,
    /// Points inserted by spliced (not refreshing) inserts, and the time
    /// spent in spliced inserts and removes.
    pub spliced_points: u64,
    pub splice_time: Duration,
    pub tally: Tally,
}

/// Everything the serving phases measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub score1_us: Samples,
    pub score64_us: Samples,
    pub submit1_us: Samples,
    pub churn_score64_us: Samples,
    /// Churn-phase 64-point scores submitted while a write was in flight.
    pub churn_writing64_us: Samples,
    pub churn_elapsed: Duration,
    pub resident_detect_ms: Samples,
    pub scored_points: u64,
    /// The writer beside the churn reader.
    pub writes: Writes,
    pub tally: Tally,
}

/// The reader's request stream: a seeded 50/50 mix of 1-point and
/// 64-point `Score` requests over a pool drawn from the data's
/// distribution.
struct Reader {
    rng: StdRng,
    pool: Vec<Vec<f64>>,
}

impl Reader {
    fn new(spec: &Spec, seed: u64, stream: u64) -> Self {
        Reader {
            rng: StdRng::seed_from_u64(mix(seed, 100 + stream)),
            pool: rows(&spec.fresh(QUERY_POOL, seed, 1)),
        }
    }

    fn next(&mut self) -> Vec<Vec<f64>> {
        let n = if self.rng.gen_bool(0.5) {
            1
        } else {
            BATCH_POINTS
        };
        let at = self.rng.gen_range(0..self.pool.len() - n);
        self.pool[at..at + n].to_vec()
    }
}

/// One timed request: submit, wait, and the time `submit` itself took.
fn timed(engine: &Engine, req: Request) -> (Result<Response, EngineError>, Duration, Duration) {
    let t0 = Instant::now();
    let pending = engine.submit(req);
    let submitted = t0.elapsed();
    let result = pending.and_then(|p| p.wait());
    (result, t0.elapsed(), submitted)
}

/// Streamed batches still resident: engine ids and coordinates.
pub type Streamed = VecDeque<(Vec<PointId>, Vec<Vec<f64>>)>;

/// The closed-loop clients. Their request streams carry on from one
/// slice of a phase to the next, so a run can interleave phases in
/// rounds.
pub struct Clients {
    reader: Reader,
    churn_reader: Reader,
    inserts: Vec<Vec<f64>>,
    next_insert: usize,
    /// Streamed batches still resident, oldest first.
    pub streamed: Streamed,
    /// Read-phase answers kept for the brute-force check.
    pub kept: Vec<Kept>,
}

impl Clients {
    pub fn new(spec: &Spec, seed: u64, data: &PointSet) -> Self {
        let domain = data.bounding_rect().expect("a non-empty dataset");
        Clients {
            reader: Reader::new(spec, seed, 0),
            churn_reader: Reader::new(spec, seed, 1),
            inserts: rows(&spec.inserts(spec.churn_cycles * BATCH_POINTS, seed, &domain)),
            next_insert: 0,
            streamed: VecDeque::new(),
            kept: Vec::new(),
        }
    }

    /// Phase `read`: one client, back to back, for `budget`.
    pub fn read(&mut self, engine: &Engine, budget: Duration, run: &mut ServeRun) {
        let end = Instant::now() + budget;
        while Instant::now() < end {
            let points = self.reader.next();
            let keep = (run.tally.attempted as usize).is_multiple_of(CHECK_EVERY)
                && self.kept.len() < CHECKED_POINTS;
            let query = keep.then(|| points[0].clone());
            let n = points.len();
            run.tally.attempted += 1;
            let (result, took, submitted) = timed(engine, Request::Score { points });
            match result.map(Response::into_score) {
                Ok(Some(scores)) if scores.len() == n => {
                    run.scored_points += n as u64;
                    if n == 1 {
                        run.score1_us.push_us(took);
                        run.submit1_us.push_us(submitted);
                    } else {
                        run.score64_us.push_us(took);
                    }
                    if let Some(query) = query {
                        self.kept.push(Kept {
                            query,
                            answer: scores[0],
                            inserted_batches: self.next_insert / BATCH_POINTS,
                        });
                    }
                }
                Ok(_) => run.tally.fail("score: wrong response shape"),
                Err(e) => run.tally.fail(format!("score: {e}")),
            }
        }
    }

    /// Phase `churn`: the reader as in `read`, beside the writer (see
    /// [`write`]) for `cycles` cycles.
    pub fn churn(&mut self, engine: &Engine, cycles: usize, run: &mut ServeRun) {
        let range = self.take_batches(cycles);
        let batches = &self.inserts[range];
        // Odd while a write is in flight.
        let writes = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let streamed = &mut self.streamed;
        let w = &mut run.writes;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                write(engine, batches, streamed, w, &writes);
                done.store(true, Ordering::SeqCst);
            });
            while !done.load(Ordering::SeqCst) {
                let points = self.churn_reader.next();
                let n = points.len();
                let writing = writes.load(Ordering::SeqCst) % 2 == 1;
                run.tally.attempted += 1;
                let (result, took, _) = timed(engine, Request::Score { points });
                match result.map(Response::into_score) {
                    Ok(Some(scores)) if scores.len() == n => {
                        run.scored_points += n as u64;
                        if n == BATCH_POINTS {
                            run.churn_score64_us.push_us(took);
                            if writing {
                                run.churn_writing64_us.push_us(took);
                            }
                        }
                    }
                    Ok(_) => run.tally.fail("churn score: wrong response shape"),
                    Err(e) => run.tally.fail(format!("churn score: {e}")),
                }
            }
        });
        run.churn_elapsed += t0.elapsed();
    }

    /// Where in `inserts` the next `cycles` streamed batches are.
    fn take_batches(&mut self, cycles: usize) -> std::ops::Range<usize> {
        let start = self.next_insert;
        self.next_insert = (start + cycles * BATCH_POINTS).min(self.inserts.len());
        start..self.next_insert
    }

    /// The resident set once `batches` streamed batches were inserted:
    /// the build-time points, then the last [`STREAM_LAG`] batches (the
    /// writer removes the oldest beyond that).
    pub fn resident_after(&self, data: &PointSet, batches: usize) -> PointSet {
        let mut points = data.clone();
        let first = batches.saturating_sub(STREAM_LAG);
        for p in &self.inserts[first * BATCH_POINTS..batches * BATCH_POINTS] {
            points.push(p).expect("same dim");
        }
        points
    }
}

/// The writer: inserts each 64-point batch, then removes the oldest
/// streamed batch once more than [`STREAM_LAG`] are resident. `writes` is
/// odd while a write is in flight.
fn write(
    engine: &Engine,
    batches: &[Vec<f64>],
    streamed: &mut Streamed,
    w: &mut Writes,
    writes: &AtomicU64,
) {
    for batch in batches.chunks(BATCH_POINTS) {
        w.tally.attempted += 1;
        writes.fetch_add(1, Ordering::SeqCst);
        let points = batch.to_vec();
        let (result, took, _) = timed(engine, Request::Insert { points });
        writes.fetch_add(1, Ordering::SeqCst);
        match result.map(Response::into_insert) {
            Ok(Some(receipt)) if receipt.ids.len() == batch.len() => {
                w.mutations += 1;
                w.insert_ms.push_ms(took);
                if receipt.refreshed {
                    w.refreshes += 1;
                    w.insert_refresh_ms.push_ms(took);
                } else {
                    w.insert_splice_us.push_us(took);
                    w.spliced_points += batch.len() as u64;
                    w.splice_time += took;
                }
                streamed.push_back((receipt.ids, batch.to_vec()));
            }
            Ok(_) => w.tally.fail("insert: wrong response shape"),
            Err(e) => w.tally.fail(format!("insert: {e}")),
        }
        if streamed.len() <= STREAM_LAG {
            continue;
        }
        let (ids, coords) = streamed.pop_front().expect("non-empty");
        w.tally.attempted += 1;
        writes.fetch_add(1, Ordering::SeqCst);
        let (result, took, _) = timed(engine, Request::Remove { ids: ids.clone() });
        writes.fetch_add(1, Ordering::SeqCst);
        match result.map(Response::into_remove) {
            Ok(Some(receipt)) if receipt.removed == ids.len() => {
                w.mutations += 1;
                if receipt.refreshed {
                    w.refreshes += 1;
                    w.remove_refresh_ms.push_ms(took);
                } else {
                    w.remove_splice_us.push_us(took);
                    w.splice_time += took;
                }
            }
            other => {
                w.tally.fail(format!("remove: {other:?}"));
                streamed.push_front((ids, coords));
            }
        }
    }
}

/// One timed `Request::Detect`; returns its answer.
pub fn resident_detect(engine: &Engine, run: &mut ServeRun) -> Option<Vec<PointId>> {
    run.tally.attempted += 1;
    let (result, took, _) = timed(engine, Request::Detect);
    match result.map(Response::into_outliers) {
        Ok(Some(outliers)) => {
            run.resident_detect_ms.push_ms(took);
            return Some(outliers);
        }
        Ok(None) => run.tally.fail("detect: wrong response shape"),
        Err(e) => run.tally.fail(format!("detect: {e}")),
    }
    None
}

/// The resident set after churn: the build-time points (ids `0..n`),
/// then every streamed batch still resident, with each point's engine id.
pub fn survivors(data: &PointSet, streamed: &Streamed) -> (PointSet, Vec<PointId>) {
    let mut points = data.clone();
    let mut ids: Vec<PointId> = (0..data.len() as PointId).collect();
    for (batch_ids, coords) in streamed {
        for (id, p) in batch_ids.iter().zip(coords) {
            points.push(p).expect("same dim");
            ids.push(*id);
        }
    }
    (points, ids)
}

/// Whether an engine score agrees with a brute-force count over `resident`.
pub fn score_matches(spec: &Spec, resident: &PointSet, query: &[f64], got: ScorePoint) -> bool {
    let predicate = NeighborPredicate::new(spec.params());
    let count = resident
        .iter()
        .filter(|p| predicate.within(query, p))
        .count();
    let outlier = count < spec.k;
    got.outlier == outlier
        && (if outlier {
            got.neighbors == count
        } else {
            got.neighbors >= spec.k
        })
}
