//! Workload definitions and their seeded inputs.
//!
//! Every workload tells the same story over its own dataset: load a CSV,
//! detect its outliers in batch, then serve it from a resident engine
//! (reads, then reads beside a churning writer, then full detects). The
//! workloads differ in the data and in which part gets most of the run.

use dod_core::{OutlierParams, PointSet, Rect};
use dod_data::GaussianMixture;

/// How big a run is: the full benchmark or the quick smoke check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Which generator a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 90% uniform in [0,100]², 10% uniform in [300,600]².
    Skewed2d,
    /// `GaussianMixture::random_cities` over [0,100]⁴: 8 cities,
    /// spread 3, 2% background.
    Cities4d,
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// Points in the dataset (batch input and resident set alike).
    pub points: usize,
    pub r: f64,
    pub k: usize,
    /// Shares of `--seconds` given to the batch detect loop, the
    /// read-only serving phase and the resident `Detect` samples.
    pub batch_share: f64,
    pub read_share: f64,
    pub resident_share: f64,
    /// Minimum batch and resident detect samples, whatever the shares
    /// allow.
    pub min_detects: usize,
    pub min_resident: usize,
    /// Writer cycles (insert 64, remove the oldest streamed batch) of the
    /// churn phase. A fixed count fixes the number of staleness refreshes,
    /// and so the resident state later reads and detects see.
    pub churn_cycles: usize,
    /// Rounds the measured phases are interleaved in.
    pub rounds: usize,
    /// Setup repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Whether setup includes `Engine::build` (the serving workload's
    /// first unit of work is a request, not a batch run).
    pub setup_builds_engine: bool,
}

/// Points per streamed insert and per multi-point score.
pub const BATCH_POINTS: usize = 64;

/// Streamed batches kept resident before the writer starts removing the
/// oldest one, so the resident size stays steady.
pub const STREAM_LAG: usize = 8;

/// Seed of the fixed 4-d city layout.
const CITY_LAYOUT: u64 = 1;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["batch-2d", "batch-4d", "serve-2d"];

impl Spec {
    pub fn get(name: &str, scale: Scale) -> Option<Spec> {
        let smoke = scale == Scale::Smoke;
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        Some(match name {
            "batch-2d" => Spec {
                name: "batch-2d",
                shape: Shape::Skewed2d,
                points: pick(1_000_000, 20_000),
                r: 1.0,
                k: 4,
                batch_share: 0.5,
                read_share: 0.15,
                resident_share: 0.15,
                min_detects: pick(8, 2),
                min_resident: pick(8, 2),
                churn_cycles: pick(1200, 60),
                rounds: pick(8, 2),
                setups: pick(9, 3),
                setup_builds_engine: false,
            },
            "batch-4d" => Spec {
                name: "batch-4d",
                shape: Shape::Cities4d,
                points: pick(60_000, 4_000),
                r: 3.0,
                k: 8,
                batch_share: 0.45,
                read_share: 0.1,
                resident_share: 0.3,
                min_detects: pick(4, 2),
                min_resident: pick(2, 1),
                churn_cycles: pick(240, 40),
                rounds: pick(4, 2),
                setups: pick(9, 3),
                setup_builds_engine: false,
            },
            "serve-2d" => Spec {
                name: "serve-2d",
                shape: Shape::Skewed2d,
                points: pick(200_000, 10_000),
                r: 1.0,
                k: 4,
                batch_share: 0.1,
                read_share: 0.35,
                resident_share: 0.1,
                min_detects: pick(8, 2),
                min_resident: pick(8, 2),
                churn_cycles: pick(4800, 100),
                rounds: pick(8, 2),
                setups: pick(9, 3),
                setup_builds_engine: true,
            },
            _ => return None,
        })
    }

    pub fn params(&self) -> OutlierParams {
        OutlierParams::new(self.r, self.k).expect("static parameters are valid")
    }

    pub fn dim(&self) -> usize {
        match self.shape {
            Shape::Skewed2d => 2,
            Shape::Cities4d => 4,
        }
    }

    /// The workload's dataset, deterministic in `seed`.
    pub fn dataset(&self, seed: u64) -> PointSet {
        self.draw_with(self.points, seed, 0)
    }

    /// `n` more points from the dataset's distribution (queries and
    /// streamed inserts), deterministic in `(seed, stream)` and distinct
    /// from the dataset itself.
    pub fn fresh(&self, n: usize, seed: u64, stream: u64) -> PointSet {
        self.draw_with(n, seed, 1 + stream)
    }

    /// `n` points for the streamed inserts: fresh draws that fall inside
    /// `domain` (the dataset's bounding box). A point beyond the resident
    /// extremes forces an epoch-swap refresh, and how many such points a
    /// stream holds swings widely with the seed; keeping the stream inside
    /// the domain leaves only the staleness refreshes, whose count the
    /// cycle count fixes.
    pub fn inserts(&self, n: usize, seed: u64, domain: &Rect) -> PointSet {
        let mut out = PointSet::with_capacity(self.dim(), n).expect("dim >= 1");
        let mut chunk = 0;
        while out.len() < n {
            let draws = self.draw_with(n, seed, 1_000 + chunk);
            for p in draws.iter().filter(|p| domain.contains_closed(p)) {
                if out.len() < n {
                    out.push(p).expect("same dim");
                }
            }
            chunk += 1;
        }
        out
    }

    fn draw_with(&self, n: usize, seed: u64, stream: u64) -> PointSet {
        let s = mix(seed, stream);
        match self.shape {
            Shape::Skewed2d => {
                let dense = n - n / 10;
                let mut out = dod_data::uniform_in(&square(0.0, 100.0), dense, s);
                let sparse = dod_data::uniform_in(&square(300.0, 600.0), n / 10, mix(s, 1));
                for p in sparse.iter() {
                    out.push(p).expect("same dim");
                }
                out
            }
            Shape::Cities4d => {
                // One fixed city layout: the seed draws points from it, so
                // every seed (and every query or insert) samples the same
                // distribution.
                let domain = Rect::new(vec![0.0; 4], vec![100.0; 4]).expect("static bounds");
                GaussianMixture::random_cities(domain, 8, 3.0, 0.02, CITY_LAYOUT).generate(n, s)
            }
        }
    }
}

fn square(lo: f64, hi: f64) -> Rect {
    Rect::new(vec![lo, lo], vec![hi, hi]).expect("static bounds")
}

/// SplitMix64 step: decorrelated sub-seeds from one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rows of a point set as owned coordinate vectors.
pub fn rows(points: &PointSet) -> Vec<Vec<f64>> {
    points.iter().map(|p| p.to_vec()).collect()
}
