//! The Cell-Based detector (Section IV-B).
//!
//! The domain is divided into a grid with cell side `r / (2√d)` (the
//! paper's 2-d cell of diagonal `r/2`). Two pruning rules then classify
//! whole cells without any distance computation:
//!
//! * **inlier rule** — if cell `C` plus its direct (3^d) neighbors hold
//!   more than `k` points, every point of `C` is an inlier, because every
//!   point of that block is within `r` of every point of `C`;
//! * **outlier rule** — if the block of cells that can possibly contain a
//!   neighbor (per-dimension radius `⌈r/wᵢ⌉`, the paper's 49-cell block in
//!   2-d) holds at most `k` points, every point of `C` is an outlier.
//!
//! Points of surviving cells are evaluated individually, "in a fashion
//! similar to Nested-Loop". By default the scan is restricted to the
//! candidate block of cells that can possibly hold a neighbor — Knorr &
//! Ng's actual algorithm, robust even when a partition's density was
//! mispredicted. The [`CellBased::full_scan_fallback`] variant instead
//! scans the whole partition in random order, which is exactly what the
//! Lemma 4.2 case-3 cost model (`|D| + Cost_NL`) charges; Figure 5's
//! middle-band crossover reflects that variant. When the configured cell
//! cap forces cells wider than `r/(2√d)` the inlier rule is disabled (it
//! would be unsound) while the outlier rule's per-dimension radius adapts
//! and stays exact, so the detector is correct for every configuration.
//!
//! # Cell enumeration
//!
//! A block of radius `ρ` holds `(2ρ+1)^d` cells — 6,561 in 4-d and
//! 13^8 ≈ 8·10^8 in 8-d — while a partition occupies only as many cells
//! as it has points, often far fewer. [`CellIndex`] therefore keeps its
//! non-empty cell ids sorted in `occupied`, and every block visit (the
//! inlier rule, the outlier rule, the fallback scans, external neighbor
//! counts) walks whichever is smaller: the block itself, one hash probe
//! per cell, or the run of occupied ids between the block's first and
//! last id, each filtered by its per-dimension indices. Both walks yield
//! cells in ascending id order and stop as soon as the caller has seen
//! enough, so results and work counters do not depend on the choice.
//! The range scan needs ids that are monotone in every index, so the
//! grid caps its total cell count at what a [`CellId`] can address
//! (see [`GridSpec::for_cell_based`]).

use crate::detector::{Detection, DetectionStats, Detector};
use crate::partition::Partition;
use crate::scan::{count_tile_excluding, PermutedScan};
use dod_core::{CellId, GridSpec, NeighborPredicate, OutlierParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::{Entry, HashMap};

/// The build-phase product of the Cell-Based detector: the grid plus the
/// hash of every point into its non-empty cell.
///
/// Splitting the one-shot detector into an index build and a query phase
/// lets a resident engine (see the `dod-engine` crate) pay the hashing
/// cost once and then answer many requests — both full re-detections
/// ([`CellBased::detect_with_index`]) and per-point neighbor counts for
/// incoming query points ([`CellIndex::count_core_neighbors`]).
#[derive(Debug, Clone)]
pub struct CellIndex {
    grid: GridSpec,
    buckets: HashMap<CellId, Bucket>,
    /// Ids of the non-empty cells (the keys of `buckets`), ascending.
    occupied: Vec<CellId>,
    build_ops: u64,
}

impl CellIndex {
    /// Hashes every point of `partition` (core and support) into grid
    /// cells of side `r / (2√d)` (capped at `max_cells_per_dim`).
    ///
    /// Returns `None` for a partition with no points at all — there is
    /// no bounding rectangle to build a grid over.
    pub fn build(
        partition: &Partition,
        params: OutlierParams,
        max_cells_per_dim: usize,
    ) -> Option<CellIndex> {
        if partition.total_len() == 0 {
            return None;
        }
        let bounds = partition.bounding_rect().expect("non-empty partition");
        let grid = GridSpec::for_cell_based(&bounds, params.r, params.metric, max_cells_per_dim)
            .expect("validated params");
        let n_core = partition.core().len();
        let mut buckets: HashMap<CellId, Bucket> = HashMap::new();
        for idx in 0..partition.total_len() {
            let p = partition.point(idx);
            let bucket = buckets.entry(grid.cell_of(p)).or_default();
            // Indices arrive ascending, so each sub-tile's index list is
            // sorted at build time and the per-bucket scan order (core
            // tile, then support tile) matches the unified
            // core-then-support order the one-shot detector walks.
            if idx < n_core {
                bucket.core.push(idx as u32);
                bucket.core_coords.extend_from_slice(p);
            } else {
                bucket.support.push((idx - n_core) as u32);
                bucket.support_coords.extend_from_slice(p);
            }
        }
        let mut occupied: Vec<CellId> = buckets.keys().copied().collect();
        occupied.sort_unstable();
        Some(CellIndex {
            grid,
            buckets,
            occupied,
            build_ops: partition.total_len() as u64,
        })
    }

    /// Number of points hashed during the build (the `index_operations`
    /// the one-shot detector would have charged).
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Hashes a new core point (index `core_idx` in the partition's core
    /// set) into its cell — the cell-count increment of an incremental
    /// insert.
    ///
    /// Returns `false` when `p` lies outside the grid's domain: the grid
    /// was sized over the bounding rectangle at build time, so a point
    /// beyond it cannot be hashed and the caller must rebuild the index.
    pub fn insert_core(&mut self, core_idx: u32, p: &[f64]) -> bool {
        if !self.grid.domain().contains_closed(p) {
            return false;
        }
        let bucket = self.bucket_mut(self.grid.cell_of(p));
        bucket.core.push(core_idx);
        bucket.core_coords.extend_from_slice(p);
        self.build_ops += 1;
        true
    }

    /// Hashes a new support point (index `support_idx` in the
    /// partition's support set) into its cell. Same domain contract as
    /// [`CellIndex::insert_core`].
    pub fn insert_support(&mut self, support_idx: u32, p: &[f64]) -> bool {
        if !self.grid.domain().contains_closed(p) {
            return false;
        }
        let bucket = self.bucket_mut(self.grid.cell_of(p));
        bucket.support.push(support_idx);
        bucket.support_coords.extend_from_slice(p);
        self.build_ops += 1;
        true
    }

    /// The bucket of `cell`, created (and recorded in `occupied`) when the
    /// cell was empty.
    fn bucket_mut(&mut self, cell: CellId) -> &mut Bucket {
        match self.buckets.entry(cell) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let at = self.occupied.partition_point(|&id| id < cell);
                self.occupied.insert(at, cell);
                e.insert(Bucket::default())
            }
        }
    }

    /// Drops the bucket of `cell` (and its `occupied` entry) once it
    /// holds no point.
    fn forget_if_empty(&mut self, cell: CellId) {
        if self.buckets.get(&cell).is_some_and(Bucket::is_empty) {
            self.buckets.remove(&cell);
            if let Ok(at) = self.occupied.binary_search(&cell) {
                self.occupied.remove(at);
            }
        }
    }

    /// Unhashes core point `core_idx`, located by its coordinates `p`
    /// (which must be the coordinates it was inserted with).
    pub fn remove_core(&mut self, core_idx: u32, p: &[f64]) {
        let dim = self.grid.dim();
        let cell = self.grid.cell_of(p);
        if let Some(bucket) = self.buckets.get_mut(&cell) {
            swap_remove_entry(&mut bucket.core, &mut bucket.core_coords, dim, core_idx);
            self.forget_if_empty(cell);
        }
    }

    /// Unhashes support point `support_idx`, located by its coordinates.
    pub fn remove_support(&mut self, support_idx: u32, p: &[f64]) {
        let dim = self.grid.dim();
        let cell = self.grid.cell_of(p);
        if let Some(bucket) = self.buckets.get_mut(&cell) {
            swap_remove_entry(
                &mut bucket.support,
                &mut bucket.support_coords,
                dim,
                support_idx,
            );
            self.forget_if_empty(cell);
        }
    }

    /// Rewrites the stored core index `from` to `to` (coordinates `p`
    /// locate its cell) — the fix-up after a swap-remove moved the
    /// partition's last core point into slot `to`.
    pub fn renumber_core(&mut self, from: u32, to: u32, p: &[f64]) {
        if let Some(bucket) = self.buckets.get_mut(&self.grid.cell_of(p)) {
            if let Some(slot) = bucket.core.iter_mut().find(|x| **x == from) {
                *slot = to;
            }
        }
    }

    /// Rewrites the stored support index `from` to `to` (coordinates `p`
    /// locate its cell).
    pub fn renumber_support(&mut self, from: u32, to: u32, p: &[f64]) {
        if let Some(bucket) = self.buckets.get_mut(&self.grid.cell_of(p)) {
            if let Some(slot) = bucket.support.iter_mut().find(|x| **x == from) {
                *slot = to;
            }
        }
    }

    /// Counts the **core** points of `partition` within distance
    /// `pred.r()` of an arbitrary query point `q` (which need not belong
    /// to the partition), stopping early once `cap` neighbors are found.
    ///
    /// Only cells intersecting the `[q − r, q + r]` box are visited; that
    /// box contains every possible neighbor under any supported `Lp`
    /// metric because a single-coordinate difference lower-bounds the
    /// distance.
    pub fn count_core_neighbors(
        &self,
        partition: &Partition,
        q: &[f64],
        pred: &NeighborPredicate,
        cap: usize,
    ) -> usize {
        self.count_core_neighbors_traced(partition, q, pred, cap).0
    }

    /// [`CellIndex::count_core_neighbors`] that also returns the work
    /// performed: the number of candidate points examined across all
    /// visited buckets, directly chargeable to `distance_evaluations`.
    pub fn count_core_neighbors_traced(
        &self,
        partition: &Partition,
        q: &[f64],
        pred: &NeighborPredicate,
        cap: usize,
    ) -> (usize, u64) {
        if cap == 0 {
            return (0, 0);
        }
        debug_assert_eq!(q.len(), partition.dim());
        let dim = self.grid.dim();
        let r = pred.r();
        let mut bounds = vec![0usize; 2 * dim];
        let (lo, hi) = bounds.split_at_mut(dim);
        for (i, &x) in q.iter().enumerate() {
            let Some(range) = self.grid.dim_range(i, x - r, x + r) else {
                return (0, 0); // the box misses the grid
            };
            (lo[i], hi[i]) = range;
        }
        let mut count = 0usize;
        let mut work = 0u64;
        self.visit_block(lo, hi, |_, bucket| {
            let outcome = pred.count_within_tile(q, &bucket.core_coords, cap - count);
            count += outcome.found;
            work += outcome.scanned as u64;
            count < cap
        });
        (count, work)
    }

    /// Calls `f` on every non-empty cell whose per-dimension index lies
    /// in `lo[i]..=hi[i]`, in ascending id order, until `f` returns
    /// `false`. Returns whether the visit ran to the end.
    ///
    /// It walks whichever touches fewer cells: the block, one hash probe
    /// per cell, or the run of `occupied` between the block's first and
    /// last id, keeping the ids inside the block. Both are lazy, so a
    /// caller that stops early pays only for the cells it saw.
    fn visit_block(
        &self,
        lo: &[usize],
        hi: &[usize],
        mut f: impl FnMut(CellId, &Bucket) -> bool,
    ) -> bool {
        let (first, last) = (self.grid.linearize(lo), self.grid.linearize(hi));
        let from_first = &self.occupied[self.occupied.partition_point(|&id| id < first)..];
        let block: usize = lo.iter().zip(hi).map(|(l, h)| h - l + 1).product();
        // The run of occupied ids in `first..=last` holds at least `block`
        // ids exactly when its `block`-th id is still within `last`.
        if from_first.get(block - 1).is_some_and(|&id| id <= last) {
            self.grid
                .visit_box(lo, hi, |id| self.buckets.get(&id).is_none_or(|b| f(id, b)))
        } else {
            let run = &from_first[..from_first.partition_point(|&id| id <= last)];
            run.iter()
                .filter(|&&id| self.grid.box_contains(lo, hi, id))
                .all(|&id| f(id, &self.buckets[&id]))
        }
    }
}

/// Grid-pruning detector.
#[derive(Debug, Clone, Copy)]
pub struct CellBased {
    /// Upper bound on grid cells per dimension, to bound memory on very
    /// large or very sparse domains.
    max_cells_per_dim: usize,
    /// Whether the fallback scan is restricted to the candidate block
    /// (`true`) or runs over the whole partition as in the paper
    /// (`false`, the default).
    block_restricted: bool,
    /// Seed for the randomized fallback scan order.
    seed: u64,
}

impl CellBased {
    /// Per-dimension cell cap used by [`CellBased::default`].
    pub const DEFAULT_MAX_CELLS_PER_DIM: usize = 1024;

    /// Creates a detector with the given per-dimension cell cap.
    pub fn new(max_cells_per_dim: usize) -> Self {
        CellBased {
            max_cells_per_dim: max_cells_per_dim.max(1),
            block_restricted: true,
            seed: 0xD0D_0002,
        }
    }

    /// Restricts the fallback scan to the candidate block (the default).
    pub fn block_restricted(mut self) -> Self {
        self.block_restricted = true;
        self
    }

    /// Scans the whole partition in random order during the fallback —
    /// the behaviour the Lemma 4.2 case-3 cost model charges.
    pub fn full_scan_fallback(mut self) -> Self {
        self.block_restricted = false;
        self
    }
}

impl Default for CellBased {
    fn default() -> Self {
        CellBased::new(CellBased::DEFAULT_MAX_CELLS_PER_DIM)
    }
}

/// Points of one non-empty grid cell, split into core and support
/// sub-tiles. Each side keeps its indices (into the partition's core or
/// support set respectively) aligned with its coordinates gathered into
/// a contiguous columnar tile for the kernel scans. The split — rather
/// than one unified sorted list — is what makes the cell index
/// incrementally maintainable: an insert appends to one sub-tile and a
/// removal swap-removes one entry, neither disturbing the other side's
/// indices.
#[derive(Debug, Clone, Default)]
struct Bucket {
    core: Vec<u32>,
    core_coords: Vec<f64>,
    support: Vec<u32>,
    support_coords: Vec<f64>,
}

impl Bucket {
    fn len(&self) -> usize {
        self.core.len() + self.support.len()
    }

    fn is_empty(&self) -> bool {
        self.core.is_empty() && self.support.is_empty()
    }
}

/// Swap-removes the entry holding index `target` from an index-aligned
/// `(indices, coords)` sub-tile. Returns whether it was present.
fn swap_remove_entry(
    indices: &mut Vec<u32>,
    coords: &mut Vec<f64>,
    dim: usize,
    target: u32,
) -> bool {
    let Some(pos) = indices.iter().position(|&x| x == target) else {
        return false;
    };
    indices.swap_remove(pos);
    let last = indices.len();
    if pos < last {
        let (head, tail) = coords.split_at_mut(last * dim);
        head[pos * dim..(pos + 1) * dim].copy_from_slice(&tail[..dim]);
    }
    coords.truncate(last * dim);
    true
}

impl Detector for CellBased {
    fn name(&self) -> &'static str {
        "cell-based"
    }

    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection {
        if partition.core().is_empty() {
            return Detection::default();
        }
        let index = CellIndex::build(partition, params, self.max_cells_per_dim)
            .expect("core is non-empty, so the partition has points");
        self.detect_with_index(partition, params, &index)
    }
}

impl CellBased {
    /// The query phase of the detector: classifies every core point of
    /// `partition` against a prebuilt [`CellIndex`].
    ///
    /// `index` must have been built from the same partition with the same
    /// parameters and cell cap; the outlier set is then exactly the one
    /// the one-shot [`Detector::detect`] returns.
    pub fn detect_with_index(
        &self,
        partition: &Partition,
        params: OutlierParams,
        index: &CellIndex,
    ) -> Detection {
        let n_core = partition.core().len();
        let total = partition.total_len();
        if n_core == 0 {
            return Detection::default();
        }
        let dim = partition.dim();
        let grid = &index.grid;
        let mut stats = DetectionStats {
            index_operations: index.build_ops,
            ..Default::default()
        };

        // Soundness guard for the inlier rule: every pair within the
        // 3^d block around C (one point inside C) must be within r —
        // the metric distance across a 2-cell-per-dimension span.
        let origin = vec![0.0; dim];
        let span: Vec<f64> = (0..dim).map(|i| 2.0 * grid.width(i)).collect();
        let inlier_rule_valid = params.metric.dist(&origin, &span) <= params.r + 1e-12;

        // Per-dimension radius of the exact candidate block: a neighbor
        // differs by at most ceil(r / width) cell indices per dimension.
        let radii: Vec<usize> = (0..dim)
            .map(|i| {
                let w = grid.width(i);
                if w == 0.0 {
                    0
                } else {
                    (params.r / w).ceil() as usize
                }
            })
            .collect();
        let ones = vec![1usize; dim];

        // Randomized scan order for the paper-faithful full fallback,
        // gathered into a contiguous buffer for the tile kernels.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let full_scan = if self.block_restricted {
            None
        } else {
            let mut full_order: Vec<u32> = (0..total as u32).collect();
            full_order.shuffle(&mut rng);
            Some(PermutedScan::new(partition, &full_order))
        };
        let pred = params.predicate();

        // Whether the block `lo..=hi` holds more than k points; the visit
        // stops as soon as it does.
        let exceeds_k = |lo: &[usize], hi: &[usize]| {
            let mut seen = 0usize;
            !index.visit_block(lo, hi, |_, b| {
                seen += b.len();
                seen <= params.k
            })
        };

        let mut near = vec![0usize; 2 * dim];
        let mut candidate = vec![0usize; 2 * dim];
        let mut outliers = Vec::new();
        // Ascending cell ids: a deterministic cell order.
        for &cid in &index.occupied {
            let core_in_cell = &index.buckets[&cid].core;
            if core_in_cell.is_empty() {
                continue; // pure support cell: nothing to classify
            }

            // Inlier rule over the 3^d block.
            if inlier_rule_valid {
                let (lo, hi) = grid.block_range(cid, &ones, &mut near);
                if exceeds_k(lo, hi) {
                    stats.pruned_points += core_in_cell.len() as u64;
                    continue;
                }
            }

            // Exact candidate block (outlier rule + per-point fallback).
            let (lo, hi) = grid.block_range(cid, &radii, &mut candidate);
            if !exceeds_k(lo, hi) {
                // Even counting itself, no point in C can reach k neighbors.
                stats.pruned_points += core_in_cell.len() as u64;
                for &i in core_in_cell {
                    outliers.push(partition.core_id(i as usize));
                }
                continue;
            }

            // Fallback: evaluate each surviving core point individually,
            // nested-loop style with early termination, feeding the
            // candidate cells' gathered tiles to the kernels. Each
            // bucket's core tile is scanned before its support tile —
            // the unified core-then-support order of the one-shot path.
            for &i in core_in_cell {
                let p = partition.core().point(i as usize);
                let mut neighbors = 0usize;
                if let Some(full) = &full_scan {
                    // Paper-faithful: random-order scan over the whole
                    // partition (Lemma 4.2 case 3 models this as Cost_NL).
                    let start = rng.gen_range(0..total);
                    let (found, scanned) = full.count_cycle(&pred, p, start, i as usize, params.k);
                    stats.distance_evaluations += scanned;
                    neighbors = found;
                } else {
                    index.visit_block(lo, hi, |ccid, cb| {
                        // The point itself lives in its own cell's core
                        // sub-tile; buckets are small, so a linear find
                        // locates it.
                        let skip = if ccid == cid {
                            cb.core.iter().position(|&x| x == i)
                        } else {
                            None
                        };
                        let (found, scanned) = count_tile_excluding(
                            &pred,
                            p,
                            &cb.core_coords,
                            dim,
                            skip,
                            params.k - neighbors,
                        );
                        stats.distance_evaluations += scanned;
                        neighbors += found;
                        if neighbors >= params.k {
                            return false;
                        }
                        let (found, scanned) = count_tile_excluding(
                            &pred,
                            p,
                            &cb.support_coords,
                            dim,
                            None,
                            params.k - neighbors,
                        );
                        stats.distance_evaluations += scanned;
                        neighbors += found;
                        neighbors < params.k
                    });
                }
                if neighbors < params.k {
                    outliers.push(partition.core_id(i as usize));
                }
            }
        }
        outliers.sort_unstable();
        Detection { outliers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use dod_core::{Metric, PointSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(r: f64, k: usize) -> OutlierParams {
        OutlierParams::new(r, k).unwrap()
    }

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    fn random_points(rng: &mut StdRng, dim: usize, n: usize, extent: f64) -> PointSet {
        let mut set = PointSet::new(dim).unwrap();
        for _ in 0..n {
            let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..extent)).collect();
            set.push(&p).unwrap();
        }
        set
    }

    fn random_partition(seed: u64, n_core: usize, n_support: usize, extent: f64) -> Partition {
        random_partition_nd(seed, 2, n_core, n_support, extent)
    }

    fn random_partition_nd(
        seed: u64,
        dim: usize,
        n_core: usize,
        n_support: usize,
        extent: f64,
    ) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let core = random_points(&mut rng, dim, n_core, extent);
        let support = random_points(&mut rng, dim, n_support, extent);
        let ids = (0..n_core as u64).collect();
        Partition::new(core, ids, support).unwrap()
    }

    /// Brute-force count of the core points of `part` within `r` of `q`.
    fn linear_count(part: &Partition, q: &[f64], prm: OutlierParams) -> usize {
        (0..part.core().len())
            .filter(|&i| prm.neighbors(q, part.core().point(i)))
            .count()
    }

    /// Swap-removes core point `victim` from both `part` and `index`,
    /// renumbering the moved last entry the way `PartitionState` does.
    fn remove_core_point(part: &mut Partition, index: &mut CellIndex, victim: usize) {
        let p: Vec<f64> = part.core().point(victim).to_vec();
        let last = part.core().len() - 1;
        let moved: Option<Vec<f64>> = (victim < last).then(|| part.core().point(last).to_vec());
        part.swap_remove_core(victim);
        index.remove_core(victim as u32, &p);
        if let Some(mp) = moved {
            index.renumber_core(last as u32, victim as u32, &mp);
        }
    }

    /// [`remove_core_point`] for the support side.
    fn remove_support_point(part: &mut Partition, index: &mut CellIndex, victim: usize) {
        let p: Vec<f64> = part.support().point(victim).to_vec();
        let last = part.support().len() - 1;
        let moved: Option<Vec<f64>> = (victim < last).then(|| part.support().point(last).to_vec());
        part.swap_remove_support(victim);
        index.remove_support(victim as u32, &p);
        if let Some(mp) = moved {
            index.renumber_support(last as u32, victim as u32, &mp);
        }
    }

    /// `occupied` lists exactly the non-empty buckets, ascending.
    fn assert_occupied_current(index: &CellIndex) {
        let mut keys: Vec<CellId> = index.buckets.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(index.occupied, keys);
        assert!(index.buckets.values().all(|b| !b.is_empty()));
    }

    #[test]
    fn matches_reference_on_random_data() {
        for seed in 0..10 {
            let p = random_partition(seed, 150, 40, 10.0);
            let prm = params(1.0, 4);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(cb.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_with_tiny_cell_cap() {
        // Cap forces wide cells: inlier rule disabled, result still exact.
        for seed in 0..6 {
            let p = random_partition(seed, 100, 0, 10.0);
            let prm = params(1.5, 3);
            let cb = CellBased::new(3).detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(cb.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn dense_cluster_pruned_as_inliers() {
        // 100 coincident-ish points: the inlier rule should fire and skip
        // all distance evaluations.
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 1e-4, 0.0)).collect();
        let p = Partition::standalone(PointSet::from_xy(&pts));
        let det = CellBased::default().detect(&p, params(1.0, 4));
        assert!(det.outliers.is_empty());
        assert_eq!(det.stats.pruned_points, 100);
        assert_eq!(det.stats.distance_evaluations, 0);
    }

    #[test]
    fn far_scattered_points_pruned_as_outliers() {
        // Points pairwise far beyond r: outlier rule fires per cell.
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 100.0, 0.0)).collect();
        let p = Partition::standalone(PointSet::from_xy(&pts));
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert_eq!(det.outliers.len(), 10);
        assert_eq!(det.stats.distance_evaluations, 0);
    }

    #[test]
    fn mixed_core_and_support_cells() {
        // A core point rescued only by support points in an adjacent cell.
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(0.9, 0.0), (0.0, 0.9), (0.5, 0.5)]);
        let p = Partition::new(core, vec![0], support).unwrap();
        let det = CellBased::default().detect(&p, params(1.0, 3));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn isolated_support_point_not_reported() {
        let core = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0)]);
        let support = PointSet::from_xy(&[(500.0, 500.0)]);
        let p = Partition::new(core, vec![0, 1], support).unwrap();
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn empty_partition() {
        let det = CellBased::default().detect(
            &Partition::standalone(PointSet::new(2).unwrap()),
            params(1.0, 1),
        );
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn single_point_is_outlier() {
        let p = Partition::standalone(PointSet::from_xy(&[(3.0, 4.0)]));
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert_eq!(det.outliers, vec![0]);
    }

    #[test]
    fn three_dimensional_exactness() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut core = PointSet::new(3).unwrap();
        for _ in 0..120 {
            core.push(&[
                rng.gen_range(0.0..6.0),
                rng.gen_range(0.0..6.0),
                rng.gen_range(0.0..6.0),
            ])
            .unwrap();
        }
        let p = Partition::standalone(core);
        let prm = params(1.2, 3);
        let cb = CellBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(cb.outliers, rf.outliers);
    }

    #[test]
    fn block_cells_counts() {
        let domain = dod_core::Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let grid = GridSpec::uniform(domain, 10).unwrap();
        let block_len = |center: &[usize], radius: usize| {
            let mut buf = [0usize; 4];
            let (lo, hi) = grid.block_range(grid.linearize(center), &[radius; 2], &mut buf);
            let mut n = 0;
            grid.visit_box(lo, hi, |_| {
                n += 1;
                true
            });
            n
        };
        // interior cell, radius 1 per dim -> 9 cells
        assert_eq!(block_len(&[5, 5], 1), 9);
        // radius 3 -> 49 cells (the paper's 2-d outlier block)
        assert_eq!(block_len(&[5, 5], 3), 49);
        // corner clamps
        assert_eq!(block_len(&[0, 0], 1), 4);
    }

    #[test]
    fn block_restricted_is_exact_and_cheaper_in_fallback_regime() {
        // Intermediate density: neither pruning rule fires for most
        // cells, so the fallback scan dominates. The block-restricted
        // variant must agree with the reference while doing fewer
        // distance evaluations than the paper-faithful full scan.
        let p = random_partition(21, 2000, 0, 70.0);
        let prm = params(1.0, 4);
        let full = CellBased::default().full_scan_fallback().detect(&p, prm);
        let restricted = CellBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(full.outliers, rf.outliers);
        assert_eq!(restricted.outliers, rf.outliers);
        assert!(
            restricted.stats.distance_evaluations * 2 < full.stats.distance_evaluations,
            "restricted {} vs full {}",
            restricted.stats.distance_evaluations,
            full.stats.distance_evaluations
        );
    }

    #[test]
    fn incremental_mutations_match_fresh_build() {
        // Build an index over a prefix, splice the remaining points in
        // via insert_core/insert_support, remove a few (with renumber
        // fix-ups mirroring Partition::swap_remove_core), and check the
        // detection and count answers against a fresh build of the same
        // surviving partition.
        let prm = params(1.0, 3);
        let full = random_partition(7, 60, 20, 8.0);
        let mut part = Partition::new(
            full.core().gather(&(0..40u64).collect::<Vec<_>>()),
            (0..40u64).collect(),
            full.support().gather(&(0..10u64).collect::<Vec<_>>()),
        )
        .unwrap();
        // Grid over the full bounding rect so incremental inserts stay
        // in-domain (out-of-domain inserts return false and force a
        // rebuild, exercised separately below).
        let bounds = full.bounding_rect().unwrap();
        let grid = GridSpec::for_cell_based(
            &bounds,
            prm.r,
            prm.metric,
            CellBased::DEFAULT_MAX_CELLS_PER_DIM,
        )
        .unwrap();
        let mut index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        index.grid = grid;
        let rebuilt = {
            // Rehash under the wider grid: build from the same partition.
            let mut idx = CellIndex {
                grid: index.grid.clone(),
                buckets: HashMap::new(),
                occupied: Vec::new(),
                build_ops: 0,
            };
            for i in 0..part.core().len() {
                assert!(idx.insert_core(i as u32, part.core().point(i)));
            }
            for i in 0..part.support().len() {
                assert!(idx.insert_support(i as u32, part.support().point(i)));
            }
            idx
        };
        let mut index = rebuilt;
        for i in 40..60 {
            let p: Vec<f64> = full.core().point(i).to_vec();
            let ci = part.push_core(&p, i as u64).unwrap();
            assert!(index.insert_core(ci as u32, &p));
        }
        for i in 10..20 {
            let p: Vec<f64> = full.support().point(i).to_vec();
            let si = part.push_support(&p).unwrap();
            assert!(index.insert_support(si as u32, &p));
        }
        // Remove some core and support points, fixing up the moved-last
        // index exactly the way PartitionState does.
        for &victim in &[3usize, 17, 44, 0] {
            remove_core_point(&mut part, &mut index, victim);
        }
        for &victim in &[5usize, 0] {
            remove_support_point(&mut part, &mut index, victim);
        }
        assert_occupied_current(&index);
        let fresh = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        let via_mutations = CellBased::default().detect_with_index(&part, prm, &index);
        let via_fresh = CellBased::default().detect_with_index(&part, prm, &fresh);
        assert_eq!(via_mutations.outliers, via_fresh.outliers);
        for q in [&[0.5, 0.5][..], &[4.0, 4.0], &[7.9, 0.1], &[-3.0, 2.0]] {
            assert_eq!(
                index.count_core_neighbors(&part, q, &prm.predicate(), usize::MAX),
                fresh.count_core_neighbors(&part, q, &prm.predicate(), usize::MAX),
                "query {q:?}"
            );
        }
        // Out-of-domain insert is refused, signalling a rebuild.
        assert!(!index.insert_core(999, &[1e6, 1e6]));
        assert!(!index.insert_support(999, &[-1e6, 0.0]));
    }

    #[test]
    fn cell_id_overflow_does_not_merge_cells() {
        // 512 cells per dimension in 8-d is 2^72 cells: the row-major id
        // used to wrap, so the lone point at x = 100.5 shared a bucket
        // with the cluster and the inlier rule pruned it.
        let mut core = PointSet::new(8).unwrap();
        for j in 0..5 {
            let mut p = vec![0.1; 8];
            p[0] += 0.01 * j as f64;
            core.push(&p).unwrap();
        }
        let mut lone = vec![0.1; 8];
        lone[0] = 100.5;
        core.push(&lone).unwrap();
        core.push(&[512.0; 8]).unwrap();
        let p = Partition::standalone(core);
        let prm = params(2.0, 4).with_metric(Metric::Chebyshev);
        assert_eq!(Reference.detect(&p, prm).outliers, vec![5, 6]);
        assert_eq!(CellBased::default().detect(&p, prm).outliers, vec![5, 6]);
    }

    #[test]
    fn visit_block_matches_filtered_occupied() {
        // Random grids and occupancies in 1..=8 dimensions; boxes range
        // from one cell to the whole grid, so both walks run. Each visit
        // must yield exactly the occupied ids inside the box, ascending,
        // and stop where the closure says.
        let mut rng = StdRng::seed_from_u64(0xB10C);
        let (mut walked_block, mut scanned_run) = (0, 0);
        for _ in 0..400 {
            let dim = rng.gen_range(1..=8);
            let counts: Vec<usize> = (0..dim).map(|_| rng.gen_range(1..=9)).collect();
            let domain = dod_core::Rect::new(vec![0.0; dim], vec![1.0; dim]).unwrap();
            let grid = GridSpec::new(domain, counts.clone()).unwrap();
            let mut index = CellIndex {
                grid,
                buckets: HashMap::new(),
                occupied: Vec::new(),
                build_ops: 0,
            };
            let n_points = rng.gen_range(0..200);
            for i in 0..n_points {
                let cell: Vec<usize> = counts.iter().map(|&n| rng.gen_range(0..n)).collect();
                let center = index.grid.cell_rect(index.grid.linearize(&cell)).center();
                assert!(index.insert_core(i, &center));
            }
            assert_occupied_current(&index);
            let (mut lo, mut hi) = (vec![0; dim], vec![0; dim]);
            for i in 0..dim {
                let (a, b) = (rng.gen_range(0..counts[i]), rng.gen_range(0..counts[i]));
                (lo[i], hi[i]) = (a.min(b), a.max(b));
            }
            let expected: Vec<CellId> = index
                .occupied
                .iter()
                .copied()
                .filter(|&id| {
                    let idx = index.grid.delinearize(id);
                    (0..dim).all(|i| lo[i] <= idx[i] && idx[i] <= hi[i])
                })
                .collect();
            let block: usize = lo.iter().zip(&hi).map(|(l, h)| h - l + 1).product();
            let run = index
                .occupied
                .iter()
                .filter(|&&id| index.grid.linearize(&lo) <= id && id <= index.grid.linearize(&hi))
                .count();
            if block <= run {
                walked_block += 1;
            } else {
                scanned_run += 1;
            }
            let mut seen = Vec::new();
            let finished = index.visit_block(&lo, &hi, |id, bucket| {
                assert_eq!(index.buckets[&id].len(), bucket.len());
                seen.push(id);
                true
            });
            assert!(finished);
            assert_eq!(seen, expected);
            // Early stop after `stop` cells.
            let stop = rng.gen_range(1..=expected.len().max(1));
            let mut seen = Vec::new();
            let finished = index.visit_block(&lo, &hi, |id, _| {
                seen.push(id);
                seen.len() < stop
            });
            assert_eq!(finished, expected.len() < stop);
            assert_eq!(seen, expected[..stop.min(expected.len())]);
        }
        assert!(
            walked_block > 20 && scanned_run > 20,
            "{walked_block} / {scanned_run}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn equivalent_to_reference(
            seed in 0u64..1000,
            dim in 1usize..=8,
            metric in 0usize..3,
            n_core in 0usize..70,
            n_support in 0usize..25,
            r in 0.2f64..3.0,
            k in 1usize..6,
        ) {
            let p = random_partition_nd(seed, dim, n_core, n_support, 8.0);
            let prm = params(r, k).with_metric(METRICS[metric]);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(cb.outliers.clone(), rf.outliers.clone());
            let cbf = CellBased::default().full_scan_fallback().detect(&p, prm);
            prop_assert_eq!(cbf.outliers, rf.outliers);
        }

        #[test]
        fn equivalent_under_duplicates(
            seed in 0u64..500,
            n in 1usize..40,
            k in 1usize..5,
        ) {
            // Many duplicated coordinates stress cell hashing boundaries.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut core = PointSet::new(2).unwrap();
            for _ in 0..n {
                let x = rng.gen_range(0..4) as f64;
                let y = rng.gen_range(0..4) as f64;
                core.push(&[x, y]).unwrap();
            }
            let p = Partition::standalone(core);
            let prm = params(1.0, k);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(cb.outliers, rf.outliers);
        }

        #[test]
        fn equivalent_to_reference_after_mutations(
            seed in 0u64..1000,
            dim in 1usize..=8,
            metric in 0usize..3,
            n_core in 1usize..60,
            n_support in 0usize..20,
            r in 0.3f64..3.0,
            k in 1usize..6,
            ops in 1usize..60,
        ) {
            // Random removals and re-insertions splice the index in place
            // (the grid covers every point of the pool, so re-inserts stay
            // in its domain); detection and neighbor counts must still
            // match a brute-force pass over the surviving partition.
            let prm = params(r, k).with_metric(METRICS[metric]);
            let pred = prm.predicate();
            let mut part = random_partition_nd(seed, dim, n_core, n_support, 8.0);
            let mut index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            let (mut removed_core, mut removed_support) = (Vec::new(), Vec::new());
            let mut next_id = n_core as u64;
            for _ in 0..ops {
                match rng.gen_range(0..4) {
                    0 if part.core().len() > 1 => {
                        let victim = rng.gen_range(0..part.core().len());
                        removed_core.push(part.core().point(victim).to_vec());
                        remove_core_point(&mut part, &mut index, victim);
                    }
                    1 if !part.support().is_empty() => {
                        let victim = rng.gen_range(0..part.support().len());
                        removed_support.push(part.support().point(victim).to_vec());
                        remove_support_point(&mut part, &mut index, victim);
                    }
                    2 if !removed_core.is_empty() => {
                        let p = removed_core.swap_remove(rng.gen_range(0..removed_core.len()));
                        let ci = part.push_core(&p, next_id).unwrap();
                        next_id += 1;
                        prop_assert!(index.insert_core(ci as u32, &p));
                    }
                    3 if !removed_support.is_empty() => {
                        let p = removed_support.swap_remove(rng.gen_range(0..removed_support.len()));
                        let si = part.push_support(&p).unwrap();
                        prop_assert!(index.insert_support(si as u32, &p));
                    }
                    _ => {}
                }
            }
            assert_occupied_current(&index);
            let via_index = CellBased::default().detect_with_index(&part, prm, &index);
            prop_assert_eq!(via_index.outliers, Reference.detect(&part, prm).outliers);
            let mut queries = random_points(&mut rng, dim, 6, 8.0);
            queries.extend_from(part.core()).unwrap();
            for q in queries.iter() {
                let want = linear_count(&part, q, prm);
                prop_assert_eq!(index.count_core_neighbors(&part, q, &pred, usize::MAX), want);
                let cap = rng.gen_range(1..=k);
                prop_assert_eq!(index.count_core_neighbors(&part, q, &pred, cap), want.min(cap));
            }
        }
    }
}
