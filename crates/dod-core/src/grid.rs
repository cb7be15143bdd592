//! Equi-width grid partitioning of a domain (Definition 3.1, Step 1 of the
//! DOD framework).
//!
//! A [`GridSpec`] divides a domain [`Rect`] into `n_1 × n_2 × ... × n_d`
//! equal-width cells. Every domain point belongs to exactly one cell
//! (points on the upper domain boundary are clamped into the last cell), so
//! the cells form a partition plan in the sense of Section III-C.

use crate::error::CoreError;
use crate::rect::Rect;

/// Identifier of a grid cell: the row-major linearization of its
/// per-dimension indices.
pub type CellId = usize;

/// An equi-width grid over a rectangular domain.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    domain: Rect,
    /// Number of cells along each dimension.
    cells_per_dim: Vec<usize>,
    /// Cell side length along each dimension.
    widths: Vec<f64>,
}

impl GridSpec {
    /// Creates a grid with `cells_per_dim[i]` cells along dimension `i`.
    ///
    /// # Errors
    /// Returns an error if the counts don't match the domain dimensionality,
    /// any count is zero, or their product overflows a [`CellId`]. A
    /// zero-extent dimension is allowed only with a single cell in that
    /// dimension.
    pub fn new(domain: Rect, cells_per_dim: Vec<usize>) -> Result<Self, CoreError> {
        if cells_per_dim.len() != domain.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: domain.dim(),
                actual: cells_per_dim.len(),
            });
        }
        for (i, &n) in cells_per_dim.iter().enumerate() {
            if n == 0 {
                return Err(CoreError::InvalidParameter {
                    name: "cells_per_dim",
                    reason: format!("dimension {i} has zero cells"),
                });
            }
            if domain.extent(i) == 0.0 && n != 1 {
                return Err(CoreError::InvalidParameter {
                    name: "cells_per_dim",
                    reason: format!("dimension {i} has zero extent but {n} cells"),
                });
            }
        }
        if cell_count(&cells_per_dim).is_none() {
            return Err(CoreError::InvalidParameter {
                name: "cells_per_dim",
                reason: format!("{cells_per_dim:?} cells overflow a cell id"),
            });
        }
        let widths = (0..domain.dim())
            .map(|i| domain.extent(i) / cells_per_dim[i] as f64)
            .collect();
        Ok(GridSpec {
            domain,
            cells_per_dim,
            widths,
        })
    }

    /// Creates a uniform grid with the same cell count in every dimension.
    ///
    /// # Errors
    /// See [`GridSpec::new`].
    pub fn uniform(domain: Rect, cells: usize) -> Result<Self, CoreError> {
        let d = domain.dim();
        GridSpec::new(domain, vec![cells; d])
    }

    /// Creates the Cell-Based algorithm's grid: cell side
    /// `metric.cell_side_for(r, d)` (the paper's `r/(2√d)` under `L2`) so
    /// that any two points in adjacent cells are within distance `r` of
    /// each other.
    ///
    /// Each dimension is capped at `max_cells_per_dim` cells (pass e.g.
    /// 4096). If the product of the counts would still overflow a
    /// [`CellId`], the dimension with the most cells is halved until it
    /// fits. Either way cells only grow wider than the ideal side; the
    /// Cell-Based detector reads the actual widths, so it stays exact.
    ///
    /// # Errors
    /// Returns an error if `r` is not positive.
    pub fn for_cell_based(
        domain: &Rect,
        r: f64,
        metric: crate::metric::Metric,
        max_cells_per_dim: usize,
    ) -> Result<Self, CoreError> {
        if !(r.is_finite() && r > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "r",
                reason: format!("must be a finite positive number, got {r}"),
            });
        }
        let d = domain.dim();
        let side = metric.cell_side_for(r, d);
        let mut counts: Vec<usize> = (0..d)
            .map(|i| {
                let extent = domain.extent(i);
                if extent == 0.0 {
                    1
                } else {
                    ((extent / side).ceil() as usize).clamp(1, max_cells_per_dim)
                }
            })
            .collect();
        while cell_count(&counts).is_none() {
            let most = (0..d)
                .max_by_key(|&i| counts[i])
                .expect("an overflow needs d > 0");
            counts[most] = counts[most].div_ceil(2);
        }
        GridSpec::new(domain.clone(), counts)
    }

    /// The domain covered by the grid.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.domain.dim()
    }

    /// Number of cells along dimension `i`.
    pub fn cells_in_dim(&self, i: usize) -> usize {
        self.cells_per_dim[i]
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells_per_dim.iter().product()
    }

    /// Cell side length along dimension `i`.
    pub fn width(&self, i: usize) -> f64 {
        self.widths[i]
    }

    /// Per-dimension index of the cell containing `x`, clamped into the
    /// grid so that upper-boundary points land in the last cell.
    pub fn coords_of(&self, x: &[f64]) -> Vec<usize> {
        debug_assert_eq!(x.len(), self.dim());
        (0..self.dim())
            .map(|i| {
                if self.widths[i] == 0.0 {
                    0
                } else {
                    let raw = ((x[i] - self.domain.min()[i]) / self.widths[i]).floor();
                    (raw.max(0.0) as usize).min(self.cells_per_dim[i] - 1)
                }
            })
            .collect()
    }

    /// Linear id of the cell containing `x` (row-major).
    pub fn cell_of(&self, x: &[f64]) -> CellId {
        self.linearize(&self.coords_of(x))
    }

    /// Row-major linearization of per-dimension cell indices.
    pub fn linearize(&self, idx: &[usize]) -> CellId {
        debug_assert_eq!(idx.len(), self.dim());
        let mut id = 0usize;
        for (i, &c) in idx.iter().enumerate() {
            debug_assert!(c < self.cells_per_dim[i]);
            id = id * self.cells_per_dim[i] + c;
        }
        id
    }

    /// Inverse of [`GridSpec::linearize`].
    pub fn delinearize(&self, mut id: CellId) -> Vec<usize> {
        let d = self.dim();
        let mut idx = vec![0usize; d];
        for i in (0..d).rev() {
            idx[i] = id % self.cells_per_dim[i];
            id /= self.cells_per_dim[i];
        }
        idx
    }

    /// The rectangle covered by cell `id`.
    pub fn cell_rect(&self, id: CellId) -> Rect {
        let idx = self.delinearize(id);
        let min: Vec<f64> = (0..self.dim())
            .map(|i| self.domain.min()[i] + idx[i] as f64 * self.widths[i])
            .collect();
        let max: Vec<f64> = (0..self.dim())
            .map(|i| {
                if idx[i] + 1 == self.cells_per_dim[i] {
                    // Use the exact domain bound to avoid FP drift on the
                    // last cell.
                    self.domain.max()[i]
                } else {
                    self.domain.min()[i] + (idx[i] + 1) as f64 * self.widths[i]
                }
            })
            .collect();
        Rect::new(min, max).expect("cell bounds are valid by construction")
    }

    /// Index range `lo..=hi` of the cells along dimension `i` that the
    /// closed interval `[min, max]` meets, or `None` when it misses the
    /// domain.
    pub fn dim_range(&self, i: usize, min: f64, max: f64) -> Option<(usize, usize)> {
        let origin = self.domain.min()[i];
        if max < origin || min > self.domain.max()[i] {
            return None;
        }
        let w = self.widths[i];
        if w == 0.0 {
            return Some((0, 0));
        }
        let last = self.cells_per_dim[i] - 1;
        let at = |x: f64| ((((x - origin) / w).floor()).max(0.0) as usize).min(last);
        Some((at(min), at(max)))
    }

    /// Per-dimension index ranges `lo[i]..=hi[i]` of the cells whose
    /// rectangle intersects `query` (closed test), or `None` when the box
    /// misses the domain.
    pub fn index_range(&self, query: &Rect) -> Option<(Vec<usize>, Vec<usize>)> {
        debug_assert_eq!(query.dim(), self.dim());
        (0..self.dim())
            .map(|i| self.dim_range(i, query.min()[i], query.max()[i]))
            .collect::<Option<Vec<_>>>()
            .map(|ranges| ranges.into_iter().unzip())
    }

    /// Ids of all cells whose rectangle intersects `query` (closed test).
    pub fn cells_intersecting(&self, query: &Rect) -> Vec<CellId> {
        let mut out = Vec::new();
        if let Some((lo, hi)) = self.index_range(query) {
            self.visit_box(&lo, &hi, |id| {
                out.push(id);
                true
            });
        }
        out
    }

    /// Ids of the cells within `radius_cells` grid steps of cell `id`
    /// (Chebyshev neighborhood), excluding `id` itself when
    /// `include_self == false`. Used by the Cell-Based detector's L1/L2
    /// neighborhoods.
    pub fn neighborhood(&self, id: CellId, radius_cells: usize, include_self: bool) -> Vec<CellId> {
        let d = self.dim();
        let mut buf = vec![0; 2 * d];
        let (lo, hi) = self.block_range(id, &vec![radius_cells; d], &mut buf);
        let mut out = Vec::new();
        self.visit_box(lo, hi, |cid| {
            if include_self || cid != id {
                out.push(cid);
            }
            true
        });
        out
    }

    /// Per-dimension index range of the cells within `radii[i]` grid
    /// steps of cell `id` (clamped to the grid), written into `buf`
    /// (length `2·d`) and returned as `(lo, hi)`.
    pub fn block_range<'a>(
        &self,
        mut id: CellId,
        radii: &[usize],
        buf: &'a mut [usize],
    ) -> (&'a [usize], &'a [usize]) {
        let (lo, hi) = buf.split_at_mut(self.dim());
        for i in (0..self.dim()).rev() {
            let n = self.cells_per_dim[i];
            let c = id % n;
            id /= n;
            lo[i] = c.saturating_sub(radii[i]);
            hi[i] = (c + radii[i]).min(n - 1);
        }
        (lo, hi)
    }

    /// Calls `f` on the id of every cell whose per-dimension index lies
    /// in `lo[i]..=hi[i]`, in ascending id order, until `f` returns
    /// `false`. Returns whether the walk ran to the end. Nothing is
    /// allocated, so the caller may stop after the first few cells of a
    /// large box at the cost of those cells alone.
    pub fn visit_box(&self, lo: &[usize], hi: &[usize], mut f: impl FnMut(CellId) -> bool) -> bool {
        debug_assert!(lo.len() == self.dim() && hi.len() == self.dim());
        self.walk_box(lo, hi, 0, 0, &mut f)
    }

    /// One level of [`GridSpec::visit_box`]: `prefix` is the row-major id
    /// of the indices fixed in dimensions `0..i`.
    fn walk_box<F: FnMut(CellId) -> bool>(
        &self,
        lo: &[usize],
        hi: &[usize],
        i: usize,
        prefix: CellId,
        f: &mut F,
    ) -> bool {
        let base = prefix * self.cells_per_dim[i];
        if i + 1 == lo.len() {
            (base + lo[i]..=base + hi[i]).all(f)
        } else {
            (lo[i]..=hi[i]).all(|c| self.walk_box(lo, hi, i + 1, base + c, f))
        }
    }

    /// Whether cell `id` lies in the box of per-dimension indices
    /// `lo[i]..=hi[i]`.
    pub fn box_contains(&self, lo: &[usize], hi: &[usize], mut id: CellId) -> bool {
        for i in (0..self.dim()).rev() {
            let n = self.cells_per_dim[i];
            let c = id % n;
            if c < lo[i] || c > hi[i] {
                return false;
            }
            id /= n;
        }
        true
    }
}

/// Number of cells of a grid with these per-dimension counts, or `None`
/// when it overflows a [`CellId`].
fn cell_count(cells_per_dim: &[usize]) -> Option<usize> {
    cells_per_dim
        .iter()
        .try_fold(1usize, |acc, &n| acc.checked_mul(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_grid(nx: usize, ny: usize) -> GridSpec {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        GridSpec::new(domain, vec![nx, ny]).unwrap()
    }

    #[test]
    fn rejects_zero_cells() {
        let domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(GridSpec::new(domain, vec![0]).is_err());
    }

    #[test]
    fn rejects_mismatched_counts() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(GridSpec::new(domain, vec![2]).is_err());
    }

    #[test]
    fn zero_extent_needs_one_cell() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        assert!(GridSpec::new(domain.clone(), vec![2, 2]).is_err());
        assert!(GridSpec::new(domain, vec![2, 1]).is_ok());
    }

    #[test]
    fn num_cells_product() {
        assert_eq!(unit_grid(4, 3).num_cells(), 12);
    }

    #[test]
    fn linearize_round_trip() {
        let g = unit_grid(4, 3);
        for id in 0..g.num_cells() {
            assert_eq!(g.linearize(&g.delinearize(id)), id);
        }
    }

    #[test]
    fn cell_of_interior_point() {
        let g = unit_grid(2, 2);
        assert_eq!(g.coords_of(&[0.25, 0.25]), vec![0, 0]);
        assert_eq!(g.coords_of(&[0.75, 0.25]), vec![1, 0]);
        assert_eq!(g.coords_of(&[0.25, 0.75]), vec![0, 1]);
        assert_eq!(g.coords_of(&[0.75, 0.75]), vec![1, 1]);
    }

    #[test]
    fn upper_boundary_clamps_to_last_cell() {
        let g = unit_grid(2, 2);
        assert_eq!(g.coords_of(&[1.0, 1.0]), vec![1, 1]);
    }

    #[test]
    fn cell_rect_tiles_domain() {
        let g = unit_grid(4, 2);
        let total: f64 = (0..g.num_cells()).map(|id| g.cell_rect(id).volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Last cell's max hits the domain max exactly.
        let last = g.cell_rect(g.num_cells() - 1);
        assert_eq!(last.max(), g.domain().max());
    }

    #[test]
    fn cells_intersecting_small_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]).unwrap();
        assert_eq!(g.cells_intersecting(&q), vec![g.cell_of(&[0.15, 0.15])]);
    }

    #[test]
    fn cells_intersecting_spanning_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![0.1, 0.1], vec![0.6, 0.1]).unwrap();
        // x spans cells 0..=2, y stays in row 0.
        let ids = g.cells_intersecting(&q);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn cells_intersecting_disjoint_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert!(g.cells_intersecting(&q).is_empty());
    }

    #[test]
    fn cells_intersecting_whole_domain() {
        let g = unit_grid(3, 3);
        let ids = g.cells_intersecting(g.domain());
        assert_eq!(ids.len(), 9);
    }

    #[test]
    fn neighborhood_center_cell() {
        let g = unit_grid(5, 5);
        let center = g.linearize(&[2, 2]);
        let n1 = g.neighborhood(center, 1, false);
        assert_eq!(n1.len(), 8);
        let n1_with_self = g.neighborhood(center, 1, true);
        assert_eq!(n1_with_self.len(), 9);
        let n2 = g.neighborhood(center, 2, true);
        assert_eq!(n2.len(), 25);
    }

    #[test]
    fn neighborhood_corner_cell_truncated() {
        let g = unit_grid(5, 5);
        let corner = g.linearize(&[0, 0]);
        assert_eq!(g.neighborhood(corner, 1, true).len(), 4);
        assert_eq!(g.neighborhood(corner, 2, true).len(), 9);
    }

    #[test]
    fn for_cell_based_side_length() {
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let g = GridSpec::for_cell_based(&domain, 10.0, crate::metric::Metric::Euclidean, 4096)
            .unwrap();
        // side = r / (2 sqrt(2)) ≈ 3.5355 -> ceil(100 / 3.5355) = 29 cells
        assert_eq!(g.cells_in_dim(0), 29);
        // Any two points in one cell are within r.
        let diag: f64 = (0..2).map(|i| g.width(i).powi(2)).sum::<f64>().sqrt();
        assert!(diag <= 10.0 / 2.0 + 1e-9);
    }

    #[test]
    fn for_cell_based_rejects_bad_r() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(
            GridSpec::for_cell_based(&domain, 0.0, crate::metric::Metric::Euclidean, 4096).is_err()
        );
        assert!(
            GridSpec::for_cell_based(&domain, -1.0, crate::metric::Metric::Euclidean, 4096)
                .is_err()
        );
    }

    #[test]
    fn for_cell_based_respects_cap() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1e9, 1e9]).unwrap();
        let g =
            GridSpec::for_cell_based(&domain, 1.0, crate::metric::Metric::Euclidean, 64).unwrap();
        assert_eq!(g.cells_in_dim(0), 64);
    }

    #[test]
    fn rejects_overflowing_cell_count() {
        let domain = Rect::new(vec![0.0; 8], vec![1.0; 8]).unwrap();
        let err = GridSpec::new(domain.clone(), vec![1 << 10; 8]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidParameter {
                name: "cells_per_dim",
                ..
            }
        ));
        assert!(GridSpec::new(domain, vec![1 << 7; 8]).is_ok());
    }

    #[test]
    fn for_cell_based_coarsens_until_ids_fit() {
        // Chebyshev side r/2 = 1 over an extent of 512 asks for 512 cells
        // per dimension, 2^72 in 8-d: the widest dimensions are halved
        // until the product fits, and the last cell keeps the last id.
        let domain = Rect::new(vec![0.0; 8], vec![512.0; 8]).unwrap();
        let g =
            GridSpec::for_cell_based(&domain, 2.0, crate::metric::Metric::Chebyshev, 1024).unwrap();
        let counts: Vec<usize> = (0..8).map(|i| g.cells_in_dim(i)).collect();
        assert!(cell_count(&counts).is_some());
        assert!(counts.iter().all(|&n| n == 128 || n == 256), "{counts:?}");
        let last: Vec<usize> = counts.iter().map(|&n| n - 1).collect();
        assert_eq!(g.linearize(&last), g.num_cells() - 1);
        assert_eq!(g.cell_of(&[512.0; 8]), g.num_cells() - 1);
    }

    #[test]
    fn index_range_clamps_and_rejects_disjoint() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![-1.0, 0.3], vec![0.3, 5.0]).unwrap();
        assert_eq!(g.index_range(&q), Some((vec![0, 1], vec![1, 3])));
        let far = Rect::new(vec![0.2, 1.5], vec![0.4, 2.0]).unwrap();
        assert_eq!(g.index_range(&far), None);
    }

    #[test]
    fn three_dimensional_grid() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let g = GridSpec::new(domain, vec![2, 3, 4]).unwrap();
        assert_eq!(g.num_cells(), 24);
        for id in 0..24 {
            assert_eq!(g.linearize(&g.delinearize(id)), id);
            let rect = g.cell_rect(id);
            let c = rect.center();
            assert_eq!(g.cell_of(&c), id);
        }
    }

    proptest! {
        #[test]
        fn every_domain_point_has_exactly_one_cell(
            x in 0.0f64..=1.0, y in 0.0f64..=1.0,
            nx in 1usize..8, ny in 1usize..8,
        ) {
            let g = unit_grid(nx, ny);
            let id = g.cell_of(&[x, y]);
            prop_assert!(id < g.num_cells());
            // The owning cell's rect contains the point under closed
            // semantics (half-open interior, closed at domain max).
            let rect = g.cell_rect(id);
            prop_assert!(rect.contains_closed(&[x, y]));
        }

        #[test]
        fn visit_box_yields_the_box_in_ascending_order(
            nx in 1usize..6, ny in 1usize..6, nz in 1usize..6,
            a in proptest::collection::vec(0usize..6, 3),
            b in proptest::collection::vec(0usize..6, 3),
            stop in 1usize..40,
        ) {
            let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
            let g = GridSpec::new(domain, vec![nx, ny, nz]).unwrap();
            let n = [nx, ny, nz];
            let lo: Vec<usize> = (0..3).map(|i| a[i].min(b[i]).min(n[i] - 1)).collect();
            let hi: Vec<usize> = (0..3).map(|i| a[i].max(b[i]).min(n[i] - 1)).collect();
            let expected: Vec<CellId> = (0..g.num_cells())
                .filter(|&id| {
                    let idx = g.delinearize(id);
                    (0..3).all(|i| lo[i] <= idx[i] && idx[i] <= hi[i])
                })
                .collect();
            for id in 0..g.num_cells() {
                prop_assert_eq!(g.box_contains(&lo, &hi, id), expected.contains(&id));
            }
            let mut seen = Vec::new();
            let finished = g.visit_box(&lo, &hi, |id| {
                seen.push(id);
                seen.len() < stop
            });
            prop_assert_eq!(finished, expected.len() < stop);
            prop_assert_eq!(&seen[..], &expected[..stop.min(expected.len())]);
        }

        #[test]
        fn cells_intersecting_is_sound_and_complete(
            qx0 in -0.5f64..1.0, qy0 in -0.5f64..1.0,
            w in 0.0f64..0.8, h in 0.0f64..0.8,
            nx in 1usize..6, ny in 1usize..6,
        ) {
            let g = unit_grid(nx, ny);
            let q = Rect::new(vec![qx0, qy0], vec![qx0 + w, qy0 + h]).unwrap();
            let got: std::collections::BTreeSet<_> =
                g.cells_intersecting(&q).into_iter().collect();
            for id in 0..g.num_cells() {
                let expected = g.cell_rect(id).intersects(&q);
                prop_assert_eq!(got.contains(&id), expected,
                    "cell {} mismatch", id);
            }
        }
    }
}
