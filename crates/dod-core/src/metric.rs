//! Distance metrics.
//!
//! Definition 2.1 assumes an arbitrary distance function `dist(pi, pj)`;
//! the paper's evaluation (and this crate's default) is Euclidean. The
//! geometric machinery every detector relies on — point-to-rectangle
//! distances for supporting areas, grid cell sizing for the Cell-Based
//! pruning rules, ball volumes for the cost models — is metric-dependent,
//! so each metric carries those operations with it.

/// The supported distance metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// `L2` — the paper's metric.
    #[default]
    Euclidean,
    /// `L1` (taxicab).
    Manhattan,
    /// `L∞` (maximum per-dimension difference).
    Chebyshev,
}

impl Metric {
    /// Distance between two coordinate slices.
    #[inline]
    pub fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Euclidean => crate::point::dist(a, b),
            Metric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            Metric::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max),
        }
    }

    /// Whether `dist(a, b) <= r` — the Definition 2.1 neighbor predicate
    /// (avoids the square root for the Euclidean case).
    #[inline]
    pub fn within(&self, a: &[f64], b: &[f64], r: f64) -> bool {
        match self {
            Metric::Euclidean => crate::point::dist_sq(a, b) <= r * r,
            _ => self.dist(a, b) <= r,
        }
    }

    /// Distance from `x` to the closest point of the axis-aligned box
    /// `[min, max]`. For all three metrics a point lying inside the box
    /// (or on its boundary) has distance exactly `0`: every per-dimension
    /// gap is zero, and sums, sums of squares, and maxima of zeros are
    /// all zero. The exact predicate behind supporting-area routing under
    /// this metric.
    ///
    /// A `NaN` coordinate (in `x` or in the bounds) yields `NaN` rather
    /// than being silently treated as inside-box: both range comparisons
    /// are false for `NaN`, which previously produced a `0.0` gap — and
    /// `f64::max` would then swallow the poison for `L∞`. Callers gate
    /// with `> r`, which is false for `NaN`, so a poisoned distance
    /// degrades to "don't prune" — never to a wrong prune.
    pub fn min_dist_to_rect(&self, min: &[f64], max: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(min.len(), x.len());
        debug_assert_eq!(min.len(), max.len());
        let gaps = (0..x.len()).map(|i| {
            if x[i] < min[i] {
                min[i] - x[i]
            } else if x[i] > max[i] {
                x[i] - max[i]
            } else if x[i].is_nan() || min[i].is_nan() || max[i].is_nan() {
                f64::NAN
            } else {
                0.0
            }
        });
        match self {
            Metric::Euclidean => gaps.map(|g| g * g).sum::<f64>().sqrt(),
            Metric::Manhattan => gaps.sum(),
            Metric::Chebyshev => gaps.fold(0.0, |a, b| {
                if a.is_nan() || b.is_nan() {
                    f64::NAN
                } else {
                    a.max(b)
                }
            }),
        }
    }

    /// Grid cell side such that any two points within a 2-cell-wide
    /// per-dimension block are within `r` — the Cell-Based inlier-rule
    /// guarantee (the paper's `r/(2√d)` for `L2`).
    ///
    /// Per-dimension separation inside the block is at most `2s`, so the
    /// block diameter is `2s·d^(1/p)` for `Lp` and `2s` for `L∞`.
    pub fn cell_side_for(&self, r: f64, dim: usize) -> f64 {
        let d = dim as f64;
        match self {
            Metric::Euclidean => r / (2.0 * d.sqrt()),
            Metric::Manhattan => r / (2.0 * d),
            Metric::Chebyshev => r / 2.0,
        }
    }

    /// Volume of the `r`-ball in `dim` dimensions — the `A(p)` of
    /// Lemma 4.1.
    pub fn ball_volume(&self, dim: usize, r: f64) -> f64 {
        let d = dim as i32;
        match self {
            Metric::Euclidean => {
                // π^{d/2} r^d / Γ(d/2 + 1), computed via the cross-ball
                // recurrences below for exactness at integer dimensions.
                euclidean_ball_volume(dim, r)
            }
            // L1 ball (cross-polytope): 2^d r^d / d!.
            Metric::Manhattan => {
                let mut v = 1.0;
                for i in 1..=dim {
                    v *= 2.0 * r / i as f64;
                }
                v
            }
            Metric::Chebyshev => (2.0 * r).powi(d),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Euclidean => "euclidean",
            Metric::Manhattan => "manhattan",
            Metric::Chebyshev => "chebyshev",
        }
    }
}

fn euclidean_ball_volume(dim: usize, r: f64) -> f64 {
    // V_d = V_{d-2} · 2πr²/d, with V_0 = 1, V_1 = 2r.
    match dim {
        0 => 1.0,
        1 => 2.0 * r,
        _ => euclidean_ball_volume(dim - 2, r) * 2.0 * std::f64::consts::PI * r * r / dim as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    #[test]
    fn distances_on_a_345_triangle() {
        let (a, b) = ([0.0, 0.0], [3.0, 4.0]);
        assert_eq!(Metric::Euclidean.dist(&a, &b), 5.0);
        assert_eq!(Metric::Manhattan.dist(&a, &b), 7.0);
        assert_eq!(Metric::Chebyshev.dist(&a, &b), 4.0);
    }

    #[test]
    fn within_matches_dist() {
        let (a, b) = ([0.0, 0.0], [3.0, 4.0]);
        for m in METRICS {
            let d = m.dist(&a, &b);
            assert!(m.within(&a, &b, d));
            assert!(!m.within(&a, &b, d - 1e-9));
        }
    }

    #[test]
    fn min_dist_to_rect_cases() {
        let (lo, hi) = ([0.0, 0.0], [1.0, 1.0]);
        // Inside -> 0 for all metrics.
        for m in METRICS {
            assert_eq!(m.min_dist_to_rect(&lo, &hi, &[0.5, 0.5]), 0.0);
        }
        // Corner-diagonal point (2, 2): gaps (1, 1).
        assert!(
            (Metric::Euclidean.min_dist_to_rect(&lo, &hi, &[2.0, 2.0]) - 2f64.sqrt()).abs() < 1e-12
        );
        assert_eq!(
            Metric::Manhattan.min_dist_to_rect(&lo, &hi, &[2.0, 2.0]),
            2.0
        );
        assert_eq!(
            Metric::Chebyshev.min_dist_to_rect(&lo, &hi, &[2.0, 2.0]),
            1.0
        );
    }

    /// Release-mode guarantee for the documented inside-box contract:
    /// interior points, boundary points, and corner points are at
    /// distance exactly `0.0` — not merely small — for all metrics.
    #[test]
    fn inside_box_distance_is_exactly_zero() {
        let (lo, hi) = ([-1.0, 0.0, 2.5], [1.0, 3.0, 2.5]);
        let inside = [
            [0.0, 1.5, 2.5],  // interior (degenerate dim on its plane)
            [-1.0, 0.0, 2.5], // min corner
            [1.0, 3.0, 2.5],  // max corner
            [1.0, 1.5, 2.5],  // face
        ];
        for m in METRICS {
            for x in &inside {
                let d = m.min_dist_to_rect(&lo, &hi, x);
                assert_eq!(d, 0.0, "{m:?} {x:?}");
                assert_eq!(d.to_bits(), 0.0f64.to_bits(), "{m:?} {x:?} (exact zero)");
            }
        }
    }

    /// `NaN` coordinates must poison the distance instead of counting as
    /// inside-box — for the query point and for either bound, in any
    /// position (first, middle, last dimension).
    #[test]
    fn nan_coordinates_are_rejected() {
        let (lo, hi) = ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]);
        for m in METRICS {
            for i in 0..3 {
                let mut x = [0.5, 0.5, 0.5];
                x[i] = f64::NAN;
                assert!(m.min_dist_to_rect(&lo, &hi, &x).is_nan(), "{m:?} x[{i}]");
                // A NaN bound poisons too, even for an otherwise-inside x.
                let mut blo = lo;
                blo[i] = f64::NAN;
                assert!(
                    m.min_dist_to_rect(&blo, &hi, &[0.5, 0.5, 0.5]).is_nan(),
                    "{m:?} min[{i}]"
                );
                let mut bhi = hi;
                bhi[i] = f64::NAN;
                assert!(
                    m.min_dist_to_rect(&lo, &bhi, &[0.5, 0.5, 0.5]).is_nan(),
                    "{m:?} max[{i}]"
                );
            }
            // NaN never gates pruning on: callers test `> r`, which is
            // false for a NaN distance.
            let d = m.min_dist_to_rect(&lo, &hi, &[f64::NAN, 0.5, 0.5]);
            assert_eq!(d.partial_cmp(&1.0), None);
        }
    }

    #[test]
    fn cell_side_guarantee() {
        // Two points in a 2-cell-wide block are within r.
        for m in METRICS {
            for dim in 1..=4usize {
                let r = 3.0;
                let s = m.cell_side_for(r, dim);
                // Worst case: separation 2s in every dimension.
                let a = vec![0.0; dim];
                let b = vec![2.0 * s; dim];
                assert!(
                    m.dist(&a, &b) <= r + 1e-9,
                    "{:?} dim {dim}: {} > {r}",
                    m,
                    m.dist(&a, &b)
                );
            }
        }
    }

    #[test]
    fn ball_volumes() {
        // 2-d: π r², 2r² (diamond), 4r² (square).
        let r = 2.0;
        assert!((Metric::Euclidean.ball_volume(2, r) - std::f64::consts::PI * 4.0).abs() < 1e-9);
        assert_eq!(Metric::Manhattan.ball_volume(2, r), 8.0);
        assert_eq!(Metric::Chebyshev.ball_volume(2, r), 16.0);
        // 3-d Euclidean: 4/3 π r³.
        assert!(
            (Metric::Euclidean.ball_volume(3, 1.0) - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-9
        );
        // 1-d: all metrics give 2r.
        for m in METRICS {
            assert_eq!(m.ball_volume(1, r), 4.0);
        }
    }

    #[test]
    fn ball_volume_ordering() {
        // L1 ball ⊆ L2 ball ⊆ L∞ ball.
        for dim in 1..=5 {
            let l1 = Metric::Manhattan.ball_volume(dim, 1.0);
            let l2 = Metric::Euclidean.ball_volume(dim, 1.0);
            let li = Metric::Chebyshev.ball_volume(dim, 1.0);
            assert!(l1 <= l2 + 1e-12 && l2 <= li + 1e-12, "dim {dim}");
        }
    }

    #[test]
    fn default_is_euclidean() {
        assert_eq!(Metric::default(), Metric::Euclidean);
        assert_eq!(Metric::default().name(), "euclidean");
    }

    proptest! {
        #[test]
        fn metric_ordering_pointwise(
            a in proptest::collection::vec(-100.0f64..100.0, 2..5),
            b in proptest::collection::vec(-100.0f64..100.0, 2..5),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            // L∞ <= L2 <= L1 for any pair.
            let l1 = Metric::Manhattan.dist(a, b);
            let l2 = Metric::Euclidean.dist(a, b);
            let li = Metric::Chebyshev.dist(a, b);
            prop_assert!(li <= l2 + 1e-9);
            prop_assert!(l2 <= l1 + 1e-9);
        }

        #[test]
        fn min_dist_lower_bounds_point_dists(
            x in proptest::collection::vec(-5.0f64..5.0, 2),
            y in proptest::collection::vec(0.0f64..1.0, 2),
        ) {
            // min_dist(rect, x) <= dist(x, y) for any y in the rect.
            let (lo, hi) = ([0.0, 0.0], [1.0, 1.0]);
            for m in METRICS {
                prop_assert!(
                    m.min_dist_to_rect(&lo, &hi, &x) <= m.dist(&x, &y) + 1e-9
                );
            }
        }

        #[test]
        fn triangle_inequality_all_metrics(
            a in proptest::collection::vec(-50.0f64..50.0, 3),
            b in proptest::collection::vec(-50.0f64..50.0, 3),
            c in proptest::collection::vec(-50.0f64..50.0, 3),
        ) {
            for m in METRICS {
                prop_assert!(m.dist(&a, &c) <= m.dist(&a, &b) + m.dist(&b, &c) + 1e-9);
            }
        }
    }
}
