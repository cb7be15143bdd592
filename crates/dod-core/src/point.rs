//! Points and distance functions.
//!
//! The paper (Definition 2.1) assumes a distance function `dist(pi, pj)`;
//! like the original evaluation we use the Euclidean metric. Hot loops work
//! on `&[f64]` coordinate slices (borrowed from a columnar
//! [`crate::PointSet`]) so no per-point allocation happens during detection.

/// An owned d-dimensional point.
///
/// `Point` is the convenient owned representation used at API boundaries
/// (generators, examples, results). Inner detection loops instead borrow
/// coordinate slices from a [`crate::PointSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Point { coords }
    }

    /// Dimensionality of the point.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Borrow the coordinates.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Consume the point, returning its coordinate vector.
    pub fn into_coords(self) -> Vec<f64> {
        self.coords
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<[f64; 2]> for Point {
    fn from(c: [f64; 2]) -> Self {
        Point::new(c.to_vec())
    }
}

impl std::ops::Index<usize> for Point {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

/// Squared Euclidean distance between two coordinate slices.
///
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used (both callers in this workspace always
/// pass equal-dimension slices).
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch in dist_sq");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Returns `true` iff `a` and `b` are neighbors under distance threshold
/// `r` (Definition 2.1: `dist(a, b) <= r`).
///
/// Implemented on squared distances to avoid the `sqrt` in the hottest loop
/// of every detector.
#[inline]
pub fn within(a: &[f64], b: &[f64], r: f64) -> bool {
    dist_sq(a, b) <= r * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.into_coords(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn point_from_array() {
        let p: Point = [3.0, 4.0].into();
        assert_eq!(p.dim(), 2);
    }

    #[test]
    fn euclidean_345() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let p = [1.5, -2.5, 0.0];
        assert_eq!(dist(&p, &p), 0.0);
    }

    #[test]
    fn within_is_inclusive() {
        // Definition 2.1 uses <=, so the boundary counts as a neighbor.
        assert!(within(&[0.0], &[5.0], 5.0));
        assert!(!within(&[0.0], &[5.0 + 1e-9], 5.0));
    }

    #[test]
    fn one_dimensional_distance() {
        assert_eq!(dist(&[-2.0], &[3.0]), 5.0);
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in proptest::collection::vec(-1e6f64..1e6, 1..6),
                                 b in proptest::collection::vec(-1e6f64..1e6, 1..6)) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(dist_sq(a, b), dist_sq(b, a));
        }

        #[test]
        fn distance_nonnegative(a in proptest::collection::vec(-1e6f64..1e6, 1..6),
                                b in proptest::collection::vec(-1e6f64..1e6, 1..6)) {
            let n = a.len().min(b.len());
            prop_assert!(dist_sq(&a[..n], &b[..n]) >= 0.0);
        }

        #[test]
        fn triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 2..4),
                               b in proptest::collection::vec(-1e3f64..1e3, 2..4),
                               c in proptest::collection::vec(-1e3f64..1e3, 2..4)) {
            let n = a.len().min(b.len()).min(c.len());
            let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
            prop_assert!(dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9);
        }
    }
}
