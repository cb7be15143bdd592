//! Distance-threshold outlier parameters (Definition 2.2).

use crate::error::CoreError;
use crate::metric::Metric;

/// Parameters of the distance-threshold outlier definition.
///
/// A point `p` is an outlier iff it has fewer than `k` neighbors within
/// distance `r` (Definition 2.2) under `metric`. Following the seminal
/// definition (Knorr & Ng) and the paper's framework, the point itself is
/// **not** counted as its own neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierParams {
    /// Distance threshold `r` (strictly positive).
    pub r: f64,
    /// Neighbor-count threshold `k` (at least 1).
    pub k: usize,
    /// Distance metric (Euclidean unless configured otherwise).
    pub metric: Metric,
}

impl OutlierParams {
    /// Creates a validated parameter pair under the Euclidean metric.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidParameter`] if `r` is not a finite
    /// positive number or `k` is zero.
    pub fn new(r: f64, k: usize) -> Result<Self, CoreError> {
        if !(r.is_finite() && r > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "r",
                reason: format!("must be a finite positive number, got {r}"),
            });
        }
        if k == 0 {
            return Err(CoreError::InvalidParameter {
                name: "k",
                reason: "must be at least 1".into(),
            });
        }
        Ok(OutlierParams {
            r,
            k,
            metric: Metric::Euclidean,
        })
    }

    /// Switches the distance metric.
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// The squared distance threshold, precomputed for hot loops.
    #[inline]
    pub fn r_sq(&self) -> f64 {
        self.r * self.r
    }

    /// The Definition 2.1 neighbor predicate under the configured metric.
    ///
    /// Convenient at API boundaries; hot loops should instead build a
    /// [`crate::kernel::NeighborPredicate`] once via
    /// [`OutlierParams::predicate`] so `r²` and the metric dispatch are
    /// not re-derived per pair.
    #[inline]
    pub fn neighbors(&self, a: &[f64], b: &[f64]) -> bool {
        self.metric.within(a, b, self.r)
    }

    /// Builds the once-per-call hot-loop form of the neighbor predicate
    /// (precomputed `r²`, metric dispatch resolved up front).
    #[inline]
    pub fn predicate(&self) -> crate::kernel::NeighborPredicate {
        crate::kernel::NeighborPredicate::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid() {
        let p = OutlierParams::new(5.0, 4).unwrap();
        assert_eq!(p.r, 5.0);
        assert_eq!(p.k, 4);
        assert_eq!(p.r_sq(), 25.0);
    }

    #[test]
    fn rejects_zero_r() {
        assert!(OutlierParams::new(0.0, 4).is_err());
    }

    #[test]
    fn rejects_negative_r() {
        assert!(OutlierParams::new(-1.0, 4).is_err());
    }

    #[test]
    fn rejects_nan_r() {
        assert!(OutlierParams::new(f64::NAN, 4).is_err());
    }

    #[test]
    fn rejects_infinite_r() {
        assert!(OutlierParams::new(f64::INFINITY, 4).is_err());
    }

    #[test]
    fn rejects_zero_k() {
        assert!(OutlierParams::new(1.0, 0).is_err());
    }
}
