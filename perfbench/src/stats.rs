//! Sample summaries: median plus the highest percentile that still has
//! at least ten samples beyond it.

use std::time::Duration;

/// Percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// A collection of measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// Median, tail and count of a [`Samples`] set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// The percentile `tail` is taken at: the highest of 99/95/90/75/50
    /// with at least ten samples beyond it, or 100 (the maximum) when
    /// even the median has fewer.
    pub tail_pct: f64,
    /// The sample at `tail_pct` (nearest rank).
    pub tail: f64,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_secs(&mut self, d: Duration) {
        self.push(d.as_secs_f64());
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Summarizes the samples; `None` when there are none.
    pub fn summary(&self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        let mut v = self.values.clone();
        let median = median(&mut v);
        let n = v.len();
        let (tail_pct, tail) = TAIL_PERCENTILES
            .iter()
            .find_map(|&p| {
                let rank = nearest_rank(p, n);
                (n - rank >= TAIL_SAMPLES_BEYOND).then(|| (p, v[rank - 1]))
            })
            .unwrap_or((100.0, v[n - 1]));
        Some(Summary {
            n,
            median,
            tail_pct,
            tail,
        })
    }
}

/// Median of `v` (sorted in place); the mean of the middle two for an
/// even count.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in seconds summed over all CPUs, or `None` where
/// `/proc` is unavailable.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some(ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s = samples(1000).summary().unwrap();
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        let s = samples(100).summary().unwrap();
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
        let s = samples(15).summary().unwrap();
        assert_eq!(s.tail_pct, 100.0);
        assert_eq!(s.median, 8.0);
        assert!(Samples::new().summary().is_none());
    }
}
