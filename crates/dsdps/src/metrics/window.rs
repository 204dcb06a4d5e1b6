//! Streaming statistics primitives: Welford online moments and a
//! log-bucketed latency histogram with quantile queries.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for count/mean plus min/max.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one sample.
    pub fn update(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        self.mean += (other.mean - self.mean) * n2 / (n1 + n2);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = OnlineStats::new();
    }
}

/// Log-bucketed histogram for positive values (latencies in µs), supporting
/// approximate quantiles with bounded relative error.
///
/// Buckets grow geometrically by `2^(1/SUB)` with `SUB = 8` sub-buckets per
/// octave, giving ≤ ~9 % relative quantile error over `[1 µs, ~5·10^9 µs]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
}

const SUB: usize = 8;
const OCTAVES: usize = 40;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; SUB * OCTAVES],
            total: 0,
            underflow: 0,
        }
    }

    fn bucket_of(value: f64) -> Option<usize> {
        if value < 1.0 {
            return None;
        }
        let idx = (value.log2() * SUB as f64) as usize;
        Some(idx.min(SUB * OCTAVES - 1))
    }

    fn bucket_upper(idx: usize) -> f64 {
        2f64.powf((idx + 1) as f64 / SUB as f64)
    }

    /// Records one sample.  Values below 1.0 land in an underflow bucket
    /// reported as 1.0 by quantile queries.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        match Self::bucket_of(value) {
            Some(idx) => self.counts[idx] += 1,
            None => self.underflow += 1,
        }
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`).  `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(1.0);
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(idx));
            }
        }
        Some(Self::bucket_upper(SUB * OCTAVES - 1))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.underflow += other.underflow;
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.underflow = 0;
    }

    /// Histogram of samples recorded since `earlier` was captured, assuming
    /// `earlier` is a past snapshot of this histogram (counts monotone).
    pub fn diff(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let counts = self
            .counts
            .iter()
            .zip(&earlier.counts)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        LatencyHistogram {
            counts,
            total: self.total.saturating_sub(earlier.total),
            underflow: self.underflow.saturating_sub(earlier.underflow),
        }
    }

    /// Empirical CDF as `(value_upper_bound, cumulative_fraction)` points
    /// over non-empty buckets.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut cum = self.underflow;
        if self.underflow > 0 {
            out.push((1.0, cum as f64 / self.total as f64));
        }
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((Self::bucket_upper(idx), cum as f64 / self.total as f64));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for x in data {
            s.update(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.update(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &data[..37] {
            left.update(x);
        }
        for &x in &data[37..] {
            right.update(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.update(5.0);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 5.0);
    }

    #[test]
    fn histogram_quantiles_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        for (q, expected) in [(0.5, 5000.0), (0.9, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q).unwrap();
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.10, "q={q}: got {got}, expected ~{expected}");
        }
    }

    #[test]
    fn histogram_empty_and_underflow() {
        let mut h = LatencyHistogram::new();
        assert!(h.quantile(0.5).is_none());
        h.record(0.25);
        assert_eq!(h.quantile(0.5), Some(1.0));
        h.record(f64::NAN);
        assert_eq!(h.count(), 1, "NaN is dropped");
    }

    #[test]
    fn histogram_merge_and_reset() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..100 {
            a.record(10.0 + i as f64);
            b.record(1000.0 + i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let median = a.quantile(0.5).unwrap();
        assert!(median > 100.0 && median < 1200.0);
        a.reset();
        assert_eq!(a.count(), 0);
        assert!(a.quantile(0.9).is_none());
    }

    #[test]
    fn histogram_monotone_quantiles() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000 {
            h.record(((i * 7919) % 5000 + 1) as f64);
        }
        let mut last = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= last, "quantiles must be monotone");
            last = v;
        }
    }
}

#[cfg(test)]
mod diff_tests {
    use super::*;

    #[test]
    fn diff_isolates_window_samples() {
        let mut h = LatencyHistogram::new();
        for i in 0..100 {
            h.record(10.0 + i as f64);
        }
        let snapshot = h.clone();
        for _ in 0..50 {
            h.record(100_000.0);
        }
        let window = h.diff(&snapshot);
        assert_eq!(window.count(), 50);
        assert!(window.quantile(0.5).unwrap() > 50_000.0);
    }

    #[test]
    fn cdf_points_monotone_and_end_at_one() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        let mut last_frac = 0.0;
        let mut last_v = 0.0;
        for &(v, f) in &pts {
            assert!(v >= last_v && f >= last_frac, "CDF must be monotone");
            last_v = v;
            last_frac = f;
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!(LatencyHistogram::new().cdf_points().is_empty());
    }
}
