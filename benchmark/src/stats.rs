//! Order statistics and a log-bucketed latency histogram.

/// `q`-quantile of `values` with linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses and the acceptance rule is
/// written against.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Sub-buckets per octave: bucket width ≤ 1.1 % of the value.
const SUB: usize = 64;
/// Octaves covered: 1 ns .. 2^40 ns (~18 min).
const OCTAVES: usize = 40;

/// Log-bucketed histogram of nanosecond durations.  Quantiles interpolate
/// linearly inside a bucket, so a reported value carries the digits of the
/// sample counts behind it instead of snapping to a bucket edge.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    max_ns: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; SUB * OCTAVES],
            total: 0,
            max_ns: 0,
        }
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros() as usize;
        // The SUB bits below the leading one select the sub-bucket.
        let sub = if octave >= 6 {
            ((ns >> (octave - 6)) & (SUB as u64 - 1)) as usize
        } else {
            ((ns << (6 - octave)) & (SUB as u64 - 1)) as usize
        };
        (octave * SUB + sub).min(SUB * OCTAVES - 1)
    }

    fn lower_ns(idx: usize) -> f64 {
        let (octave, sub) = (idx / SUB, idx % SUB);
        (1u64 << octave) as f64 * (1.0 + sub as f64 / SUB as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// `q`-quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c as f64;
            if next >= rank {
                let lo = Self::lower_ns(idx);
                let hi = Self::lower_ns(idx + 1)
                    .min(self.max_ns.max(1) as f64)
                    .max(lo);
                return lo + (hi - lo) * ((rank - seen) / c as f64);
            }
            seen = next;
        }
        self.max_ns as f64
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }
}

/// `q`-quantile of a `dsdps` latency histogram (values in µs) from its
/// public CDF points, interpolated inside the bucket the rank falls in.
pub fn cdf_quantile(points: &[(f64, f64)], q: f64) -> f64 {
    let mut prev = (0.0, 0.0);
    for &(upper, cum) in points {
        if cum >= q {
            let span = cum - prev.1;
            let frac = if span > 0.0 { (q - prev.1) / span } else { 1.0 };
            // Buckets are geometric: the previous point's bound is this
            // bucket's lower edge only when it is the adjacent bucket, so
            // fall back to one bucket width (2^(1/8)) below the upper edge.
            let lower = (upper / 2f64.powf(0.125)).max(prev.0);
            return lower + (upper - lower) * frac;
        }
        prev = (upper, cum);
    }
    prev.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn loghist_quantiles_are_close() {
        let mut h = LogHist::default();
        for i in 1..=100_000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 / 50_000_000.0 - 1.0).abs() < 0.02, "{p50}");
        let p95 = h.quantile_ns(0.95);
        assert!((p95 / 95_000_000.0 - 1.0).abs() < 0.02, "{p95}");
    }
}
