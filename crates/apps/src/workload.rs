//! Synthetic workload generation: time-varying arrival-rate patterns and a
//! Zipf-distributed URL catalog.
//!
//! These substitute for the production traces the paper's evaluation
//! consumed (see `DESIGN.md` §1): the properties that matter to the
//! prediction task are content skew (Zipf) and non-stationary rates
//! (diurnal + bursts + drift), all reproduced here deterministically from a
//! seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A deterministic arrival-rate curve `rate(t)` in tuples/second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RatePattern {
    /// Constant rate.
    Constant {
        /// Tuples per second.
        rate: f64,
    },
    /// Sinusoidal "diurnal" pattern: `base + amplitude·sin(2πt/period)`.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period in seconds.
        period_s: f64,
    },
    /// Constant base with periodic rectangular bursts.
    Bursty {
        /// Base rate.
        base: f64,
        /// Rate during a burst.
        burst_rate: f64,
        /// Burst spacing (start-to-start), seconds.
        every_s: f64,
        /// Burst duration, seconds.
        len_s: f64,
    },
    /// Piecewise-constant random walk: the rate takes a seeded random step
    /// every `step_every_s`, clamped to `[min, max]`.
    RandomWalk {
        /// Initial rate.
        base: f64,
        /// Maximum |step| per interval.
        step: f64,
        /// Lower clamp.
        min: f64,
        /// Upper clamp.
        max: f64,
        /// Step interval, seconds.
        step_every_s: f64,
        /// Seed for the walk.
        seed: u64,
    },
    /// Flat base with a single flash-crowd spike: the rate jumps to `peak`
    /// during `[at_s, at_s + len_s)` and returns to `base` afterwards.
    /// Unlike [`RatePattern::Bursty`] the spike fires exactly once, which is
    /// what the backpressure overload experiments need: a before/during/after
    /// comparison against one overload event.
    FlashCrowd {
        /// Rate outside the spike.
        base: f64,
        /// Rate during the spike.
        peak: f64,
        /// Spike start, seconds.
        at_s: f64,
        /// Spike duration, seconds.
        len_s: f64,
    },
    /// Sum of two patterns.
    Sum(Box<RatePattern>, Box<RatePattern>),
}

impl RatePattern {
    /// The instantaneous rate at time `t` seconds (never negative).
    pub fn rate_at(&self, t: f64) -> f64 {
        let r = match self {
            RatePattern::Constant { rate } => *rate,
            RatePattern::Diurnal {
                base,
                amplitude,
                period_s,
            } => base + amplitude * (2.0 * std::f64::consts::PI * t / period_s).sin(),
            RatePattern::Bursty {
                base,
                burst_rate,
                every_s,
                len_s,
            } => {
                let phase = t.rem_euclid(*every_s);
                if phase < *len_s {
                    *burst_rate
                } else {
                    *base
                }
            }
            RatePattern::RandomWalk {
                base,
                step,
                min,
                max,
                step_every_s,
                seed,
            } => {
                // Deterministic function of the interval index: replay the
                // walk up to interval k.  Memoization-free but O(k); the
                // spout wrapper below caches incremental state instead.
                let k = (t / step_every_s) as u64;
                let mut rate = *base;
                for i in 0..k {
                    let u = crate::workload::unit_hash(seed.wrapping_add(i));
                    rate = (rate + (u * 2.0 - 1.0) * step).clamp(*min, *max);
                }
                rate
            }
            RatePattern::FlashCrowd {
                base,
                peak,
                at_s,
                len_s,
            } => {
                if t >= *at_s && t < *at_s + *len_s {
                    *peak
                } else {
                    *base
                }
            }
            RatePattern::Sum(a, b) => a.rate_at(t) + b.rate_at(t),
        };
        r.max(0.0)
    }

    /// The paper-style default workload: diurnal base with bursts.
    pub fn paper_default(base: f64) -> Self {
        RatePattern::Sum(
            Box::new(RatePattern::Diurnal {
                base,
                amplitude: base * 0.4,
                period_s: 120.0,
            }),
            Box::new(RatePattern::Bursty {
                base: 0.0,
                burst_rate: base * 0.6,
                every_s: 47.0,
                len_s: 6.0,
            }),
        )
    }
}

/// Scrambles a u64 into a uniform `[0, 1)` float (SplitMix64 finalizer).
pub fn unit_hash(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Incremental rate integrator: tells a spout how many tuples are due.
///
/// Each poll, the spout advances the integrator to the current time; the
/// integral of `rate(t)` determines the cumulative tuple count, so the
/// emitted stream follows the pattern exactly regardless of poll cadence.
#[derive(Debug, Clone)]
pub struct RateDriver {
    pattern: RatePattern,
    last_t: f64,
    cumulative: f64,
    emitted: u64,
}

impl RateDriver {
    /// New driver starting at t = 0.
    pub fn new(pattern: RatePattern) -> Self {
        RateDriver {
            pattern,
            last_t: 0.0,
            cumulative: 0.0,
            emitted: 0,
        }
    }

    /// Advances to time `t` and returns how many tuples are now due
    /// (trapezoidal integration of the rate curve).
    pub fn due(&mut self, t: f64) -> u64 {
        if t > self.last_t {
            let dt = t - self.last_t;
            let r0 = self.pattern.rate_at(self.last_t);
            let r1 = self.pattern.rate_at(t);
            self.cumulative += 0.5 * (r0 + r1) * dt;
            self.last_t = t;
        }
        let due_total = self.cumulative as u64;
        due_total.saturating_sub(self.emitted)
    }

    /// Records that `n` tuples were emitted.
    pub fn emitted(&mut self, n: u64) {
        self.emitted += n;
    }

    /// Total tuples emitted so far.
    pub fn total_emitted(&self) -> u64 {
        self.emitted
    }
}

/// Zipf-distributed sampler over `n` items with exponent `s`
/// (`P(k) ∝ 1/(k+1)^s`), via inverse-CDF binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF for `n` items with skew `s` (s = 0 is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(s >= 0.0, "negative skew is not meaningful");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the catalog is empty (never: `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples an item index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A synthetic URL catalog with Zipf popularity.
#[derive(Debug, Clone)]
pub struct UrlCatalog {
    urls: Vec<String>,
    sampler: ZipfSampler,
    rng: StdRng,
}

impl UrlCatalog {
    /// `n` URLs over `n/20 + 1` synthetic domains, skew `s`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let domains = n / 20 + 1;
        let urls = (0..n)
            .map(|i| format!("http://site{}.example.com/page{}", i % domains, i))
            .collect();
        UrlCatalog {
            urls,
            sampler: ZipfSampler::new(n, s),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of URLs.
    pub fn len(&self) -> usize {
        self.urls.len()
    }

    /// True when empty (never by construction).
    pub fn is_empty(&self) -> bool {
        self.urls.is_empty()
    }

    /// Draws the next URL according to the popularity distribution.
    pub fn next_url(&mut self) -> &str {
        let idx = self.sampler.sample(&mut self.rng);
        &self.urls[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_integrates_exactly() {
        let mut d = RateDriver::new(RatePattern::Constant { rate: 100.0 });
        let due = d.due(2.0);
        assert_eq!(due, 200);
        d.emitted(due);
        assert_eq!(d.due(2.0), 0);
        assert_eq!(d.due(2.5), 50);
        assert_eq!(d.total_emitted(), 200);
    }

    #[test]
    fn diurnal_rate_oscillates_around_base() {
        let p = RatePattern::Diurnal {
            base: 100.0,
            amplitude: 50.0,
            period_s: 60.0,
        };
        assert!((p.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!((p.rate_at(15.0) - 150.0).abs() < 1e-9);
        assert!((p.rate_at(45.0) - 50.0).abs() < 1e-9);
        // One full period integrates to base*period.
        let mut d = RateDriver::new(p);
        let total = d.due(60.0);
        assert!((total as f64 - 6000.0).abs() < 60.0, "total {total}");
    }

    #[test]
    fn bursts_fire_on_schedule() {
        let p = RatePattern::Bursty {
            base: 10.0,
            burst_rate: 500.0,
            every_s: 30.0,
            len_s: 5.0,
        };
        assert_eq!(p.rate_at(2.0), 500.0);
        assert_eq!(p.rate_at(10.0), 10.0);
        assert_eq!(p.rate_at(32.0), 500.0);
        assert_eq!(p.rate_at(36.0), 10.0);
    }

    #[test]
    fn negative_rates_clamped_to_zero() {
        let p = RatePattern::Diurnal {
            base: 10.0,
            amplitude: 100.0,
            period_s: 40.0,
        };
        assert_eq!(p.rate_at(30.0), 0.0);
    }

    #[test]
    fn random_walk_is_deterministic_and_clamped() {
        let p = RatePattern::RandomWalk {
            base: 100.0,
            step: 30.0,
            min: 50.0,
            max: 150.0,
            step_every_s: 1.0,
            seed: 7,
        };
        for t in [0.0, 5.0, 50.0, 500.0] {
            let a = p.rate_at(t);
            let b = p.rate_at(t);
            assert_eq!(a, b);
            assert!((50.0..=150.0).contains(&a), "rate {a} at t={t}");
        }
        // The walk must actually move.
        assert_ne!(p.rate_at(0.0), p.rate_at(100.0));
    }

    #[test]
    fn flash_crowd_spikes_exactly_once() {
        let p = RatePattern::FlashCrowd {
            base: 100.0,
            peak: 4000.0,
            at_s: 2.0,
            len_s: 3.0,
        };
        assert_eq!(p.rate_at(0.0), 100.0);
        assert_eq!(p.rate_at(2.0), 4000.0);
        assert_eq!(p.rate_at(4.9), 4000.0);
        assert_eq!(p.rate_at(5.0), 100.0);
        // Unlike Bursty, no second spike one "period" later.
        assert_eq!(p.rate_at(7.0), 100.0);
        // Integral: 2 s base + 3 s peak + 1 s base = 200 + 12000 + 100.
        // Stepped finely, the way a spout polls — trapezoidal integration
        // only sees a discontinuous spike through sub-spike steps.
        let mut d = RateDriver::new(p);
        let mut total = 0u64;
        for k in 1..=600 {
            let n = d.due(k as f64 * 0.01);
            d.emitted(n);
            total += n;
        }
        assert!(
            (total as f64 - 12_300.0).abs() < 150.0,
            "flash-crowd total {total}"
        );
    }

    #[test]
    fn sum_pattern_adds() {
        let p = RatePattern::Sum(
            Box::new(RatePattern::Constant { rate: 10.0 }),
            Box::new(RatePattern::Constant { rate: 5.0 }),
        );
        assert_eq!(p.rate_at(3.0), 15.0);
    }

    #[test]
    fn zipf_skews_toward_head() {
        let z = ZipfSampler::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[99] * 5,
            "head {} vs rank-100 {}",
            counts[0],
            counts[99]
        );
        // All mass accounted for and every index valid.
        assert_eq!(counts.iter().sum::<usize>(), 100_000);
    }

    #[test]
    fn zipf_zero_skew_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 5000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn url_catalog_deterministic_per_seed() {
        let mut a = UrlCatalog::new(100, 1.0, 9);
        let mut b = UrlCatalog::new(100, 1.0, 9);
        let seq_a: Vec<String> = (0..20).map(|_| a.next_url().to_owned()).collect();
        let seq_b: Vec<String> = (0..20).map(|_| b.next_url().to_owned()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.len(), 100);
        let mut c = UrlCatalog::new(100, 1.0, 10);
        let seq_c: Vec<String> = (0..20).map(|_| c.next_url().to_owned()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn unit_hash_is_uniformish() {
        let mean: f64 = (0..10_000).map(unit_hash).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..1000).map(unit_hash).all(|v| (0.0..1.0).contains(&v)));
    }
}
