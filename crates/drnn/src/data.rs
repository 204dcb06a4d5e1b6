//! Dataset utilities: feature normalization, sliding-window construction
//! for sequence-to-one forecasting, chronological splits and mini-batching.

use crate::matrix::Matrix;

/// Per-feature z-score normalizer fitted on training data.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Fits mean/std per column of `rows` (each row = one observation).
    /// Zero-variance features get std 1 so they pass through centered.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit on empty data");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; dim];
        for r in rows {
            assert_eq!(r.len(), dim, "ragged observations");
            for (m, v) in mean.iter_mut().zip(r) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for r in rows {
            for ((s, v), m) in var.iter_mut().zip(r).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|s| {
                let sd = (s / n).sqrt();
                if sd < 1e-12 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        Normalizer { mean, std }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Normalizes one observation in place.
    pub fn transform_in_place(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim());
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = (*v - m) / s;
        }
    }

    /// Normalized copy of `rows`.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|r| {
                let mut r = r.clone();
                self.transform_in_place(&mut r);
                r
            })
            .collect()
    }
}

/// One training sample: an input window and its target vector.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `lookback` rows of features (oldest first).
    pub window: Vec<Vec<f64>>,
    /// Regression target(s).
    pub target: Vec<f64>,
}

/// Builds sequence-to-one samples from a feature series and a target series.
///
/// Sample `i` uses feature rows `[i, i + lookback)` to predict
/// `targets[i + lookback + horizon - 1]` — i.e. `horizon = 1` predicts the
/// value immediately after the window.
pub fn make_windows(
    features: &[Vec<f64>],
    targets: &[f64],
    lookback: usize,
    horizon: usize,
) -> Vec<Sample> {
    assert_eq!(
        features.len(),
        targets.len(),
        "feature/target length mismatch"
    );
    assert!(lookback >= 1 && horizon >= 1);
    if features.len() < lookback + horizon {
        return Vec::new();
    }
    (0..=features.len() - lookback - horizon)
        .map(|i| Sample {
            window: features[i..i + lookback].to_vec(),
            target: vec![targets[i + lookback + horizon - 1]],
        })
        .collect()
}

/// Chronological train/test split (no shuffling — this is time-series data).
pub fn split_train_test(samples: &[Sample], train_fraction: f64) -> (Vec<Sample>, Vec<Sample>) {
    assert!((0.0..=1.0).contains(&train_fraction));
    let cut = (samples.len() as f64 * train_fraction).round() as usize;
    (samples[..cut].to_vec(), samples[cut..].to_vec())
}

/// Packs a batch of samples into per-timestep matrices (`seq_len` matrices
/// of shape `batch × features`) plus a target matrix (`batch × out`).
pub fn batch_to_matrices(batch: &[&Sample]) -> (Vec<Matrix>, Matrix) {
    let mut xs = Vec::new();
    let mut y = Matrix::default();
    batch_to_matrices_into(batch, &mut xs, &mut y);
    (xs, y)
}

/// Like [`batch_to_matrices`] but packing into caller-owned buffers, so a
/// training loop stops re-allocating the batch matrices every step once
/// the buffers are warm.
pub fn batch_to_matrices_into(batch: &[&Sample], xs: &mut Vec<Matrix>, y: &mut Matrix) {
    assert!(!batch.is_empty());
    let seq_len = batch[0].window.len();
    let feat = batch[0].window[0].len();
    let out = batch[0].target.len();
    assert!(
        batch.iter().all(|s| s.window.len() == seq_len
            && s.window[0].len() == feat
            && s.target.len() == out),
        "inhomogeneous batch"
    );
    xs.resize_with(seq_len, Matrix::default);
    xs.truncate(seq_len);
    for (t, m) in xs.iter_mut().enumerate() {
        m.resize_uninit(batch.len(), feat);
        for (b, s) in batch.iter().enumerate() {
            m.row_mut(b).copy_from_slice(&s.window[t]);
        }
    }
    y.resize_uninit(batch.len(), out);
    for (b, s) in batch.iter().enumerate() {
        y.row_mut(b).copy_from_slice(&s.target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ]
    }

    #[test]
    fn normalizer_zero_mean_unit_variance() {
        let n = Normalizer::fit(&rows());
        let t = n.transform(&rows());
        for c in 0..2 {
            let mean: f64 = t.iter().map(|r| r[c]).sum::<f64>() / 4.0;
            let var: f64 = t.iter().map(|r| r[c] * r[c]).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalizer_constant_feature_is_safe() {
        let data = vec![vec![5.0], vec![5.0], vec![5.0]];
        let n = Normalizer::fit(&data);
        let t = n.transform(&data);
        assert!(t.iter().all(|r| r[0] == 0.0));
        assert!(t.iter().all(|r| r[0].is_finite()));
    }

    #[test]
    fn windows_align_target_with_horizon() {
        let features: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let s = make_windows(&features, &targets, 3, 1);
        assert_eq!(s.len(), 7);
        // First sample: window rows 0,1,2 → target at index 3.
        assert_eq!(s[0].window, vec![vec![0.0], vec![1.0], vec![2.0]]);
        assert_eq!(s[0].target, vec![300.0]);
        // Horizon 2 skips one step.
        let s2 = make_windows(&features, &targets, 3, 2);
        assert_eq!(s2.len(), 6);
        assert_eq!(s2[0].target, vec![400.0]);
    }

    #[test]
    fn windows_empty_when_series_too_short() {
        let features: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        let targets = vec![0.0; 3];
        assert!(make_windows(&features, &targets, 4, 1).is_empty());
        assert_eq!(make_windows(&features, &targets, 2, 1).len(), 1);
    }

    #[test]
    fn split_is_chronological() {
        let features: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let s = make_windows(&features, &targets, 2, 1);
        let (train, test) = split_train_test(&s, 0.7);
        assert_eq!(train.len() + test.len(), s.len());
        let max_train = train.iter().map(|s| s.target[0] as i64).max().unwrap();
        let min_test = test.iter().map(|s| s.target[0] as i64).min().unwrap();
        assert!(max_train < min_test, "test data must follow train data");
    }

    #[test]
    fn batch_packing_layout() {
        let samples = [
            Sample {
                window: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                target: vec![10.0],
            },
            Sample {
                window: vec![vec![5.0, 6.0], vec![7.0, 8.0]],
                target: vec![20.0],
            },
        ];
        let refs: Vec<&Sample> = samples.iter().collect();
        let (xs, y) = batch_to_matrices(&refs);
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].shape(), (2, 2));
        assert_eq!(xs[0].row(1), &[5.0, 6.0]); // sample 1's first step
        assert_eq!(xs[1].row(0), &[3.0, 4.0]); // sample 0's second step
        assert_eq!(y.get(1, 0), 20.0);
    }

    #[test]
    fn batch_packing_into_reused_buffers_matches_fresh() {
        let make = |n: usize, t: usize| -> Vec<Sample> {
            (0..n)
                .map(|i| Sample {
                    window: (0..t).map(|s| vec![(i * 10 + s) as f64]).collect(),
                    target: vec![i as f64],
                })
                .collect()
        };
        let mut xs = Vec::new();
        let mut y = Matrix::default();
        for (n, t) in [(3usize, 4usize), (5, 2), (1, 6)] {
            let samples = make(n, t);
            let refs: Vec<&Sample> = samples.iter().collect();
            batch_to_matrices_into(&refs, &mut xs, &mut y);
            let (fresh_xs, fresh_y) = batch_to_matrices(&refs);
            assert_eq!(xs, fresh_xs);
            assert_eq!(y, fresh_y);
        }
    }
}
