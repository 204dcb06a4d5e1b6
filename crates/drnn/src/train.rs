//! Mini-batch BPTT training on mean squared error, with validation and
//! early stopping.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::data::{batch_to_matrices_into, Sample};
use crate::loss::{mse, mse_gradient};
use crate::matrix::Matrix;
use crate::model::{Drnn, DrnnCache};
use crate::optim::{Optimizer, OptimizerKind};

/// Early-stopping policy: stop after `patience` epochs without at least
/// `min_delta` improvement of the monitored loss.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStopping {
    /// Epochs to wait for improvement.
    pub patience: usize,
    /// Minimum improvement that resets the counter.
    pub min_delta: f64,
}

/// Training hyper-parameters.  The learning rate is constant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer and its hyper-parameters.
    pub optimizer: OptimizerKind,
    /// Global-norm gradient clip (None disables; RNNs usually need ~1–5).
    pub clip_norm: Option<f64>,
    /// Shuffle training samples each epoch.
    pub shuffle: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Fraction of samples (taken chronologically from the tail) held out
    /// for validation; 0 disables validation.
    pub validation_fraction: f64,
    /// Early stopping on the validation loss (train loss when no
    /// validation split).
    pub early_stopping: Option<EarlyStopping>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 32,
            optimizer: OptimizerKind::adam(1e-3),
            clip_norm: Some(5.0),
            shuffle: true,
            seed: 42,
            validation_fraction: 0.1,
            early_stopping: Some(EarlyStopping {
                patience: 10,
                min_delta: 1e-5,
            }),
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch (empty when no validation split).
    pub val_loss: Vec<f64>,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Whether early stopping triggered.
    pub stopped_early: bool,
}

impl TrainReport {
    /// Final training loss.
    pub fn final_train_loss(&self) -> f64 {
        self.train_loss.last().copied().unwrap_or(f64::NAN)
    }
}

/// Evaluates the mean squared error of `model` on `samples` without
/// training.
///
/// Batches are spread across the worker pool in contiguous bands (one band
/// per thread); each band reuses one set of batch/forward buffers for all
/// of its chunks, so evaluation allocates O(threads) scratch rather than
/// O(batches).
pub fn evaluate(model: &Drnn, samples: &[Sample], batch_size: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let bs = batch_size.max(1);
    let n_chunks = samples.len().div_ceil(bs);
    let bands = rayon::current_num_threads().clamp(1, n_chunks);
    let band = n_chunks.div_ceil(bands);
    let mut partial = vec![0.0f64; bands];
    partial
        .par_chunks_mut(1)
        .enumerate()
        .for_each(|(ti, slot)| {
            let mut refs: Vec<&Sample> = Vec::new();
            let mut xs: Vec<Matrix> = Vec::new();
            let mut y = Matrix::default();
            let mut cache = DrnnCache::default();
            let mut pred = Matrix::default();
            for ci in ti * band..((ti + 1) * band).min(n_chunks) {
                let chunk = &samples[ci * bs..(ci * bs + bs).min(samples.len())];
                refs.clear();
                refs.extend(chunk.iter());
                batch_to_matrices_into(&refs, &mut xs, &mut y);
                model.predict_into(&xs, &mut cache, &mut pred);
                slot[0] += mse(&pred, &y) * chunk.len() as f64;
            }
        });
    partial.iter().sum::<f64>() / samples.len() as f64
}

/// Trains `model` on `samples` and returns the loss history.
pub fn train(model: &mut Drnn, samples: &[Sample], cfg: &TrainConfig) -> TrainReport {
    assert!(cfg.epochs > 0 && cfg.batch_size > 0);
    assert!((0.0..1.0).contains(&cfg.validation_fraction));
    if samples.is_empty() {
        return TrainReport::default();
    }

    // Chronological validation split from the tail.
    let n_val = (samples.len() as f64 * cfg.validation_fraction).round() as usize;
    let (train_set, val_set) = samples.split_at(samples.len() - n_val);
    assert!(
        !train_set.is_empty(),
        "validation fraction leaves no training data"
    );

    let mut optimizer = match cfg.clip_norm {
        Some(c) => Optimizer::new(cfg.optimizer).with_clip_norm(c),
        None => Optimizer::new(cfg.optimizer),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut indices: Vec<usize> = (0..train_set.len()).collect();

    let mut report = TrainReport::default();
    let mut best_monitor = f64::INFINITY;
    let mut since_best = 0usize;

    // Batch/forward/backward buffers reused across every batch and epoch.
    let mut refs: Vec<&Sample> = Vec::with_capacity(cfg.batch_size);
    let mut xs: Vec<Matrix> = Vec::new();
    let mut y = Matrix::default();
    let mut cache = DrnnCache::default();
    let mut pred = Matrix::default();
    for _ in 0..cfg.epochs {
        if cfg.shuffle {
            indices.shuffle(&mut rng);
        }
        let mut epoch_loss = 0.0;
        let mut seen = 0usize;
        for batch_idx in indices.chunks(cfg.batch_size) {
            refs.clear();
            refs.extend(batch_idx.iter().map(|&i| &train_set[i]));
            batch_to_matrices_into(&refs, &mut xs, &mut y);
            model.forward_train_into(&xs, &mut cache, &mut pred);
            let batch_loss = mse(&pred, &y);
            let dpred = mse_gradient(&pred, &y);
            model.zero_grads();
            model.backward(&xs, &cache, &dpred);
            optimizer.step(&mut |f| model.for_each_param(f));
            epoch_loss += batch_loss * refs.len() as f64;
            seen += refs.len();
        }
        let train_loss = epoch_loss / seen as f64;
        report.train_loss.push(train_loss);
        report.epochs_run += 1;

        let monitor = if val_set.is_empty() {
            train_loss
        } else {
            let vl = evaluate(model, val_set, cfg.batch_size);
            report.val_loss.push(vl);
            vl
        };

        if let Some(es) = cfg.early_stopping {
            if monitor < best_monitor - es.min_delta {
                best_monitor = monitor;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= es.patience {
                    report.stopped_early = true;
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::make_windows;
    use crate::model::DrnnConfig;

    /// Deterministic synthetic series: y_t = 0.6 sin(t/5) + 0.3 cos(t/11).
    fn sine_samples(n: usize, lookback: usize) -> Vec<Sample> {
        let series: Vec<f64> = (0..n)
            .map(|t| 0.6 * (t as f64 / 5.0).sin() + 0.3 * (t as f64 / 11.0).cos())
            .collect();
        let features: Vec<Vec<f64>> = series.iter().map(|&v| vec![v]).collect();
        make_windows(&features, &series, lookback, 1)
    }

    fn small_model() -> Drnn {
        Drnn::new(DrnnConfig {
            input: 1,
            hidden: vec![12],
            output: 1,
            seed: 3,
        })
    }

    #[test]
    fn training_reduces_loss_substantially() {
        let samples = sine_samples(300, 8);
        let mut model = small_model();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 32,
            validation_fraction: 0.0,
            early_stopping: None,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &cfg);
        assert_eq!(report.epochs_run, 30);
        let first = report.train_loss[0];
        let last = report.final_train_loss();
        assert!(
            last < first * 0.2,
            "loss should drop by >5x: {first} -> {last}"
        );
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        // Pure noise target: the model cannot improve validation loss for
        // long, so early stopping must fire well before the epoch cap.
        let features: Vec<Vec<f64>> = (0..200)
            .map(|t| vec![((t * 7919) % 101) as f64 / 101.0])
            .collect();
        let targets: Vec<f64> = (0..200)
            .map(|t| ((t * 104729) % 97) as f64 / 97.0)
            .collect();
        let samples = make_windows(&features, &targets, 4, 1);
        let mut model = small_model();
        let cfg = TrainConfig {
            epochs: 500,
            batch_size: 16,
            validation_fraction: 0.2,
            early_stopping: Some(EarlyStopping {
                patience: 5,
                min_delta: 1e-4,
            }),
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &cfg);
        assert!(report.stopped_early, "must stop early on noise");
        assert!(report.epochs_run < 500);
        assert_eq!(report.val_loss.len(), report.epochs_run);
    }

    #[test]
    fn validation_split_is_chronological_tail() {
        let samples = sine_samples(100, 4);
        let mut model = small_model();
        let cfg = TrainConfig {
            epochs: 2,
            validation_fraction: 0.25,
            early_stopping: None,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &cfg);
        assert_eq!(report.val_loss.len(), 2);
        assert!(report.val_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn training_is_reproducible_for_fixed_seeds() {
        let samples = sine_samples(150, 6);
        let run = || {
            let mut model = small_model();
            let cfg = TrainConfig {
                epochs: 5,
                validation_fraction: 0.0,
                early_stopping: None,
                ..TrainConfig::default()
            };
            train(&mut model, &samples, &cfg).final_train_loss()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn evaluate_on_empty_is_zero() {
        let model = small_model();
        assert_eq!(evaluate(&model, &[], 8), 0.0);
    }

    #[test]
    fn trained_model_forecasts_sine_out_of_sample() {
        let samples = sine_samples(400, 10);
        let (train_set, test_set) = crate::data::split_train_test(&samples, 0.75);
        let mut model = small_model();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            validation_fraction: 0.0,
            early_stopping: None,
            ..TrainConfig::default()
        };
        train(&mut model, &train_set, &cfg);
        let mse = evaluate(&model, &test_set, 32);
        // Series variance is ~0.22; a learned model should be far below.
        assert!(mse < 0.02, "out-of-sample MSE {mse} too high");
    }
}
