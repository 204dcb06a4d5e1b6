//! The DRNN model: a stack of recurrent layers with a dense regression head,
//! matching the paper's performance-prediction architecture (stacked LSTM →
//! linear output).
//!
//! Inference and training share one buffer-reusing code path
//! ([`Drnn::forward_train_into`]); the layer-sequence outputs live in the
//! [`DrnnCache`] so BPTT never re-clones inputs, and backward's gradient
//! sequence buffers ping-pong inside the model's own scratch.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{DenseLayer, LstmCache, LstmLayer};
use crate::matrix::Matrix;

/// Architecture and initialization parameters of a [`Drnn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrnnConfig {
    /// Feature width of each input step.
    pub input: usize,
    /// Hidden width of each recurrent layer (one entry per layer).
    pub hidden: Vec<usize>,
    /// Output width (prediction dimension).
    pub output: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl DrnnConfig {
    /// The paper-style default: 2 stacked LSTM layers of 64 units.
    pub fn paper_default(input: usize, output: usize) -> Self {
        DrnnConfig {
            input,
            hidden: vec![64, 64],
            output,
            seed: 42,
        }
    }
}

/// Forward cache consumed by [`Drnn::backward`].  Reusable: feeding the
/// same cache to repeated [`Drnn::forward_train_into`] calls keeps every
/// per-step buffer allocation alive across batches.  `seqs[l]` holds the
/// hidden-state sequence produced by recurrent layer `l` (the input to
/// layer `l + 1`), so backward needs no input/output clones of its own.
#[derive(Debug, Clone, Default)]
pub struct DrnnCache {
    seqs: Vec<Vec<Matrix>>,
    rec: Vec<LstmCache>,
    seq_len: usize,
    batch: usize,
    hidden_last: usize,
}

/// Reusable backward scratch: the `∂L/∂h` sequence flowing down the stack
/// and the `∂L/∂x` sequence coming back, swapped between layers.
#[derive(Debug, Clone, Default)]
struct DrnnScratch {
    dh_last: Matrix,
    dhs: Vec<Matrix>,
    dxs: Vec<Matrix>,
}

/// A deep recurrent neural network for sequence-to-one regression.
#[derive(Debug, Clone)]
pub struct Drnn {
    config: DrnnConfig,
    layers: Vec<LstmLayer>,
    head: DenseLayer,
    scratch: DrnnScratch,
}

impl Drnn {
    /// Builds a model from its configuration (seeded, reproducible).
    pub fn new(config: DrnnConfig) -> Self {
        assert!(
            !config.hidden.is_empty(),
            "need at least one recurrent layer"
        );
        assert!(config.input > 0 && config.output > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.input;
        for &h in &config.hidden {
            layers.push(LstmLayer::new(in_dim, h, &mut rng));
            in_dim = h;
        }
        let head = DenseLayer::new(in_dim, config.output, &mut rng);
        Drnn {
            config,
            layers,
            head,
            scratch: DrnnScratch::default(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &DrnnConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(LstmLayer::param_count)
            .sum::<usize>()
            + self.head.param_count()
    }

    /// Inference: runs the sequence (each step `B × input`) through the
    /// stack and returns the head output for the *last* step (`B × output`).
    pub fn predict(&self, xs: &[Matrix]) -> Matrix {
        // Same code path as training so the two agree bit-for-bit; hot
        // loops that predict repeatedly should hold a cache and use
        // `predict_into`.
        let (pred, _) = self.forward_train(xs);
        pred
    }

    /// Buffer-reusing inference: like [`predict`](Self::predict) but writes
    /// into a caller-owned output and reuses `cache` allocations across
    /// calls.
    pub fn predict_into(&self, xs: &[Matrix], cache: &mut DrnnCache, pred: &mut Matrix) {
        self.forward_train_into(xs, cache, pred);
    }

    /// Training forward pass: like [`predict`](Self::predict) but returns
    /// the cache needed by [`backward`](Self::backward).
    pub fn forward_train(&self, xs: &[Matrix]) -> (Matrix, DrnnCache) {
        let mut cache = DrnnCache::default();
        let mut pred = Matrix::default();
        self.forward_train_into(xs, &mut cache, &mut pred);
        (pred, cache)
    }

    /// Training forward pass into caller-owned, reusable buffers.
    pub fn forward_train_into(&self, xs: &[Matrix], cache: &mut DrnnCache, pred: &mut Matrix) {
        assert!(!xs.is_empty());
        let n_layers = self.layers.len();
        cache.seqs.resize_with(n_layers, Vec::new);
        cache.rec.resize_with(n_layers, LstmCache::default);
        cache.seq_len = xs.len();
        cache.batch = xs[0].rows();
        cache.hidden_last = self.layers.last().unwrap().hidden_size();

        for (l, layer) in self.layers.iter().enumerate() {
            let (inputs, outputs) = if l == 0 {
                let (head, _) = cache.seqs.split_at_mut(1);
                (xs, &mut head[0])
            } else {
                let (prev, cur) = cache.seqs.split_at_mut(l);
                (&prev[l - 1][..], &mut cur[0])
            };
            layer.forward_into(inputs, outputs, &mut cache.rec[l]);
        }
        let last = cache.seqs[n_layers - 1].last().expect("non-empty sequence");
        self.head.forward_into(last, pred);
    }

    /// Backward pass: accumulates parameter gradients from `∂L/∂pred`.
    /// `xs` must be the same inputs given to the forward pass (the cache
    /// does not duplicate them).
    pub fn backward(&mut self, xs: &[Matrix], cache: &DrnnCache, dpred: &Matrix) {
        let Drnn {
            layers,
            head,
            scratch,
            ..
        } = self;

        // Head: gradient lands on the last hidden state of the top layer.
        let top_seq = cache.seqs.last().expect("forward_train populated cache");
        let last_h = top_seq.last().expect("non-empty sequence");
        head.backward_into(last_h, dpred, &mut scratch.dh_last);

        // Top layer sees gradient only at the final step.
        scratch.dhs.resize_with(cache.seq_len, Matrix::default);
        scratch.dhs.truncate(cache.seq_len);
        for (t, dh) in scratch.dhs.iter_mut().enumerate() {
            if t + 1 == cache.seq_len {
                dh.copy_from(&scratch.dh_last);
            } else {
                dh.resize_zeroed(cache.batch, cache.hidden_last);
            }
        }

        for l in (0..layers.len()).rev() {
            // Nothing sits below the bottom layer: its ∂L/∂x is not wanted.
            let (inputs, dxs) = match l {
                0 => (xs, None),
                _ => (&cache.seqs[l - 1][..], Some(&mut scratch.dxs)),
            };
            layers[l].backward_into(inputs, &cache.seqs[l], &cache.rec[l], &scratch.dhs, dxs);
            std::mem::swap(&mut scratch.dhs, &mut scratch.dxs);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
        self.head.zero_grads();
    }

    /// Visits every `(param, grad)` pair in a stable order (optimizer use).
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
        self.head.for_each_param(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, mse_gradient};

    fn seq(t: usize, b: usize, i: usize) -> Vec<Matrix> {
        (0..t)
            .map(|step| {
                Matrix::from_vec(
                    b,
                    i,
                    (0..b * i)
                        .map(|k| ((step * 3 + k * 5) % 7) as f64 / 7.0 - 0.5)
                        .collect(),
                )
            })
            .collect()
    }

    fn tiny() -> Drnn {
        Drnn::new(DrnnConfig {
            input: 3,
            hidden: vec![5, 4],
            output: 2,
            seed: 11,
        })
    }

    #[test]
    fn predict_shape_and_determinism() {
        let model = tiny();
        let xs = seq(6, 3, 3);
        let y1 = model.predict(&xs);
        let y2 = model.predict(&xs);
        assert_eq!(y1.shape(), (3, 2));
        assert_eq!(y1, y2);
    }

    #[test]
    fn same_seed_same_model() {
        let a = tiny();
        let b = tiny();
        let xs = seq(4, 1, 3);
        assert_eq!(a.predict(&xs), b.predict(&xs));
        let mut cfg = a.config().clone();
        cfg.seed = 12;
        let c = Drnn::new(cfg);
        assert_ne!(a.predict(&xs), c.predict(&xs));
    }

    #[test]
    fn forward_train_matches_predict() {
        let model = tiny();
        let xs = seq(5, 2, 3);
        let (pred, _) = model.forward_train(&xs);
        assert_eq!(pred, model.predict(&xs));
    }

    #[test]
    fn cache_reuse_across_batch_shapes_matches_fresh() {
        let model = tiny();
        let mut cache = DrnnCache::default();
        let mut pred = Matrix::default();
        for (t, b) in [(5usize, 2usize), (3, 4), (6, 1)] {
            let xs = seq(t, b, 3);
            model.predict_into(&xs, &mut cache, &mut pred);
            assert_eq!(pred, model.predict(&xs), "seq {t} batch {b}");
        }
    }

    #[test]
    fn param_count_consistent() {
        let model = tiny();
        // LSTM1: (3+5+1)*20 = 180; LSTM2: (5+4+1)*16 = 160; head: (4+1)*2 = 10
        assert_eq!(model.param_count(), 180 + 160 + 10);
    }

    /// End-to-end gradient check through the whole stack (2 layers + head).
    #[test]
    fn full_stack_gradients_match_finite_differences() {
        let mut model = tiny();
        let xs = seq(4, 2, 3);
        let target = Matrix::full(2, 2, 0.3);
        let loss = |m: &Drnn| mse(&m.predict(&xs), &target);
        let (pred, cache) = model.forward_train(&xs);
        let dpred = mse_gradient(&pred, &target);
        model.zero_grads();
        model.backward(&xs, &cache, &dpred);

        let grads: Vec<Matrix> = {
            let mut out = Vec::new();
            model.for_each_param(&mut |_p, g| out.push(g.clone()));
            out
        };
        let eps = 1e-5;
        for (pi, analytic) in grads.iter().enumerate() {
            let len = analytic.as_slice().len();
            for k in [0usize, len / 2, len - 1] {
                let base = {
                    let mut params = Vec::new();
                    model.for_each_param(&mut |p, _| params.push(p as *mut Matrix));
                    params[pi]
                };
                let orig = unsafe { (*base).as_slice()[k] };
                unsafe { (*base).as_mut_slice()[k] = orig + eps };
                let lp = loss(&model);
                unsafe { (*base).as_mut_slice()[k] = orig - eps };
                let lm = loss(&model);
                unsafe { (*base).as_mut_slice()[k] = orig };
                let numeric = (lp - lm) / (2.0 * eps);
                let ana = analytic.as_slice()[k];
                assert!(
                    (numeric - ana).abs() < 1e-5 * (1.0 + numeric.abs().max(ana.abs())),
                    "param {pi}[{k}]: numeric {numeric} vs analytic {ana}"
                );
            }
        }
    }

    /// `Drnn::backward` never asks the bottom layer for `∂L/∂x`.  The
    /// parameter gradients must be bitwise those of the allocating layer
    /// wrappers, which still compute and return it.
    #[test]
    fn skipping_the_bottom_dx_leaves_every_parameter_gradient_bitwise_unchanged() {
        let mut model = tiny();
        let xs = seq(6, 5, 3);
        let (pred, cache) = model.forward_train(&xs);
        let dpred = mse_gradient(&pred, &Matrix::full(5, 2, 0.3));
        let mut by_hand = model.clone();

        model.zero_grads();
        model.backward(&xs, &cache, &dpred);

        by_hand.zero_grads();
        let top = cache.seqs.last().unwrap();
        let dh_last = by_hand.head.backward(top.last().unwrap(), &dpred);
        let mut dhs: Vec<Matrix> = top.iter().map(|h| Matrix::zeros(5, h.cols())).collect();
        *dhs.last_mut().unwrap() = dh_last;
        for l in (0..by_hand.layers.len()).rev() {
            let inputs = if l == 0 {
                &xs[..]
            } else {
                &cache.seqs[l - 1][..]
            };
            dhs = by_hand.layers[l].backward(inputs, &cache.seqs[l], &cache.rec[l], &dhs);
        }
        assert_eq!(dhs.len(), 6, "the wrappers still return ∂L/∂x");
        assert_eq!(dhs[0].shape(), (5, 3));

        let grads = |m: &mut Drnn| {
            let mut out = Vec::new();
            m.for_each_param(&mut |_p, g| out.push(g.clone()));
            out
        };
        assert_eq!(grads(&mut model), grads(&mut by_hand));
    }

    #[test]
    #[should_panic(expected = "need at least one recurrent layer")]
    fn rejects_empty_stack() {
        Drnn::new(DrnnConfig {
            input: 1,
            hidden: vec![],
            output: 1,
            seed: 0,
        });
    }
}

#[cfg(test)]
mod multi_output_tests {
    use super::*;
    use crate::data::Sample;
    use crate::loss::mse;
    use crate::train::{train, TrainConfig};

    #[test]
    fn multi_output_regression_learns_two_targets() {
        // Predict [sin(t/6), cos(t/6)] from the past 6 values of sin(t/6).
        let series: Vec<f64> = (0..300).map(|t| (t as f64 / 6.0).sin()).collect();
        let samples: Vec<Sample> = (0..294 - 1)
            .map(|i| Sample {
                window: (i..i + 6).map(|t| vec![series[t]]).collect(),
                target: vec![((i + 6) as f64 / 6.0).sin(), ((i + 6) as f64 / 6.0).cos()],
            })
            .collect();
        let mut model = Drnn::new(DrnnConfig {
            input: 1,
            hidden: vec![16],
            output: 2,
            seed: 5,
        });
        let cfg = TrainConfig {
            epochs: 80,
            validation_fraction: 0.0,
            early_stopping: None,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &samples, &cfg);
        assert!(
            report.final_train_loss() < 0.02,
            "2-output loss {}",
            report.final_train_loss()
        );
        // Check output shape and that the two heads differ.
        let refs: Vec<&Sample> = samples[..1].iter().collect();
        let (xs, y) = crate::data::batch_to_matrices(&refs);
        let pred = model.predict(&xs);
        assert_eq!(pred.shape(), (1, 2));
        assert!(mse(&pred, &y) < 0.05);
    }
}
