//! Fully connected (dense) layer, used as the regression head on top of the
//! recurrent stack.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::{drelu, relu};
use crate::init::{he_uniform, xavier_uniform};
use crate::matrix::Matrix;

/// Activation applied after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenseActivation {
    /// No activation (regression output).
    Linear,
    /// Rectified linear unit (hidden dense layers).
    Relu,
}

/// Forward cache for [`DenseLayer::backward`].  Stores only the ReLU
/// preactivation (linear heads cache nothing); the input is passed back to
/// `backward` by the caller instead of being cloned here.
#[derive(Debug, Clone, Default)]
pub struct DenseCache {
    pre: Option<Matrix>,
}

/// Reusable backward scratch.
#[derive(Debug, Clone, Default)]
struct DenseScratch {
    dpre: Matrix,
    wt: Matrix,
}

/// A dense layer `y = act(x·W + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseLayer {
    input: usize,
    output: usize,
    activation: DenseActivation,
    w: Matrix,
    b: Matrix,
    #[serde(skip)]
    gw: Option<Matrix>,
    #[serde(skip)]
    gb: Option<Matrix>,
    #[serde(skip, default)]
    scratch: DenseScratch,
}

impl DenseLayer {
    /// New dense layer.  He init for ReLU, Xavier otherwise.
    pub fn new(input: usize, output: usize, activation: DenseActivation, rng: &mut StdRng) -> Self {
        let w = match activation {
            DenseActivation::Relu => he_uniform(input, output, rng),
            DenseActivation::Linear => xavier_uniform(input, output, rng),
        };
        DenseLayer {
            input,
            output,
            activation,
            w,
            b: Matrix::zeros(1, output),
            gw: None,
            gb: None,
            scratch: DenseScratch::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.output
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        (self.input + 1) * self.output
    }

    fn ensure_grads(&mut self) {
        if self.gw.is_none() {
            self.gw = Some(Matrix::zeros(self.input, self.output));
            self.gb = Some(Matrix::zeros(1, self.output));
        }
    }

    /// Visits `(param, grad)` pairs in a stable order.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.ensure_grads();
        f(&mut self.w, self.gw.as_mut().unwrap());
        f(&mut self.b, self.gb.as_mut().unwrap());
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.ensure_grads();
        self.gw.as_mut().unwrap().zero_in_place();
        self.gb.as_mut().unwrap().zero_in_place();
    }

    /// Forward pass: `x` is `B × input`.  Allocating wrapper over
    /// [`forward_into`](Self::forward_into).
    pub fn forward(&self, x: &Matrix) -> (Matrix, DenseCache) {
        let mut y = Matrix::default();
        let mut cache = DenseCache::default();
        self.forward_into(x, &mut y, &mut cache);
        (y, cache)
    }

    /// Forward pass into caller-owned, reusable buffers.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix, cache: &mut DenseCache) {
        assert_eq!(x.cols(), self.input, "input width mismatch");
        x.matmul_into(&self.w, y);
        y.add_row_in_place(self.b.row(0));
        match self.activation {
            DenseActivation::Linear => cache.pre = None,
            DenseActivation::Relu => {
                let pre = cache.pre.get_or_insert_with(Matrix::default);
                pre.copy_from(y);
                y.map_in_place(relu);
            }
        }
    }

    /// Backward pass: accumulates gradients and returns `∂L/∂x`.  `x` is
    /// the forward input (the cache does not duplicate it).
    pub fn backward(&mut self, x: &Matrix, cache: &DenseCache, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(x, cache, dy, &mut dx);
        dx
    }

    /// Backward pass into a caller-owned `dx` buffer; reusable scratch
    /// throughout.
    pub fn backward_into(&mut self, x: &Matrix, cache: &DenseCache, dy: &Matrix, dx: &mut Matrix) {
        self.ensure_grads();
        let DenseScratch { dpre, wt } = &mut self.scratch;
        dpre.copy_from(dy);
        if self.activation == DenseActivation::Relu {
            let pre = cache.pre.as_ref().expect("relu cache");
            for (v, p) in dpre.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                *v *= drelu(*p);
            }
        }
        x.matmul_at_b_into(dpre, self.gw.as_mut().unwrap());
        dpre.col_sums_add_into(self.gb.as_mut().unwrap());
        self.w.transpose_into(wt);
        dpre.matmul_into(wt, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(2, 1, DenseActivation::Linear, &mut rng);
        layer.w = Matrix::from_rows(&[vec![2.0], vec![-1.0]]);
        layer.b = Matrix::from_rows(&[vec![0.5]]);
        let (y, _) = layer.forward(&Matrix::from_rows(&[vec![3.0, 4.0]]));
        assert!((y.get(0, 0) - (6.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn relu_clips_negatives() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = DenseLayer::new(1, 2, DenseActivation::Relu, &mut rng);
        layer.w = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let (y, _) = layer.forward(&Matrix::from_rows(&[vec![2.0]]));
        assert_eq!(y.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn gradients_match_finite_differences_both_activations() {
        for act in [DenseActivation::Linear, DenseActivation::Relu] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut layer = DenseLayer::new(3, 2, act, &mut rng);
            let x = Matrix::from_rows(&[vec![0.3, -0.7, 1.1], vec![0.9, 0.2, -0.4]]);
            let loss = |l: &DenseLayer| l.forward(&x).0.sum();
            let (y, cache) = layer.forward(&x);
            layer.zero_grads();
            let dx = layer.backward(&x, &cache, &Matrix::full(y.rows(), y.cols(), 1.0));

            let grads: Vec<Matrix> = {
                let mut out = Vec::new();
                layer.for_each_param(&mut |_p, g| out.push(g.clone()));
                out
            };
            let eps = 1e-6;
            for (pi, analytic) in grads.iter().enumerate() {
                for k in 0..analytic.as_slice().len() {
                    let base = {
                        let mut params = Vec::new();
                        layer.for_each_param(&mut |p, _| params.push(p as *mut Matrix));
                        params[pi]
                    };
                    let orig = unsafe { (*base).as_slice()[k] };
                    unsafe { (*base).as_mut_slice()[k] = orig + eps };
                    let lp = loss(&layer);
                    unsafe { (*base).as_mut_slice()[k] = orig - eps };
                    let lm = loss(&layer);
                    unsafe { (*base).as_mut_slice()[k] = orig };
                    let numeric = (lp - lm) / (2.0 * eps);
                    assert!(
                        (numeric - analytic.as_slice()[k]).abs() < 1e-6,
                        "{act:?} param {pi}[{k}]"
                    );
                }
            }
            // dx check.
            let mut x2 = x.clone();
            for k in 0..x2.as_slice().len() {
                let orig = x2.as_slice()[k];
                x2.as_mut_slice()[k] = orig + eps;
                let lp = layer.forward(&x2).0.sum();
                x2.as_mut_slice()[k] = orig - eps;
                let lm = layer.forward(&x2).0.sum();
                x2.as_mut_slice()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!((numeric - dx.as_slice()[k]).abs() < 1e-6, "{act:?} dx[{k}]");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = DenseLayer::new(4, 2, DenseActivation::Linear, &mut rng);
        let json = serde_json::to_string(&layer).unwrap();
        let back: DenseLayer = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(layer.forward(&x).0, back.forward(&x).0);
        assert_eq!(back.param_count(), 10);
    }
}
