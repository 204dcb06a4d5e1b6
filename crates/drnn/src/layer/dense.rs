//! Fully connected (dense) layer, used as the linear regression head on
//! top of the recurrent stack.

use rand::rngs::StdRng;

use crate::init::xavier_uniform;
use crate::matrix::Matrix;

/// A linear dense layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    input: usize,
    output: usize,
    w: Matrix,
    b: Matrix,
    gw: Option<Matrix>,
    gb: Option<Matrix>,
    /// Reusable `Wᵀ` for the backward `dx = dy·Wᵀ`.
    wt: Matrix,
}

impl DenseLayer {
    /// New dense layer with Xavier-initialized weights and zero bias.
    pub fn new(input: usize, output: usize, rng: &mut StdRng) -> Self {
        DenseLayer {
            input,
            output,
            w: xavier_uniform(input, output, rng),
            b: Matrix::zeros(1, output),
            gw: None,
            gb: None,
            wt: Matrix::default(),
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input
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
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward pass into a caller-owned, reusable buffer.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.input, "input width mismatch");
        x.matmul_into(&self.w, y);
        y.add_row_in_place(self.b.row(0));
    }

    /// Backward pass: accumulates gradients and returns `∂L/∂x`.  `x` is
    /// the forward input.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(x, dy, &mut dx);
        dx
    }

    /// Backward pass into a caller-owned `dx` buffer.
    pub fn backward_into(&mut self, x: &Matrix, dy: &Matrix, dx: &mut Matrix) {
        self.ensure_grads();
        x.matmul_at_b_into(dy, self.gw.as_mut().unwrap());
        dy.col_sums_add_into(self.gb.as_mut().unwrap());
        self.w.transpose_into(&mut self.wt);
        dy.matmul_into(&self.wt, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_is_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = DenseLayer::new(2, 1, &mut rng);
        layer.w = Matrix::from_rows(&[vec![2.0], vec![-1.0]]);
        layer.b = Matrix::from_rows(&[vec![0.5]]);
        let y = layer.forward(&Matrix::from_rows(&[vec![3.0, 4.0]]));
        assert!((y.get(0, 0) - (6.0 - 4.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = DenseLayer::new(3, 2, &mut rng);
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 1.1], vec![0.9, 0.2, -0.4]]);
        let loss = |l: &DenseLayer| l.forward(&x).sum();
        let y = layer.forward(&x);
        layer.zero_grads();
        let dx = layer.backward(&x, &Matrix::full(y.rows(), y.cols(), 1.0));

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
                    "param {pi}[{k}]"
                );
            }
        }
        // dx check.
        let mut x2 = x.clone();
        for k in 0..x2.as_slice().len() {
            let orig = x2.as_slice()[k];
            x2.as_mut_slice()[k] = orig + eps;
            let lp = layer.forward(&x2).sum();
            x2.as_mut_slice()[k] = orig - eps;
            let lm = layer.forward(&x2).sum();
            x2.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx.as_slice()[k]).abs() < 1e-6, "dx[{k}]");
        }
    }
}
