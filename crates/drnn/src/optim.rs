//! The Adam optimizer (Kingma & Ba, 2015) with optional global-norm
//! gradient clipping.
//!
//! The optimizer is stateful per parameter tensor; parameters are
//! identified by their visitation order, which the model keeps stable
//! across steps.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Optimizer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with bias correction.
    Adam {
        /// Learning rate.
        lr: f64,
        /// First-moment decay (default 0.9).
        beta1: f64,
        /// Second-moment decay (default 0.999).
        beta2: f64,
    },
}

impl OptimizerKind {
    /// Adam with the canonical defaults at the given learning rate.
    pub fn adam(lr: f64) -> Self {
        OptimizerKind::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
        }
    }
}

const EPS: f64 = 1e-8;

/// A stateful optimizer over an ordered list of parameter tensors.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    /// First-moment buffers, by parameter index.
    m: Vec<Matrix>,
    /// Second-moment buffers, by parameter index.
    v: Vec<Matrix>,
    /// Step counter (bias correction).
    t: u64,
    /// Optional global-norm clip threshold.
    clip_norm: Option<f64>,
}

impl Optimizer {
    /// Creates an optimizer.
    pub fn new(kind: OptimizerKind) -> Self {
        Optimizer {
            kind,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            clip_norm: None,
        }
    }

    /// Enables global-norm gradient clipping (essential for RNN training).
    pub fn with_clip_norm(mut self, max_norm: f64) -> Self {
        assert!(max_norm > 0.0);
        self.clip_norm = Some(max_norm);
        self
    }

    /// Applies one update step.  `visit` must call its argument once per
    /// `(param, grad)` pair in the same order every step (the model's
    /// `for_each_param`).
    #[allow(clippy::type_complexity)] // the double-callback shape IS the interface
    pub fn step(&mut self, visit: &mut dyn FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix))) {
        self.t += 1;

        // Pass 1 (only when clipping): global gradient norm.
        let scale = if let Some(max_norm) = self.clip_norm {
            let mut sq = 0.0;
            visit(&mut |_p, g| {
                sq += g.as_slice().iter().map(|x| x * x).sum::<f64>();
            });
            let norm = sq.sqrt();
            if norm > max_norm {
                max_norm / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        // Pass 2: parameter updates.
        let mut idx = 0usize;
        let OptimizerKind::Adam { lr, beta1, beta2 } = self.kind;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        let m = &mut self.m;
        let v = &mut self.v;
        visit(&mut |p, g| {
            if idx >= m.len() {
                m.push(Matrix::zeros(p.rows(), p.cols()));
                v.push(Matrix::zeros(p.rows(), p.cols()));
            }
            debug_assert_eq!(m[idx].shape(), p.shape(), "parameter order changed");
            for (((pv, gv), mv), sv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m[idx].as_mut_slice())
                .zip(v[idx].as_mut_slice())
            {
                let gc = scale * gv;
                *mv = beta1 * *mv + (1.0 - beta1) * gc;
                *sv = beta2 * *sv + (1.0 - beta2) * gc * gc;
                let mhat = *mv / bc1;
                let vhat = *sv / bc2;
                *pv -= lr * mhat / (vhat.sqrt() + EPS);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(p) = sum(p^2) — gradient 2p — and check convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Matrix::from_rows(&[vec![5.0, -3.0, 1.0]]);
        let mut g = Matrix::zeros(1, 3);
        let mut opt = Optimizer::new(OptimizerKind::adam(0.1));
        for _ in 0..500 {
            for (gv, pv) in g.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *gv = 2.0 * pv;
            }
            opt.step(&mut |f| f(&mut p, &mut g));
        }
        assert!(p.frobenius_norm() < 1e-3, "|p| = {}", p.frobenius_norm());
    }

    #[test]
    fn adam_handles_scale_differences_better_than_sgd() {
        // f(p) = 1000 p0^2 + 0.001 p1^2: pathological conditioning.
        let grad = |p: &Matrix, g: &mut Matrix| {
            g.as_mut_slice()[0] = 2000.0 * p.as_slice()[0];
            g.as_mut_slice()[1] = 0.002 * p.as_slice()[1];
        };
        let mut p = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let mut g = Matrix::zeros(1, 2);
        let mut opt = Optimizer::new(OptimizerKind::adam(0.05));
        for _ in 0..300 {
            grad(&p, &mut g);
            opt.step(&mut |f| f(&mut p, &mut g));
        }
        let adam_p1 = p.as_slice()[1].abs();
        // Plain gradient descent at its largest stable rate.
        let mut p = Matrix::from_rows(&[vec![1.0, 1.0]]);
        for _ in 0..300 {
            grad(&p, &mut g);
            for (pv, gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *pv -= 0.0004 * gv;
            }
        }
        let sgd_p1 = p.as_slice()[1].abs();
        assert!(
            adam_p1 < sgd_p1 * 0.5,
            "adam {adam_p1} should beat sgd {sgd_p1} on the flat coordinate"
        );
    }

    /// Runs two Adam steps at `lr = 1` from `p = 0` with the gradients
    /// `g1` then `g2`, returning each step's update `Δp`.
    fn two_steps(clip: f64, g1: [f64; 2], g2: [f64; 2]) -> [[f64; 2]; 2] {
        let mut p = Matrix::zeros(1, 2);
        let mut opt = Optimizer::new(OptimizerKind::adam(1.0)).with_clip_norm(clip);
        let mut deltas = [[0.0; 2]; 2];
        for (delta, g) in deltas.iter_mut().zip([g1, g2]) {
            let before = p.clone();
            let mut g = Matrix::from_rows(&[g.to_vec()]);
            opt.step(&mut |f| f(&mut p, &mut g));
            for (d, (a, b)) in delta
                .iter_mut()
                .zip(p.as_slice().iter().zip(before.as_slice()))
            {
                *d = a - b;
            }
        }
        deltas
    }

    /// The second Adam update from `g1` then `g2` (`lr = 1`), by hand.
    fn adam_second_update(g1: [f64; 2], g2: [f64; 2]) -> [f64; 2] {
        let (b1, b2) = (0.9f64, 0.999f64);
        let mut out = [0.0; 2];
        for k in 0..2 {
            let m = b1 * (1.0 - b1) * g1[k] + (1.0 - b1) * g2[k];
            let v = b2 * (1.0 - b2) * g1[k] * g1[k] + (1.0 - b2) * g2[k] * g2[k];
            let mhat = m / (1.0 - b1 * b1);
            let vhat = v / (1.0 - b2 * b2);
            out[k] = -mhat / (vhat.sqrt() + EPS);
        }
        out
    }

    /// Adam's first step is invariant to gradient scale, so clipping shows
    /// in the second: the moment history must hold the *clipped* first
    /// gradient.  `[30, 40]` (norm 50) clips to `[3, 4]` under a 5.0 cap;
    /// `[0.3, 0.4]` (norm 0.5) then passes unclipped.
    #[test]
    fn clipping_bounds_update_magnitude() {
        let (g1, g2) = ([30.0, 40.0], [0.3, 0.4]);
        let [_, second] = two_steps(5.0, g1, g2);
        let clipped = adam_second_update([3.0, 4.0], g2);
        let unclipped = adam_second_update(g1, g2);
        for k in 0..2 {
            assert!(
                (second[k] - clipped[k]).abs() < 1e-12,
                "{second:?} vs {clipped:?}"
            );
            assert!(
                (second[k] - unclipped[k]).abs() > 0.05,
                "{second:?} vs {unclipped:?}"
            );
        }
    }

    /// Below the cap nothing is rescaled: both updates match plain Adam.
    #[test]
    fn clipping_leaves_small_gradients_alone() {
        let (g1, g2) = ([3.0, 4.0], [0.3, 0.4]);
        let [first, second] = two_steps(10.0, g1, g2);
        let want = adam_second_update(g1, g2);
        for k in 0..2 {
            // First step: m̂ = g, v̂ = g², so Δp = -g / (|g| + ε).
            let want_first = -g1[k] / (g1[k].abs() + EPS);
            assert!((first[k] - want_first).abs() < 1e-12, "{first:?}");
            assert!(
                (second[k] - want[k]).abs() < 1e-12,
                "{second:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn multiple_params_keep_separate_state() {
        let mut p1 = Matrix::from_rows(&[vec![1.0]]);
        let mut p2 = Matrix::from_rows(&[vec![2.0, 3.0]]);
        let mut g1 = Matrix::from_rows(&[vec![0.0]]);
        let mut g2 = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let mut opt = Optimizer::new(OptimizerKind::adam(0.1));
        for _ in 0..200 {
            g1.as_mut_slice()[0] = 2.0 * p1.as_slice()[0];
            for (g, p) in g2.as_mut_slice().iter_mut().zip(p2.as_slice()) {
                *g = 2.0 * p;
            }
            opt.step(&mut |f| {
                f(&mut p1, &mut g1);
                f(&mut p2, &mut g2);
            });
        }
        assert!(p1.frobenius_norm() < 0.01);
        assert!(p2.frobenius_norm() < 0.01);
    }
}
