//! The training loss: mean squared error and its gradient.

use crate::matrix::Matrix;

/// Mean squared error `Σ(p−t)²/n` over all elements.
pub fn mse(pred: &Matrix, target: &Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape());
    let n = pred.as_slice().len() as f64;
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(p, t)| (p - t).powi(2))
        .sum::<f64>()
        / n
}

/// Gradient `∂mse/∂pred = 2·(p−t)/n`, same shape as `pred`.
pub fn mse_gradient(pred: &Matrix, target: &Matrix) -> Matrix {
    assert_eq!(pred.shape(), target.shape());
    let n = pred.as_slice().len() as f64;
    let data: Vec<f64> = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(p, t)| 2.0 * (p - t) / n)
        .collect();
    Matrix::from_vec(pred.rows(), pred.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> (Matrix, Matrix) {
        (
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
            Matrix::from_rows(&[vec![1.5, 2.0], vec![2.0, 6.0]]),
        )
    }

    #[test]
    fn mse_value_and_zero_at_match() {
        let (p, t) = pt();
        // errors: -0.5, 0, 1, -2 → squares 0.25,0,1,4 → mean 1.3125
        assert!((mse(&p, &t) - 1.3125).abs() < 1e-12);
        assert_eq!(mse(&p, &p), 0.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (mut p, t) = pt();
        let g = mse_gradient(&p, &t);
        let eps = 1e-7;
        for k in 0..4 {
            let orig = p.as_slice()[k];
            p.as_mut_slice()[k] = orig + eps;
            let lp = mse(&p, &t);
            p.as_mut_slice()[k] = orig - eps;
            let lm = mse(&p, &t);
            p.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[k]).abs() < 1e-6,
                "grad[{k}]: {numeric} vs {}",
                g.as_slice()[k]
            );
        }
    }
}
