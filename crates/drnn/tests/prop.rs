//! Property-based tests for the neural-network library: linear-algebra
//! identities, normalization, window alignment and the loss gradient.

use proptest::prelude::*;

use drnn::data::{make_windows, Normalizer};
use drnn::loss::{mse, mse_gradient};
use drnn::matrix::Matrix;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    /// (A·B)ᵀ = Bᵀ·Aᵀ
    #[test]
    fn matmul_transpose_identity(a in matrix_strategy(12), inner in 1usize..12, c_cols in 1usize..12) {
        let k = inner;
        let b = Matrix::from_vec(
            k,
            c_cols,
            (0..k * c_cols).map(|i| ((i * 31 % 19) as f64) - 9.0).collect(),
        );
        // Reshape `a` to have `k` columns: rebuild with compatible dims.
        let a = Matrix::from_vec(
            a.rows(),
            k,
            (0..a.rows() * k).map(|i| ((i * 17 % 23) as f64) - 11.0).collect(),
        );
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-10));
    }

    /// A·I = A and I·A = A
    #[test]
    fn matmul_identity_element(a in matrix_strategy(10)) {
        let id_r = {
            let mut m = Matrix::zeros(a.rows(), a.rows());
            for i in 0..a.rows() {
                m.set(i, i, 1.0);
            }
            m
        };
        let id_c = {
            let mut m = Matrix::zeros(a.cols(), a.cols());
            for i in 0..a.cols() {
                m.set(i, i, 1.0);
            }
            m
        };
        prop_assert!(approx_eq(&id_r.matmul(&a), &a, 1e-12));
        prop_assert!(approx_eq(&a.matmul(&id_c), &a, 1e-12));
    }

    /// (A + B)·C = A·C + B·C (distributivity)
    #[test]
    fn matmul_distributes_over_addition(r in 1usize..8, k in 1usize..8, c in 1usize..8) {
        let gen = |seed: usize, rows, cols| {
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| (((i + seed) * 37 % 29) as f64) - 14.0).collect(),
            )
        };
        let a = gen(1, r, k);
        let b = gen(2, r, k);
        let cm = gen(3, k, c);
        let mut a_plus_b = a.clone();
        a_plus_b.add_in_place(&b);
        let left = a_plus_b.matmul(&cm);
        let mut right = a.matmul(&cm);
        right.add_in_place(&b.matmul(&cm));
        prop_assert!(approx_eq(&left, &right, 1e-10));
    }

    #[test]
    fn transpose_is_involution(a in matrix_strategy(12)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn normalized_data_has_zero_mean(rows in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 2), 3..60)) {
        let n = Normalizer::fit(&rows);
        let t = n.transform(&rows);
        for c in 0..2 {
            let mean: f64 = t.iter().map(|r| r[c]).sum::<f64>() / t.len() as f64;
            prop_assert!(mean.abs() < 1e-8, "column {} mean {}", c, mean);
        }
    }

    /// Window samples align exactly with the source series.
    #[test]
    fn windows_align(series_len in 4usize..80, lookback in 1usize..8, horizon in 1usize..4) {
        let features: Vec<Vec<f64>> = (0..series_len).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..series_len).map(|i| i as f64 * 10.0).collect();
        let samples = make_windows(&features, &targets, lookback, horizon);
        let expected_count = series_len.saturating_sub(lookback + horizon - 1).saturating_sub(0);
        if series_len >= lookback + horizon {
            prop_assert_eq!(samples.len(), series_len - lookback - horizon + 1);
        } else {
            prop_assert!(samples.is_empty());
        }
        let _ = expected_count;
        for (i, s) in samples.iter().enumerate() {
            prop_assert_eq!(s.window.len(), lookback);
            prop_assert_eq!(s.window[0][0], i as f64);
            prop_assert_eq!(s.window[lookback - 1][0], (i + lookback - 1) as f64);
            prop_assert_eq!(s.target[0], ((i + lookback + horizon - 1) as f64) * 10.0);
        }
    }

    /// MSE gradient matches finite differences on random data.
    #[test]
    fn mse_gradient_matches_finite_difference(
        data in prop::collection::vec(-10.0f64..10.0, 4),
        target in prop::collection::vec(-10.0f64..10.0, 4),
    ) {
        let mut p = Matrix::from_vec(2, 2, data);
        let t = Matrix::from_vec(2, 2, target);
        let g = mse_gradient(&p, &t);
        let eps = 1e-6;
        for k in 0..4 {
            let orig = p.as_slice()[k];
            p.as_mut_slice()[k] = orig + eps;
            let lp = mse(&p, &t);
            p.as_mut_slice()[k] = orig - eps;
            let lm = mse(&p, &t);
            p.as_mut_slice()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            prop_assert!((numeric - g.as_slice()[k]).abs() < 1e-6);
        }
    }

    /// The loss is positive, and zero when prediction == target.
    #[test]
    fn losses_nonnegative(data in prop::collection::vec(-100.0f64..100.0, 6)) {
        let p = Matrix::from_vec(2, 3, data.clone());
        let t = Matrix::from_vec(2, 3, data.iter().map(|x| x + 1.0).collect());
        prop_assert!(mse(&p, &t) > 0.0);
        prop_assert_eq!(mse(&p, &p), 0.0);
    }
}
