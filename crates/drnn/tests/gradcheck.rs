//! Finite-difference gradient checks for the recurrent layers.
//!
//! BPTT through one LSTM layer is compared against central-difference
//! numeric gradients on every parameter matrix; the two must agree to a
//! relative error below 1e-4.  The loss is a fixed linear functional of
//! the hidden states (a deterministic weighted sum) so every hidden unit
//! contributes a distinct gradient signal.

use drnn::layer::lstm::LstmLayer;
use drnn::matrix::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 1e-5;
const REL_TOL: f64 = 1e-4;

/// Deterministic input sequence: `steps` matrices of `batch x input`.
fn seq(steps: usize, batch: usize, input: usize, seed: u64) -> Vec<Matrix> {
    (0..steps)
        .map(|t| {
            Matrix::from_vec(
                batch,
                input,
                (0..batch * input)
                    .map(|i| {
                        let x = (seed + 1) * 2654435761 + (t as u64) * 97 + i as u64;
                        ((x % 1000) as f64 / 1000.0) - 0.5
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Fixed per-coordinate loss weights so the loss is not symmetric in the
/// hidden units (a plain sum can hide sign errors that cancel).
fn loss_weights(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| 0.5 + ((i * 37 + 11) % 17) as f64 / 17.0)
            .collect(),
    )
}

fn weighted_loss(hs: &[Matrix]) -> f64 {
    hs.iter()
        .map(|h| {
            let w = loss_weights(h.rows(), h.cols());
            h.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f64>()
        })
        .sum()
}

/// Checks analytic vs numeric gradients at a few probe coordinates of every
/// parameter matrix.  `forward_loss` must be pure (no grad side effects).
#[allow(clippy::type_complexity)] // mirrors the layers' for_each_param signature
fn check_params<L>(
    layer: &mut L,
    for_each_param: &dyn Fn(&mut L, &mut dyn FnMut(&mut Matrix, &mut Matrix)),
    forward_loss: &dyn Fn(&L) -> f64,
    label: &str,
) {
    let grads: Vec<Matrix> = {
        let mut out = Vec::new();
        for_each_param(layer, &mut |_p, g| out.push(g.clone()));
        out
    };
    assert!(!grads.is_empty(), "{label}: layer exposes no parameters");
    for (pi, analytic) in grads.iter().enumerate() {
        let len = analytic.as_slice().len();
        let probes = [0usize, len / 3, len / 2, 2 * len / 3, len - 1];
        for &k in &probes {
            let param_ptr = {
                let mut params = Vec::new();
                for_each_param(layer, &mut |p, _| params.push(p as *mut Matrix));
                params[pi]
            };
            let orig = unsafe { (*param_ptr).as_slice()[k] };
            unsafe { (*param_ptr).as_mut_slice()[k] = orig + EPS };
            let lp = forward_loss(layer);
            unsafe { (*param_ptr).as_mut_slice()[k] = orig - EPS };
            let lm = forward_loss(layer);
            unsafe { (*param_ptr).as_mut_slice()[k] = orig };
            let numeric = (lp - lm) / (2.0 * EPS);
            let ana = analytic.as_slice()[k];
            let rel = (numeric - ana).abs() / (1.0 + numeric.abs().max(ana.abs()));
            assert!(
                rel < REL_TOL,
                "{label}: param {pi} coord {k}: numeric {numeric} vs analytic {ana} (rel {rel:.2e})"
            );
        }
    }
}

#[test]
fn lstm_bptt_matches_finite_differences() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut layer = LstmLayer::new(3, 4, &mut rng);
    let xs = seq(5, 2, 3, 7);

    let (hs, cache) = layer.forward(&xs);
    let dhs: Vec<Matrix> = hs
        .iter()
        .map(|h| loss_weights(h.rows(), h.cols()))
        .collect();
    layer.zero_grads();
    layer.backward(&xs, &hs, &cache, &dhs);

    let xs2 = xs.clone();
    check_params(
        &mut layer,
        &|l, f| l.for_each_param(f),
        &move |l| weighted_loss(&l.forward(&xs2).0),
        "lstm",
    );
}
