//! Forecast-accuracy metrics used throughout the evaluation: MAPE (the
//! paper's headline metric) and RMSE.

/// Mean absolute percentage error, in percent.  Pairs whose actual value is
/// (near) zero are skipped, matching standard practice.
pub fn mape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for (a, p) in actual.iter().zip(predicted) {
        if a.abs() > 1e-9 {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// Root mean squared error.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len());
    if actual.is_empty() {
        return 0.0;
    }
    let mse: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum::<f64>()
        / actual.len() as f64;
    mse.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(mape(&a, &a), 0.0);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn mape_known_value() {
        let a = [100.0, 200.0];
        let p = [110.0, 180.0];
        // |10/100| = 10%, |20/200| = 10% → 10%
        assert!((mape(&a, &p) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let a = [0.0, 100.0];
        let p = [50.0, 110.0];
        assert!((mape(&a, &p) - 10.0).abs() < 1e-12);
        assert_eq!(
            mape(&[0.0], &[1.0]),
            0.0,
            "all-zero actuals → 0 by convention"
        );
    }

    #[test]
    fn rmse_and_mae_known_values() {
        let a = [0.0, 0.0];
        let p = [3.0, 4.0];
        assert!((rmse(&a, &p) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(rmse(&[], &[]), 0.0);
    }
}
