//! Weight initialization schemes (seeded, reproducible).

use rand::rngs::StdRng;
use rand::Rng;

use crate::matrix::Matrix;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
/// The standard choice for tanh/sigmoid gates.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt();
    random_uniform(rows, cols, -a, a, rng)
}

/// Uniform random matrix in `[lo, hi)`.
pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_and_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f64).sqrt();
        assert!(w.as_slice().iter().all(|&x| x > -a && x < a));
        // Mean near zero, variance near a^2/3.
        let mean = w.sum() / 4096.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var = w.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4096.0;
        assert!((var - a * a / 3.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn seeded_init_is_reproducible() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }
}
