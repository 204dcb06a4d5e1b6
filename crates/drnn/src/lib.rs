//! # drnn — a from-scratch deep recurrent neural network library
//!
//! This crate implements the Deep Recurrent Neural Network used by the
//! IPDPS 2019 paper's performance predictor, plus everything needed to
//! train it, with no external ML dependencies:
//!
//! * [`matrix`] — dense `f64` linear algebra; every product runs on one
//!   register-tiled GEMM micro-kernel (AVX2+FMA when the CPU has it,
//!   chosen at run time), rayon-parallel for large shapes;
//! * [`layer`] — the LSTM cell (fused-gate GEMM formulation) and a linear
//!   dense head, both with exact BPTT gradients (finite-difference checked
//!   in the test suite);
//! * [`model`] — the stacked sequence-to-one regressor [`model::Drnn`];
//! * [`loss`] — the mean-squared-error training loss and its gradient;
//! * [`optim`] — Adam with global-norm clipping;
//! * [`train`] — mini-batch training with validation and early stopping;
//! * [`data`] — z-score normalization and sliding-window dataset assembly;
//! * [`metrics`] — MAPE and RMSE.
//!
//! ## Quick example
//!
//! ```
//! use drnn::prelude::*;
//!
//! // y_t = sin(t/4): learn to predict the next value from 8 past values.
//! let series: Vec<f64> = (0..200).map(|t| (t as f64 / 4.0).sin()).collect();
//! let features: Vec<Vec<f64>> = series.iter().map(|&v| vec![v]).collect();
//! let samples = make_windows(&features, &series, 8, 1);
//! let (train_set, test_set) = split_train_test(&samples, 0.8);
//!
//! let mut model = Drnn::new(DrnnConfig {
//!     input: 1,
//!     hidden: vec![16],
//!     output: 1,
//!     seed: 7,
//! });
//! let cfg = TrainConfig {
//!     epochs: 10,
//!     validation_fraction: 0.0,
//!     early_stopping: None,
//!     ..TrainConfig::default()
//! };
//! let report = train(&mut model, &train_set, &cfg);
//! assert!(report.final_train_loss() < report.train_loss[0]);
//! assert!(!test_set.is_empty());
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod data;
pub mod init;
mod kernel;
pub mod layer;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod train;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::data::{batch_to_matrices, make_windows, split_train_test, Normalizer, Sample};
    pub use crate::loss::{mse, mse_gradient};
    pub use crate::matrix::Matrix;
    pub use crate::metrics::{mape, rmse};
    pub use crate::model::{Drnn, DrnnConfig};
    pub use crate::optim::OptimizerKind;
    pub use crate::train::{evaluate, train, EarlyStopping, TrainConfig, TrainReport};
}
