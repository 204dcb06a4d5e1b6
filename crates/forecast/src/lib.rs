//! # forecast — classical time-series baselines, from scratch
//!
//! The two baseline predictors the IPDPS 2019 paper compares its DRNN
//! against:
//!
//! * [`arima`] — ARIMA(p, d, q) fitted by Hannan–Rissanen two-stage least
//!   squares, with differencing and AIC-based automatic order selection;
//! * [`svr`] — ε-Support Vector Regression with linear/RBF/polynomial
//!   kernels, trained by exact dual coordinate descent.
//!
//! Both implement the common [`forecaster::Forecaster`] trait, so the
//! evaluation harness compares every model (including the DRNN adapter in
//! the `stream-control` crate) through one interface, with
//! [`forecaster::rolling_forecast`] walk-forward evaluation.
//!
//! ```
//! use forecast::prelude::*;
//!
//! let series: Vec<f64> = (0..300).map(|t| (t as f64 / 7.0).sin() + 5.0).collect();
//! let (train, test) = series.split_at(250);
//! let mut model = Arima::new(ArimaOrder::new(2, 0, 1));
//! model.fit(train).unwrap();
//! let (actuals, preds) = rolling_forecast(&model, train, test, 1).unwrap();
//! assert_eq!(actuals.len(), preds.len());
//! ```

#![warn(missing_docs)]

pub mod arima;
pub mod error;
pub mod forecaster;
pub mod stats;
pub mod svr;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::arima::{auto_arima, Arima, ArimaOrder};
    pub use crate::error::{Error, Result};
    pub use crate::forecaster::{rolling_forecast, Forecaster, NaiveForecaster};
    pub use crate::svr::{Kernel, Svr, SvrForecaster, SvrParams};
}
