//! Network layers: the LSTM cell and the linear dense head.

pub mod dense;
pub mod lstm;

pub use dense::DenseLayer;
pub use lstm::{LstmCache, LstmLayer};
