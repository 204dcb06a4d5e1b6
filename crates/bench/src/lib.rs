//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed evaluation (see
//! `EXPERIMENTS.md`).  Performance numbers — throughput, latency, per-layer
//! cost — are *not* produced here: the repository's one benchmark is the
//! standalone `benchmark/` package (see `benchmark/README.md`).
//!
//! * [`harness`] — builds the two applications, runs monitored/controlled
//!   simulations, walk-forward predictor evaluation;
//! * [`experiments`] — one runner per table/figure, with a registry the
//!   `experiments` binary dispatches on;
//! * [`table`] — aligned text tables + CSV output under `results/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p bench --release --bin experiments -- all
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod table;
