//! Performance predictors: the DRNN model and the ARIMA / SVR baselines
//! behind one trait, so the controller and the evaluation harness treat
//! them interchangeably.
//!
//! All predictors answer the same question the paper poses: *given the
//! recent multilevel runtime statistics, what will worker w's mean tuple
//! execute latency be `horizon` intervals from now?*

use std::collections::HashMap;

use dsdps::metrics::MetricsSnapshot;
use dsdps::scheduler::WorkerId;
use forecast::arima::{auto_arima, Arima};
use forecast::forecaster::Forecaster;
use forecast::svr::{SvrForecaster, SvrParams};
use serde::{Deserialize, Serialize};

use drnn::data::{make_windows, Normalizer, Sample};
use drnn::model::{Drnn, DrnnConfig};
use drnn::train::{train, TrainConfig};

use crate::error::{Error, Result};
use crate::features::{extract, series_for_worker, FeatureSpec};

/// A model predicting per-worker performance from runtime history.
pub trait PerformancePredictor: Send {
    /// Fits on a training history for the given workers.
    fn fit(&mut self, history: &[&MetricsSnapshot], workers: &[WorkerId]) -> Result<()>;

    /// Predicts `worker`'s mean execute latency (µs) `horizon()` intervals
    /// past the end of `history`.  `None` when history is too short or the
    /// worker is unknown.
    fn predict(&self, history: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64>;

    /// The fixed prediction horizon (in metrics intervals).
    fn horizon(&self) -> usize;

    /// Model name for reports.
    fn name(&self) -> String;
}

/// Configuration of the [`DrnnPredictor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrnnPredictorConfig {
    /// Which multilevel feature groups feed the model.
    pub features: FeatureSpec,
    /// Input window length (intervals).
    pub lookback: usize,
    /// Prediction horizon (intervals ahead).
    pub horizon: usize,
    /// Hidden widths of the stacked LSTM layers.
    pub hidden: Vec<usize>,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for DrnnPredictorConfig {
    fn default() -> Self {
        DrnnPredictorConfig {
            features: FeatureSpec::full(),
            lookback: 16,
            horizon: 1,
            hidden: vec![32, 32],
            train: TrainConfig {
                epochs: 60,
                batch_size: 32,
                ..TrainConfig::default()
            },
            seed: 42,
        }
    }
}

/// The paper's DRNN predictor: a stacked recurrent network over multilevel
/// features, trained pooled across all workers (shared dynamics, more data).
pub struct DrnnPredictor {
    config: DrnnPredictorConfig,
    model: Option<Drnn>,
    feature_norm: Option<Normalizer>,
    target_mean: f64,
    target_std: f64,
    report: Option<drnn::train::TrainReport>,
}

impl DrnnPredictor {
    /// New unfitted predictor.
    pub fn new(config: DrnnPredictorConfig) -> Self {
        DrnnPredictor {
            config,
            model: None,
            feature_norm: None,
            target_mean: 0.0,
            target_std: 1.0,
            report: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DrnnPredictorConfig {
        &self.config
    }

    /// The training report of the last `fit`, if any (used by the
    /// `fig-training` experiment).
    pub fn last_report(&self) -> Option<&drnn::train::TrainReport> {
        self.report.as_ref()
    }

    /// Builds normalized training samples pooled over the per-worker
    /// `(features, targets)` series.
    fn build_samples(
        &self,
        series: &[(Vec<Vec<f64>>, Vec<f64>)],
        norm: &Normalizer,
    ) -> Vec<Sample> {
        let mut samples = Vec::new();
        for (features, targets) in series {
            let features = norm.transform(features);
            let targets: Vec<f64> = targets
                .iter()
                .map(|t| (t - self.target_mean) / self.target_std)
                .collect();
            samples.extend(make_windows(
                &features,
                &targets,
                self.config.lookback,
                self.config.horizon,
            ));
        }
        samples
    }
}

impl PerformancePredictor for DrnnPredictor {
    fn fit(&mut self, history: &[&MetricsSnapshot], workers: &[WorkerId]) -> Result<()> {
        let needed = self.config.lookback + self.config.horizon + 4;
        if history.len() < needed {
            return Err(Error::NotEnoughHistory {
                needed,
                got: history.len(),
            });
        }
        // One extraction per worker feeds the scalers and the windows.
        let series: Vec<_> = workers
            .iter()
            .map(|&w| series_for_worker(&self.config.features, history, w))
            .collect();
        // Fit the feature normalizer and target scaler on the pooled data.
        let all_features: Vec<Vec<f64>> = series.iter().flat_map(|s| s.0.iter().cloned()).collect();
        let all_targets: Vec<f64> = series.iter().flat_map(|s| s.1.iter().copied()).collect();
        if all_features.is_empty() {
            return Err(Error::NotEnoughHistory { needed, got: 0 });
        }
        let norm = Normalizer::fit(&all_features);
        self.target_mean = all_targets.iter().sum::<f64>() / all_targets.len() as f64;
        let var = all_targets
            .iter()
            .map(|t| (t - self.target_mean).powi(2))
            .sum::<f64>()
            / all_targets.len() as f64;
        self.target_std = var.sqrt().max(1e-9);

        let samples = self.build_samples(&series, &norm);
        if samples.is_empty() {
            return Err(Error::NotEnoughHistory {
                needed,
                got: history.len(),
            });
        }

        let mut model = Drnn::new(DrnnConfig {
            input: self.config.features.dim(),
            hidden: self.config.hidden.clone(),
            output: 1,
            seed: self.config.seed,
        });
        let report = train(&mut model, &samples, &self.config.train);
        self.report = Some(report);
        self.model = Some(model);
        self.feature_norm = Some(norm);
        Ok(())
    }

    fn predict(&self, history: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64> {
        let model = self.model.as_ref()?;
        let norm = self.feature_norm.as_ref()?;
        // The window is the last `lookback` snapshots that know the worker:
        // walk back from the end and stop there, whatever the history length.
        let mut window: Vec<Vec<f64>> = history
            .iter()
            .rev()
            .filter_map(|snap| extract(&self.config.features, snap, worker))
            .take(self.config.lookback)
            .collect();
        if window.len() < self.config.lookback {
            return None;
        }
        window.reverse();
        window
            .iter_mut()
            .for_each(|row| norm.transform_in_place(row));
        let sample = Sample {
            window,
            target: vec![0.0],
        };
        let (xs, _) = drnn::data::batch_to_matrices(&[&sample]);
        let pred = model.predict(&xs).get(0, 0);
        Some((pred * self.target_std + self.target_mean).max(0.0))
    }

    fn horizon(&self) -> usize {
        self.config.horizon
    }

    fn name(&self) -> String {
        "DRNN-LSTM".into()
    }
}

/// The baseline ARIMA predictor: one univariate ARIMA per worker on its
/// latency series, order chosen by AIC.
pub struct ArimaPredictor {
    horizon: usize,
    max_order: (usize, usize, usize),
    models: HashMap<WorkerId, Arima>,
}

/// The baseline SVR predictor: one autoregressive ε-SVR per worker.
pub struct SvrPredictor {
    horizon: usize,
    lags: usize,
    params: SvrParams,
    models: HashMap<WorkerId, SvrForecaster>,
}

fn latency_series(history: &[&MetricsSnapshot], worker: WorkerId) -> Vec<f64> {
    let spec = FeatureSpec::worker_only();
    series_for_worker(&spec, history, worker).1
}

impl ArimaPredictor {
    /// New ARIMA baseline with horizon and order-search bounds.
    pub fn new(horizon: usize, max_p: usize, max_d: usize, max_q: usize) -> Self {
        ArimaPredictor {
            horizon,
            max_order: (max_p, max_d, max_q),
            models: HashMap::new(),
        }
    }
}

impl PerformancePredictor for ArimaPredictor {
    fn fit(&mut self, history: &[&MetricsSnapshot], workers: &[WorkerId]) -> Result<()> {
        self.models.clear();
        for &w in workers {
            let series = latency_series(history, w);
            if series.len() < 30 {
                return Err(Error::NotEnoughHistory {
                    needed: 30,
                    got: series.len(),
                });
            }
            let (p, d, q) = self.max_order;
            let model = auto_arima(&series, p, d, q)?;
            self.models.insert(w, model);
        }
        Ok(())
    }

    fn predict(&self, history: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64> {
        let model = self.models.get(&worker)?;
        let series = latency_series(history, worker);
        if series.is_empty() {
            return None;
        }
        model
            .forecast_from(&series, self.horizon)
            .ok()
            .and_then(|f| f.last().copied())
            .map(|v| v.max(0.0))
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn name(&self) -> String {
        "ARIMA".into()
    }
}

impl SvrPredictor {
    /// New SVR baseline.
    pub fn new(horizon: usize, lags: usize, params: SvrParams) -> Self {
        SvrPredictor {
            horizon,
            lags,
            params,
            models: HashMap::new(),
        }
    }
}

impl PerformancePredictor for SvrPredictor {
    fn fit(&mut self, history: &[&MetricsSnapshot], workers: &[WorkerId]) -> Result<()> {
        self.models.clear();
        for &w in workers {
            let series = latency_series(history, w);
            let mut model = SvrForecaster::new(self.lags, self.params)?;
            model.fit(&series)?;
            self.models.insert(w, model);
        }
        Ok(())
    }

    fn predict(&self, history: &[&MetricsSnapshot], worker: WorkerId) -> Option<f64> {
        let model = self.models.get(&worker)?;
        let series = latency_series(history, worker);
        model
            .forecast_from(&series, self.horizon)
            .ok()
            .and_then(|f| f.last().copied())
            .map(|v| v.max(0.0))
    }

    fn horizon(&self) -> usize {
        self.horizon
    }

    fn name(&self) -> String {
        "SVR".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsdps::metrics::{MachineStats, TopologyStats, WorkerStats};
    use dsdps::scheduler::MachineId;

    /// Synthetic history: two co-located workers; worker 0's latency is a
    /// lagged function of machine external load plus a seasonal term —
    /// learnable structure of the same shape the simulator produces.
    fn synth_history(n: usize) -> Vec<MetricsSnapshot> {
        (0..n)
            .map(|t| {
                let tt = t as f64;
                let load = if (t / 40) % 2 == 0 { 0.5 } else { 3.0 };
                let lat0 = 100.0 + 25.0 * (tt / 8.0).sin() + 40.0 * load;
                let lat1 = 120.0 + 15.0 * (tt / 5.0).cos() + 40.0 * load;
                let worker = |id: usize, lat: f64| WorkerStats {
                    worker: WorkerId(id),
                    machine: MachineId(0),
                    cpu_cores_used: 0.4 + 0.1 * (tt / 9.0).sin(),
                    memory_mb: 110.0,
                    executed: 200,
                    tuples_in: 200,
                    tuples_out: 200,
                    avg_execute_latency_us: lat,
                    num_tasks: 1,
                };
                MetricsSnapshot {
                    interval: t as u64,
                    time_s: tt,
                    interval_s: 1.0,
                    tasks: vec![],
                    workers: vec![worker(0, lat0), worker(1, lat1)],
                    machines: vec![MachineStats {
                        machine: MachineId(0),
                        cpu_cores_used: 1.0,
                        external_load_cores: load,
                        cores: 4,
                        num_workers: 2,
                    }],
                    topology: TopologyStats {
                        spout_emitted: 200,
                        acked: 200,
                        failed: 0,
                        timed_out: 0,
                        avg_complete_latency_ms: 2.0,
                        p99_complete_latency_ms: 5.0,
                        throughput: 200.0,
                    },
                }
            })
            .collect()
    }

    fn refs(h: &[MetricsSnapshot]) -> Vec<&MetricsSnapshot> {
        h.iter().collect()
    }

    fn quick_drnn(horizon: usize) -> DrnnPredictor {
        DrnnPredictor::new(DrnnPredictorConfig {
            lookback: 8,
            horizon,
            hidden: vec![16],
            train: TrainConfig {
                epochs: 25,
                batch_size: 32,
                validation_fraction: 0.0,
                early_stopping: None,
                ..TrainConfig::default()
            },
            ..DrnnPredictorConfig::default()
        })
    }

    #[test]
    fn drnn_fit_predict_round_trip() {
        let history = synth_history(300);
        let workers = [WorkerId(0), WorkerId(1)];
        let mut p = quick_drnn(1);
        p.fit(&refs(&history[..250]), &workers).unwrap();
        assert!(p.last_report().is_some());
        let pred = p.predict(&refs(&history[..260]), WorkerId(0)).unwrap();
        // Latency range is roughly [100, 260]; prediction must be sane.
        assert!(pred > 50.0 && pred < 400.0, "pred {pred}");
    }

    #[test]
    fn drnn_tracks_latency_better_than_constant() {
        let history = synth_history(400);
        let workers = [WorkerId(0)];
        let mut p = quick_drnn(1);
        p.fit(&refs(&history[..300]), &workers).unwrap();
        let mean_lat: f64 = history[..300]
            .iter()
            .map(|s| s.workers[0].avg_execute_latency_us)
            .sum::<f64>()
            / 300.0;
        let mut se_model = 0.0;
        let mut se_mean = 0.0;
        for t in 300..399 {
            let pred = p.predict(&refs(&history[..=t]), WorkerId(0)).unwrap();
            let actual = history[t + 1].workers[0].avg_execute_latency_us;
            se_model += (pred - actual).powi(2);
            se_mean += (mean_lat - actual).powi(2);
        }
        assert!(
            se_model < se_mean * 0.5,
            "DRNN MSE {se_model:.0} should clearly beat mean MSE {se_mean:.0}"
        );
    }

    #[test]
    fn drnn_rejects_short_history() {
        let history = synth_history(5);
        let mut p = quick_drnn(1);
        let err = p.fit(&refs(&history), &[WorkerId(0)]).unwrap_err();
        assert!(matches!(err, Error::NotEnoughHistory { .. }));
    }

    #[test]
    fn drnn_predict_none_before_fit_or_short_tail() {
        let history = synth_history(100);
        let p = quick_drnn(1);
        assert!(p.predict(&refs(&history), WorkerId(0)).is_none());
        let mut p = quick_drnn(1);
        p.fit(&refs(&history), &[WorkerId(0)]).unwrap();
        assert!(p.predict(&refs(&history[..3]), WorkerId(0)).is_none());
        // Unknown worker: prediction must not panic (the gap-filled feature
        // series is empty, so it returns None).
        assert!(p.predict(&refs(&history), WorkerId(7)).is_none());
    }

    #[test]
    fn drnn_predict_reads_only_the_last_lookback_snapshots() {
        let history = synth_history(300);
        let mut p = quick_drnn(1);
        p.fit(&refs(&history[..250]), &[WorkerId(0), WorkerId(1)])
            .unwrap();
        let lookback = p.config().lookback;
        for end in [lookback, 120, 300] {
            let long = p.predict(&refs(&history[..end]), WorkerId(1)).unwrap();
            let tail = p.predict(&refs(&history[end - lookback..end]), WorkerId(1));
            assert_eq!(Some(long), tail, "history of {end}");
        }
        // Snapshots that do not know the worker are skipped, not counted.
        let mut gappy = history[..100].to_vec();
        gappy[95].workers.retain(|w| w.worker != WorkerId(1));
        let full = p.predict(&refs(&gappy), WorkerId(1)).unwrap();
        let tail = p.predict(&refs(&gappy[100 - lookback - 1..]), WorkerId(1));
        assert_eq!(Some(full), tail);
        assert!(p
            .predict(&refs(&gappy[100 - lookback..]), WorkerId(1))
            .is_none());
    }

    #[test]
    fn arima_fit_predict() {
        let history = synth_history(300);
        let workers = [WorkerId(0), WorkerId(1)];
        let mut p = ArimaPredictor::new(1, 2, 1, 1);
        p.fit(&refs(&history[..250]), &workers).unwrap();
        let pred = p.predict(&refs(&history[..260]), WorkerId(1)).unwrap();
        assert!(pred > 50.0 && pred < 400.0, "pred {pred}");
        assert_eq!(p.name(), "ARIMA");
        assert_eq!(p.horizon(), 1);
    }

    #[test]
    fn svr_fit_predict() {
        let history = synth_history(300);
        let workers = [WorkerId(0)];
        let mut p = SvrPredictor::new(1, 8, SvrParams::default());
        p.fit(&refs(&history[..250]), &workers).unwrap();
        let pred = p.predict(&refs(&history[..260]), WorkerId(0)).unwrap();
        assert!(pred > 50.0 && pred < 400.0, "pred {pred}");
        assert_eq!(p.name(), "SVR");
    }

    #[test]
    fn predictors_return_none_for_unfitted_worker() {
        let history = synth_history(300);
        let mut p = ArimaPredictor::new(1, 1, 0, 1);
        p.fit(&refs(&history[..250]), &[WorkerId(0)]).unwrap();
        assert!(p.predict(&refs(&history), WorkerId(1)).is_none());
        let mut s = SvrPredictor::new(1, 8, SvrParams::default());
        s.fit(&refs(&history[..250]), &[WorkerId(0)]).unwrap();
        assert!(s.predict(&refs(&history), WorkerId(1)).is_none());
    }

    #[test]
    fn horizon_windows_shift_targets() {
        let history = synth_history(300);
        let workers = [WorkerId(0)];
        let mut h1 = quick_drnn(1);
        let mut h4 = quick_drnn(4);
        h1.fit(&refs(&history[..250]), &workers).unwrap();
        h4.fit(&refs(&history[..250]), &workers).unwrap();
        assert_eq!(h1.horizon(), 1);
        assert_eq!(h4.horizon(), 4);
        // Both predict something reasonable.
        assert!(h4.predict(&refs(&history[..260]), WorkerId(0)).is_some());
    }
}
