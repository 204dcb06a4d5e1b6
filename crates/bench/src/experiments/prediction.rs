//! Prediction-accuracy experiments: the paper's claim 1 — "the proposed
//! DRNN model outperforms widely used baseline solutions, ARIMA and SVR, in
//! terms of prediction accuracy".

use drnn::metrics::{mape, rmse};
use drnn::train::{EarlyStopping, TrainConfig};
use dsdps::metrics::MetricsSnapshot;
use dsdps::scheduler::WorkerId;
use forecast::svr::{Kernel, SvrParams};
use rayon::prelude::*;
use stream_control::features::FeatureSpec;
use stream_control::predictor::{
    ArimaPredictor, DrnnPredictor, DrnnPredictorConfig, PerformancePredictor, SvrPredictor,
};

use crate::harness::{
    background_interference, run_monitored, walk_forward, walk_forward_pooled, App,
};
use crate::table::{f2, Table};

use super::{Ctx, ExpResult};

/// Durations (in metrics intervals = virtual seconds).
struct Durations {
    train: usize,
    test: usize,
}

fn durations(ctx: &Ctx) -> Durations {
    if ctx.quick {
        Durations {
            train: 160,
            test: 60,
        }
    } else {
        Durations {
            train: 420,
            test: 180,
        }
    }
}

/// DRNN predictor configuration used across the prediction experiments.
pub fn drnn_config(ctx: &Ctx, features: FeatureSpec, horizon: usize) -> DrnnPredictorConfig {
    DrnnPredictorConfig {
        features,
        lookback: 16,
        horizon,
        hidden: vec![32, 32],
        train: TrainConfig {
            epochs: if ctx.quick { 60 } else { 150 },
            batch_size: 32,
            optimizer: drnn::optim::OptimizerKind::adam(3e-3),
            validation_fraction: 0.1,
            early_stopping: Some(EarlyStopping {
                patience: 15,
                min_delta: 1e-5,
            }),
            ..TrainConfig::default()
        },
        ..DrnnPredictorConfig::default()
    }
}

fn svr_params() -> SvrParams {
    SvrParams {
        c: 10.0,
        epsilon: 0.01,
        kernel: Kernel::Rbf { gamma: 0.25 },
        max_sweeps: 200,
        tol: 1e-5,
    }
}

/// Collects an interference-rich history for `app`.
///
/// Prediction experiments use pure co-location interference (CPU-hogging
/// neighbours): this is the regime the paper's multilevel features target —
/// the machine-level signal makes the future *learnable*, which is exactly
/// what separates the DRNN from the univariate baselines (`fig-ablation`
/// quantifies it).
fn collect(ctx: &Ctx, app: App, seed: u64) -> (Vec<MetricsSnapshot>, Vec<WorkerId>) {
    let d = durations(ctx);
    let total = (d.train + d.test) as f64;
    let run = run_monitored(app, total, seed, &background_interference(4, total));
    (run.snapshots, run.stage_workers)
}

/// Fits DRNN/ARIMA/SVR on the training prefix.  The three models are
/// independent, so their fits run concurrently on the thread pool; the
/// returned order is fixed regardless of completion order.
fn fit_all(
    ctx: &Ctx,
    history: &[MetricsSnapshot],
    workers: &[WorkerId],
    train_len: usize,
    horizon: usize,
) -> Vec<Box<dyn PerformancePredictor + Send + Sync>> {
    let train_refs: Vec<&MetricsSnapshot> = history[..train_len].iter().collect();
    let make = |i: usize| -> Box<dyn PerformancePredictor + Send + Sync> {
        match i {
            0 => Box::new(DrnnPredictor::new(drnn_config(
                ctx,
                FeatureSpec::full(),
                horizon,
            ))),
            1 => Box::new(ArimaPredictor::new(horizon, 3, 1, 2)),
            _ => Box::new(SvrPredictor::new(horizon, 12, svr_params())),
        }
    };
    (0..3usize)
        .into_par_iter()
        .map(|i| {
            let mut m = make(i);
            m.fit(&train_refs, workers)
                .unwrap_or_else(|e| panic!("{} fit failed: {e}", m.name()));
            m
        })
        .collect()
}

fn fig_pred(ctx: &Ctx, app: App) -> ExpResult {
    let d = durations(ctx);
    let (history, workers) = collect(ctx, app, 11);
    let models = fit_all(ctx, &history, &workers, d.train, 1);
    let worker = workers[0];

    // Time series of actual vs each model's prediction on the test range.
    let mut header: Vec<String> = vec!["t_s".into(), "actual".into()];
    header.extend(models.iter().map(|m| m.name().to_lowercase()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "fig-pred-{}: worker {} latency, actual vs predicted (µs)",
            app.id(),
            worker
        ),
        &header_refs,
    );
    let results: Vec<(Vec<f64>, Vec<f64>)> = models
        .iter()
        .map(|m| walk_forward(m.as_ref(), &history, worker, d.train))
        .collect();
    let n = results[0].0.len();
    assert!(results.iter().all(|(a, _)| a.len() == n));
    for i in 0..n {
        let mut row = vec![format!("{}", d.train + i), f2(results[0].0[i])];
        row.extend(results.iter().map(|(_, p)| f2(p[i])));
        table.row(&row);
    }
    table.save_and_print(&ctx.out_dir, &format!("fig-pred-{}", app.id()))?;

    let mut summary = Table::new(
        &format!("fig-pred-{} summary (worker {worker})", app.id()),
        &["model", "MAPE_%", "RMSE_us"],
    );
    for (m, (a, p)) in models.iter().zip(&results) {
        summary.row(&[m.name(), f2(mape(a, p)), f2(rmse(a, p))]);
    }
    summary.save_and_print(&ctx.out_dir, &format!("fig-pred-{}-summary", app.id()))?;
    Ok(())
}

/// `fig-pred-wuc`: prediction time series on Windowed URL Count.
pub fn fig_pred_wuc(ctx: &Ctx) -> ExpResult {
    fig_pred(ctx, App::UrlCount)
}

/// `fig-pred-cq`: prediction time series on Continuous Queries.
pub fn fig_pred_cq(ctx: &Ctx) -> ExpResult {
    fig_pred(ctx, App::Cq)
}

/// `tab-accuracy`: pooled MAPE/RMSE per model per application.
pub fn tab_accuracy(ctx: &Ctx) -> ExpResult {
    let d = durations(ctx);
    let mut table = Table::new(
        "tab-accuracy: prediction accuracy, DRNN vs ARIMA vs SVR",
        &["app", "model", "MAPE_%", "RMSE_us", "n_points"],
    );
    for app in [App::UrlCount, App::Cq] {
        let (history, workers) = collect(ctx, app, 23);
        let models = fit_all(ctx, &history, &workers, d.train, 1);
        for m in &models {
            let (a, p) = walk_forward_pooled(m.as_ref(), &history, &workers, d.train);
            table.row(&[
                app.id().to_owned(),
                m.name(),
                f2(mape(&a, &p)),
                f2(rmse(&a, &p)),
                a.len().to_string(),
            ]);
        }
    }
    table.save_and_print(&ctx.out_dir, "tab-accuracy")?;
    Ok(())
}

/// `fig-ablation`: the value of the interference features.
pub fn fig_ablation(ctx: &Ctx) -> ExpResult {
    let d = durations(ctx);
    let mut table = Table::new(
        "fig-ablation: DRNN features with vs without interference signals",
        &["app", "features", "MAPE_%", "RMSE_us"],
    );
    for app in [App::UrlCount, App::Cq] {
        let (history, workers) = collect(ctx, app, 31);
        let train_refs: Vec<&MetricsSnapshot> = history[..d.train].iter().collect();
        for (label, spec) in [
            ("full (multilevel)", FeatureSpec::full()),
            ("worker-only", FeatureSpec::worker_only()),
        ] {
            let mut m = DrnnPredictor::new(drnn_config(ctx, spec, 1));
            m.fit(&train_refs, &workers)?;
            let (a, p) = walk_forward_pooled(&m, &history, &workers, d.train);
            table.row(&[
                app.id().to_owned(),
                label.to_owned(),
                f2(mape(&a, &p)),
                f2(rmse(&a, &p)),
            ]);
        }
    }
    table.save_and_print(&ctx.out_dir, "fig-ablation")?;
    Ok(())
}

/// `fig-training`: loss vs epoch of the DRNN fit.
pub fn fig_training(ctx: &Ctx) -> ExpResult {
    let d = durations(ctx);
    let (history, workers) = collect(ctx, App::UrlCount, 11);
    let train_refs: Vec<&MetricsSnapshot> = history[..d.train].iter().collect();
    let mut m = DrnnPredictor::new(drnn_config(ctx, FeatureSpec::full(), 1));
    m.fit(&train_refs, &workers)?;
    let report = m.last_report().expect("fit produces a report");
    let mut table = Table::new(
        "fig-training: DRNN training convergence (normalized MSE)",
        &["epoch", "train_loss", "val_loss"],
    );
    for (i, &tl) in report.train_loss.iter().enumerate() {
        let vl = report
            .val_loss
            .get(i)
            .map(|v| format!("{v:.6}"))
            .unwrap_or_default();
        table.row(&[i.to_string(), format!("{tl:.6}"), vl]);
    }
    table.save_and_print(&ctx.out_dir, "fig-training")?;
    Ok(())
}

/// `fig-horizon`: MAPE vs prediction horizon.
pub fn fig_horizon(ctx: &Ctx) -> ExpResult {
    let d = durations(ctx);
    let (history, workers) = collect(ctx, App::UrlCount, 47);
    let horizons: &[usize] = if ctx.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut table: Option<Table> = None;
    for &h in horizons {
        let models = fit_all(ctx, &history, &workers, d.train, h);
        let table = table.get_or_insert_with(|| {
            let mut header: Vec<String> = vec!["horizon".into()];
            header.extend(models.iter().map(|m| m.name().to_lowercase()));
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            Table::new(
                "fig-horizon: MAPE (%) vs prediction horizon (intervals), WUC",
                &header_refs,
            )
        });
        let mut row = vec![h.to_string()];
        row.extend(models.iter().map(|m| {
            let (a, p) = walk_forward_pooled(m.as_ref(), &history, &workers, d.train);
            f2(mape(&a, &p))
        }));
        table.row(&row);
    }
    table
        .expect("at least one horizon")
        .save_and_print(&ctx.out_dir, "fig-horizon")?;
    Ok(())
}
