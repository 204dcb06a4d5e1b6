//! The per-experiment regenerators, one public function per table/figure of
//! the reconstructed evaluation (see `DESIGN.md` §3).

pub mod grouping;
pub mod policy;
pub mod prediction;
pub mod reliability;
pub mod rt_reliability;

use std::error::Error;
use std::path::PathBuf;

/// Result alias for experiment runners.
pub type ExpResult = Result<(), Box<dyn Error>>;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Directory CSV outputs are written to.
    pub out_dir: PathBuf,
    /// Reduced durations/epochs for smoke testing.
    pub quick: bool,
}

impl Ctx {
    /// Full-fidelity context writing to `results/`.
    pub fn full() -> Self {
        Ctx {
            out_dir: PathBuf::from("results"),
            quick: false,
        }
    }

    /// Quick context for CI / integration tests.
    pub fn quick(out_dir: PathBuf) -> Self {
        Ctx {
            out_dir,
            quick: true,
        }
    }
}

/// An experiment registry entry.
pub struct Experiment {
    /// Stable id (matches DESIGN.md).
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The runner.
    pub run: fn(&Ctx) -> ExpResult,
}

/// Every regenerable table and figure.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig-pred-wuc",
            description: "DRNN vs ground-truth worker latency time series (Windowed URL Count)",
            run: prediction::fig_pred_wuc,
        },
        Experiment {
            id: "fig-pred-cq",
            description: "DRNN vs ground-truth worker latency time series (Continuous Queries)",
            run: prediction::fig_pred_cq,
        },
        Experiment {
            id: "tab-accuracy",
            description: "Prediction accuracy (MAPE/RMSE): DRNN vs ARIMA vs SVR on both apps",
            run: prediction::tab_accuracy,
        },
        Experiment {
            id: "fig-ablation",
            description: "DRNN accuracy with vs without interference (machine/co-location) features",
            run: prediction::fig_ablation,
        },
        Experiment {
            id: "fig-training",
            description: "DRNN training convergence (loss vs epoch)",
            run: prediction::fig_training,
        },
        Experiment {
            id: "fig-horizon",
            description: "Prediction error vs horizon (1..8 intervals) for all models",
            run: prediction::fig_horizon,
        },
        Experiment {
            id: "fig-dg-track",
            description: "Dynamic grouping: commanded vs observed split ratios over time",
            run: grouping::fig_dg_track,
        },
        Experiment {
            id: "fig-dg-overhead",
            description: "Dynamic grouping overhead vs shuffle/fields grouping",
            run: grouping::fig_dg_overhead,
        },
        Experiment {
            id: "fig-policy",
            description: "Split-policy ablation: uniform vs capacity-proportional under skewed load",
            run: policy::fig_policy,
        },
        Experiment {
            id: "fig-reliability-wuc",
            description: "Throughput/latency under a misbehaving worker (WUC): none vs reactive vs predictive",
            run: reliability::fig_reliability_wuc,
        },
        Experiment {
            id: "fig-reliability-cq",
            description: "Throughput/latency under a misbehaving worker (CQ)",
            run: reliability::fig_reliability_cq,
        },
        Experiment {
            id: "tab-degradation",
            description: "Degradation summary over seeds: throughput loss and latency inflation",
            run: reliability::tab_degradation,
        },
        Experiment {
            id: "fig-latency-cdf",
            description: "Complete-latency CDF during the fault window: control vs no control",
            run: reliability::fig_latency_cdf,
        },
        Experiment {
            id: "rt-reliability",
            description: "Threaded runtime under chaos (panic + slowdown): supervision, replay, reactive control",
            run: rt_reliability::rt_reliability,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_documented() {
        let reg = registry();
        assert_eq!(reg.len(), 14);
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14, "duplicate experiment ids");
        assert!(reg.iter().all(|e| !e.description.is_empty()));
    }

    #[test]
    fn ctx_constructors() {
        let f = Ctx::full();
        assert!(!f.quick);
        let q = Ctx::quick(PathBuf::from("/tmp/x"));
        assert!(q.quick);
        assert_eq!(q.out_dir, PathBuf::from("/tmp/x"));
    }
}
