//! Light-weight hyperparameter search for surrogate MLPs.
//!
//! The paper applies "data normalization and hyperparameter tuning" when
//! fitting the surrogates and uses RayTune for the constrained trainer's
//! `μ`. This module is the workspace's RayTune stand-in for the
//! surrogate side: a deterministic grid/random search over MLP settings
//! scored by validation MSE.

use crate::mlp::{Mlp, MlpConfig};
use crate::sampling::AfPowerDataset;
use crate::SurrogateError;
use pnc_linalg::stats::Standardizer;
use pnc_linalg::{rng as lrng, Matrix};
use pnc_telemetry::Telemetry;

/// One evaluated candidate in a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTrial {
    /// Candidate configuration.
    pub config: MlpConfig,
    /// Validation mean-squared error (standardized log-power space).
    // lint: dimensionless
    pub validation_mse: f64,
}

/// Result of [`tune_mlp`]: all trials plus the winner index.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Every evaluated trial, in evaluation order.
    pub trials: Vec<TuningTrial>,
    /// Index of the best trial.
    pub best: usize,
}

impl TuningReport {
    /// The winning configuration.
    pub fn best_config(&self) -> &MlpConfig {
        &self.trials[self.best].config
    }
}

/// Evaluates each candidate architecture on a train/validation split of
/// `ds` and returns the ranked report.
///
/// # Errors
///
/// Returns [`SurrogateError::NotEnoughData`] when the dataset cannot be
/// split, or when `candidates` is empty.
pub fn tune_mlp(
    ds: &AfPowerDataset,
    candidates: &[MlpConfig],
) -> Result<TuningReport, SurrogateError> {
    if candidates.is_empty() {
        return Err(SurrogateError::NotEnoughData {
            available: 0,
            required: 1,
        });
    }
    if ds.len() < 16 {
        return Err(SurrogateError::NotEnoughData {
            available: ds.len(),
            required: 16,
        });
    }
    let (train, val) = ds.split(5);
    let prep = |d: &AfPowerDataset, scaler: &Standardizer, ym: f64, ys: f64| {
        let x = scaler.transform(&d.designs.map(f64::ln));
        let y = Matrix::from_vec(
            d.power.len(),
            1,
            d.power.iter().map(|&p| (p.log10() - ym) / ys).collect(),
        );
        (x, y)
    };
    let scaler = Standardizer::fit(&train.designs.map(f64::ln));
    let logs: Vec<f64> = train.power.iter().map(|&p| p.log10()).collect();
    let ym = pnc_linalg::stats::mean(&logs);
    let ys = pnc_linalg::stats::std_dev(&logs).max(1e-9);
    let (xtr, ytr) = prep(&train, &scaler, ym, ys);
    let (xva, yva) = prep(&val, &scaler, ym, ys);

    let mut trials = Vec::with_capacity(candidates.len());
    for cfg in candidates {
        let mut rng = lrng::seeded(cfg.seed);
        let mut mlp = Mlp::new(xtr.cols(), &cfg.hidden, 1, &mut rng);
        mlp.train(&xtr, &ytr, cfg, &Telemetry::disabled());
        trials.push(TuningTrial {
            config: cfg.clone(),
            validation_mse: mlp.mse(&xva, &yva),
        });
    }
    let best = trials
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.validation_mse.total_cmp(&b.1.validation_mse))
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(TuningReport { trials, best })
}

/// A small default candidate grid (width × depth × learning rate).
pub fn default_candidates() -> Vec<MlpConfig> {
    let mut out = Vec::new();
    for hidden in [vec![16, 16], vec![32, 32, 32], vec![24; 6]] {
        for &lr in &[1e-3, 5e-3] {
            out.push(MlpConfig {
                hidden: hidden.clone(),
                lr,
                epochs: 200,
                ..MlpConfig::default()
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_spice::AfKind;

    #[test]
    fn tuning_picks_finite_best() {
        let ds = AfPowerDataset::generate(AfKind::PRelu, 48, 5, &Telemetry::disabled()).unwrap();
        let candidates = vec![
            MlpConfig {
                hidden: vec![8],
                epochs: 100,
                lr: 5e-3,
                ..MlpConfig::default()
            },
            MlpConfig {
                hidden: vec![16, 16],
                epochs: 100,
                lr: 5e-3,
                ..MlpConfig::default()
            },
        ];
        let report = tune_mlp(&ds, &candidates).unwrap();
        assert_eq!(report.trials.len(), 2);
        assert!(report.trials[report.best].validation_mse.is_finite());
        assert!(
            report.trials[report.best].validation_mse
                <= report.trials[1 - report.best].validation_mse
        );
    }

    #[test]
    fn empty_candidates_is_error() {
        let ds = AfPowerDataset::generate(AfKind::PRelu, 20, 5, &Telemetry::disabled()).unwrap();
        assert!(tune_mlp(&ds, &[]).is_err());
    }

    #[test]
    fn default_grid_is_nonempty() {
        assert!(default_candidates().len() >= 4);
    }
}
