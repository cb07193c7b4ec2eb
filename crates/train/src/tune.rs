//! Validation-based selection of the augmented Lagrangian `μ`.
//!
//! The paper selects `μ` with RayTune (Sec. IV-A1). This module is the
//! deterministic stand-in: evaluate a log-uniform grid of candidates,
//! score each by (feasibility, validation accuracy), and return the
//! winner. [`crate::experiment::run_constrained_tuned`] fans the same
//! kind of grid out over the executor and picks its winner by the same
//! rule.

use crate::auglag::{train_auglag_observed, AugLagConfig};
use crate::error::TrainError;
use crate::observer::NoopObserver;
use crate::trainer::DataRefs;
use pnc_core::PrintedNetwork;

/// One evaluated `μ` candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuTrial {
    /// Candidate value.
    pub mu: f64,
    /// Whether the run ended feasible.
    pub feasible: bool,
    /// Validation accuracy of the run's restored model.
    pub val_accuracy: f64,
    /// Final power in watts.
    pub power_watts: f64,
}

/// Result of a `μ` search.
#[derive(Debug, Clone)]
pub struct MuSearchReport {
    /// Every evaluated candidate.
    pub trials: Vec<MuTrial>,
    /// Index of the winner.
    pub best: usize,
}

impl MuSearchReport {
    /// The winning `μ`.
    pub fn best_mu(&self) -> f64 {
        self.trials[self.best].mu
    }
}

/// Default log-uniform candidate grid for `μ`.
pub fn default_mu_grid() -> Vec<f64> {
    vec![0.5, 1.0, 2.0, 5.0, 10.0]
}

/// Evaluates each candidate `μ` by running the augmented Lagrangian
/// from the same initial network (cloned per trial) and scoring by
/// (feasible, validation accuracy); the first candidate wins ties.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// network topology, and [`TrainError::NonFinite`] when a trial run
/// collapses numerically.
///
/// # Panics
///
/// Panics when `candidates` is empty.
pub fn select_mu(
    net_template: &PrintedNetwork,
    data: &DataRefs<'_>,
    base_cfg: &AugLagConfig,
    candidates: &[f64],
) -> Result<MuSearchReport, TrainError> {
    assert!(!candidates.is_empty(), "select_mu: no candidates");
    let mut trials = Vec::with_capacity(candidates.len());
    for &mu in candidates {
        let mut net = net_template.clone();
        let cfg = AugLagConfig { mu, ..*base_cfg };
        let report = train_auglag_observed(&mut net, data, &cfg, &mut NoopObserver)?;
        trials.push(MuTrial {
            mu,
            feasible: report.feasible,
            val_accuracy: report.val_accuracy,
            power_watts: report.power_watts,
        });
    }
    let best = best_candidate(trials.iter().map(|t| (t.feasible, t.val_accuracy)));
    Ok(MuSearchReport { trials, best })
}

/// Index of the best `(feasible, validation accuracy)` score: a
/// feasible run beats an infeasible one, then higher accuracy wins, and
/// the first candidate wins ties (`total_cmp` keeps the order total even
/// if an accuracy is NaN). Returns 0 for no scores.
pub(crate) fn best_candidate(scores: impl IntoIterator<Item = (bool, f64)>) -> usize {
    // `min_by` returns the first of equal elements, so order best first.
    scores
        .into_iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auglag::hard_power;
    use crate::trainer::test_support::tiny_network;
    use crate::trainer::TrainConfig;
    use pnc_datasets::{Dataset, DatasetId};

    #[test]
    fn picks_a_feasible_winner_when_possible() {
        let ds = Dataset::generate(DatasetId::Iris, 11);
        let split = ds.split(7);
        let data = DataRefs::from_split(&split);
        let net = tiny_network(4, 3, 61);
        let p0 = hard_power(&net, data.x_train).unwrap();
        let base = AugLagConfig {
            outer_iters: 2,
            inner: TrainConfig {
                max_epochs: 15,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(p0)
        };
        let report = select_mu(&net, &data, &base, &[1.0, 5.0]).unwrap();
        assert_eq!(report.trials.len(), 2);
        let winner = &report.trials[report.best];
        assert!(winner.feasible, "{report:?}");
        // lint: allow(L002, reason = "grid values are copied through untouched, bit-exact")
        assert!(report.best_mu() == 1.0 || report.best_mu() == 5.0);
    }

    #[test]
    fn first_candidate_wins_ties() {
        let ds = Dataset::generate(DatasetId::Iris, 13);
        let split = ds.split(9);
        let data = DataRefs::from_split(&split);
        let net = tiny_network(4, 3, 71);
        let p0 = hard_power(&net, data.x_train).unwrap();
        let base = AugLagConfig {
            outer_iters: 1,
            inner: TrainConfig {
                max_epochs: 5,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(p0)
        };
        // Equal candidates train identical networks, so the trials tie.
        let report = select_mu(&net, &data, &base, &[1.0, 1.0]).unwrap();
        assert_eq!(report.trials[0], report.trials[1]);
        assert_eq!(report.best, 0, "{report:?}");
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_grid_panics() {
        let ds = Dataset::generate(DatasetId::Iris, 12);
        let split = ds.split(8);
        let data = DataRefs::from_split(&split);
        let net = tiny_network(4, 3, 67);
        let _ = select_mu(&net, &data, &AugLagConfig::smoke(1e-3), &[]);
    }

    #[test]
    fn default_grid_is_log_spread() {
        let g = default_mu_grid();
        assert!(g.len() >= 4);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }
}
