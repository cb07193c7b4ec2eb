//! End-to-end experiment drivers for the paper's evaluation section.
//!
//! These functions tie the whole reproduction together and are what the
//! `pnc-bench` binaries call to regenerate Table I and Figs. 4/5:
//!
//! 1. fit the surrogate bundle for an activation kind,
//! 2. train an *unconstrained* reference to find the dataset's maximum
//!    power `P_max`,
//! 3. run the augmented Lagrangian at budgets `{20, 40, 60, 80} % ·
//!    P_max` and fine-tune under the mask ([`train_constrained`]), and
//! 4. report test accuracy, hard power and device count —
//!
//! plus the penalty-baseline sweep used for the Pareto comparison.

use crate::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use crate::error::TrainError;
use crate::finetune::finetune;
use crate::observer::{NoopObserver, TrainObserver};
use crate::penalty::{train_penalty_observed, PenaltyConfig};
use crate::trainer::{fit_cross_entropy, DataRefs, TrainConfig};
use crate::tune::best_candidate;
use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_linalg::rng as lrng;
use pnc_spice::AfKind;
use pnc_surrogate::NegationModel;

/// Fidelity preset controlling the cost of a full experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentFidelity {
    /// Surrogate-fitting fidelity.
    pub surrogate: SurrogateFidelity,
    /// Training-loop settings.
    pub train: TrainConfig,
    /// Outer iterations of the augmented Lagrangian.
    pub auglag_outer: usize,
    /// `μ` used when no per-dataset tuning is requested.
    pub mu: f64,
}

impl ExperimentFidelity {
    /// Seconds-scale preset for unit tests.
    pub fn smoke() -> Self {
        ExperimentFidelity {
            surrogate: SurrogateFidelity::smoke(),
            train: TrainConfig::smoke(),
            auglag_outer: 3,
            mu: 2.0,
        }
    }

    /// Minutes-scale preset: enough optimization for the qualitative
    /// trends (used by the CI benchmark harness).
    pub fn ci() -> Self {
        ExperimentFidelity {
            surrogate: SurrogateFidelity::default(),
            train: TrainConfig {
                max_epochs: 500,
                patience: 60,
                ..TrainConfig::default()
            },
            auglag_outer: 5,
            mu: 2.0,
        }
    }

    /// Paper-scale preset (10,000-sample surrogates, 2000-epoch inner
    /// solves).
    pub fn full() -> Self {
        ExperimentFidelity {
            surrogate: SurrogateFidelity::paper(),
            train: TrainConfig::default(),
            auglag_outer: 8,
            mu: 2.0,
        }
    }
}

/// One trained model's evaluation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Dataset evaluated.
    pub dataset: DatasetId,
    /// Activation kind used.
    pub af: AfKind,
    /// Budget as a fraction of `P_max` (1.0 for unconstrained).
    pub budget_frac: f64,
    /// Budget in milliwatts.
    pub budget_mw: f64,
    /// Hard power of the final model in milliwatts.
    pub power_mw: f64,
    /// Test-set accuracy in `[0, 1]`.
    pub test_accuracy: f64,
    /// Validation accuracy in `[0, 1]` (for model/μ selection without
    /// touching the test set).
    pub val_accuracy: f64,
    /// Hard printed-device count.
    pub devices: usize,
    /// Whether the final model satisfies the budget.
    pub feasible: bool,
    /// Seed used for initialization and the data split.
    pub seed: u64,
    /// Number of full training runs this result cost (1 for the
    /// augmented Lagrangian; the baseline pays one per (α, seed)).
    pub training_runs: usize,
}

/// Builds a fresh network for a dataset with the standard
/// `#inputs-3-#outputs` topology.
pub fn build_network(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    seed: u64,
) -> PrintedNetwork {
    let mut rng = lrng::seeded(seed);
    PrintedNetwork::new(
        id.features(),
        id.classes(),
        NetworkConfig::default(),
        activation.clone(),
        *negation,
        &mut rng,
    )
    // lint: allow(L001, reason = "every DatasetId reports positive feature/class counts")
    .expect("benchmark datasets have positive widths")
}

/// Trains an unconstrained reference and returns `(trained_net, P_max)`
/// where `P_max` is the maximum hard power observed during training —
/// the paper's normalization for all budget fractions.
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// dataset's topology, and [`TrainError::NonFinite`] on numerical
/// collapse.
pub fn unconstrained_reference(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    data: &DataRefs<'_>,
    train: &TrainConfig,
    seed: u64,
) -> Result<(PrintedNetwork, f64), TrainError> {
    let mut net = build_network(id, activation, negation, seed);
    let p_init = hard_power(&net, data.x_train)?;
    fit_cross_entropy(&mut net, data, train)?;
    let p_final = hard_power(&net, data.x_train)?;
    Ok((net, p_final.max(p_init)))
}

/// The paper's constrained training step (Sec. IV-A1): a fresh network
/// from `seed`, the augmented Lagrangian at `budget_watts`, then
/// mask-based fine-tuning under the same budget. Returns the trained
/// network.
///
/// `observer` sees the augmented Lagrangian's epochs and outer
/// iterations; fine-tuning runs inside a `finetune` span opened through
/// `observer.profiler()` (a no-op for [`NoopObserver`]).
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// dataset's topology, and [`TrainError::NonFinite`] on numerical
/// collapse.
#[allow(clippy::too_many_arguments)]
pub fn train_constrained(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    data: &DataRefs<'_>,
    budget_watts: f64,
    fidelity: &ExperimentFidelity,
    seed: u64,
    observer: &mut dyn TrainObserver,
) -> Result<PrintedNetwork, TrainError> {
    let mut net = build_network(id, activation, negation, seed);
    let cfg = AugLagConfig {
        budget_watts,
        mu: fidelity.mu,
        outer_iters: fidelity.auglag_outer,
        inner: fidelity.train.with_seed(seed),
        warm_start: true,
        rescue: true,
    };
    train_auglag_observed(&mut net, data, &cfg, observer)?;
    let _scope = observer.profiler().scope("finetune");
    finetune(&mut net, data, budget_watts, &fidelity.train)?;
    Ok(net)
}

/// Full single-run pipeline: [`train_constrained`] at
/// `budget = budget_frac · p_max`, then the run's evaluation summary.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// dataset's topology, and [`TrainError::NonFinite`] on numerical
/// collapse.
#[allow(clippy::too_many_arguments)]
pub fn run_constrained(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    data: &DataRefs<'_>,
    x_test: &pnc_linalg::Matrix,
    y_test: &[usize],
    p_max: f64,
    budget_frac: f64,
    fidelity: &ExperimentFidelity,
    seed: u64,
) -> Result<RunResult, TrainError> {
    let budget = budget_frac * p_max;
    let net = train_constrained(
        id,
        activation,
        negation,
        data,
        budget,
        fidelity,
        seed,
        &mut NoopObserver,
    )?;
    let power = hard_power(&net, data.x_train)?;
    Ok(RunResult {
        dataset: id,
        af: activation.kind(),
        budget_frac,
        budget_mw: budget * 1e3,
        power_mw: power * 1e3,
        test_accuracy: net.accuracy(x_test, y_test)?,
        val_accuracy: net.accuracy(data.x_val, data.y_val)?,
        devices: net.device_count(),
        feasible: power <= budget,
        seed,
        training_runs: 1,
    })
}

/// Like [`run_constrained`] but selects the augmented Lagrangian `μ`
/// from `mu_candidates` by validation accuracy among feasible runs —
/// the paper's RayTune protocol. `training_runs` reflects every
/// candidate trained.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// dataset's topology, and [`TrainError::NonFinite`] on numerical
/// collapse.
///
/// # Panics
///
/// Panics when `mu_candidates` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_constrained_tuned(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    data: &DataRefs<'_>,
    x_test: &pnc_linalg::Matrix,
    y_test: &[usize],
    p_max: f64,
    budget_frac: f64,
    fidelity: &ExperimentFidelity,
    seed: u64,
    mu_candidates: &[f64],
) -> Result<RunResult, TrainError> {
    assert!(!mu_candidates.is_empty(), "need at least one μ candidate");
    // Each μ candidate trains an independent network from the same
    // seed, so the grid fans out over the executor. The winner is
    // picked in candidate order, so the first candidate wins ties for
    // any thread count.
    let mut runs = pnc_parallel::ExecutorHandle::get().par_try_map(mu_candidates, |_, &mu| {
        let fid = ExperimentFidelity {
            mu,
            ..fidelity.clone()
        };
        run_constrained(
            id,
            activation,
            negation,
            data,
            x_test,
            y_test,
            p_max,
            budget_frac,
            &fid,
            seed,
        )
    })?;
    let best = best_candidate(runs.iter().map(|r| (r.feasible, r.val_accuracy)));
    let mut out = runs.swap_remove(best);
    out.training_runs = mu_candidates.len();
    Ok(out)
}

/// One penalty-baseline run at scaling factor `alpha`.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// dataset's topology, and [`TrainError::NonFinite`] on numerical
/// collapse.
#[allow(clippy::too_many_arguments)]
pub fn run_penalty_baseline(
    id: DatasetId,
    activation: &LearnableActivation,
    negation: &NegationModel,
    data: &DataRefs<'_>,
    x_test: &pnc_linalg::Matrix,
    y_test: &[usize],
    p_max: f64,
    alpha: f64,
    train: &TrainConfig,
    seed: u64,
    faithful: bool,
) -> Result<RunResult, TrainError> {
    let mut net = build_network(id, activation, negation, seed);
    let cfg = PenaltyConfig {
        alpha,
        p_ref_watts: p_max,
        inner: train.with_seed(seed),
        faithful,
    };
    train_penalty_observed(&mut net, data, &cfg, &mut NoopObserver)?;
    let power = hard_power(&net, data.x_train)?;
    Ok(RunResult {
        dataset: id,
        af: activation.kind(),
        budget_frac: alpha, // repurposed: the α knob
        budget_mw: f64::NAN,
        power_mw: power * 1e3,
        test_accuracy: net.accuracy(x_test, y_test)?,
        val_accuracy: net.accuracy(data.x_val, data.y_val)?,
        devices: net.device_count(),
        feasible: true,
        seed,
        training_runs: 1,
    })
}

/// Convenience: materializes a dataset + split and returns everything a
/// run needs. The split seed is derived from `seed` so each seed sees a
/// different shuffle, as with fresh seeds in the paper.
pub struct PreparedData {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Its 60/20/20 split.
    pub split: pnc_datasets::Split,
}

impl PreparedData {
    /// Generates and splits `id` deterministically from `seed`.
    pub fn new(id: DatasetId, seed: u64) -> Self {
        let dataset = Dataset::generate(id, 0xDA7A ^ id as u64);
        let split = dataset.split(seed);
        PreparedData { dataset, split }
    }

    /// Borrow the train/val references.
    pub fn refs(&self) -> DataRefs<'_> {
        DataRefs::from_split(&self.split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::test_support::smoke_parts;

    #[test]
    fn smoke_pipeline_on_iris() {
        let (act, neg) = smoke_parts().clone();
        let prep = PreparedData::new(DatasetId::Iris, 1);
        let data = prep.refs();
        let fid = ExperimentFidelity::smoke();

        let (_, p_max) =
            unconstrained_reference(DatasetId::Iris, &act, &neg, &data, &fid.train, 1).unwrap();
        assert!(p_max > 0.0);

        let result = run_constrained(
            DatasetId::Iris,
            &act,
            &neg,
            &data,
            &prep.split.test.x,
            &prep.split.test.labels,
            p_max,
            0.4,
            &fid,
            1,
        )
        .unwrap();
        assert!(result.feasible, "{result:?}");
        assert!(result.power_mw <= result.budget_mw * 1.02);
        assert!(result.test_accuracy > 0.3, "{result:?}");
        assert!(result.devices > 0);
        assert_eq!(result.training_runs, 1);
    }

    #[test]
    fn penalty_baseline_runs() {
        let (act, neg) = smoke_parts().clone();
        let prep = PreparedData::new(DatasetId::Iris, 2);
        let data = prep.refs();
        let result = run_penalty_baseline(
            DatasetId::Iris,
            &act,
            &neg,
            &data,
            &prep.split.test.x,
            &prep.split.test.labels,
            1e-4,
            0.5,
            &TrainConfig::smoke(),
            2,
            false,
        )
        .unwrap();
        assert!(result.power_mw > 0.0);
        assert!(result.test_accuracy >= 0.0);
    }

    #[test]
    fn prepared_data_is_deterministic() {
        let a = PreparedData::new(DatasetId::Seeds, 5);
        let b = PreparedData::new(DatasetId::Seeds, 5);
        assert_eq!(a.split.train.labels, b.split.train.labels);
    }
}
