//! Shared experiment plumbing for the binaries: surrogate bundles,
//! row-capped data, and the per-dataset pipelines.

use crate::scale::Scale;
use pnc_core::activation::{fit_negation_model, LearnableActivation};
use pnc_core::CoreError;
use pnc_datasets::DatasetId;
use pnc_linalg::Matrix;
use pnc_parallel::ExecutorHandle;
use pnc_spice::AfKind;
use pnc_surrogate::NegationModel;
use pnc_train::experiment::{
    run_constrained_tuned, run_penalty_baseline, unconstrained_reference, ExperimentFidelity,
    PreparedData, RunResult,
};
use pnc_train::trainer::DataRefs;
use std::fmt;

/// Errors the experiment harness can surface to the binaries: surrogate
/// fitting can fail (degenerate SPICE sweeps), and every training
/// pipeline propagates the core shape errors.
#[derive(Debug)]
pub enum BenchError {
    /// Fitting a transfer/power surrogate failed.
    Surrogate {
        /// Human-readable context (which surrogate was being fitted).
        context: &'static str,
        /// Underlying error.
        source: pnc_surrogate::SurrogateError,
    },
    /// A training pipeline hit a core error (shape mismatch etc.).
    Core(CoreError),
    /// A training pipeline failed with a typed training error
    /// (numerical collapse, …).
    Train(pnc_train::TrainError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Surrogate { context, source } => {
                write!(f, "surrogate fit failed for {context}: {source}")
            }
            BenchError::Core(e) => write!(f, "{e}"),
            BenchError::Train(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Surrogate { source, .. } => Some(source),
            BenchError::Core(e) => Some(e),
            BenchError::Train(e) => Some(e),
        }
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> Self {
        BenchError::Core(e)
    }
}

impl From<pnc_train::TrainError> for BenchError {
    fn from(e: pnc_train::TrainError) -> Self {
        BenchError::Train(e)
    }
}

/// Surrogates for one activation kind plus the shared negation cell.
#[derive(Debug, Clone)]
pub struct AfBundle {
    /// Transfer + power surrogates with the bounded parameterization.
    pub activation: LearnableActivation,
    /// Negation-circuit surrogate.
    pub negation: NegationModel,
}

/// Fits the surrogate bundle for `kind` (the expensive, shared setup of
/// every experiment — Sobol sampling + SPICE + MLP fits).
///
/// # Errors
///
/// Returns [`BenchError::Surrogate`] when either the activation or the
/// negation surrogate cannot be fitted.
pub fn fit_bundle(kind: AfKind, fidelity: &ExperimentFidelity) -> Result<AfBundle, BenchError> {
    fit_bundle_traced(kind, fidelity, &pnc_telemetry::Telemetry::disabled())
}

/// [`fit_bundle`] with instrumentation: characterization progress
/// events stream to `tel`'s sink, and with an enabled
/// [`pnc_telemetry::Profiler`] the Sobol sweeps, per-point DC solves,
/// and MLP fits record spans.
///
/// # Errors
///
/// Same failure modes as [`fit_bundle`].
pub fn fit_bundle_traced(
    kind: AfKind,
    fidelity: &ExperimentFidelity,
    tel: &pnc_telemetry::Telemetry,
) -> Result<AfBundle, BenchError> {
    let activation =
        LearnableActivation::fit(kind, &fidelity.surrogate, tel).map_err(|source| {
            BenchError::Surrogate {
                context: kind.name(),
                source,
            }
        })?;
    let negation = fit_negation_model(fidelity.surrogate.transfer_grid).map_err(|source| {
        BenchError::Surrogate {
            context: "negation cell",
            source,
        }
    })?;
    Ok(AfBundle {
        activation,
        negation,
    })
}

/// Owned, row-capped training data (validation and test are never
/// capped — only the full-batch training cost is bounded).
#[derive(Debug, Clone)]
pub struct CappedData {
    /// Capped training features.
    pub x_train: Matrix,
    /// Capped training labels.
    pub y_train: Vec<usize>,
    /// Validation features.
    pub x_val: Matrix,
    /// Validation labels.
    pub y_val: Vec<usize>,
    /// Test features.
    pub x_test: Matrix,
    /// Test labels.
    pub y_test: Vec<usize>,
}

impl CappedData {
    /// Materializes a prepared split with a training-row cap.
    pub fn new(prep: &PreparedData, cap: usize) -> Self {
        let n = prep.split.train.len().min(cap);
        let idx: Vec<usize> = (0..n).collect();
        CappedData {
            x_train: prep.split.train.x.select_rows(&idx),
            y_train: prep.split.train.labels[..n].to_vec(),
            x_val: prep.split.val.x.clone(),
            y_val: prep.split.val.labels.clone(),
            x_test: prep.split.test.x.clone(),
            y_test: prep.split.test.labels.clone(),
        }
    }

    /// Borrows the train/val references for the trainer.
    pub fn refs(&self) -> DataRefs<'_> {
        DataRefs {
            x_train: &self.x_train,
            y_train: &self.y_train,
            x_val: &self.x_val,
            y_val: &self.y_val,
        }
    }
}

/// Runs the full constrained pipeline for one dataset at several budget
/// fractions, reusing one unconstrained reference per seed. Each run
/// selects μ from `mu_grid` by validation accuracy (the paper's RayTune
/// protocol); a one-candidate grid fixes μ.
///
/// # Panics
///
/// Panics when `mu_grid` is empty.
pub fn run_dataset(
    id: DatasetId,
    bundle: &AfBundle,
    budget_fracs: &[f64],
    seeds: &[u64],
    fidelity: &ExperimentFidelity,
    cap: usize,
    mu_grid: &[f64],
) -> Result<Vec<RunResult>, BenchError> {
    let stages = prepare_seed_stages(id, bundle, seeds, fidelity, cap)?;
    let work = seed_sweep_pairs(&stages, budget_fracs);
    ExecutorHandle::get().par_try_map(&work, |_, &((seed, data, p_max), frac)| {
        run_constrained_tuned(
            id,
            &bundle.activation,
            &bundle.negation,
            &data.refs(),
            &data.x_test,
            &data.y_test,
            p_max,
            frac,
            fidelity,
            seed,
            mu_grid,
        )
        .map_err(BenchError::from)
    })
}

/// The per-seed reference stage every experiment starts from (paper
/// Sec. IV-A1): the seed's split of `id`, capped to `cap` training
/// rows, and the unconstrained reference's maximum power `P_max` that
/// budget fractions scale.
///
/// # Errors
///
/// Returns [`BenchError::Train`] when the reference run fails.
pub fn reference_stage(
    id: DatasetId,
    bundle: &AfBundle,
    seed: u64,
    fidelity: &ExperimentFidelity,
    cap: usize,
) -> Result<(CappedData, f64), BenchError> {
    let prep = PreparedData::new(id, seed);
    let data = CappedData::new(&prep, cap);
    let (_, p_max) = unconstrained_reference(
        id,
        &bundle.activation,
        &bundle.negation,
        &data.refs(),
        &fidelity.train,
        seed,
    )?;
    Ok((data, p_max))
}

/// [`reference_stage`] for every seed of a dataset sweep. Seeds are
/// independent, so this fans out over the executor; results come back
/// in seed order.
fn prepare_seed_stages(
    id: DatasetId,
    bundle: &AfBundle,
    seeds: &[u64],
    fidelity: &ExperimentFidelity,
    cap: usize,
) -> Result<Vec<(u64, CappedData, f64)>, BenchError> {
    ExecutorHandle::get().par_try_map(seeds, |_, &seed| {
        let (data, p_max) = reference_stage(id, bundle, seed, fidelity, cap)?;
        Ok::<_, BenchError>((seed, data, p_max))
    })
}

/// The `(seed stage, sweep value)` cross product in sequential order:
/// for each seed, every sweep value — exactly the nesting the old
/// sequential loops used, so parallel results collect in the same
/// order.
fn seed_sweep_pairs<'a>(
    stages: &'a [(u64, CappedData, f64)],
    values: &[f64],
) -> Vec<((u64, &'a CappedData, f64), f64)> {
    let mut out = Vec::with_capacity(stages.len() * values.len());
    for (seed, data, p_max) in stages {
        for &v in values {
            out.push(((*seed, data, *p_max), v));
        }
    }
    out
}

/// μ candidates used when an experiment tunes the augmented Lagrangian
/// step parameter per dataset (the paper's RayTune protocol).
pub const MU_GRID: [f64; 3] = [0.5, 2.0, 8.0];

/// Runs the penalty baseline sweep for one dataset. `faithful` selects
/// the paper-faithful baseline behaviour (absolute-milliwatt penalty,
/// frozen activation designs) versus the controlled variant.
pub fn run_dataset_penalty(
    id: DatasetId,
    bundle: &AfBundle,
    alphas: &[f64],
    seeds: &[u64],
    fidelity: &ExperimentFidelity,
    cap: usize,
    faithful: bool,
) -> Result<Vec<RunResult>, BenchError> {
    let stages = prepare_seed_stages(id, bundle, seeds, fidelity, cap)?;
    let work = seed_sweep_pairs(&stages, alphas);
    ExecutorHandle::get().par_try_map(&work, |_, &((seed, data, p_max), alpha)| {
        run_penalty_baseline(
            id,
            &bundle.activation,
            &bundle.negation,
            &data.refs(),
            &data.x_test,
            &data.y_test,
            p_max,
            alpha,
            &fidelity.train,
            seed,
            faithful,
        )
        .map_err(BenchError::from)
    })
}

/// Parses `--threads N` from the raw process args and configures the
/// process-wide executor — the bench binaries' counterpart of the CLI
/// flag (same `Scale::from_args` idiom). Call once at the top of
/// `main`, before any parallel work; returns the effective thread
/// count for banners and snapshots.
///
/// # Errors
///
/// The CLI's errors for a `--threads` value it cannot apply (see
/// [`ExecutorHandle::configure_flag`]), including a missing one.
pub fn configure_threads_from_args() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        ExecutorHandle::configure_flag(args.get(i + 1).map_or("", String::as_str))?;
    }
    Ok(ExecutorHandle::threads())
}

/// Maps `f` over the datasets on the process-wide executor (respects
/// `--threads` / `PNC_THREADS`) and returns results in dataset order.
pub fn parallel_over_datasets<T: Send>(
    datasets: &[DatasetId],
    f: impl Fn(DatasetId) -> T + Sync,
) -> Vec<T> {
    ExecutorHandle::get().par_map(datasets, |_, &d| f(d))
}

/// Budget fractions evaluated throughout the paper.
pub const BUDGET_FRACS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// Baseline α column of Table I (paired with 20/40/60/80 % rows).
pub const BASELINE_ALPHAS: [f64; 4] = [1.0, 0.75, 0.5, 0.25];

/// Formats a run result as a CSV row.
pub fn run_csv_row(r: &RunResult) -> Vec<String> {
    vec![
        r.dataset.name().to_string(),
        r.af.name().to_string(),
        format!("{:.2}", r.budget_frac),
        format!("{:.6}", r.budget_mw),
        format!("{:.6}", r.power_mw),
        format!("{:.4}", r.test_accuracy),
        r.devices.to_string(),
        r.feasible.to_string(),
        r.seed.to_string(),
    ]
}

/// Header matching [`run_csv_row`].
pub const RUN_CSV_HEADER: [&str; 9] = [
    "dataset",
    "af",
    "budget_frac",
    "budget_mw",
    "power_mw",
    "accuracy",
    "devices",
    "feasible",
    "seed",
];

/// Convenience wrapper: scale-appropriate cap.
pub fn cap_for(scale: Scale) -> usize {
    scale.max_train_rows()
}

/// Runs `f` with the process-wide SPICE solver statistics isolated to
/// it: the counters (and the per-solve Newton iteration histogram) are
/// zeroed before the closure runs and read out after, so successive
/// dataset runs do not bleed into each other's rollups. Returns the
/// closure's value, the counters it accumulated, and the iteration
/// distribution.
///
/// The stats are process-global, so two windows must never overlap in
/// time: do not call it from [`parallel_over_datasets`] (or any other
/// executor) workers. Parallelism *inside* one window is fine — the
/// counters are atomic and aggregate correctly under concurrent solves
/// — which is how `perf_snapshot` keeps per-dataset windows sequential
/// while each window's sweeps fan out.
pub fn isolate_solver_stats<T>(
    f: impl FnOnce() -> T,
) -> (
    T,
    pnc_spice::stats::SolverStatsSnapshot,
    pnc_telemetry::HistogramSummary,
) {
    let _ = pnc_spice::stats::take();
    let value = f();
    let iters = pnc_spice::stats::newton_iteration_summary();
    let stats = pnc_spice::stats::take();
    (value, stats, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let ds = [DatasetId::Iris, DatasetId::Seeds, DatasetId::BalanceScale];
        let names = parallel_over_datasets(&ds, |d| d.name().to_string());
        assert_eq!(names, vec!["Iris", "Seeds", "Balance Scale"]);
    }

    #[test]
    fn capped_data_respects_cap() {
        let prep = PreparedData::new(DatasetId::BreastCancer, 1);
        let capped = CappedData::new(&prep, 100);
        assert_eq!(capped.x_train.rows(), 100);
        assert_eq!(capped.y_train.len(), 100);
        // Val/test untouched.
        assert_eq!(capped.x_val.rows(), prep.split.val.len());
        assert_eq!(capped.x_test.rows(), prep.split.test.len());
    }

    // NOTE: the solver stats are process-global and Rust runs tests in
    // parallel, so this test only makes assertions that stay true when
    // other tests solve concurrently (no other test in this binary
    // touches the solver today, but the guard costs nothing).
    #[test]
    fn isolated_solver_stats_do_not_bleed_between_runs() {
        let solve_divider = |n: usize| {
            for _ in 0..n {
                let mut c = pnc_spice::Circuit::new();
                let a = c.node("a");
                let b = c.node("b");
                c.vsource(a, pnc_spice::Circuit::GROUND, 1.0);
                c.resistor(a, b, 1_000.0);
                c.resistor(b, pnc_spice::Circuit::GROUND, 2_000.0);
                pnc_spice::solve_dc(&c).unwrap();
            }
        };
        let ((), first, _) = isolate_solver_stats(|| solve_divider(5));
        let ((), second, iters) = isolate_solver_stats(|| solve_divider(2));
        assert!(first.solves >= 5);
        // The second window must not inherit the first one's five
        // solves: its count reflects only work done inside it.
        assert!(second.solves >= 2);
        assert!(
            second.solves < first.solves + 2,
            "second window inherited counts from the first: {second:?}"
        );
        assert!(iters.count >= 2);
        assert!(iters.max >= 1.0);
    }

    #[test]
    fn csv_row_matches_header() {
        use pnc_train::experiment::RunResult;
        let r = RunResult {
            dataset: DatasetId::Iris,
            af: AfKind::PTanh,
            budget_frac: 0.4,
            budget_mw: 1.0,
            power_mw: 0.5,
            test_accuracy: 0.9,
            val_accuracy: 0.9,
            devices: 33,
            feasible: true,
            seed: 1,
            training_runs: 1,
        };
        assert_eq!(run_csv_row(&r).len(), RUN_CSV_HEADER.len());
    }
}
