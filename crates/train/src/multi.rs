//! Multi-constraint augmented Lagrangian training — the paper's stated
//! future-work direction ("future works may explore its applicability
//! to additional circuit components and constraints", Sec. V).
//!
//! Generalizes the single power constraint to a set of inequality
//! constraints `c_k(θ, q) ≤ 0`, each with its own multiplier `λ_k` and
//! shared step parameter `μ`:
//!
//! ```text
//! minimize  ℒ + Σ_k (1/2μ)(max(0, λ_k + μ·c_k)² − λ_k²)
//! λ_k ← max(0, λ_k + μ·c_k)
//! ```
//!
//! It runs the outer loop of [`crate::auglag::train_auglag_observed`]
//! over the whole set, without that trainer's power-only rescue.
//!
//! Two constraint families are built in:
//!
//! * [`ConstraintKind::Power`] — the paper's `P(θ, q) ≤ P̄`.
//! * [`ConstraintKind::DeviceCount`] — a printed-area proxy: the soft
//!   device count (crossbar resistors + activation + negation
//!   circuits, in device units) must not exceed a budget. Device count
//!   is the paper's `#Dev` metric; constraining it directly targets
//!   substrate area and yield rather than energy.

use crate::auglag::outer_loop;
use crate::error::TrainError;
use crate::observer::NoopObserver;
use crate::trainer::{DataRefs, EpochMeasure, Iterate, TrainConfig};
use pnc_autodiff::{Tape, Var};
use pnc_core::activation::{devices_per_af, DEVICES_PER_NEGATION};
use pnc_core::count::{soft_af_count, soft_neg_count, CountConfig};
use pnc_core::network::BoundNetwork;
use pnc_core::{CoreError, PrintedNetwork};

/// A constraint family with its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstraintKind {
    /// Total power ≤ budget (watts).
    Power {
        /// Budget in watts.
        budget_watts: f64,
    },
    /// Soft total device count ≤ budget (devices).
    DeviceCount {
        /// Budget in printed devices.
        budget_devices: f64,
    },
}

impl ConstraintKind {
    /// The budget, in watts or devices.
    pub(crate) fn budget(&self) -> f64 {
        match *self {
            ConstraintKind::Power { budget_watts } => budget_watts,
            ConstraintKind::DeviceCount { budget_devices } => budget_devices,
        }
    }

    /// Builds the normalized constraint node `c = value/budget − 1` on
    /// the tape for the current bound network, the value being the
    /// differentiable (soft-count) power or device count.
    pub(crate) fn build(&self, tape: &mut Tape, bound: &BoundNetwork, soft: &SoftCount) -> Var {
        let value = match self {
            ConstraintKind::Power { .. } => bound.power,
            ConstraintKind::DeviceCount { .. } => soft.total(tape, bound),
        };
        normalized(tape, value, self.budget()).1
    }

    /// Hard (indicator) value on a training iterate: power in watts,
    /// priced from the iterate's recorded forward, or the device count.
    pub(crate) fn value(&self, it: &Iterate<'_>) -> Result<f64, CoreError> {
        match self {
            ConstraintKind::Power { .. } => it.hard_power(),
            ConstraintKind::DeviceCount { .. } => Ok(it.network().device_count() as f64),
        }
    }

    /// The normalized constraint `value/budget − 1` of a hard value.
    pub(crate) fn normalize(&self, value: f64) -> f64 {
        value / self.budget() - 1.0
    }

    /// Hard (indicator) violation `value/budget − 1` of `net` on the
    /// inputs `x`, priced with a plain forward.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `x` disagrees
    /// with the network topology.
    pub fn hard_violation(
        &self,
        net: &PrintedNetwork,
        x: &pnc_linalg::Matrix,
    ) -> Result<f64, CoreError> {
        Ok(self.normalize(self.value(&Iterate::new(net, x))?))
    }
}

/// `value/budget` and the normalized constraint `value/budget − 1` on
/// the tape.
pub(crate) fn normalized(tape: &mut Tape, value: Var, budget: f64) -> (Var, Var) {
    let ratio = tape.mul_scalar(value, 1.0 / budget);
    (ratio, tape.add_scalar(ratio, -1.0))
}

/// Per-epoch hard measurement of an iterate against `constraints`: it
/// is feasible when every hard value is within its budget, and the
/// power constraint's value is the epoch's power reading. A shape
/// mismatch (impossible once the fit loop has bound the same inputs)
/// counts as infeasible instead of panicking.
pub(crate) fn epoch_measure(constraints: &[ConstraintKind], it: &Iterate<'_>) -> EpochMeasure {
    let mut measured = EpochMeasure::unconstrained();
    for c in constraints {
        match c.value(it) {
            Ok(v) => {
                if let ConstraintKind::Power { .. } = c {
                    measured.power_watts = Some(v);
                }
                measured.feasible &= v <= c.budget();
            }
            Err(_) => measured.feasible = false,
        }
    }
    measured
}

/// The differentiable total device count: crossbar resistors (soft
/// indicators) + soft activation and negation counts, weighted by the
/// devices each circuit costs. Holds what it reads from the network,
/// once per run: the count configuration and the activation's cost.
///
/// Uses a deliberately *gentler* sigmoid than the reporting
/// configuration: a sharp indicator carries gradient only for weights
/// sitting right at the pruning threshold, so constraint pressure would
/// never reach the bulk of the conductances. The gentle relaxation
/// trades a small counting bias for useful gradients everywhere.
pub(crate) struct SoftCount {
    cfg: CountConfig,
    af_devices: f64,
}

impl SoftCount {
    /// Reads the gentled count configuration and the activation's
    /// device cost from `net`.
    pub(crate) fn of(net: &PrintedNetwork) -> Self {
        let mut cfg = net.config().count;
        cfg.steepness = (cfg.steepness / 20.0).max(5.0);
        SoftCount {
            cfg,
            af_devices: devices_per_af(net.activation().kind()) as f64,
        }
    }

    /// The soft device count of `bound`.
    pub(crate) fn total(&self, tape: &mut Tape, bound: &BoundNetwork) -> Var {
        let cfg = &self.cfg;
        let mut total: Option<Var> = None;
        for layer in &bound.layers {
            // Crossbar resistors: Σ σ(k(|θ| − τ)).
            let a = tape.abs(layer.theta);
            let shifted = tape.add_scalar(a, -cfg.threshold);
            let scaled = tape.mul_scalar(shifted, cfg.steepness);
            let sig = tape.sigmoid(scaled);
            let resistors = tape.sum_all(sig);

            let n_af = soft_af_count(tape, layer.theta, cfg);
            let inputs = tape.shape(layer.theta).0 - 2;
            let n_neg = soft_neg_count(tape, layer.theta, inputs, cfg);

            let af_devices = tape.mul_scalar(n_af, self.af_devices);
            let neg_devices = tape.mul_scalar(n_neg, DEVICES_PER_NEGATION as f64);
            let s1 = tape.add(resistors, af_devices);
            let layer_total = tape.add(s1, neg_devices);
            total = Some(match total {
                Some(t) => tape.add(t, layer_total),
                None => layer_total,
            });
        }
        // lint: allow(L001, reason = "a PrintedNetwork always has at least one layer by construction")
        total.expect("network has at least one layer")
    }
}

/// Multi-constraint trainer settings.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiConstraintConfig {
    /// The constraint set.
    pub constraints: Vec<ConstraintKind>,
    /// Shared step parameter `μ`.
    pub mu: f64,
    /// Outer iterations.
    pub outer_iters: usize,
    /// Inner minimization settings.
    pub inner: TrainConfig,
}

/// Report of a multi-constraint run.
#[derive(Debug, Clone)]
pub struct MultiConstraintReport {
    /// Final multipliers, one per constraint.
    pub lambdas: Vec<f64>,
    /// Hard violations `value/budget − 1` of the restored model.
    pub violations: Vec<f64>,
    /// Whether every constraint is satisfied.
    pub feasible: bool,
    /// Validation accuracy of the restored model.
    pub val_accuracy: f64,
}

/// Runs the multi-constraint augmented Lagrangian, mutating `net`: the
/// outer loop of [`crate::auglag::train_auglag_observed`] over every
/// constraint, warm-started, unobserved and without a rescue phase.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// network topology, and [`TrainError::NonFinite`] on numerical
/// collapse inside an inner solve.
///
/// # Panics
///
/// Panics when `constraints` is empty or `mu ≤ 0`.
pub fn train_multi_constraint(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &MultiConstraintConfig,
) -> Result<MultiConstraintReport, TrainError> {
    assert!(!cfg.constraints.is_empty(), "no constraints given");
    let (_, lambdas, _) = outer_loop(net, data, cfg, true, &mut NoopObserver)?;
    let violations: Vec<f64> = cfg
        .constraints
        .iter()
        .map(|c| c.hard_violation(net, data.x_train))
        .collect::<Result<_, _>>()?;
    Ok(MultiConstraintReport {
        feasible: violations.iter().all(|&v| v <= 0.0),
        violations,
        lambdas,
        val_accuracy: net.accuracy(data.x_val, data.y_val)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auglag::hard_power;
    use crate::trainer::fit_cross_entropy;
    use crate::trainer::test_support::tiny_network;
    use pnc_datasets::{Dataset, DatasetId};

    #[test]
    fn power_plus_device_constraints_are_enforced() {
        let ds = Dataset::generate(DatasetId::Iris, 21);
        let split = ds.split(9);
        let data = DataRefs::from_split(&split);

        // References for budget setting.
        let mut reference = tiny_network(4, 3, 71);
        fit_cross_entropy(&mut reference, &data, &TrainConfig::smoke()).unwrap();
        let p_max = hard_power(&reference, data.x_train).unwrap();
        let dev_max = reference.device_count() as f64;

        let mut net = tiny_network(4, 3, 71);
        let report = train_multi_constraint(
            &mut net,
            &data,
            &MultiConstraintConfig {
                constraints: vec![
                    ConstraintKind::Power {
                        budget_watts: 0.6 * p_max,
                    },
                    ConstraintKind::DeviceCount {
                        budget_devices: 0.85 * dev_max,
                    },
                ],
                mu: 2.0,
                outer_iters: 4,
                // Two active constraints leave a narrow feasible set;
                // give the inner solver a little more budget than the
                // bare smoke preset so accuracy recovers inside it.
                inner: TrainConfig {
                    max_epochs: 120,
                    ..TrainConfig::smoke()
                },
            },
        )
        .unwrap();
        assert!(
            report.feasible,
            "both constraints should be satisfiable: {report:?}"
        );
        assert!(hard_power(&net, data.x_train).unwrap() <= 0.6 * p_max * 1.0001);
        assert!(net.device_count() as f64 <= 0.85 * dev_max + 1e-9);
        assert!(report.val_accuracy > 0.4, "acc {}", report.val_accuracy);
    }

    #[test]
    fn soft_device_total_tracks_hard_count() {
        let net = tiny_network(4, 3, 73);
        let x = pnc_linalg::rng::uniform_matrix(&mut pnc_linalg::rng::seeded(1), 5, 4, -0.5, 0.5);
        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let soft = SoftCount::of(&net).total(&mut tape, &bound);
        let soft_v = tape.scalar(soft);
        let hard = net.device_count() as f64;
        assert!(
            (soft_v - hard).abs() < 0.1 * hard.max(1.0) + 2.0,
            "soft {soft_v} vs hard {hard}"
        );
    }

    #[test]
    #[should_panic(expected = "no constraints")]
    fn empty_constraints_panics() {
        let ds = Dataset::generate(DatasetId::Iris, 22);
        let split = ds.split(10);
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 79);
        let _ = train_multi_constraint(
            &mut net,
            &data,
            &MultiConstraintConfig {
                constraints: vec![],
                mu: 2.0,
                outer_iters: 1,
                inner: TrainConfig::smoke(),
            },
        );
    }
}
