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
//! Two constraint families are built in:
//!
//! * [`ConstraintKind::Power`] — the paper's `P(θ, q) ≤ P̄`.
//! * [`ConstraintKind::DeviceCount`] — a printed-area proxy: the soft
//!   device count (crossbar resistors + activation + negation
//!   circuits, in device units) must not exceed a budget. Device count
//!   is the paper's `#Dev` metric; constraining it directly targets
//!   substrate area and yield rather than energy.

use crate::error::TrainError;
use crate::observer::NoopObserver;
use crate::trainer::{fit_instrumented, DataRefs, EpochMeasure, FitContext, Iterate, TrainConfig};
use pnc_autodiff::{Tape, Var};
use pnc_core::activation::{devices_per_af, DEVICES_PER_NEGATION};
use pnc_core::count::{soft_af_count, soft_neg_count};
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
    /// Builds the normalized constraint node `c = value/budget − 1` on
    /// the tape for the current bound network.
    fn build(&self, tape: &mut Tape, bound: &BoundNetwork, net: &PrintedNetwork) -> Var {
        match *self {
            ConstraintKind::Power { budget_watts } => {
                let ratio = tape.mul_scalar(bound.power, 1.0 / budget_watts);
                tape.add_scalar(ratio, -1.0)
            }
            ConstraintKind::DeviceCount { budget_devices } => {
                let count = soft_device_total(tape, bound, net);
                let ratio = tape.mul_scalar(count, 1.0 / budget_devices);
                tape.add_scalar(ratio, -1.0)
            }
        }
    }

    /// Hard (indicator) evaluation of the constraint on a training
    /// iterate: `value/budget − 1`, with power priced from the
    /// iterate's recorded forward.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when the training
    /// inputs disagree with the network topology.
    pub fn violation(&self, it: &Iterate<'_>) -> Result<f64, CoreError> {
        match *self {
            ConstraintKind::Power { budget_watts } => Ok(it.hard_power()? / budget_watts - 1.0),
            ConstraintKind::DeviceCount { budget_devices } => {
                Ok(it.network().device_count() as f64 / budget_devices - 1.0)
            }
        }
    }

    /// [`ConstraintKind::violation`] of `net` on the inputs `x`, priced
    /// with a plain forward.
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
        self.violation(&Iterate::new(net, x))
    }
}

/// Differentiable total device count of a bound network: crossbar
/// resistors (soft indicators) + soft activation and negation counts,
/// weighted by the devices each circuit costs.
///
/// Uses a deliberately *gentler* sigmoid than the reporting
/// configuration: a sharp indicator carries gradient only for weights
/// sitting right at the pruning threshold, so constraint pressure would
/// never reach the bulk of the conductances. The gentle relaxation
/// trades a small counting bias for useful gradients everywhere.
pub fn soft_device_total(tape: &mut Tape, bound: &BoundNetwork, net: &PrintedNetwork) -> Var {
    let mut cfg = net.config().count;
    cfg.steepness = (cfg.steepness / 20.0).max(5.0);
    let af_cost = devices_per_af(net.activation().kind()) as f64;
    let mut total: Option<Var> = None;
    for (i, layer) in bound.layers.iter().enumerate() {
        // Crossbar resistors: Σ σ(k(|θ| − τ)).
        let a = tape.abs(layer.theta);
        let shifted = tape.add_scalar(a, -cfg.threshold);
        let scaled = tape.mul_scalar(shifted, cfg.steepness);
        let sig = tape.sigmoid(scaled);
        let resistors = tape.sum_all(sig);

        let n_af = soft_af_count(tape, layer.theta, &cfg);
        let inputs = tape.shape(layer.theta).0 - 2;
        let n_neg = soft_neg_count(tape, layer.theta, inputs, &cfg);

        let af_devices = tape.mul_scalar(n_af, af_cost);
        let neg_devices = tape.mul_scalar(n_neg, DEVICES_PER_NEGATION as f64);
        let s1 = tape.add(resistors, af_devices);
        let layer_total = tape.add(s1, neg_devices);
        total = Some(match total {
            Some(t) => tape.add(t, layer_total),
            None => layer_total,
        });
        let _ = i;
    }
    // lint: allow(L001, reason = "a PrintedNetwork always has at least one layer by construction")
    total.expect("network has at least one layer")
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

/// Runs the multi-constraint augmented Lagrangian, mutating `net`.
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
    assert!(cfg.mu > 0.0, "mu must be positive");

    let mut lambdas = vec![0.0f64; cfg.constraints.len()];
    let mut best_params = net.param_values();
    let mut best_key = (false, f64::NEG_INFINITY);

    for _ in 0..cfg.outer_iters {
        let lam = lambdas.clone();
        let constraints = cfg.constraints.clone();
        let mu = cfg.mu;
        // The objective needs `net` for device-count weights, but the fit
        // also borrows it mutably; clone the immutable configuration
        // bits we need instead.
        let net_snapshot = net.clone();

        let objective = move |tape: &mut Tape, bound: &BoundNetwork, ce: Var| {
            let mut total = ce;
            for (k, constraint) in constraints.iter().enumerate() {
                let c = constraint.build(tape, bound, &net_snapshot);
                let mu_c = tape.mul_scalar(c, mu);
                let inner = tape.add_scalar(mu_c, lam[k]);
                let act = tape.clamp_min(inner, 0.0);
                let act_sq = tape.square(act);
                let shifted = tape.add_scalar(act_sq, -(lam[k] * lam[k]));
                let psi = tape.mul_scalar(shifted, 1.0 / (2.0 * mu));
                total = tape.add(total, psi);
            }
            total
        };
        let cons2 = cfg.constraints.clone();
        // A shape mismatch inside the feasibility probe (impossible
        // once the fit loop has bound the same inputs) counts as
        // infeasible instead of panicking.
        let measure = move |it: &Iterate<'_>| EpochMeasure {
            power_watts: None,
            feasible: cons2
                .iter()
                .all(|c| c.violation(it).is_ok_and(|v| v <= 0.0)),
        };
        fit_instrumented(
            net,
            data,
            &cfg.inner,
            &objective,
            &measure,
            &FitContext::default(),
            &mut NoopObserver,
        )?;

        // Multiplier updates on hard violations.
        let violations: Vec<f64> = cfg
            .constraints
            .iter()
            .map(|c| c.hard_violation(net, data.x_train))
            .collect::<Result<_, _>>()?;
        let all_ok = violations.iter().all(|&v| v <= 0.0);
        let val_acc = net.accuracy(data.x_val, data.y_val)?;
        let key = (all_ok, val_acc);
        if key > best_key {
            best_key = key;
            best_params = net.param_values();
        }
        for (l, &v) in lambdas.iter_mut().zip(&violations) {
            *l = (*l + cfg.mu * v).max(0.0);
        }
    }

    net.set_param_values(&best_params);
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
        let bound = net.bind(&mut tape, &x).unwrap();
        let soft = soft_device_total(&mut tape, &bound, &net);
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
