//! The augmented Lagrangian constrained trainer (paper Sec. III-C).
//!
//! The constrained problem (Eq. 1)
//!
//! ```text
//! minimize ℒ(𝒟, θ, q)   s.t.   c(θ, q) = P(θ, q) − P̄ ≤ 0
//! ```
//!
//! is solved as a sequence of unconstrained problems (Eq. 3). The inner
//! maximization over `λ ≥ 0` has the closed form
//! `λ* = max(0, λ' + μ·c)` (Powell–Hestenes–Rockafellar), which turns
//! the objective into
//!
//! ```text
//! ℒ + (1/2μ) · ( max(0, λ' + μ·c)² − λ'² )
//! ```
//!
//! followed by the multiplier update `λ' ← max(0, λ' + μ·c)` (Eq. 4).
//! For conditioning the constraint is normalized to
//! `c = P/P̄ − 1` (dimensionless), so a fixed `μ` behaves consistently
//! across datasets and budgets.
//!
//! Between outer iterations the parameters are warm-started with the
//! previous solution, exactly as the paper prescribes ("to save
//! computation time, θ and q should be warmstarted").
//!
//! The same outer loop, one multiplier per constraint, serves
//! [`crate::multi::train_multi_constraint`]; only the power budget here
//! is followed by a feasibility rescue.

use crate::error::TrainError;
use crate::multi::{epoch_measure, normalized, ConstraintKind, MultiConstraintConfig, SoftCount};
use crate::observer::{RescueEvent, TrainObserver};
use crate::trainer::{fit_instrumented, DataRefs, FitContext, FitReport, Iterate, TrainConfig};
use pnc_autodiff::{Tape, Var};
use pnc_core::network::BoundNetwork;
use pnc_core::{CoreError, PrintedNetwork};
use pnc_linalg::Matrix;

/// Augmented Lagrangian settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugLagConfig {
    /// Power budget `P̄` in watts.
    pub budget_watts: f64,
    /// Penalty/step parameter `μ` (paper: tuned per dataset).
    pub mu: f64,
    /// Number of outer (multiplier-update) iterations.
    pub outer_iters: usize,
    /// Inner minimization settings.
    pub inner: TrainConfig,
    /// Warm-start inner solves from the previous solution (the paper's
    /// choice). Disable only for the ablation benchmark.
    pub warm_start: bool,
    /// If the outer loop ends infeasible, run a power-dominated rescue
    /// phase (`ℒ + κ·max(0, c)²` with large `κ`) so that the returned
    /// model always satisfies the budget — the paper's plots show every
    /// point below its budget line. Enabled by default.
    pub rescue: bool,
}

impl AugLagConfig {
    /// Default constrained-training setup for a budget in watts.
    pub fn for_budget(budget_watts: f64) -> Self {
        AugLagConfig {
            budget_watts,
            mu: 2.0,
            outer_iters: 6,
            inner: TrainConfig::default(),
            warm_start: true,
            rescue: true,
        }
    }

    /// Tiny preset for unit tests.
    pub fn smoke(budget_watts: f64) -> Self {
        AugLagConfig {
            budget_watts,
            mu: 2.0,
            outer_iters: 3,
            inner: TrainConfig::smoke(),
            warm_start: true,
            rescue: true,
        }
    }
}

/// One outer iteration's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuterIterRecord {
    /// Multiplier estimate entering the iteration, of the constraint
    /// that `constraint` reports.
    pub lambda: f64,
    /// Penalty weight μ used for the iteration.
    pub mu: f64,
    /// Hard (indicator-count) power after the inner solve, watts.
    pub power_watts: f64,
    /// Largest normalized constraint value `max_k c_k` after the inner
    /// solve: `P/P̄ − 1` for a power budget alone.
    pub constraint: f64,
    /// Validation accuracy after the inner solve.
    pub val_accuracy: f64,
    /// Inner solve report.
    pub fit: FitReport,
}

/// Result of a full augmented Lagrangian run.
#[derive(Debug, Clone)]
pub struct AugLagReport {
    /// Per-outer-iteration records.
    pub outer: Vec<OuterIterRecord>,
    /// Final multiplier estimate.
    pub lambda_final: f64,
    /// Whether the restored model satisfies the budget.
    pub feasible: bool,
    /// Whether the feasibility-restoration phase had to run.
    pub rescued: bool,
    /// Hard power of the restored model (watts).
    pub power_watts: f64,
    /// Validation accuracy of the restored model.
    pub val_accuracy: f64,
}

/// Hard, indicator-count power of the network on the training inputs —
/// the quantity the constraint is enforced on (the paper's "final power
/// estimation" semantics).
///
/// # Errors
///
/// Returns [`CoreError::InputWidthMismatch`] when `x` disagrees with
/// the network topology.
pub fn hard_power(net: &PrintedNetwork, x: &Matrix) -> Result<f64, CoreError> {
    Ok(net.power_report(x)?.total())
}

/// The augmented Lagrangian outer loop over `cfg.constraints`, one
/// multiplier `λ_k` each: every iteration minimizes
/// `ℒ + Σ_k (1/2μ)(max(0, λ_k + μ·c_k)² − λ_k²)`, then updates
/// `λ_k ← max(0, λ_k + μ·c_k)` on the hard violations, and the iterate
/// best under `(max_k c_k ≤ 0, validation accuracy)` is restored at the
/// end. Inner epochs carry the power constraint's `λ` and budget, if
/// any. Returns the outer records, the final multipliers and whether
/// the restored iterate satisfied every constraint.
///
/// # Panics
///
/// Panics when `μ` is not positive.
pub(crate) fn outer_loop(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &MultiConstraintConfig,
    warm_start: bool,
    observer: &mut dyn TrainObserver,
) -> Result<(Vec<OuterIterRecord>, Vec<f64>, bool), TrainError> {
    assert!(cfg.mu > 0.0, "mu must be positive");

    let (constraints, mu) = (&cfg.constraints, cfg.mu);
    let prof = observer.profiler();
    let soft = SoftCount::of(net);
    let power = constraints
        .iter()
        .position(|c| matches!(c, ConstraintKind::Power { .. }));
    let mut lambdas = vec![0.0f64; constraints.len()];
    let mut records = Vec::with_capacity(cfg.outer_iters);
    let mut best_params: Option<Vec<Matrix>> = None;
    let mut best_key = (false, f64::NEG_INFINITY);
    let init_params = net.param_values();

    for iter in 0..cfg.outer_iters {
        let mut outer_scope = prof.scope("outer_iter");
        outer_scope.set_u64("iter", iter as u64);
        if !warm_start {
            net.set_param_values(&init_params);
        }
        let objective = |tape: &mut Tape, bound: &BoundNetwork, ce: Var| {
            let mut total = ce;
            for (constraint, &lam) in constraints.iter().zip(&lambdas) {
                let c = constraint.build(tape, bound, &soft);
                // Ψ = (1/2μ)(max(0, λ + μc)² − λ²)
                let mu_c = tape.mul_scalar(c, mu);
                let inner = tape.add_scalar(mu_c, lam);
                let act = tape.clamp_min(inner, 0.0);
                let act_sq = tape.square(act);
                let shifted = tape.add_scalar(act_sq, -(lam * lam));
                let psi = tape.mul_scalar(shifted, 1.0 / (2.0 * mu));
                total = tape.add(total, psi);
            }
            total
        };
        let measure = |it: &Iterate<'_>| epoch_measure(constraints, it);
        let ctx = FitContext {
            lambda: power.map(|k| lambdas[k]),
            mu: Some(mu),
            budget_watts: power.map(|k| constraints[k].budget()),
        };
        let fit = fit_instrumented(net, data, &cfg.inner, &objective, &measure, &ctx, observer)?;

        let it = Iterate::new(net, data.x_train);
        let values: Vec<f64> = constraints
            .iter()
            .map(|c| c.value(&it))
            .collect::<Result<_, _>>()?;
        let power_watts = match power {
            Some(k) => values[k],
            None => hard_power(net, data.x_train)?,
        };
        let violations: Vec<f64> = constraints
            .iter()
            .zip(values)
            .map(|(c, v)| c.normalize(v))
            .collect();
        // The most violated constraint, the first of ties.
        let worst =
            (1..violations.len()).fold(0, |w, k| if violations[k] > violations[w] { k } else { w });
        let val_acc = net.accuracy(data.x_val, data.y_val)?;
        let record = OuterIterRecord {
            lambda: lambdas[worst],
            mu,
            power_watts,
            constraint: violations[worst],
            val_accuracy: val_acc,
            fit,
        };
        outer_scope.set_f64("constraint", record.constraint);
        outer_scope.set_f64("lambda", record.lambda);
        observer.on_outer_iter(iter, &record);
        records.push(record);

        // Track the best feasible iterate across outer iterations.
        let key = (violations[worst] <= 0.0, val_acc);
        if key > best_key {
            best_key = key;
            best_params = Some(net.param_values());
        }

        // Multiplier update (Eq. 4).
        for (lam, &c) in lambdas.iter_mut().zip(&violations) {
            *lam = (*lam + mu * c).max(0.0);
        }
    }

    if let Some(p) = best_params {
        net.set_param_values(&p);
    }
    Ok((records, lambdas, best_key.0))
}

/// Runs the augmented Lagrangian method under the power budget,
/// mutating `net` in place. The best feasible model across all outer
/// iterations is restored at the end. The observer receives every
/// inner-loop epoch (stamped with the outer iteration's λ, μ and the
/// normalized constraint), every outer-iteration record, and every
/// rescue-phase milestone; pass a [`crate::observer::NoopObserver`]
/// when nothing listens.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// network topology, and [`TrainError::NonFinite`] when an inner solve
/// collapses numerically (NaN/Inf loss or gradient).
///
/// # Panics
///
/// Panics when the budget or `μ` is not positive.
pub fn train_auglag_observed(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &AugLagConfig,
    observer: &mut dyn TrainObserver,
) -> Result<AugLagReport, TrainError> {
    assert!(cfg.budget_watts > 0.0, "budget must be positive");
    let power_only = MultiConstraintConfig {
        constraints: vec![ConstraintKind::Power {
            budget_watts: cfg.budget_watts,
        }],
        mu: cfg.mu,
        outer_iters: cfg.outer_iters,
        inner: cfg.inner,
    };
    let (outer, lambdas, feasible) = outer_loop(net, data, &power_only, cfg.warm_start, observer)?;
    let rescued = cfg.rescue && !feasible;
    if rescued {
        rescue(net, data, cfg, observer)?;
    }

    let power = hard_power(net, data.x_train)?;
    Ok(AugLagReport {
        outer,
        lambda_final: lambdas[0],
        feasible: power <= cfg.budget_watts,
        power_watts: power,
        val_accuracy: net.accuracy(data.x_val, data.y_val)?,
        rescued,
    })
}

/// Feasibility restoration, run when no outer iterate satisfied the
/// budget: push power down hard until one does. Quadratic exterior
/// penalty with a large weight keeps some accuracy pressure (the CE
/// term stays) while making violation dominate the objective.
fn rescue(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &AugLagConfig,
    observer: &mut dyn TrainObserver,
) -> Result<(), TrainError> {
    let _rescue_scope = observer.profiler().scope("rescue");
    let budget = cfg.budget_watts;
    let power = [ConstraintKind::Power {
        budget_watts: budget,
    }];
    let measure = |it: &Iterate<'_>| epoch_measure(&power, it);
    let ctx = FitContext {
        budget_watts: Some(budget),
        ..FitContext::default()
    };
    let milestone = |obs: &mut dyn TrainObserver, net: &PrintedNetwork, stage, round| {
        hard_power(net, data.x_train).map(|power_watts| {
            obs.on_rescue(&RescueEvent {
                stage,
                round,
                power_watts,
                budget_watts: budget,
            })
        })
    };
    milestone(observer, net, "start", 0)?;

    // Stage 1: escalating exterior penalties. Each round multiplies
    // the violation weight by 10; most runs become feasible in the
    // first round.
    for round in 0..3 {
        if hard_power(net, data.x_train)? <= budget {
            break;
        }
        let kappa = 200.0 * 10f64.powi(round);
        let objective = |tape: &mut Tape, bound: &BoundNetwork, ce: Var| {
            let (ratio, c) = normalized(tape, bound.power, budget);
            let viol = tape.clamp_min(c, 0.0);
            let sq = tape.square(viol);
            let pen = tape.mul_scalar(sq, kappa);
            // Plus a gentle pull below the budget so the solution
            // lands safely inside, not on, the boundary.
            let slack = tape.mul_scalar(ratio, 0.05);
            let t = tape.add(ce, pen);
            tape.add(t, slack)
        };
        fit_instrumented(net, data, &cfg.inner, &objective, &measure, &ctx, observer)?;
        milestone(observer, net, "penalty_round", round as usize)?;
    }

    // Stage 2: deterministic shrink projection, then a short CE fit
    // to recover accuracy without leaving the feasible set.
    let steps = shrink(net, data.x_train, budget)?;
    if steps > 0 {
        milestone(observer, net, "shrink", steps)?;
        let short = TrainConfig {
            max_epochs: cfg.inner.max_epochs / 2,
            ..cfg.inner
        };
        fit_instrumented(net, data, &short, &|_, _, ce| ce, &measure, &ctx, observer)?;
        // The fit restores the best iterate under (feasible, acc); if
        // every training iterate violated, re-project.
        shrink(net, data.x_train, budget)?;
    }
    milestone(observer, net, "done", 0)?;
    Ok(())
}

/// The rescue's shrink projection: scales every crossbar conductance θ
/// by 0.85 until the hard power on `x` fits `budget`, for at most 400
/// steps; returns the steps taken. Once every |θ| falls below the
/// counting threshold, the activation and negation circuits stop being
/// printed and the crossbar dissipation vanishes, so power provably
/// goes to ~0 and the projection always ends feasible.
fn shrink(net: &mut PrintedNetwork, x: &Matrix, budget: f64) -> Result<usize, CoreError> {
    let mut steps = 0;
    while hard_power(net, x)? > budget && steps < 400 {
        let mut values = net.param_values();
        let half = values.len() / 2;
        // Θ only: the first half of `param_values`.
        for v in values.iter_mut().take(half) {
            v.map_inplace(|x| x * 0.85);
        }
        net.set_param_values(&values);
        steps += 1;
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;
    use crate::trainer::test_support::tiny_network;
    use pnc_datasets::{Dataset, DatasetId};

    fn iris_data() -> (pnc_datasets::Split, ()) {
        let ds = Dataset::generate(DatasetId::Iris, 3);
        (ds.split(1), ())
    }

    #[test]
    fn enforces_a_tight_budget() {
        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);

        // Reference: unconstrained power.
        let mut net0 = tiny_network(4, 3, 11);
        crate::trainer::fit_cross_entropy(&mut net0, &data, &TrainConfig::smoke()).unwrap();
        let p_max = hard_power(&net0, data.x_train).unwrap();

        // Constrain to 30 % of it.
        let budget = 0.3 * p_max;
        let mut net = tiny_network(4, 3, 11);
        let report = train_auglag_observed(
            &mut net,
            &data,
            &AugLagConfig::smoke(budget),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(
            report.power_watts <= budget * 1.02,
            "constraint violated: {:e} > {:e}",
            report.power_watts,
            budget
        );
        assert!(report.feasible);
        // Should still classify better than chance.
        assert!(report.val_accuracy > 0.4, "acc {}", report.val_accuracy);
    }

    #[test]
    fn lambda_rises_under_violation_pressure() {
        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 13);
        // Absurdly tight budget: constraint stays violated, λ must grow.
        let p0 = hard_power(&net, data.x_train).unwrap();
        let cfg = AugLagConfig {
            outer_iters: 3,
            inner: TrainConfig {
                max_epochs: 10,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(p0 * 1e-6)
        };
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut NoopObserver).unwrap();
        assert!(report.lambda_final > 0.0, "λ should grow: {report:?}");
        assert!(!report.outer.is_empty());
    }

    #[test]
    fn loose_budget_behaves_like_unconstrained() {
        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 17);
        let p0 = hard_power(&net, data.x_train).unwrap();
        // Budget far above anything reachable: λ stays 0 and accuracy
        // should improve like plain CE training.
        let cfg = AugLagConfig::smoke(p0 * 100.0);
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut NoopObserver).unwrap();
        assert_eq!(report.lambda_final, 0.0);
        assert!(report.feasible);
        assert!(report.val_accuracy > 0.5, "acc {}", report.val_accuracy);
    }

    #[test]
    fn outer_records_are_complete() {
        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 19);
        let p0 = hard_power(&net, data.x_train).unwrap();
        let cfg = AugLagConfig {
            outer_iters: 2,
            inner: TrainConfig {
                max_epochs: 8,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(p0)
        };
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut NoopObserver).unwrap();
        assert_eq!(report.outer.len(), 2);
        assert_eq!(report.outer[0].lambda, 0.0);
        for rec in &report.outer {
            assert!(rec.power_watts > 0.0);
            assert!(rec.fit.epochs > 0);
        }
    }

    #[test]
    fn observed_run_reports_outer_iters_and_constraint_context() {
        use crate::observer::RecordingObserver;

        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 29);
        let p0 = hard_power(&net, data.x_train).unwrap();
        let cfg = AugLagConfig {
            outer_iters: 2,
            inner: TrainConfig {
                max_epochs: 8,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(p0)
        };
        let mut obs = RecordingObserver::new();
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut obs).unwrap();

        // One observer callback per outer record, in order.
        assert_eq!(obs.outer_iters.len(), report.outer.len());
        for (k, (iter, rec)) in obs.outer_iters.iter().enumerate() {
            assert_eq!(*iter, k);
            assert_eq!(rec.lambda, report.outer[k].lambda);
        }
        // Every inner epoch is stamped with μ, a power reading and the
        // normalized constraint.
        let total_epochs: usize = report.outer.iter().map(|r| r.fit.epochs).sum();
        assert!(obs.epochs.len() >= total_epochs);
        for e in &obs.epochs {
            assert_eq!(e.mu, Some(cfg.mu));
            let p = e.power_watts.expect("constrained epochs measure power");
            let c = e.constraint.expect("constraint stamped");
            assert!((c - (p / cfg.budget_watts - 1.0)).abs() < 1e-12);
        }
        // Constrained run: the restored model's power is reported.
        for rec in &report.outer {
            if rec.fit.best_is_feasible {
                let p = rec.fit.final_power_watts.expect("power tracked");
                assert!(p <= cfg.budget_watts * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn rescue_milestones_are_observed_on_infeasible_runs() {
        use crate::observer::RecordingObserver;

        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 31);
        // Impossible budget: the outer loop cannot become feasible, so
        // the rescue phase must fire and report its milestones.
        let cfg = AugLagConfig {
            outer_iters: 1,
            inner: TrainConfig {
                max_epochs: 6,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(hard_power(&net, data.x_train).unwrap() * 1e-9)
        };
        let mut obs = RecordingObserver::new();
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut obs).unwrap();
        assert!(report.rescued);
        let stages: Vec<&str> = obs.rescues.iter().map(|r| r.stage).collect();
        assert_eq!(stages.first(), Some(&"start"));
        assert_eq!(stages.last(), Some(&"done"));
        assert!(obs
            .rescues
            .iter()
            .all(|r| r.budget_watts == cfg.budget_watts));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_nonpositive_budget() {
        let (split, _) = iris_data();
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 23);
        let _ = train_auglag_observed(
            &mut net,
            &data,
            &AugLagConfig::smoke(0.0),
            &mut NoopObserver,
        );
    }
}
