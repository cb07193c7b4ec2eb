//! The penalty-based baseline (Zhao et al., ICCAD'23 — the paper's
//! comparison method, Sec. IV-A3).
//!
//! Minimizes `ℒ + α · P/P_ref` for a fixed scaling factor `α ∈ [0, 1]`.
//! Unlike the augmented Lagrangian there is no constraint semantics:
//! each `α` lands *somewhere* on the power–accuracy plane, so tracing a
//! Pareto front takes a grid of `α` values × several seeds — up to 150
//! runs per dataset in the paper, versus a single constrained run.

use crate::error::TrainError;
use crate::observer::TrainObserver;
use crate::trainer::{
    fit_instrumented, DataRefs, EpochMeasure, FitContext, FitReport, Iterate, TrainConfig,
};
use pnc_core::PrintedNetwork;

/// Penalty-method settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyConfig {
    /// Power weight `α` (0 = pure accuracy, 1 = heavy power pressure).
    pub alpha: f64,
    /// Normalizing power `P_ref` in watts (typically the unconstrained
    /// maximum power of the dataset). Ignored in faithful mode.
    pub p_ref_watts: f64,
    /// Inner training settings.
    pub inner: TrainConfig,
    /// Paper-faithful baseline behaviour (Zhao et al., ICCAD'23, as the
    /// paper benchmarks it): the penalty is `α · P` with `P` in
    /// milliwatts (no per-dataset normalization — the ill-conditioning
    /// the paper criticizes) and the activation designs `q` stay frozen
    /// at their initial values (learnable activation hardware is this
    /// paper's contribution, not the baseline's).
    pub faithful: bool,
}

impl PenaltyConfig {
    /// Controlled baseline for a given `α` and reference power: same
    /// substrate as the augmented Lagrangian (learnable designs,
    /// normalized penalty).
    pub fn new(alpha: f64, p_ref_watts: f64) -> Self {
        PenaltyConfig {
            alpha,
            p_ref_watts,
            inner: TrainConfig::default(),
            faithful: false,
        }
    }

    /// Paper-faithful baseline (see [`PenaltyConfig::faithful`]).
    pub fn faithful(alpha: f64) -> Self {
        PenaltyConfig {
            alpha,
            p_ref_watts: 1.0,
            inner: TrainConfig::default(),
            faithful: true,
        }
    }

    /// Tiny preset for unit tests.
    pub fn smoke(alpha: f64, p_ref_watts: f64) -> Self {
        PenaltyConfig {
            alpha,
            p_ref_watts,
            inner: TrainConfig::smoke(),
            faithful: false,
        }
    }
}

/// Outcome of one penalty run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyReport {
    /// The `α` used.
    pub alpha: f64,
    /// Hard power of the final model, watts.
    pub power_watts: f64,
    /// Validation accuracy of the final model.
    pub val_accuracy: f64,
    /// Inner fit report.
    pub fit: FitReport,
}

/// Trains `net` with the penalty objective, in place. When the observer
/// [wants power](TrainObserver::wants_power), the hard power is also
/// measured once per epoch; the baseline has no feasibility notion, so
/// that reading is telemetry only and never affects model selection.
/// A [`NoopObserver`](crate::observer::NoopObserver) skips it.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// network topology, and [`TrainError::NonFinite`] on numerical
/// collapse (NaN/Inf loss or gradient).
///
/// # Panics
///
/// Panics when `alpha` is negative or `p_ref_watts` is not positive.
pub fn train_penalty_observed(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &PenaltyConfig,
    observer: &mut dyn TrainObserver,
) -> Result<PenaltyReport, TrainError> {
    assert!(cfg.alpha >= 0.0, "alpha must be nonnegative");
    assert!(cfg.p_ref_watts > 0.0, "p_ref must be positive");

    let alpha = cfg.alpha;
    // Faithful mode: α·P with P in milliwatts (no normalization).
    let weight = if cfg.faithful {
        alpha * 1e3
    } else {
        alpha / cfg.p_ref_watts
    };
    if cfg.faithful {
        // Standard-cell designs: freeze every activation at the centre
        // of the design space (ρ = 0 → geometric-mean q), the natural
        // fixed cell a pre-learnable-AF baseline would print.
        let mut values = net.param_values();
        let half = values.len() / 2;
        for v in values.iter_mut().skip(half) {
            v.map_inplace(|_| 0.0);
        }
        net.set_param_values(&values);
        net.set_freeze_designs(true);
    }
    let objective = move |tape: &mut pnc_autodiff::Tape,
                          bound: &pnc_core::network::BoundNetwork,
                          ce: pnc_autodiff::Var| {
        let scaled = tape.mul_scalar(bound.power, weight);
        tape.add(ce, scaled)
    };
    // No feasibility notion in the baseline: every iterate qualifies.
    // Power is measured per epoch only when an observer wants it — it
    // is telemetry, never a selection criterion here.
    let want_power = observer.wants_power();
    // A shape mismatch inside the measure closure (impossible once the
    // fit loop has bound the same inputs) degrades to "no reading".
    let measure = move |it: &Iterate<'_>| EpochMeasure {
        power_watts: want_power.then(|| it.hard_power().ok()).flatten(),
        feasible: true,
    };
    let report = {
        let mut scope = observer.profiler().scope("penalty_train");
        scope.set_f64("alpha", cfg.alpha);
        scope.set_bool("faithful", cfg.faithful);
        fit_instrumented(
            net,
            data,
            &cfg.inner,
            &objective,
            &measure,
            &FitContext::default(),
            observer,
        )?
    };
    if cfg.faithful {
        net.set_freeze_designs(false);
    }

    Ok(PenaltyReport {
        alpha: cfg.alpha,
        power_watts: net.power_report(data.x_train)?.total(),
        val_accuracy: net.accuracy(data.x_val, data.y_val)?,
        fit: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;
    use crate::trainer::test_support::tiny_network;
    use pnc_datasets::{Dataset, DatasetId};

    #[test]
    fn higher_alpha_yields_lower_power() {
        let ds = Dataset::generate(DatasetId::Iris, 4);
        let split = ds.split(2);
        let data = DataRefs::from_split(&split);
        let p_ref = {
            let net = tiny_network(4, 3, 31);
            net.power_report(data.x_train).unwrap().total()
        };

        let mut low = tiny_network(4, 3, 31);
        let r_low = train_penalty_observed(
            &mut low,
            &data,
            &PenaltyConfig::smoke(0.0, p_ref),
            &mut NoopObserver,
        )
        .unwrap();
        let mut high = tiny_network(4, 3, 31);
        let r_high = train_penalty_observed(
            &mut high,
            &data,
            &PenaltyConfig::smoke(1.0, p_ref),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(
            r_high.power_watts < r_low.power_watts,
            "α=1 should burn less than α=0: {:e} vs {:e}",
            r_high.power_watts,
            r_low.power_watts
        );
    }

    #[test]
    fn alpha_zero_is_pure_accuracy() {
        let ds = Dataset::generate(DatasetId::Iris, 5);
        let split = ds.split(3);
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 37);
        let r = train_penalty_observed(
            &mut net,
            &data,
            &PenaltyConfig::smoke(0.0, 1e-3),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(r.val_accuracy > 0.5, "acc {}", r.val_accuracy);
    }

    #[test]
    fn faithful_mode_freezes_designs() {
        let ds = Dataset::generate(DatasetId::Iris, 7);
        let split = ds.split(5);
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 43);
        let cfg = PenaltyConfig {
            inner: TrainConfig {
                max_epochs: 10,
                ..TrainConfig::smoke()
            },
            ..PenaltyConfig::faithful(0.5)
        };
        train_penalty_observed(&mut net, &data, &cfg, &mut NoopObserver).unwrap();
        // Faithful mode pins designs at the standard cell (ρ = 0) and
        // never moves them.
        for rho in &net.param_values()[2..] {
            // lint: allow(L002, reason = "designs are pinned to exactly 0.0 by construction")
            assert!(rho.max_abs() == 0.0, "frozen designs must stay at ρ = 0");
        }
        assert!(!net.designs_frozen(), "flag restored after training");
    }

    #[test]
    fn normalized_mode_moves_designs_faithful_does_not() {
        // With α = 0 both modes are pure cross-entropy; the only
        // difference is that faithful mode freezes the activation
        // designs ρ while the controlled baseline learns them.
        let ds = Dataset::generate(DatasetId::Iris, 8);
        let split = ds.split(6);
        let data = DataRefs::from_split(&split);
        let cfg_inner = TrainConfig {
            max_epochs: 15,
            ..TrainConfig::smoke()
        };

        let mut ctrl = tiny_network(4, 3, 47);
        let rho0 = ctrl.param_values()[2..].to_vec();
        train_penalty_observed(
            &mut ctrl,
            &data,
            &PenaltyConfig {
                inner: cfg_inner,
                ..PenaltyConfig::new(0.0, 1e-4)
            },
            &mut NoopObserver,
        )
        .unwrap();
        let moved = ctrl.param_values()[2..]
            .iter()
            .zip(&rho0)
            .any(|(a, b)| a != b);
        assert!(moved, "controlled baseline should learn designs");

        let mut faith = tiny_network(4, 3, 47);
        train_penalty_observed(
            &mut faith,
            &data,
            &PenaltyConfig {
                inner: cfg_inner,
                ..PenaltyConfig::faithful(0.0)
            },
            &mut NoopObserver,
        )
        .unwrap();
        for rho in &faith.param_values()[2..] {
            // lint: allow(L002, reason = "designs are pinned to exactly 0.0 by construction")
            assert!(rho.max_abs() == 0.0, "faithful baseline pins ρ at 0");
        }
    }

    #[test]
    #[should_panic(expected = "p_ref must be positive")]
    fn rejects_bad_p_ref() {
        let ds = Dataset::generate(DatasetId::Iris, 6);
        let split = ds.split(4);
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 41);
        let _ = train_penalty_observed(
            &mut net,
            &data,
            &PenaltyConfig::smoke(0.5, 0.0),
            &mut NoopObserver,
        );
    }
}
