//! Learnable printed activation functions.
//!
//! The paper's key modeling idea is that activation circuits are
//! *learnable hardware*: the design vector `q^AF = [R, W, L]` is trained
//! jointly with the crossbar conductances, changing both the AF's shape
//! (through the transfer surrogate) and its power (through the power
//! surrogate).
//!
//! [`LearnableActivation`] bundles the two surrogates for one activation
//! kind and owns the *bounded parameterization*: the raw trainable
//! parameter is an unconstrained vector `ρ`, mapped into the feasible
//! design space `ℚ^AF` through a log-space sigmoid
//!
//! ```text
//! q_i = exp( ln lo_i + σ(ρ_i) · (ln hi_i − ln lo_i) )
//! ```
//!
//! so every gradient step keeps `q` printable by construction — no
//! projection needed.

use pnc_autodiff::{Tape, Var};
use pnc_linalg::Matrix;
use pnc_parallel::ExecutorHandle;
use pnc_spice::AfKind;
use pnc_surrogate::{
    atlas, fit_negation, fit_transfer, NegationModel, PowerSurrogate, PowerSurrogateConfig,
    SurrogateError, TransferModel,
};
use pnc_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::Rng;

/// Fidelity settings for fitting the surrogate bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateFidelity {
    /// Power-surrogate settings.
    pub power: PowerSurrogateConfig,
    /// Transfer-surrogate sample count.
    pub transfer_samples: usize,
    /// Grid points per transfer sweep.
    pub transfer_grid: usize,
}

impl Default for SurrogateFidelity {
    fn default() -> Self {
        SurrogateFidelity {
            power: PowerSurrogateConfig::default(),
            transfer_samples: 96,
            transfer_grid: 17,
        }
    }
}

impl SurrogateFidelity {
    /// Fast preset for unit tests.
    pub fn smoke() -> Self {
        SurrogateFidelity {
            power: PowerSurrogateConfig::smoke(),
            transfer_samples: 48,
            transfer_grid: 11,
        }
    }

    /// The paper's full fidelity (10,000 Sobol samples, 15-layer MLP).
    pub fn paper() -> Self {
        SurrogateFidelity {
            power: PowerSurrogateConfig::paper(),
            transfer_samples: 256,
            transfer_grid: 21,
        }
    }
}

/// A learnable activation: transfer + power surrogates + bounded
/// design-space parameterization.
#[derive(Debug, Clone)]
pub struct LearnableActivation {
    kind: AfKind,
    transfer: TransferModel,
    power: PowerSurrogate,
    log_lo: Vec<f64>,
    log_span: Vec<f64>,
}

impl LearnableActivation {
    /// Fits the surrogate pair for `kind` at the given fidelity,
    /// streaming characterization and surrogate-training telemetry
    /// (Sobol progress, MLP loss curves, fit summaries) to `tel`.
    ///
    /// The two fits share no data, so they run side by side
    /// ([`atlas::join`]): the transfer fit on the caller, the power fit
    /// on a second thread whose spans open under the caller's
    /// `activation_fit` span. Each fit's executor calls then run
    /// inline on its own thread. Both surrogates, and the atlas, are
    /// the same for any `--threads`.
    ///
    /// # Errors
    ///
    /// Propagates surrogate fitting failures, the transfer fit's first.
    pub fn fit(
        kind: AfKind,
        fidelity: &SurrogateFidelity,
        tel: &Telemetry,
    ) -> Result<Self, SurrogateError> {
        let span = tel.span("activation_fit");
        let _scope = tel.profiler().scope("activation_fit");
        let parent = tel.profiler().current_span_id();
        let (transfer, power) = atlas::join(
            &ExecutorHandle::get(),
            || fit_transfer(kind, fidelity.transfer_samples, fidelity.transfer_grid, tel),
            || {
                let _branch = tel.profiler().scope_under(parent, "power_fit");
                PowerSurrogate::fit(kind, &fidelity.power, tel)
            },
        );
        drop(span);
        Ok(Self::from_parts(kind, transfer?, power?))
    }

    /// Builds from already-fitted surrogates.
    ///
    /// # Panics
    ///
    /// Panics when the surrogates belong to a different kind.
    pub fn from_parts(kind: AfKind, transfer: TransferModel, power: PowerSurrogate) -> Self {
        assert_eq!(transfer.kind(), kind, "transfer surrogate kind mismatch");
        assert_eq!(power.kind(), kind, "power surrogate kind mismatch");
        let bounds = kind.bounds();
        LearnableActivation {
            kind,
            transfer,
            power,
            log_lo: bounds.iter().map(|&(lo, _)| lo.ln()).collect(),
            log_span: bounds.iter().map(|&(lo, hi)| hi.ln() - lo.ln()).collect(),
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> AfKind {
        self.kind
    }

    /// The underlying transfer surrogate.
    pub fn transfer(&self) -> &TransferModel {
        &self.transfer
    }

    /// The underlying power surrogate.
    pub fn power_surrogate(&self) -> &PowerSurrogate {
        &self.power
    }

    /// Dimensionality of the design vector.
    pub fn design_dim(&self) -> usize {
        self.kind.dim()
    }

    /// Random initial `ρ` near the centre of the design space.
    pub fn initial_rho(&self, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(1, self.design_dim(), |_, _| rng.gen_range(-0.5..0.5))
    }

    /// Maps unconstrained `ρ` to the physical design vector `q`.
    ///
    /// # Panics
    ///
    /// Panics when `rho` is not `1 × design_dim`.
    pub fn q_from_rho(&self, rho: &Matrix) -> Vec<f64> {
        assert_eq!(rho.shape(), (1, self.design_dim()), "rho shape mismatch");
        rho.as_slice()
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let s = 1.0 / (1.0 + (-r).exp());
                (self.log_lo[i] + s * self.log_span[i]).exp()
            })
            .collect()
    }

    /// Maps `ρ` to `q` on the tape (differentiably).
    pub fn q_on_tape(&self, tape: &mut Tape, rho: Var) -> Var {
        assert_eq!(
            tape.shape(rho),
            (1, self.design_dim()),
            "q_on_tape: rho must be 1 × {}",
            self.design_dim()
        );
        let s = tape.sigmoid(rho);
        let span = tape.constant(Matrix::from_vec(
            1,
            self.log_span.len(),
            self.log_span.clone(),
        ));
        let lo = tape.constant(Matrix::from_vec(1, self.log_lo.len(), self.log_lo.clone()));
        let scaled = tape.mul_row(s, span);
        let logq = tape.add_row(scaled, lo);
        tape.exp(logq)
    }

    /// Applies the activation to pre-activation voltages `v` with the
    /// design given by `rho`; both participate in gradients.
    pub fn apply_on_tape(&self, tape: &mut Tape, v: Var, rho: Var) -> Var {
        let q = self.q_on_tape(tape, rho);
        self.transfer.eval_on_tape(tape, v, q)
    }

    /// Surrogate power of one activation circuit at the design `rho`,
    /// in watts (`1 × 1` node).
    pub fn power_on_tape(&self, tape: &mut Tape, rho: Var) -> Var {
        let q = self.q_on_tape(tape, rho);
        self.power.predict_on_tape(tape, q)
    }

    /// Plain activation evaluation.
    pub fn eval(&self, v: &Matrix, rho: &Matrix) -> Matrix {
        let q = self.q_from_rho(rho);
        self.transfer.eval(v, &q)
    }

    /// Plain per-circuit power in watts.
    pub fn power_value(&self, rho: &Matrix) -> f64 {
        self.power.predict(&self.q_from_rho(rho))
    }
}

/// Printed-device count per activation circuit.
pub fn devices_per_af(kind: AfKind) -> usize {
    match kind {
        AfKind::PRelu => 2,        // 1 EGT + 1 R
        AfKind::PClippedRelu => 4, // 2 EGT + 2 R
        AfKind::PSigmoid => 6,     // 2 EGT + 4 R (degenerated stages)
        AfKind::PTanh => 5,        // 2 EGT + 3 R
    }
}

/// Printed-device count of one negation circuit (1 EGT + 2 R).
pub const DEVICES_PER_NEGATION: usize = 3;

/// Fits the shared negation surrogate at a grid fidelity.
///
/// # Errors
///
/// Propagates simulation/fit failures.
pub fn fit_negation_model(grid_points: usize) -> Result<NegationModel, SurrogateError> {
    fit_negation(grid_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_linalg::rng as lrng;

    fn smoke_activation(kind: AfKind) -> LearnableActivation {
        LearnableActivation::fit(kind, &SurrogateFidelity::smoke(), &Telemetry::disabled()).unwrap()
    }

    #[test]
    fn profiled_fit_records_both_mlp_fits() {
        use pnc_telemetry::Profiler;
        let tel = Telemetry::disabled().with_profiler(Profiler::enabled());
        LearnableActivation::fit(AfKind::PTanh, &SurrogateFidelity::smoke(), &tel).unwrap();
        let report = tel.profiler().report();
        let mlp_fit = report.phases.iter().find(|p| p.name == "mlp_fit");
        // One for the power surrogate, one for the transfer surrogate's
        // coefficient regressor.
        assert_eq!(mlp_fit.map(|p| p.calls), Some(2), "{}", report.render());
        // Both halves hang under the fit, whichever thread ran them.
        let spans = tel.profiler().spans();
        for name in ["mlp_fit", "sobol_characterization"] {
            let found: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(found.len(), 2, "{name}");
            assert!(found.iter().all(|s| s.parent.is_some()), "{name} is a root");
        }
    }

    #[test]
    fn q_stays_in_bounds_for_extreme_rho() {
        let act = smoke_activation(AfKind::PRelu);
        let bounds = AfKind::PRelu.bounds();
        for r in [-50.0, -1.0, 0.0, 1.0, 50.0] {
            let rho = Matrix::filled(1, 3, r);
            let q = act.q_from_rho(&rho);
            for (i, (&qi, &(lo, hi))) in q.iter().zip(&bounds).enumerate() {
                assert!(
                    qi >= lo * 0.999 && qi <= hi * 1.001,
                    "q[{i}] = {qi:e} outside [{lo:e}, {hi:e}] at rho = {r}"
                );
            }
        }
    }

    #[test]
    fn rho_zero_is_log_midpoint() {
        let act = smoke_activation(AfKind::PRelu);
        let q = act.q_from_rho(&Matrix::zeros(1, 3));
        let bounds = AfKind::PRelu.bounds();
        for (qi, (lo, hi)) in q.iter().zip(bounds) {
            assert!((qi.ln() - (lo * hi).sqrt().ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn q_on_tape_matches_plain() {
        let act = smoke_activation(AfKind::PRelu);
        let rho = Matrix::from_rows(&[&[0.3, -0.7, 1.2]]);
        let plain = act.q_from_rho(&rho);
        let mut tape = Tape::new();
        let rv = tape.parameter(rho);
        let q = act.q_on_tape(&mut tape, rv);
        for (i, &p) in plain.iter().enumerate() {
            assert!((tape.value(q)[(0, i)] - p).abs() < 1e-9 * p);
        }
    }

    #[test]
    fn activation_output_depends_on_rho() {
        let act = smoke_activation(AfKind::PTanh);
        let v = Matrix::row(&[-0.5, 0.0, 0.5]);
        let a = act.eval(&v, &Matrix::filled(1, 6, -2.0));
        let b = act.eval(&v, &Matrix::filled(1, 6, 2.0));
        let diff = (&a - &b).max_abs();
        assert!(
            diff > 1e-3,
            "design change should move the transfer: {diff}"
        );
    }

    #[test]
    fn power_depends_on_rho_and_is_positive() {
        let act = smoke_activation(AfKind::PRelu);
        let low = act.power_value(&Matrix::filled(1, 3, -3.0));
        let high = act.power_value(&Matrix::filled(1, 3, 3.0));
        assert!(low > 0.0 && high > 0.0);
        assert!(
            (low / high).max(high / low) > 1.5,
            "power should vary across the design space: {low:e} vs {high:e}"
        );
    }

    #[test]
    fn end_to_end_gradient_through_activation_and_power() {
        let act = smoke_activation(AfKind::PTanh);
        let mut rng = lrng::seeded(31);
        let v = lrng::uniform_matrix(&mut rng, 3, 2, -0.5, 0.5);
        let rho0 = act.initial_rho(&mut rng);
        let rep = pnc_autodiff::gradcheck::check_gradient(&rho0, 1e-4, move |tape, p| {
            let vv = tape.constant(v.clone());
            let out = act.apply_on_tape(tape, vv, p);
            let sq = tape.square(out);
            let loss = tape.sum_all(sq);
            let pw = act.power_on_tape(tape, p);
            let pw_scaled = tape.mul_scalar(pw, 1e4);
            tape.add(loss, pw_scaled)
        });
        assert!(rep.max_rel_err < 1e-2, "{rep:?}");
    }

    #[test]
    fn device_counts_match_schematics() {
        assert_eq!(devices_per_af(AfKind::PRelu), 2);
        assert_eq!(devices_per_af(AfKind::PClippedRelu), 4);
        assert_eq!(devices_per_af(AfKind::PSigmoid), 6);
        assert_eq!(devices_per_af(AfKind::PTanh), 5);
        assert_eq!(DEVICES_PER_NEGATION, 3);
    }
}
