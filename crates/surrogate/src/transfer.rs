//! Differentiable transfer surrogates `V_out = T(V_in; q)` for the
//! printed activation circuits.
//!
//! Each AF family gets a physics-shaped template
//!
//! ```text
//! T(V; q) = o(q) + s(q) · h( g(q) · (V − c(q)) )
//! ```
//!
//! with a fixed base nonlinearity `h` per kind (softplus for the
//! unbounded p-ReLU, sigmoid for the saturating p-Clipped_ReLU and
//! p-sigmoid, tanh for p-tanh) and four coefficients — offset `o`,
//! swing `s`, gain `g`, centre `c` — that depend on the design vector
//! `q` through a small coefficient MLP over standardized log features
//! (the dependence mixes products of resistances and bias currents, so
//! it is strongly nonlinear in `ln q`). Fitting happens in two stages,
//! both against SPICE ground truth:
//!
//! 1. per-design Gauss–Newton fit of `(o, s, g, c)` to the simulated
//!    sweep, then
//! 2. regression of the four coefficients onto `ln q` with an MLP.
//!
//! The result is cheap, smooth in both `V` and `q`, and exactly
//! representable on the autodiff tape — which is what lets the trainer
//! learn activation hardware jointly with the crossbar weights.

use crate::error::SurrogateError;
use crate::mlp::{Mlp, MlpConfig};
use crate::sampling::AfTransferDataset;
use pnc_autodiff::{Tape, Var};
use pnc_linalg::decomp::Lu;
use pnc_linalg::stats::Standardizer;
use pnc_linalg::{rng as lrng, Matrix};
use pnc_spice::AfKind;
use pnc_telemetry::Telemetry;

/// Base nonlinearity of the transfer template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseShape {
    /// `ln(1 + eˣ)` — unbounded above, flat below (p-ReLU).
    Softplus,
    /// `1/(1+e⁻ˣ)` — saturates both ends (p-Clipped_ReLU, p-sigmoid).
    Sigmoid,
    /// `tanh x` — symmetric saturation (p-tanh).
    Tanh,
}

impl BaseShape {
    /// Canonical shape for an activation kind.
    pub fn for_kind(kind: AfKind) -> BaseShape {
        match kind {
            AfKind::PRelu => BaseShape::Softplus,
            AfKind::PClippedRelu | AfKind::PSigmoid => BaseShape::Sigmoid,
            AfKind::PTanh => BaseShape::Tanh,
        }
    }

    fn eval(self, x: f64) -> f64 {
        match self {
            BaseShape::Softplus => {
                if x > 30.0 {
                    x
                } else {
                    x.exp().ln_1p()
                }
            }
            BaseShape::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            BaseShape::Tanh => x.tanh(),
        }
    }

    fn apply_on_tape(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            BaseShape::Softplus => tape.softplus(x),
            BaseShape::Sigmoid => tape.sigmoid(x),
            BaseShape::Tanh => tape.tanh(x),
        }
    }
}

/// Template evaluation with raw coefficients.
fn template(shape: BaseShape, o: f64, s: f64, g: f64, c: f64, v: f64) -> f64 {
    o + s * shape.eval(g * (v - c))
}

/// Gauss–Newton fit of `(o, s, ln g, c)` for a single simulated curve.
///
/// `g` is parameterized through its logarithm to stay positive; `s` may
/// take either sign (the negation circuit uses a falling curve).
///
/// # Errors
///
/// Returns [`SurrogateError::FitDiverged`] when the residual fails to
/// become finite.
pub(crate) fn fit_curve(
    shape: BaseShape,
    inputs: &[f64],
    targets: &[f64],
    init: [f64; 4],
) -> Result<[f64; 4], SurrogateError> {
    let n = inputs.len();
    let mut p = init; // [o, s, ln g, c]
    let mut lambda = 1e-3;

    let residuals = |p: &[f64; 4]| -> Vec<f64> {
        let g = p[2].exp();
        inputs
            .iter()
            .zip(targets)
            .map(|(&v, &y)| template(shape, p[0], p[1], g, p[3], v) - y)
            .collect()
    };
    let sse = |r: &[f64]| r.iter().map(|x| x * x).sum::<f64>();

    let mut r = residuals(&p);
    let mut best = sse(&r);

    for _ in 0..80 {
        // Numeric Jacobian (n × 4).
        let mut jac = Matrix::zeros(n, 4);
        for k in 0..4 {
            let h = 1e-6 * p[k].abs().max(1e-3);
            let mut pp = p;
            pp[k] += h;
            let rp = residuals(&pp);
            for i in 0..n {
                jac[(i, k)] = (rp[i] - r[i]) / h;
            }
        }
        // Levenberg step: (JᵀJ + λI) δ = −Jᵀ r
        // lint: allow(L001, reason = "J is built with matching row counts two lines above")
        let jtj = jac.t_matmul(&jac).expect("JᵀJ");
        let jtr: Vec<f64> = (0..4)
            .map(|k| (0..n).map(|i| jac[(i, k)] * r[i]).sum::<f64>())
            .collect();
        let mut a = jtj.clone();
        for k in 0..4 {
            a[(k, k)] += lambda * (1.0 + jtj[(k, k)]);
        }
        let rhs: Vec<f64> = jtr.iter().map(|x| -x).collect();
        let delta = match Lu::new(&a).and_then(|lu| lu.solve(&rhs)) {
            Ok(d) => d,
            Err(_) => {
                lambda *= 10.0;
                continue;
            }
        };
        let mut cand = p;
        for k in 0..4 {
            cand[k] += delta[k];
        }
        // Keep ln g in a sane band to avoid overflow.
        cand[2] = cand[2].clamp(-6.0, 8.0);
        let rc = residuals(&cand);
        let sc = sse(&rc);
        if sc.is_finite() && sc < best {
            p = cand;
            r = rc;
            best = sc;
            lambda = (lambda * 0.5).max(1e-12);
        } else {
            lambda *= 4.0;
            if lambda > 1e8 {
                break;
            }
        }
    }

    if !best.is_finite() {
        return Err(SurrogateError::FitDiverged {
            context: "curve fit produced non-finite residual".to_string(),
        });
    }
    Ok(p)
}

/// Heuristic initialization of `(o, s, ln g, c)` from a curve.
pub(crate) fn init_from_curve(shape: BaseShape, inputs: &[f64], y: &[f64]) -> [f64; 4] {
    let n = y.len();
    let ymin = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let ymax = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    // Centre: steepest point.
    let mut arg = 0usize;
    let mut steep = 0.0f64;
    for i in 0..n - 1 {
        let sl = (y[i + 1] - y[i]).abs() / (inputs[i + 1] - inputs[i]).abs().max(1e-12);
        if sl > steep {
            steep = sl;
            arg = i;
        }
    }
    let c = inputs[arg];
    let rising = y[n - 1] >= y[0];
    let swing = (ymax - ymin).max(1e-3);
    match shape {
        BaseShape::Softplus => {
            // o ≈ left tail; slope of the linear region ≈ s·g.
            let s = steep.max(1e-3);
            [ymin, if rising { s } else { -s }, (4.0f64).ln(), c]
        }
        BaseShape::Sigmoid => {
            // Peak slope of s·σ(g(v−c)) is s·g/4.
            let s = if rising { swing } else { -swing };
            let g = (4.0 * steep / swing).max(0.5);
            [if rising { ymin } else { ymax }, s, g.ln(), c]
        }
        BaseShape::Tanh => {
            let s = if rising { swing / 2.0 } else { -swing / 2.0 };
            let g = (steep / (swing / 2.0).max(1e-9)).max(0.5);
            [(ymin + ymax) / 2.0, s, g.ln(), c]
        }
    }
}

/// A fitted transfer surrogate for one activation kind.
#[derive(Debug, Clone)]
pub struct TransferModel {
    kind: AfKind,
    shape: BaseShape,
    /// Standardizer over `ln q` inputs.
    scaler: Standardizer,
    /// Coefficient regressor: standardized `ln q` → standardized
    /// `(o, s, ln g, c)`.
    mlp: Mlp,
    /// Output de-standardization: means of the four coefficients.
    coef_mean: [f64; 4],
    /// Output de-standardization: standard deviations.
    coef_std: [f64; 4],
    /// Root-mean-square fit error against the SPICE curves (volts).
    fit_rmse: f64,
}

impl TransferModel {
    /// The activation kind this model covers.
    pub fn kind(&self) -> AfKind {
        self.kind
    }

    /// The base nonlinearity.
    pub fn shape(&self) -> BaseShape {
        self.shape
    }

    /// RMSE against the SPICE sweeps at fit time (volts).
    pub fn fit_rmse(&self) -> f64 {
        self.fit_rmse
    }

    /// Decomposes into parts for persistence:
    /// `(kind, scaler, mlp, coef_mean, coef_std, fit_rmse)`.
    pub fn parts(&self) -> (AfKind, &Standardizer, &Mlp, [f64; 4], [f64; 4], f64) {
        (
            self.kind,
            &self.scaler,
            &self.mlp,
            self.coef_mean,
            self.coef_std,
            self.fit_rmse,
        )
    }

    /// Rebuilds a transfer surrogate from persisted parts (see
    /// [`crate::persist`]).
    ///
    /// # Panics
    ///
    /// Panics when the scaler or MLP widths disagree with the kind.
    pub fn from_parts(
        kind: AfKind,
        scaler: Standardizer,
        mlp: Mlp,
        coef_mean: [f64; 4],
        coef_std: [f64; 4],
        fit_rmse_volts: f64,
    ) -> Self {
        assert_eq!(scaler.mean().len(), kind.dim(), "scaler width mismatch");
        assert_eq!(mlp.input_dim(), kind.dim(), "mlp input width mismatch");
        assert_eq!(mlp.output_dim(), 4, "coefficient MLP must output 4 values");
        TransferModel {
            kind,
            shape: BaseShape::for_kind(kind),
            scaler,
            mlp,
            coef_mean,
            coef_std,
            fit_rmse: fit_rmse_volts,
        }
    }

    /// Evaluates the four coefficients `(o, s, g, c)` for a design `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q.len()` differs from the kind's design dimension.
    pub fn coefficients(&self, q: &[f64]) -> (f64, f64, f64, f64) {
        assert_eq!(q.len(), self.kind.dim(), "coefficients: dim mismatch");
        let x_raw = Matrix::from_vec(1, q.len(), q.iter().map(|&v| v.ln()).collect());
        let x = self.scaler.transform(&x_raw);
        let out = self.mlp.forward(&x);
        let de = |k: usize| out[(0, k)] * self.coef_std[k] + self.coef_mean[k];
        (de(0), de(1), de(2).exp(), de(3))
    }

    /// Plain evaluation of the transfer at inputs `v` for design `q`.
    pub fn eval(&self, v: &Matrix, q: &[f64]) -> Matrix {
        let (o, s, g, c) = self.coefficients(q);
        v.map(|x| template(self.shape, o, s, g, c, x))
    }

    /// Tape evaluation: `v` is any `m × n` node (pre-activation
    /// voltages), `q_var` a `1 × q_dim` node of physical design values.
    /// Gradients flow into both.
    pub fn eval_on_tape(&self, tape: &mut Tape, v: Var, q_var: Var) -> Var {
        assert_eq!(
            tape.shape(q_var),
            (1, self.kind.dim()),
            "eval_on_tape: q must be 1 × {}",
            self.kind.dim()
        );
        // Standardized log features.
        let logq = tape.ln(q_var);
        let neg_mean = tape.constant(Matrix::from_vec(
            1,
            self.scaler.mean().len(),
            self.scaler.mean().iter().map(|&m| -m).collect(),
        ));
        let inv_std = tape.constant(Matrix::from_vec(
            1,
            self.scaler.std().len(),
            self.scaler.std().iter().map(|&s| 1.0 / s).collect(),
        ));
        let x = tape.add_row(logq, neg_mean);
        let x = tape.mul_row(x, inv_std);
        let coefs = self.mlp.forward_on_tape(tape, x); // 1 × 4 standardized

        // De-standardize and slice out the four scalars.
        let pick = |tape: &mut Tape, idx: usize| -> Var {
            let mut mask = Matrix::zeros(1, 4);
            mask[(0, idx)] = 1.0;
            let m = tape.mul_const(coefs, &mask);
            let raw = tape.sum_all(m);
            let scaled = tape.mul_scalar(raw, self.coef_std[idx]);
            tape.add_scalar(scaled, self.coef_mean[idx])
        };
        let o = pick(tape, 0);
        let s = pick(tape, 1);
        let lng = pick(tape, 2);
        let c = pick(tape, 3);
        let g = tape.exp(lng);

        let neg_c = tape.mul_scalar(c, -1.0);
        let centered = tape.shift_by(v, neg_c);
        let scaled = tape.scale_by(centered, g);
        let h = self.shape.apply_on_tape(tape, scaled);
        let swung = tape.scale_by(h, s);
        tape.shift_by(swung, o)
    }
}

/// MLP settings used by [`fit_transfer`] for the coefficient regressor.
fn coef_mlp_config() -> MlpConfig {
    MlpConfig {
        hidden: vec![24, 24],
        lr: 5e-3,
        epochs: 600,
        batch_size: 0,
        seed: 11,
    }
}

/// Fits a [`TransferModel`] for `kind` from `n` Sobol-sampled SPICE
/// sweeps over a `grid_points` input grid, streaming `sobol_progress` /
/// `characterization` events from the sweep and the coefficient MLP's
/// loss curve to `tel`.
///
/// # Errors
///
/// Propagates sampling and per-curve fit errors; returns
/// [`SurrogateError::NotEnoughData`] for fewer than 8 usable curves.
pub fn fit_transfer(
    kind: AfKind,
    n: usize,
    grid_points: usize,
    tel: &Telemetry,
) -> Result<TransferModel, SurrogateError> {
    let ds = AfTransferDataset::generate(kind, n, grid_points, tel)?;
    fit_transfer_from_dataset(&ds, tel)
}

/// Fits a [`TransferModel`] from an existing transfer dataset; the
/// coefficient MLP's fit reports to `tel` as in [`fit_transfer`].
///
/// # Errors
///
/// Same conditions as [`fit_transfer`].
pub fn fit_transfer_from_dataset(
    ds: &AfTransferDataset,
    tel: &Telemetry,
) -> Result<TransferModel, SurrogateError> {
    let m = ds.len();
    if m < 8 {
        return Err(SurrogateError::NotEnoughData {
            available: m,
            required: 8,
        });
    }
    let shape = BaseShape::for_kind(ds.kind);

    // Stage 1: per-curve coefficient fits. Each Gauss–Newton fit is a
    // pure deterministic function of one curve, so the executor fans
    // them out; errors resolve to the lowest failing index regardless
    // of scheduling, matching the sequential `?` behaviour.
    let indices: Vec<usize> = (0..m).collect();
    let fitted = pnc_parallel::ExecutorHandle::get().par_try_map(&indices, |_, &i| {
        let y = ds.outputs.row_slice(i);
        let init = init_from_curve(shape, &ds.inputs, y);
        fit_curve(shape, &ds.inputs, y, init)
    })?;
    let mut coef = Matrix::zeros(m, 4);
    for (i, p) in fitted.iter().enumerate() {
        coef.row_slice_mut(i).copy_from_slice(p);
    }

    // Stage 2: regress standardized coefficients on standardized ln q.
    let scaler = Standardizer::fit(&ds.designs.map(f64::ln));
    let x = scaler.transform(&ds.designs.map(f64::ln));
    let coef_scaler = Standardizer::fit(&coef);
    let y = coef_scaler.transform(&coef);
    let cfg = coef_mlp_config();
    let mut rng = lrng::seeded(cfg.seed);
    let mut mlp = Mlp::new(x.cols(), &cfg.hidden, 4, &mut rng);
    mlp.train(&x, &y, &cfg, tel);

    let mut cm = [0.0; 4];
    let mut cs = [0.0; 4];
    cm.copy_from_slice(&coef_scaler.mean()[..4]);
    cs.copy_from_slice(&coef_scaler.std()[..4]);

    let mut model = TransferModel {
        kind: ds.kind,
        shape,
        scaler,
        mlp,
        coef_mean: cm,
        coef_std: cs,
        fit_rmse: 0.0,
    };

    // Fit quality against the raw SPICE curves.
    let mut sse = 0.0;
    let mut count = 0usize;
    let vgrid = Matrix::row(&ds.inputs);
    for i in 0..m {
        let pred = model.eval(&vgrid, ds.designs.row_slice(i));
        for (j, &y) in ds.outputs.row_slice(i).iter().enumerate() {
            let e = pred[(0, j)] - y;
            sse += e * e;
            count += 1;
        }
    }
    model.fit_rmse = (sse / count as f64).sqrt();
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_spice::af::transfer_curve;
    use pnc_spice::AfKind;

    #[test]
    fn fit_curve_recovers_synthetic_tanh() {
        let inputs: Vec<f64> = (0..41).map(|i| -1.0 + i as f64 / 20.0).collect();
        let truth = [0.1, 0.6, (3.0f64).ln(), -0.2];
        let y: Vec<f64> = inputs
            .iter()
            .map(|&v| {
                template(
                    BaseShape::Tanh,
                    truth[0],
                    truth[1],
                    truth[2].exp(),
                    truth[3],
                    v,
                )
            })
            .collect();
        let init = init_from_curve(BaseShape::Tanh, &inputs, &y);
        let p = fit_curve(BaseShape::Tanh, &inputs, &y, init).unwrap();
        assert!((p[0] - truth[0]).abs() < 1e-4, "o: {p:?}");
        assert!((p[1] - truth[1]).abs() < 1e-4, "s: {p:?}");
        assert!((p[2] - truth[2]).abs() < 1e-3, "ln g: {p:?}");
        assert!((p[3] - truth[3]).abs() < 1e-4, "c: {p:?}");
    }

    #[test]
    fn fit_curve_recovers_synthetic_sigmoid_falling() {
        let inputs: Vec<f64> = (0..41).map(|i| -1.0 + i as f64 / 20.0).collect();
        // Falling curve: s < 0 (like the negation circuit).
        let y: Vec<f64> = inputs
            .iter()
            .map(|&v| template(BaseShape::Sigmoid, 0.9, -1.7, 5.0, 0.1, v))
            .collect();
        let init = init_from_curve(BaseShape::Sigmoid, &inputs, &y);
        let p = fit_curve(BaseShape::Sigmoid, &inputs, &y, init).unwrap();
        let check: Vec<f64> = inputs
            .iter()
            .map(|&v| template(BaseShape::Sigmoid, p[0], p[1], p[2].exp(), p[3], v))
            .collect();
        let rmse: f64 = (check
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / y.len() as f64)
            .sqrt();
        assert!(rmse < 1e-3, "rmse {rmse}, params {p:?}");
    }

    #[test]
    fn transfer_model_fits_ptanh_within_tolerance() {
        let model = fit_transfer(AfKind::PTanh, 48, 13, &Telemetry::disabled()).unwrap();
        assert!(
            model.fit_rmse() < 0.12,
            "p-tanh transfer RMSE too high: {}",
            model.fit_rmse()
        );
    }

    #[test]
    fn transfer_model_generalizes_to_unseen_design() {
        let model = fit_transfer(AfKind::PTanh, 64, 13, &Telemetry::disabled()).unwrap();
        let d = AfKind::PTanh.default_design();
        let inputs: Vec<f64> = (0..21).map(|i| -1.0 + i as f64 / 10.0).collect();
        let simulated = transfer_curve(&d, &inputs).unwrap();
        let predicted = model.eval(&Matrix::row(&inputs), d.q());
        let rmse: f64 = (simulated
            .iter()
            .enumerate()
            .map(|(j, &y)| (predicted[(0, j)] - y) * (predicted[(0, j)] - y))
            .sum::<f64>()
            / inputs.len() as f64)
            .sqrt();
        assert!(rmse < 0.15, "unseen-design RMSE {rmse}");
    }

    #[test]
    fn tape_eval_matches_plain() {
        let model = fit_transfer(AfKind::PTanh, 12, 9, &Telemetry::disabled()).unwrap();
        let d = AfKind::PTanh.default_design();
        let v = Matrix::from_rows(&[&[-0.5, 0.0], &[0.3, 0.8]]);
        let plain = model.eval(&v, d.q());
        let mut tape = Tape::new();
        let vv = tape.constant(v.clone());
        let qv = tape.parameter(Matrix::from_vec(1, d.q().len(), d.q().to_vec()));
        let out = model.eval_on_tape(&mut tape, vv, qv);
        assert!(
            tape.value(out).approx_eq(&plain, 1e-10),
            "tape {:?} vs plain {plain:?}",
            tape.value(out)
        );
    }

    #[test]
    fn tape_eval_gradient_wrt_q_and_v() {
        let model = fit_transfer(AfKind::PTanh, 12, 9, &Telemetry::disabled()).unwrap();
        let d = AfKind::PTanh.default_design();
        let q0 = Matrix::from_vec(1, d.q().len(), d.q().to_vec());
        let v = Matrix::from_rows(&[&[-0.4, 0.2, 0.7]]);

        // Gradient w.r.t. q (scaled: q entries span decades).
        let model2 = model.clone();
        let v2 = v.clone();
        let rep = pnc_autodiff::gradcheck::check_gradient(&q0, 1e-1, move |tape, p| {
            let vv = tape.constant(v2.clone());
            let out = model2.eval_on_tape(tape, vv, p);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
        assert!(rep.max_rel_err < 1e-2, "q-gradient: {rep:?}");

        // Gradient w.r.t. v.
        let q1 = q0.clone();
        let rep = pnc_autodiff::gradcheck::check_gradient(&v, 1e-6, move |tape, p| {
            let qv = tape.constant(q1.clone());
            let out = model.eval_on_tape(tape, p, qv);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
        assert!(rep.passes(1e-5), "v-gradient: {rep:?}");
    }

    #[test]
    fn shapes_match_kinds() {
        assert_eq!(BaseShape::for_kind(AfKind::PRelu), BaseShape::Softplus);
        assert_eq!(
            BaseShape::for_kind(AfKind::PClippedRelu),
            BaseShape::Sigmoid
        );
        assert_eq!(BaseShape::for_kind(AfKind::PSigmoid), BaseShape::Sigmoid);
        assert_eq!(BaseShape::for_kind(AfKind::PTanh), BaseShape::Tanh);
    }
}
