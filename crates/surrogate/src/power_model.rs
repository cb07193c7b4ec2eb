//! The differentiable surrogate power model `𝒫^AF(q)`.
//!
//! Mirrors the paper's pipeline: normalize the design inputs, regress
//! log-power with an MLP (power spans decades across the design space,
//! so a log target conditions the fit), and expose predictions both on
//! plain data and on an autodiff tape so the constrained trainer can
//! differentiate power with respect to the learnable design vector `q`.

use crate::mlp::{Mlp, MlpConfig};
use crate::sampling::AfPowerDataset;
use crate::SurrogateError;
use pnc_autodiff::{Tape, Var};
use pnc_linalg::stats::Standardizer;
use pnc_linalg::{rng as lrng, Matrix};
use pnc_spice::AfKind;
use pnc_telemetry::{Event, Level, Telemetry};

const LN10: f64 = std::f64::consts::LN_10;

/// Configuration for fitting a [`PowerSurrogate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSurrogateConfig {
    /// Number of Sobol/SPICE samples (the paper uses 10,000).
    pub samples: usize,
    /// Points in the input-voltage sweep used to average power.
    pub grid_points: usize,
    /// MLP architecture/training settings.
    pub mlp: MlpConfig,
}

impl Default for PowerSurrogateConfig {
    fn default() -> Self {
        PowerSurrogateConfig {
            samples: 2000,
            grid_points: 21,
            mlp: MlpConfig::default(),
        }
    }
}

impl PowerSurrogateConfig {
    /// Fast preset for unit tests and smoke runs.
    pub fn smoke() -> Self {
        PowerSurrogateConfig {
            samples: 64,
            grid_points: 7,
            mlp: MlpConfig {
                hidden: vec![16, 16],
                epochs: 300,
                lr: 5e-3,
                ..MlpConfig::default()
            },
        }
    }

    /// The paper's full-scale preset: 10,000 samples, 15-layer MLP.
    pub fn paper() -> Self {
        PowerSurrogateConfig {
            samples: 10_000,
            grid_points: 21,
            mlp: MlpConfig::paper_depth(),
        }
    }
}

/// A trained surrogate `q ↦ 𝒫^AF(q)` for one activation kind.
#[derive(Debug, Clone)]
pub struct PowerSurrogate {
    kind: AfKind,
    scaler: Standardizer,
    /// The MLP regresses standardized `log10(P)`.
    mlp: Mlp,
    y_mean: f64,
    y_std: f64,
    validation_r2: f64,
}

impl PowerSurrogate {
    /// Fits a surrogate for `kind` by sampling the design space and
    /// training the MLP, streaming characterization progress, MLP
    /// loss-curve events and a final `surrogate_fit` summary to `tel`.
    ///
    /// # Errors
    ///
    /// Propagates sampling errors; returns
    /// [`SurrogateError::NotEnoughData`] when fewer than 16 samples
    /// survive simulation.
    pub fn fit(
        kind: AfKind,
        cfg: &PowerSurrogateConfig,
        tel: &Telemetry,
    ) -> Result<Self, SurrogateError> {
        let ds = AfPowerDataset::generate(kind, cfg.samples, cfg.grid_points, tel)?;
        Self::fit_from_dataset(&ds, &cfg.mlp, tel)
    }

    /// Fits from an existing characterization dataset, emitting
    /// `mlp_epoch` loss-curve events during training plus a final
    /// `surrogate_fit` info event with the validation R².
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::NotEnoughData`] when the dataset is too
    /// small to leave a validation split.
    pub fn fit_from_dataset(
        ds: &AfPowerDataset,
        mlp_cfg: &MlpConfig,
        tel: &Telemetry,
    ) -> Result<Self, SurrogateError> {
        if ds.len() < 16 {
            return Err(SurrogateError::NotEnoughData {
                available: ds.len(),
                required: 16,
            });
        }
        let (train, val) = ds.split(5);

        // Features: log of each design parameter (ranges span decades).
        let log_x = |m: &Matrix| m.map(f64::ln);
        let xtr_raw = log_x(&train.designs);
        let scaler = Standardizer::fit(&xtr_raw);
        let xtr = scaler.transform(&xtr_raw);
        let xva = scaler.transform(&log_x(&val.designs));

        // Target: standardized log10 power.
        let ytr_log: Vec<f64> = train.power.iter().map(|&p| p.log10()).collect();
        let y_mean = pnc_linalg::stats::mean(&ytr_log);
        let y_std = pnc_linalg::stats::std_dev(&ytr_log).max(1e-9);
        let ytr = Matrix::from_vec(
            ytr_log.len(),
            1,
            ytr_log.iter().map(|&y| (y - y_mean) / y_std).collect(),
        );

        let mut rng = lrng::seeded(mlp_cfg.seed);
        let mut mlp = Mlp::new(xtr.cols(), &mlp_cfg.hidden, 1, &mut rng);
        mlp.train(&xtr, &ytr, mlp_cfg, tel);

        // Validation R² in log10-power space.
        let pred_std = {
            let mut eval_scope = tel.profiler().scope("mlp_eval");
            eval_scope.set_u64("rows", xva.rows() as u64);
            mlp.forward(&xva)
        };
        let pred_log: Vec<f64> = pred_std
            .as_slice()
            .iter()
            .map(|&v| v * y_std + y_mean)
            .collect();
        let target_log: Vec<f64> = val.power.iter().map(|&p| p.log10()).collect();
        let validation_r2 = pnc_linalg::stats::r_squared(&target_log, &pred_log);

        tel.emit(|| {
            Event::new("surrogate_fit", Level::Info)
                .with_str("kind", ds.kind.name())
                .with_u64("samples", ds.len() as u64)
                .with_f64("validation_r2", validation_r2)
        });

        Ok(PowerSurrogate {
            kind: ds.kind,
            scaler,
            mlp,
            y_mean,
            y_std,
            validation_r2,
        })
    }

    /// The activation kind this surrogate models.
    pub fn kind(&self) -> AfKind {
        self.kind
    }

    /// Decomposes into parts for persistence:
    /// `(kind, scaler, mlp, y_mean, y_std, validation_r2)`.
    pub fn parts(&self) -> (AfKind, &Standardizer, &Mlp, f64, f64, f64) {
        (
            self.kind,
            &self.scaler,
            &self.mlp,
            self.y_mean,
            self.y_std,
            self.validation_r2,
        )
    }

    /// Rebuilds a surrogate from persisted parts (see
    /// [`crate::persist`]).
    ///
    /// # Panics
    ///
    /// Panics when the scaler width disagrees with the kind's design
    /// dimension or the MLP input width.
    pub fn from_parts(
        kind: AfKind,
        scaler: Standardizer,
        mlp: Mlp,
        // lint: dimensionless
        y_mean: f64,
        // lint: dimensionless
        y_std: f64,
        // lint: dimensionless
        validation_r2: f64,
    ) -> Self {
        assert_eq!(scaler.mean().len(), kind.dim(), "scaler width mismatch");
        assert_eq!(mlp.input_dim(), kind.dim(), "mlp input width mismatch");
        PowerSurrogate {
            kind,
            scaler,
            mlp,
            y_mean,
            y_std,
            validation_r2,
        }
    }

    /// Validation R² (log10-power space) recorded at fit time.
    pub fn validation_r2(&self) -> f64 {
        self.validation_r2
    }

    /// Predicted power in watts for a design vector.
    ///
    /// # Panics
    ///
    /// Panics when `q.len()` differs from the kind's design dimension.
    pub fn predict(&self, q: &[f64]) -> f64 {
        assert_eq!(q.len(), self.kind.dim(), "predict: dimension mismatch");
        let x_raw = Matrix::from_vec(1, q.len(), q.iter().map(|&v| v.ln()).collect());
        let x = self.scaler.transform(&x_raw);
        let out = self.mlp.forward(&x)[(0, 0)];
        let log_p = out * self.y_std + self.y_mean;
        10f64.powf(log_p)
    }

    /// Predicted power on a tape: `q_var` is a `1 × dim` node holding
    /// the design vector in *physical units*; the return value is a
    /// `1 × 1` node holding power in watts. Gradients flow into `q_var`
    /// while the surrogate weights stay frozen.
    ///
    /// The caller must guarantee the design values are positive (the
    /// trainer parameterizes `q` through bounded transforms, so this
    /// holds by construction).
    pub fn predict_on_tape(&self, tape: &mut Tape, q_var: Var) -> Var {
        assert_eq!(
            tape.shape(q_var),
            (1, self.kind.dim()),
            "predict_on_tape: expected 1 × {}",
            self.kind.dim()
        );
        // log features + standardization
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
        // frozen MLP
        let out = self.mlp.forward_on_tape(tape, x);
        // un-standardize and exponentiate: P = 10^(out·σ + μ)
        let scaled = tape.mul_scalar(out, self.y_std);
        let log_p = tape.add_scalar(scaled, self.y_mean);
        let ln_p = tape.mul_scalar(log_p, LN10);
        tape.exp(ln_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_spice::af::mean_power;

    fn smoke_surrogate(kind: AfKind) -> PowerSurrogate {
        PowerSurrogate::fit(kind, &PowerSurrogateConfig::smoke(), &Telemetry::disabled()).unwrap()
    }

    #[test]
    fn fits_prelu_with_decent_r2() {
        let s = smoke_surrogate(AfKind::PRelu);
        assert!(
            s.validation_r2() > 0.8,
            "validation R² too low: {}",
            s.validation_r2()
        );
    }

    #[test]
    fn prediction_tracks_simulation() {
        let s = smoke_surrogate(AfKind::PRelu);
        let d = AfKind::PRelu.default_design();
        let simulated = mean_power(&d, 7).unwrap();
        let predicted = s.predict(d.q());
        let ratio = predicted / simulated;
        assert!(
            (0.4..2.5).contains(&ratio),
            "prediction off: sim {simulated:e} vs pred {predicted:e}"
        );
    }

    #[test]
    fn prediction_is_positive_over_random_designs() {
        let s = smoke_surrogate(AfKind::PRelu);
        let bounds = AfKind::PRelu.bounds();
        let mut rng = lrng::seeded(3);
        use rand::Rng;
        for _ in 0..20 {
            let q: Vec<f64> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    let t: f64 = rng.gen();
                    lo * (hi / lo).powf(t)
                })
                .collect();
            let p = s.predict(&q);
            assert!(p > 0.0 && p.is_finite(), "bad prediction {p}");
        }
    }

    #[test]
    fn tape_prediction_matches_plain() {
        let s = smoke_surrogate(AfKind::PRelu);
        let d = AfKind::PRelu.default_design();
        let plain = s.predict(d.q());
        let mut tape = Tape::new();
        let q = tape.parameter(Matrix::from_vec(1, 3, d.q().to_vec()));
        let p = s.predict_on_tape(&mut tape, q);
        assert!(
            (tape.scalar(p) - plain).abs() < 1e-12 * plain.abs().max(1e-12),
            "tape {} vs plain {plain}",
            tape.scalar(p)
        );
    }

    #[test]
    fn tape_prediction_gradient_checks() {
        let s = smoke_surrogate(AfKind::PRelu);
        let d = AfKind::PRelu.default_design();
        let q0 = Matrix::from_vec(1, 3, d.q().to_vec());
        // Power is ~1e-5 W; check relative error via scaled objective.
        let report = pnc_autodiff::gradcheck::check_gradient(&q0, 1e-2, |tape, p| {
            let out = s.predict_on_tape(tape, p);
            tape.mul_scalar(out, 1e6) // work in µW for conditioning
        });
        assert!(report.max_rel_err < 1e-2, "{report:?}");
    }

    #[test]
    fn traced_fit_emits_loss_curve_and_summary() {
        use pnc_telemetry::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let s = PowerSurrogate::fit(AfKind::PRelu, &PowerSurrogateConfig::smoke(), &tel).unwrap();

        let fit = sink.events_named("surrogate_fit");
        assert_eq!(fit.len(), 1);
        assert_eq!(fit[0].get_str("kind"), Some("p-ReLU"));
        assert_eq!(fit[0].get_f64("validation_r2"), Some(s.validation_r2()));

        // The MLP loss curve is sampled (~50 points) and decreases overall.
        let curve = sink.events_named("mlp_epoch");
        assert!(curve.len() >= 10, "loss curve too sparse: {}", curve.len());
        let first = curve.first().unwrap().get_f64("train_mse").unwrap();
        let last = curve.last().unwrap().get_f64("train_mse").unwrap();
        assert!(last < first, "MLP loss did not decrease: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        let s = smoke_surrogate(AfKind::PRelu);
        let _ = s.predict(&[1.0]);
    }
}
