//! The shared training loop.
//!
//! Reproduces the paper's setup (Sec. IV-A1): full-batch gradient
//! descent with Adam starting at learning rate 0.1, early stopping that
//! halves the learning rate after `patience` epochs without improvement
//! on the validation set, and best-model tracking that prefers
//! *feasible* iterates (power within budget) over infeasible ones.

use crate::error::{non_finite_what, TrainError};
use crate::observer::{NoopObserver, TrainObserver};
use pnc_autodiff::optim::clip_grad_norm;
use pnc_autodiff::{Adam, Optimizer, Tape, Var};
use pnc_core::network::{Batch, BoundNetwork};
use pnc_core::{CoreError, PrintedNetwork};
use pnc_linalg::Matrix;
use pnc_telemetry::{Profiler, Stopwatch};

/// Borrowed training/validation data.
#[derive(Debug, Clone, Copy)]
pub struct DataRefs<'a> {
    /// Training features.
    pub x_train: &'a Matrix,
    /// Training labels.
    pub y_train: &'a [usize],
    /// Validation features.
    pub x_val: &'a Matrix,
    /// Validation labels.
    pub y_val: &'a [usize],
}

impl<'a> DataRefs<'a> {
    /// Builds from a dataset split.
    pub fn from_split(split: &'a pnc_datasets::Split) -> Self {
        DataRefs {
            x_train: &split.train.x,
            y_train: &split.train.labels,
            x_val: &split.val.x,
            y_val: &split.val.labels,
        }
    }
}

/// Loop hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Initial Adam learning rate (paper: 0.1).
    pub lr: f64,
    /// Epochs without validation improvement before halving the rate
    /// (paper: 100).
    pub patience: usize,
    /// Learning-rate multiplier on plateau.
    pub lr_decay: f64,
    /// Stop once the rate falls below this.
    pub min_lr: f64,
    /// Global gradient-norm clip (guards against exploding constraint
    /// gradients at strong violations).
    pub grad_clip: f64,
    /// RNG seed of the surrounding run (network init + data split),
    /// stamped into [`FitReport::seed`] so every persisted fit record
    /// names the seed that reproduces it. `None` when the caller did
    /// not thread one. This is the single home of the seed — outer
    /// drivers ([`crate::AugLagConfig`], [`crate::PenaltyConfig`])
    /// carry it here via their `inner` config.
    pub seed: Option<u64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 2000,
            lr: 0.1,
            patience: 100,
            lr_decay: 0.5,
            min_lr: 1e-3,
            grad_clip: 10.0,
            seed: None,
        }
    }
}

impl TrainConfig {
    /// Tiny preset for unit tests.
    pub fn smoke() -> Self {
        TrainConfig {
            max_epochs: 60,
            patience: 25,
            ..TrainConfig::default()
        }
    }

    /// Returns this config with the run seed stamped in (see
    /// [`TrainConfig::seed`]).
    pub fn with_seed(self, seed: u64) -> Self {
        TrainConfig {
            seed: Some(seed),
            ..self
        }
    }
}

/// Outcome of a [`fit_instrumented`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitReport {
    /// Epochs actually executed.
    pub epochs: usize,
    /// Best validation accuracy seen (on the restored model).
    pub best_val_accuracy: f64,
    /// Whether the restored model satisfied the feasibility predicate.
    pub best_is_feasible: bool,
    /// Objective value at the last epoch.
    pub final_objective: f64,
    /// Learning rate at termination.
    pub final_lr: f64,
    /// Hard power (watts) of the restored best model, when the run's
    /// measure closure evaluated power (constrained runs); `None` for
    /// plain cross-entropy fits that never price power.
    pub final_power_watts: Option<f64>,
    /// Wall-clock duration of the whole fit, milliseconds.
    pub wall_clock_ms: f64,
    /// RNG seed the surrounding run used (stamped from
    /// [`TrainConfig::seed`]), so every persisted fit record names the
    /// seed that reproduces it. `None` when the caller did not thread
    /// one.
    pub seed: Option<u64>,
}

/// Builds the total objective for one epoch: receives the tape, the
/// bound network and the cross-entropy node; returns the scalar to
/// minimize.
pub type ObjectiveFn<'f> = dyn Fn(&mut Tape, &BoundNetwork, Var) -> Var + 'f;

/// The iterate a [`MeasureFn`] judges: the network
/// after one update, plus every layer's crossbar drive (augmented input
/// and its negation) when the training forward at these parameters
/// recorded them. Pricing it then costs no forward pass and no
/// negation.
#[derive(Debug)]
pub struct Iterate<'a> {
    net: &'a PrintedNetwork,
    x_train: &'a Matrix,
    drives: Option<Vec<(&'a Matrix, &'a Matrix)>>,
}

impl<'a> Iterate<'a> {
    /// An iterate without a recorded forward: [`Iterate::hard_power`]
    /// runs a plain forward over `x_train`.
    pub(crate) fn new(net: &'a PrintedNetwork, x_train: &'a Matrix) -> Self {
        Iterate {
            net,
            x_train,
            drives: None,
        }
    }

    /// The network at this iterate's parameters.
    pub fn network(&self) -> &'a PrintedNetwork {
        self.net
    }

    /// Hard (indicator-count) power on the training inputs, bit-identical
    /// to [`crate::auglag::hard_power`]: priced from the recorded layer
    /// drives when there are some, else from a plain forward.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when the training
    /// inputs disagree with the network topology.
    pub fn hard_power(&self) -> Result<f64, CoreError> {
        let report = match &self.drives {
            Some(drives) => self.net.power_report_from(drives)?,
            None => self.net.power_report(self.x_train)?,
        };
        Ok(report.total())
    }
}

/// Per-epoch hard measurement produced by a [`MeasureFn`]. Bundling
/// power and feasibility into one closure means the hard power is
/// computed at most once per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMeasure {
    /// Hard power (watts) of the current iterate, when the run prices
    /// power; `None` for unconstrained fits.
    pub power_watts: Option<f64>,
    /// Whether the current iterate is feasible. Used only for
    /// best-model selection, never for gradients.
    pub feasible: bool,
}

impl EpochMeasure {
    /// Measure for runs without a power constraint: always feasible,
    /// no power evaluation.
    pub fn unconstrained() -> Self {
        EpochMeasure {
            power_watts: None,
            feasible: true,
        }
    }
}

/// Hard measurement evaluated on each epoch's [`Iterate`].
pub type MeasureFn<'f> = dyn Fn(&Iterate<'_>) -> EpochMeasure + 'f;

/// Constraint-side context a caller (e.g. the augmented Lagrangian
/// outer loop) stamps into every [`EpochRecord`] of an inner solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitContext {
    /// Current multiplier estimate `λ`.
    pub lambda: Option<f64>,
    /// Penalty/step parameter `μ`.
    pub mu: Option<f64>,
    /// Power budget `P̄` (watts); with a measured power this also
    /// yields the normalized constraint `P/P̄ − 1` per epoch.
    pub budget_watts: Option<f64>,
}

/// One epoch's telemetry from [`fit_instrumented`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Objective value minimized this epoch.
    pub objective: f64,
    /// Validation accuracy after the update.
    pub val_accuracy: f64,
    /// Validation cross-entropy after the update.
    pub val_loss: f64,
    /// Whether the feasibility predicate held after the update.
    pub feasible: bool,
    /// Learning rate in effect.
    pub lr: f64,
    /// Global gradient norm *before* clipping.
    pub grad_norm: f64,
    /// Hard power (watts) after the update, when measured.
    pub power_watts: Option<f64>,
    /// Normalized constraint `P/P̄ − 1`, when both power and budget
    /// are known.
    pub constraint: Option<f64>,
    /// Multiplier `λ` of the surrounding outer iteration, if any.
    pub lambda: Option<f64>,
    /// Step parameter `μ` of the surrounding outer iteration, if any.
    pub mu: Option<f64>,
}

/// A gradient step whose iterate awaits validation and pricing.
#[derive(Debug, Clone, Copy)]
struct Step {
    epoch: usize,
    objective: f64,
    grad_norm: f64,
}

/// Best-model selection and the plateau schedule: the bookkeeping that
/// settles each step's iterate.
struct Selection<'a> {
    /// Validation features, encoded once per fit.
    val: Batch,
    y_val: &'a [usize],
    cfg: &'a TrainConfig,
    measure: &'a MeasureFn<'a>,
    ctx: &'a FitContext,
    prof: Profiler,
    best_params: Vec<Matrix>,
    /// (feasible, validation accuracy, −validation loss) of the best
    /// iterate so far.
    best_key: (bool, f64, f64),
    best_power: Option<f64>,
    /// Plateau detection follows the paper: "halving the learning rate
    /// after [patience] epochs without improvement on the validation
    /// set" — improvement meaning accuracy (loss still breaks ties for
    /// model selection, but must not keep resetting the plateau clock).
    best_acc_key: (bool, f64),
    stale: usize,
}

impl Selection<'_> {
    /// Settles the iterate `step` produced: validates it, prices it
    /// through the measure closure, keeps it if it is the best so far,
    /// reports it, and applies the plateau rule. Returns `false` when
    /// the halved learning rate would fall below `min_lr`, i.e. the run
    /// stops.
    fn settle(
        &mut self,
        it: &Iterate<'_>,
        step: Step,
        opt: &mut Adam,
        observer: &mut dyn TrainObserver,
    ) -> Result<bool, TrainError> {
        let net = it.network();
        let (val_acc, val_loss) = {
            let _validate = self.prof.scope("validate");
            let val_logits = net.predict_batch(&self.val)?;
            (
                pnc_autodiff::functional::accuracy(&val_logits, self.y_val),
                pnc_autodiff::functional::cross_entropy(&val_logits, self.y_val),
            )
        };
        let measured = {
            let _measure = self.prof.scope("measure");
            (self.measure)(it)
        };
        let is_feasible = measured.feasible;
        let key = (is_feasible, val_acc, -val_loss);
        if key > self.best_key {
            self.best_key = key;
            self.best_params = net.param_values();
            self.best_power = measured.power_watts;
        }
        observer.on_epoch(&EpochRecord {
            epoch: step.epoch,
            objective: step.objective,
            val_accuracy: val_acc,
            val_loss,
            feasible: is_feasible,
            lr: opt.learning_rate(),
            grad_norm: step.grad_norm,
            power_watts: measured.power_watts,
            constraint: match (measured.power_watts, self.ctx.budget_watts) {
                (Some(p), Some(b)) => Some(p / b - 1.0),
                _ => None,
            },
            lambda: self.ctx.lambda,
            mu: self.ctx.mu,
        });
        observer.on_network(step.epoch, net);
        let acc_key = (is_feasible, val_acc);
        if acc_key > self.best_acc_key {
            self.best_acc_key = acc_key;
            self.stale = 0;
        } else {
            self.stale += 1;
            if self.stale >= self.cfg.patience {
                let new_lr = opt.learning_rate() * self.cfg.lr_decay;
                if new_lr < self.cfg.min_lr {
                    return Ok(false);
                }
                opt.set_learning_rate(new_lr);
                self.stale = 0;
            }
        }
        Ok(true)
    }
}

/// The training loop: trains `net` in place and restores the best model
/// under (feasible, validation accuracy, low validation loss) ordering
/// at the end. `measure` prices each epoch's updated network (hard
/// power + feasibility in one pass); `ctx` stamps the surrounding
/// constraint state (λ, μ, budget) into every [`EpochRecord`];
/// `observer` receives each record. Callers with nothing to observe
/// pass [`NoopObserver`] and `&FitContext::default()`;
/// the observer never changes training.
///
/// Both splits are encoded once per fit ([`PrintedNetwork::encode`]):
/// every epoch's forward and validation read the same first-crossbar
/// drive. One tape forward per epoch serves both the gradient and the
/// hard power: the forward at θₜ₊₁ first settles step `t` (validation,
/// measurement from the recorded layer drives, best-model tracking,
/// observer callbacks, plateau rule) and then backpropagates step
/// `t + 1`. When the epochs run out, the last iterate is priced with a
/// plain forward instead; when the plateau rule stops the run, the
/// forward that settled the last iterate is never backpropagated.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when the training or validation
/// features disagree with the network topology, and
/// [`TrainError::NonFinite`] when the epoch's objective or gradient
/// norm is NaN/Inf — the poisoned epoch is still reported to the
/// observer (so logs and watchdogs see it) but the optimizer is never
/// stepped with non-finite values.
pub fn fit_instrumented(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &TrainConfig,
    objective: &ObjectiveFn<'_>,
    measure: &MeasureFn<'_>,
    ctx: &FitContext,
    observer: &mut dyn TrainObserver,
) -> Result<FitReport, TrainError> {
    let started = Stopwatch::start();
    let prof = observer.profiler();
    // Hot-path latency histograms: inert single-branch handles unless
    // the observer carries a metrics registry. Resolved once per fit —
    // the per-epoch cost is one `Stopwatch` read and an atomic add.
    let metrics = observer.metrics();
    let forward_ms = metrics.histogram("tape_forward_ms");
    let backward_ms = metrics.histogram("tape_backward_ms");
    let train = net.encode(data.x_train)?;
    let mut opt = Adam::with_lr(cfg.lr);
    let mut sel = Selection {
        val: net.encode(data.x_val)?,
        y_val: data.y_val,
        cfg,
        measure,
        ctx,
        prof: prof.clone(),
        best_params: net.param_values(),
        best_key: (false, f64::NEG_INFINITY, f64::INFINITY),
        best_power: None,
        best_acc_key: (false, f64::NEG_INFINITY),
        stale: 0,
    };
    let mut epochs = 0usize;
    let mut final_objective = f64::NAN;
    // The last step, settled by the next forward.
    let mut stepped: Option<Step> = None;

    for epoch in 1..=cfg.max_epochs {
        let mut epoch_scope = prof.scope("epoch");
        epoch_scope.set_u64("epoch", epoch as u64);
        let mut tape = Tape::new();
        let (bound, total) = {
            let mut fwd = prof.scope("tape_forward");
            let _fwd_sample = forward_ms.start_sample();
            let bound = net.bind(&mut tape, &train)?;
            let ce = tape.softmax_cross_entropy(bound.logits, data.y_train);
            let total = objective(&mut tape, &bound, ce);
            fwd.set_u64("nodes", tape.len() as u64);
            (bound, total)
        };
        if let Some(step) = stepped.take() {
            let it = Iterate {
                net,
                x_train: data.x_train,
                drives: Some(
                    bound
                        .layers
                        .iter()
                        .map(|l| (tape.value(l.crossbar.x_aug), tape.value(l.crossbar.x_neg)))
                        .collect(),
                ),
            };
            if !sel.settle(&it, step, &mut opt, observer)? {
                break;
            }
        }
        epochs = epoch;
        final_objective = tape.scalar(total);
        let grads = {
            let _bwd_sample = backward_ms.start_sample();
            tape.backward_profiled(total, &prof)
        };

        let mut values = net.param_values();
        let mut grad_list = bound.param_grads(&grads);
        let grad_norm = clip_grad_norm(&mut grad_list, cfg.grad_clip);

        // NaN hygiene: abort before the optimizer ingests poisoned
        // values. The doomed epoch is still surfaced to the observer —
        // with NaN validation metrics, since evaluating the network
        // would be meaningless — so JSONL logs and the health watchdog
        // record exactly where the run collapsed.
        if let Some(what) = non_finite_what(final_objective, grad_norm) {
            observer.on_epoch(&EpochRecord {
                epoch,
                objective: final_objective,
                val_accuracy: f64::NAN,
                val_loss: f64::NAN,
                feasible: false,
                lr: opt.learning_rate(),
                grad_norm,
                power_watts: None,
                constraint: None,
                lambda: ctx.lambda,
                mu: ctx.mu,
            });
            net.set_param_values(&sel.best_params);
            return Err(TrainError::NonFinite { epoch, what });
        }

        opt.step_profiled(&mut values, &grad_list, &prof);
        net.set_param_values(&values);
        stepped = Some(Step {
            epoch,
            objective: final_objective,
            grad_norm,
        });
    }
    // Out of epochs: no forward follows the last step, so its iterate
    // is priced with a plain one.
    if let Some(step) = stepped {
        sel.settle(&Iterate::new(net, data.x_train), step, &mut opt, observer)?;
    }

    net.set_param_values(&sel.best_params);
    Ok(FitReport {
        epochs,
        best_val_accuracy: sel.best_key.1.max(0.0),
        best_is_feasible: sel.best_key.0,
        final_objective,
        final_lr: opt.learning_rate(),
        final_power_watts: sel.best_power,
        wall_clock_ms: started.elapsed_ms(),
        seed: cfg.seed,
    })
}

/// Trains with plain cross-entropy (no power term). Used to measure the
/// unconstrained power ceiling `P_max`.
///
/// # Errors
///
/// Same conditions as [`fit_instrumented`].
pub fn fit_cross_entropy(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    cfg: &TrainConfig,
) -> Result<FitReport, TrainError> {
    fit_instrumented(
        net,
        data,
        cfg,
        &|_tape, _bound, ce| ce,
        &|_it| EpochMeasure::unconstrained(),
        &FitContext::default(),
        &mut NoopObserver,
    )
}

#[cfg(test)]
pub(crate) mod test_support {
    use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
    use pnc_core::{NetworkConfig, PrintedNetwork};
    use pnc_linalg::rng as lrng;
    use pnc_spice::AfKind;
    use pnc_surrogate::NegationModel;
    use pnc_telemetry::Telemetry;
    use std::sync::OnceLock;

    /// Process-wide smoke surrogates (fitting them once keeps the test
    /// battery fast).
    pub fn smoke_parts() -> &'static (LearnableActivation, NegationModel) {
        static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
        CELL.get_or_init(|| {
            let act = LearnableActivation::fit(
                AfKind::PTanh,
                &SurrogateFidelity::smoke(),
                &Telemetry::disabled(),
            )
            .unwrap();
            let neg = pnc_core::activation::fit_negation_model(9).unwrap();
            (act, neg)
        })
    }

    pub fn tiny_network(inputs: usize, outputs: usize, seed: u64) -> PrintedNetwork {
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(seed);
        PrintedNetwork::new(
            inputs,
            outputs,
            NetworkConfig::default(),
            act,
            neg,
            &mut rng,
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_datasets::{Dataset, DatasetId};

    #[test]
    fn cross_entropy_training_learns_iris() {
        let ds = Dataset::generate(DatasetId::Iris, 5);
        let split = ds.split(1);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 42);
        let before = net.accuracy(data.x_val, data.y_val).unwrap();
        let cfg = TrainConfig {
            max_epochs: 150,
            patience: 60,
            ..TrainConfig::default()
        };
        let report = fit_cross_entropy(&mut net, &data, &cfg).unwrap();
        let after = net.accuracy(data.x_val, data.y_val).unwrap();
        assert!(
            after > before.max(0.55),
            "training should beat init/chance: {before} → {after}"
        );
        assert!(report.best_val_accuracy >= after - 1e-9);
        assert!(report.epochs > 0);
    }

    #[test]
    fn best_model_is_restored() {
        let ds = Dataset::generate(DatasetId::Iris, 6);
        let split = ds.split(2);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 7);
        let report = fit_cross_entropy(&mut net, &data, &TrainConfig::smoke()).unwrap();
        // Restored model must achieve exactly the reported accuracy.
        let acc = net.accuracy(data.x_val, data.y_val).unwrap();
        assert!((acc - report.best_val_accuracy).abs() < 1e-12);
    }

    #[test]
    fn infeasible_predicate_is_recorded() {
        let ds = Dataset::generate(DatasetId::Iris, 7);
        let split = ds.split(3);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 8);
        let cfg = TrainConfig {
            max_epochs: 5,
            ..TrainConfig::smoke()
        };
        let infeasible = |_it: &Iterate<'_>| EpochMeasure {
            power_watts: None,
            feasible: false,
        };
        let report = fit_instrumented(
            &mut net,
            &data,
            &cfg,
            &|_t, _b, ce| ce,
            &infeasible,
            &FitContext::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(!report.best_is_feasible);
    }

    #[test]
    fn traced_fit_reports_every_epoch() {
        use crate::observer::RecordingObserver;

        let ds = Dataset::generate(DatasetId::Iris, 9);
        let split = ds.split(5);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 10);
        let cfg = TrainConfig {
            max_epochs: 12,
            ..TrainConfig::smoke()
        };
        let mut rec = RecordingObserver::new();
        let report = fit_instrumented(
            &mut net,
            &data,
            &cfg,
            &|_t, _b, ce| ce,
            &|_it| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut rec,
        )
        .unwrap();
        let history = rec.epochs;
        assert_eq!(history.len(), report.epochs);
        assert_eq!(history[0].epoch, 1);
        assert!(history.iter().all(|r| r.objective.is_finite()));
        assert!(history
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.val_accuracy)));
        // Telemetry must not change training: an unobserved fit from the
        // same seed produces the same final parameters.
        let mut net2 = test_support::tiny_network(4, 3, 10);
        fit_cross_entropy(&mut net2, &data, &cfg).unwrap();
        assert_eq!(net.param_values()[0], net2.param_values()[0]);
    }

    /// Checks each epoch's reported power against a fresh plain pricing
    /// of the network the observer sees for that epoch.
    struct PowerAudit<'a> {
        x_train: &'a Matrix,
        records: Vec<Option<f64>>,
        priced: Vec<(usize, f64)>,
    }

    impl crate::observer::TrainObserver for PowerAudit<'_> {
        fn on_epoch(&mut self, record: &EpochRecord) {
            self.records.push(record.power_watts);
        }

        fn on_network(&mut self, epoch: usize, net: &PrintedNetwork) {
            let p = crate::auglag::hard_power(net, self.x_train).unwrap();
            self.priced.push((epoch, p));
        }
    }

    #[test]
    fn recorded_power_matches_plain_pricing_every_epoch() {
        use crate::auglag::{hard_power, train_auglag_observed, AugLagConfig};

        let ds = Dataset::generate(DatasetId::Iris, 15);
        let split = ds.split(10);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 16);
        let budget = 0.5 * hard_power(&net, data.x_train).unwrap();
        // A short patience ends some inner solves on the plateau rule;
        // the rest run out of epochs and are priced with a plain forward.
        let cfg = AugLagConfig {
            inner: TrainConfig {
                max_epochs: 30,
                patience: 6,
                min_lr: 0.02,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(budget)
        };
        let mut audit = PowerAudit {
            x_train: data.x_train,
            records: Vec::new(),
            priced: Vec::new(),
        };
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut audit).unwrap();
        let epochs: usize = report.outer.iter().map(|o| o.fit.epochs).sum();
        assert!(epochs > 0 && audit.records.len() >= epochs);
        assert_eq!(audit.records.len(), audit.priced.len());
        for (recorded, (epoch, priced)) in audit.records.iter().zip(&audit.priced) {
            let recorded = recorded.unwrap_or_else(|| panic!("epoch {epoch}: no power"));
            assert_eq!(recorded.to_bits(), priced.to_bits(), "epoch {epoch}");
        }
    }

    #[test]
    fn instrumented_fit_emits_one_event_per_epoch() {
        use crate::observer::TelemetryObserver;
        use pnc_telemetry::{MemorySink, Telemetry};
        use std::sync::Arc;

        let ds = Dataset::generate(DatasetId::Iris, 11);
        let split = ds.split(6);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 12);

        let sink = Arc::new(MemorySink::new());
        let mut obs = TelemetryObserver::new(Telemetry::with_sink(sink.clone()));
        let report = fit_instrumented(
            &mut net,
            &data,
            &TrainConfig::smoke(),
            &|_t, _b, ce| ce,
            &|_n| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut obs,
        )
        .unwrap();
        obs.finish();

        // Exactly one epoch event per executed epoch...
        let epochs = sink.events_named("epoch");
        assert_eq!(epochs.len(), report.epochs);
        // ...with 1-based, strictly monotonically increasing indices.
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.get_u64("epoch"), Some(i as u64 + 1));
            assert!(e.get_f64("grad_norm").is_some_and(|g| g >= 0.0));
            assert!(e.get_f64("lr").is_some_and(|l| l > 0.0));
        }
        // The duration histogram summarizes the same epoch count.
        let summary = sink.events_named("epoch_time_ms");
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].get_u64("count"), Some(report.epochs as u64));
        assert!(report.wall_clock_ms >= 0.0);
        // Unconstrained run: no power was measured.
        assert_eq!(report.final_power_watts, None);
        assert!(epochs.iter().all(|e| e.get("power_watts").is_none()));
    }

    #[test]
    fn instrumentation_does_not_change_training() {
        use crate::observer::RecordingObserver;

        let ds = Dataset::generate(DatasetId::Iris, 12);
        let split = ds.split(7);
        let data = DataRefs::from_split(&split);
        let cfg = TrainConfig {
            max_epochs: 20,
            ..TrainConfig::smoke()
        };

        let mut plain = test_support::tiny_network(4, 3, 13);
        let r_plain = fit_cross_entropy(&mut plain, &data, &cfg).unwrap();

        let mut observed = test_support::tiny_network(4, 3, 13);
        let mut rec = RecordingObserver::new();
        let r_obs = fit_instrumented(
            &mut observed,
            &data,
            &cfg,
            &|_t, _b, ce| ce,
            &|_n| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut rec,
        )
        .unwrap();

        assert_eq!(plain.param_values(), observed.param_values());
        assert_eq!(r_plain.epochs, r_obs.epochs);
        assert_eq!(r_plain.best_val_accuracy, r_obs.best_val_accuracy);
        assert_eq!(rec.epochs.len(), r_obs.epochs);
    }

    #[test]
    fn non_finite_loss_aborts_with_typed_error() {
        use crate::error::{NonFiniteKind, TrainError};
        use crate::observer::RecordingObserver;

        let ds = Dataset::generate(DatasetId::Iris, 13);
        let split = ds.split(8);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 14);

        // Poison the objective from epoch 3 onwards.
        let calls = std::cell::Cell::new(0usize);
        let objective = |tape: &mut Tape, _b: &BoundNetwork, ce: Var| {
            let n = calls.get() + 1;
            calls.set(n);
            if n >= 3 {
                tape.mul_scalar(ce, f64::NAN)
            } else {
                ce
            }
        };
        let mut rec = RecordingObserver::new();
        let err = fit_instrumented(
            &mut net,
            &data,
            &TrainConfig::smoke(),
            &objective,
            &|_n| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut rec,
        )
        .unwrap_err();
        assert_eq!(
            err,
            TrainError::NonFinite {
                epoch: 3,
                what: NonFiniteKind::Loss
            }
        );
        // The poisoned epoch is still reported (for logs/watchdogs)…
        assert_eq!(rec.epochs.len(), 3);
        assert!(rec.epochs[2].objective.is_nan());
        // …but the first two epochs were healthy.
        assert!(rec.epochs[..2].iter().all(|r| r.objective.is_finite()));
    }

    #[test]
    fn seed_is_threaded_into_the_report() {
        let ds = Dataset::generate(DatasetId::Iris, 14);
        let split = ds.split(9);
        let data = DataRefs::from_split(&split);
        let mut net = test_support::tiny_network(4, 3, 15);
        let cfg = TrainConfig {
            max_epochs: 4,
            ..TrainConfig::smoke()
        }
        .with_seed(77);
        let report = fit_instrumented(
            &mut net,
            &data,
            &cfg,
            &|_t, _b, ce| ce,
            &|_n| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut NoopObserver,
        )
        .unwrap();
        assert_eq!(report.seed, Some(77));
        // A config without a seed threads none.
        let unseeded = TrainConfig { seed: None, ..cfg };
        let report = fit_cross_entropy(&mut net, &data, &unseeded).unwrap();
        assert_eq!(report.seed, None);
    }

    #[test]
    fn objective_can_use_power() {
        // A huge power weight must yield lower final power than pure CE.
        let ds = Dataset::generate(DatasetId::Iris, 8);
        let split = ds.split(4);
        let data = DataRefs::from_split(&split);
        let cfg = TrainConfig::smoke();

        let mut net_ce = test_support::tiny_network(4, 3, 9);
        fit_cross_entropy(&mut net_ce, &data, &cfg).unwrap();
        let p_ce = net_ce.power_report(data.x_train).unwrap().total();

        let mut net_pw = test_support::tiny_network(4, 3, 9);
        fit_instrumented(
            &mut net_pw,
            &data,
            &cfg,
            &|tape, bound, ce| {
                let pw = tape.mul_scalar(bound.power, 1e6); // watts → O(10)
                tape.add(ce, pw)
            },
            &|_it| EpochMeasure::unconstrained(),
            &FitContext::default(),
            &mut NoopObserver,
        )
        .unwrap();
        let p_pw = net_pw.power_report(data.x_train).unwrap().total();
        assert!(
            p_pw < p_ce,
            "power-penalized run should burn less: {p_pw:e} vs {p_ce:e}"
        );
    }
}
