//! `train`: the `perf_snapshot` pipeline — unconstrained reference →
//! augmented Lagrangian at 60 % of `P_max` → mask fine-tuning — on
//! Iris, Seeds and Vertebral Column with p-tanh surrogates.

use crate::layers::Layers;
use crate::run::{fidelity, fnv1a, Args, Bench, Pass, Size, FNV_OFFSET};
use pnc_bench::harness::{fit_bundle, AfBundle, CappedData};
use pnc_core::PrintedNetwork;
use pnc_datasets::DatasetId;
use pnc_linalg::Matrix;
use pnc_spice::AfKind;
use pnc_telemetry::{Profiler, Telemetry};
use pnc_train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc_train::experiment::{build_network, ExperimentFidelity, PreparedData};
use pnc_train::finetune::finetune;
use pnc_train::observer::{RescueEvent, TrainObserver};
use pnc_train::trainer::{fit_instrumented, EpochMeasure, EpochRecord, FitContext};
use pnc_train::{auglag::OuterIterRecord, TrainError};

/// Budget as a share of the unconstrained reference power.
pub const BUDGET_FRAC: f64 = 0.6;

/// Training-row cap (the smoke scale's).
pub const ROW_CAP: usize = 400;

/// Counts epochs, outer iterations and rescues, and hands the trainers
/// the pass's profiler.
#[derive(Debug, Default)]
pub struct Counting {
    prof: Profiler,
    /// Epochs completed.
    pub epochs: u64,
    /// Augmented-Lagrangian outer iterations completed.
    pub outer_iters: u64,
    /// Rescue phases started.
    pub rescues: u64,
}

impl TrainObserver for Counting {
    fn profiler(&self) -> Profiler {
        self.prof.clone()
    }

    fn on_epoch(&mut self, _record: &EpochRecord) {
        self.epochs += 1;
    }

    fn on_outer_iter(&mut self, _iter: usize, _record: &OuterIterRecord) {
        self.outer_iters += 1;
    }

    fn on_rescue(&mut self, event: &RescueEvent) {
        self.rescues += u64::from(event.stage == "start");
    }
}

/// What one pipeline left behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trained {
    /// Classes of the dataset (chance accuracy is their inverse).
    pub classes: usize,
    /// Power budget, watts.
    pub budget_watts: f64,
    /// Final hard power on the training rows, watts.
    pub power_watts: f64,
    /// Test accuracy.
    pub test_accuracy: f64,
    /// Whether every trained parameter is finite.
    pub params_finite: bool,
}

impl Trained {
    /// A pipeline op fails when its network is non-finite or over its
    /// budget.
    pub fn op_failed(&self) -> bool {
        !self.is_finite() || self.power_watts > self.budget_watts
    }

    /// Whether every number the pipeline produced is finite.
    pub fn is_finite(&self) -> bool {
        self.params_finite
            && self.power_watts.is_finite()
            && self.budget_watts.is_finite()
            && self.test_accuracy.is_finite()
    }

    /// The output check: a finite network that beats chance.
    ///
    /// # Errors
    ///
    /// Describes the failed check.
    pub fn check(&self) -> Result<(), String> {
        if !self.is_finite() {
            return Err("network is not finite".into());
        }
        let chance = 1.0 / self.classes as f64;
        if self.test_accuracy <= chance {
            return Err(format!(
                "test accuracy {:.3} does not beat chance {chance:.3}",
                self.test_accuracy
            ));
        }
        Ok(())
    }
}

/// One dataset's prepared split and its topology.
pub struct Prepared {
    id: DatasetId,
    data: CappedData,
}

impl Prepared {
    /// The test split (never capped).
    pub fn test(&self) -> (&Matrix, &[usize]) {
        (&self.data.x_test, &self.data.y_test)
    }
}

/// Prepares `ids` for seed `seed`, timed as `datasets.prepare_ms`.
pub fn prepare(ids: &[DatasetId], seed: u64, cap: usize, layers: &mut Layers) -> Vec<Prepared> {
    layers.time(&Profiler::disabled(), "datasets.prepare_ms", || {
        ids.iter()
            .map(|&id| Prepared {
                id,
                data: CappedData::new(&PreparedData::new(id, seed), cap),
            })
            .collect()
    })
}

/// Fits the p-tanh bundle, timed as `surrogate.fit_ms.p-tanh`.
///
/// # Errors
///
/// Returns the fit error as text.
pub fn ptanh_bundle(fid: &ExperimentFidelity, layers: &mut Layers) -> Result<AfBundle, String> {
    layers
        .time(&Profiler::disabled(), "surrogate.fit_ms.p-tanh", || {
            fit_bundle(AfKind::PTanh, fid)
        })
        .map_err(|e| e.to_string())
}

/// The constrained pipeline on one dataset. Layers get each phase's
/// time; `obs` counts the epochs of the reference and the augmented
/// Lagrangian (fine-tuning reports none).
///
/// # Errors
///
/// Propagates training errors.
pub fn pipeline(
    p: &Prepared,
    bundle: &AfBundle,
    fid: &ExperimentFidelity,
    seed: u64,
    layers: &mut Layers,
    obs: &mut Counting,
) -> Result<(PrintedNetwork, Trained), TrainError> {
    let refs = p.data.refs();
    let prof = obs.profiler();
    // `unconstrained_reference`, with an observer attached so its
    // epochs are counted and traced.
    let p_max = layers.time(&prof, "train.reference_ms", || {
        let mut net = build_network(p.id, &bundle.activation, &bundle.negation, seed);
        let p_init = hard_power(&net, refs.x_train)?;
        fit_instrumented(
            &mut net,
            &refs,
            &fid.train,
            &|_tape, _bound, ce| ce,
            &|_net| EpochMeasure::unconstrained(),
            &FitContext::default(),
            obs,
        )?;
        Ok::<_, TrainError>(hard_power(&net, refs.x_train)?.max(p_init))
    })?;
    let budget = BUDGET_FRAC * p_max;
    let mut net = build_network(p.id, &bundle.activation, &bundle.negation, seed);
    let cfg = AugLagConfig {
        budget_watts: budget,
        mu: fid.mu,
        outer_iters: fid.auglag_outer,
        inner: fid.train.with_seed(seed),
        warm_start: true,
        rescue: true,
    };
    layers.time(&prof, "train.auglag_ms", || {
        train_auglag_observed(&mut net, &refs, &cfg, obs)
    })?;
    layers.time(&prof, "train.finetune_ms", || {
        finetune(&mut net, &refs, budget, &fid.train)
    })?;
    let trained = Trained {
        classes: p.id.classes(),
        budget_watts: budget,
        power_watts: hard_power(&net, refs.x_train)?,
        test_accuracy: net.accuracy(&p.data.x_test, &p.data.y_test)?,
        params_finite: net
            .param_values()
            .iter()
            .all(|m| m.as_slice().iter().all(|v| v.is_finite())),
    };
    Ok((net, trained))
}

/// The training workload.
pub struct Train;

/// Inputs of the training workload.
pub struct TrainInputs {
    fid: ExperimentFidelity,
    bundle: AfBundle,
    datasets: Vec<Prepared>,
    seed: u64,
}

impl Bench for Train {
    type Inputs = TrainInputs;

    fn setup(&self, args: &Args, layers: &mut Layers) -> Result<TrainInputs, String> {
        let fid = fidelity(args.size, args.seed);
        let bundle = ptanh_bundle(&fid, layers)?;
        let (ids, cap): (&[DatasetId], usize) = match args.size {
            Size::Full => (
                &[
                    DatasetId::Iris,
                    DatasetId::Seeds,
                    DatasetId::VertebralColumn,
                ],
                ROW_CAP,
            ),
            Size::Tiny => (&[DatasetId::Iris], 60),
        };
        let datasets = prepare(ids, args.seed, cap, layers);
        Ok(TrainInputs {
            fid,
            bundle,
            datasets,
            seed: args.seed,
        })
    }

    fn pass(&self, inputs: &TrainInputs, tel: &Telemetry) -> Pass {
        let mut pass = Pass {
            digest: FNV_OFFSET,
            ..Pass::default()
        };
        let mut obs = Counting {
            prof: tel.profiler().clone(),
            ..Counting::default()
        };
        let mut accuracy = 0.0;
        let mut power_ratio = 0.0;
        for p in &inputs.datasets {
            pass.attempted += 1;
            let run = pipeline(
                p,
                &inputs.bundle,
                &inputs.fid,
                inputs.seed,
                &mut pass.layers,
                &mut obs,
            );
            match run {
                Ok((_, t)) => {
                    pass.failed += u64::from(t.op_failed());
                    if let Err(e) = t.check() {
                        pass.problems.push(format!("{}: {e}", p.id.name()));
                    }
                    accuracy += t.test_accuracy;
                    power_ratio += t.power_watts / t.budget_watts;
                    for v in [t.power_watts, t.test_accuracy] {
                        pass.digest = fnv1a(pass.digest, &v.to_bits().to_le_bytes());
                    }
                }
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("{}: pipeline failed: {e}", p.id.name());
                }
            }
        }
        let n = inputs.datasets.len() as f64;
        pass.quality = accuracy / n;
        pass.work = obs.epochs as f64;
        pass.layers.add("train.epochs", obs.epochs as f64);
        pass.layers.add("train.outer_iters", obs.outer_iters as f64);
        pass.layers.add("train.rescues", obs.rescues as f64);
        pass.layers.add("train.power_ratio", power_ratio / n);
        pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained(power_watts: f64, test_accuracy: f64) -> Trained {
        Trained {
            classes: 3,
            budget_watts: 1e-3,
            power_watts,
            test_accuracy,
            params_finite: true,
        }
    }

    #[test]
    fn over_budget_is_a_failed_op_not_a_check_failure() {
        let t = trained(2e-3, 0.9);
        assert!(t.op_failed());
        assert!(t.check().is_ok());
        assert!(!trained(0.5e-3, 0.9).op_failed());
    }

    #[test]
    fn chance_accuracy_and_non_finite_values_fail_the_check() {
        assert!(trained(0.5e-3, 1.0 / 3.0).check().is_err());
        let t = Trained {
            params_finite: false,
            ..trained(0.5e-3, 0.9)
        };
        assert!(t.check().is_err());
        assert!(t.op_failed());
        assert!(trained(f64::NAN, 0.9).op_failed());
    }
}
