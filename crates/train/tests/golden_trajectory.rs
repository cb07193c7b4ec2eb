//! Golden trajectories: seed-fixed smoke runs of each training step
//! must reproduce, bit for bit, the digests recorded when the tests
//! were written.
//!
//! * One augmented-Lagrangian run followed by fine-tuning pins the
//!   per-epoch `(objective, val_accuracy, power_watts)` trajectory, the
//!   epoch count and the final parameters. Any edit to the epoch loop
//!   that moves a single bit fails here.
//! * One controlled and one paper-faithful penalty-baseline run pin the
//!   final parameters and the reported power and validation accuracy.
//! * The unconstrained reference pins `P_max` and its parameters.
//! * One `run_constrained` run, the reference → augmented Lagrangian →
//!   fine-tune pipeline the experiments use, pins its result.
//! * One multi-constraint run (power plus device count) pins its
//!   multipliers, violations, validation accuracy and parameters.
//! * One augmented-Lagrangian run that ends infeasible pins the rescue:
//!   its milestone sequence, the powers it reports and the parameters
//!   it leaves.

use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_surrogate::NegationModel;
use pnc_telemetry::Telemetry;
use pnc_train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc_train::experiment::{
    run_constrained, unconstrained_reference, ExperimentFidelity, PreparedData,
};
use pnc_train::finetune::finetune;
use pnc_train::multi::{train_multi_constraint, ConstraintKind, MultiConstraintConfig};
use pnc_train::observer::{NoopObserver, RecordingObserver};
use pnc_train::penalty::{train_penalty_observed, PenaltyConfig};
use pnc_train::trainer::{DataRefs, TrainConfig};
use std::sync::OnceLock;

/// Epochs recorded across every inner solve of the run.
const GOLDEN_EPOCHS: usize = 77;
/// FNV-1a digest of the per-epoch `(objective, val_accuracy,
/// power_watts)` bits, in epoch order.
const GOLDEN_TRAJECTORY: u64 = 0xacf3_db0c_3a25_d51d;
/// FNV-1a digest of the final parameter bits, in `param_values` order.
const GOLDEN_PARAMS: u64 = 0x6532_6dd1_e118_ae23;

/// FNV-1a digest of a controlled penalty run's final parameters, then
/// its `power_watts` and `val_accuracy` bits.
const GOLDEN_PENALTY_CONTROLLED: u64 = 0x9cb8_dff6_1e4e_f66e;
/// The same digest for a paper-faithful penalty run.
const GOLDEN_PENALTY_FAITHFUL: u64 = 0xb46d_9969_bf3c_5102;
/// FNV-1a digest of the unconstrained reference's `P_max` bits, then
/// its parameters.
const GOLDEN_REFERENCE: u64 = 0x26ef_e2dc_4eab_23c4;
/// FNV-1a digest of a smoke `run_constrained` result on Iris (seed 1,
/// 60 % of `P_max`): budget, power, test and validation accuracy bits,
/// then the device count and the feasibility flag.
const GOLDEN_CONSTRAINED_RUN: u64 = 0x3f54_4020_f1e8_6fcc;

/// FNV-1a digest of two smoke multi-constraint runs (power ≤ 35 % and
/// device count ≤ 85 % of the initial network's, then 45 % and 80 %):
/// each run's multiplier bits, violation bits, validation accuracy bits
/// and parameters, in turn.
const GOLDEN_MULTI: u64 = 0x3dc3_4f34_eae0_5c6b;
/// FNV-1a digest of a rescued smoke run: every rescue milestone's
/// stage name, round and power bits, then the final power bits and the
/// parameters.
const GOLDEN_RESCUE: u64 = 0x072c_28a6_c08e_be8f;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the parameter bits of `net`, in `param_values` order, into `h`.
fn digest_params(h: u64, net: &PrintedNetwork) -> u64 {
    net.param_values()
        .iter()
        .flat_map(|m| m.as_slice().to_vec())
        .fold(h, |h, v| fnv1a(h, v.to_bits()))
}

/// Smoke p-tanh and negation surrogates, fitted once per test binary.
fn parts() -> &'static (LearnableActivation, NegationModel) {
    static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
    CELL.get_or_init(|| {
        let act = LearnableActivation::fit(
            pnc_spice::AfKind::PTanh,
            &SurrogateFidelity::smoke(),
            &Telemetry::disabled(),
        )
        .expect("smoke surrogate");
        let neg = pnc_core::activation::fit_negation_model(9).expect("negation surrogate");
        (act, neg)
    })
}

/// A 4-in 3-out network seeded with `seed`.
fn network(seed: u64) -> PrintedNetwork {
    let (act, neg) = parts().clone();
    let mut rng = pnc_linalg::rng::seeded(seed);
    PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network")
}

#[test]
fn smoke_auglag_and_finetune_reproduce_the_golden_trajectory() {
    let mut net = network(41);
    let ds = Dataset::generate(DatasetId::Iris, 41);
    let split = ds.split(41);
    let data = DataRefs::from_split(&split);

    let budget = 0.6 * hard_power(&net, data.x_train).expect("shapes match");
    // A short patience and a high floor make some inner solves stop on
    // the plateau rule and others run out of epochs, so both ends of
    // the loop are pinned.
    let inner = TrainConfig {
        max_epochs: 30,
        patience: 6,
        min_lr: 0.02,
        ..TrainConfig::smoke()
    };
    let cfg = AugLagConfig {
        inner,
        ..AugLagConfig::smoke(budget)
    };
    let mut rec = RecordingObserver::new();
    train_auglag_observed(&mut net, &data, &cfg, &mut rec).expect("auglag run");
    finetune(&mut net, &data, budget, &TrainConfig::smoke()).expect("finetune run");

    let fits: Vec<usize> = rec.outer_iters.iter().map(|(_, r)| r.fit.epochs).collect();
    let trajectory = rec.epochs.iter().fold(FNV_OFFSET, |h, r| {
        let power = r.power_watts.map_or(u64::MAX, f64::to_bits);
        let h = fnv1a(h, r.objective.to_bits());
        let h = fnv1a(h, r.val_accuracy.to_bits());
        fnv1a(h, power)
    });
    let params = digest_params(FNV_OFFSET, &net);
    let got = (rec.epochs.len(), trajectory, params);
    assert_eq!(
        got,
        (GOLDEN_EPOCHS, GOLDEN_TRAJECTORY, GOLDEN_PARAMS),
        "inner-solve epochs {fits:?}; got ({}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}

/// Digest of one penalty run at α = 0.5 from network seed 43 on the
/// Iris split seeded with 43.
fn penalty_digest(faithful: bool) -> u64 {
    let mut net = network(43);
    let ds = Dataset::generate(DatasetId::Iris, 43);
    let split = ds.split(43);
    let data = DataRefs::from_split(&split);
    let p_ref = hard_power(&net, data.x_train).expect("shapes match");
    let base = if faithful {
        PenaltyConfig::faithful(0.5)
    } else {
        PenaltyConfig::new(0.5, p_ref)
    };
    let cfg = PenaltyConfig {
        inner: TrainConfig::smoke(),
        ..base
    };
    let report =
        train_penalty_observed(&mut net, &data, &cfg, &mut NoopObserver).expect("penalty run");
    let h = digest_params(FNV_OFFSET, &net);
    let h = fnv1a(h, report.power_watts.to_bits());
    fnv1a(h, report.val_accuracy.to_bits())
}

#[test]
fn smoke_penalty_runs_reproduce_their_golden_digests() {
    let got = (penalty_digest(false), penalty_digest(true));
    assert_eq!(
        got,
        (GOLDEN_PENALTY_CONTROLLED, GOLDEN_PENALTY_FAITHFUL),
        "got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn smoke_unconstrained_reference_reproduces_its_golden_digest() {
    let (act, neg) = parts();
    let ds = Dataset::generate(DatasetId::Iris, 47);
    let split = ds.split(47);
    let data = DataRefs::from_split(&split);
    let (net, p_max) =
        unconstrained_reference(DatasetId::Iris, act, neg, &data, &TrainConfig::smoke(), 47)
            .expect("reference run");
    let got = digest_params(fnv1a(FNV_OFFSET, p_max.to_bits()), &net);
    assert_eq!(got, GOLDEN_REFERENCE, "got {got:#018x}");
}

#[test]
fn smoke_constrained_run_reproduces_its_golden_digest() {
    let (act, neg) = parts();
    let fid = ExperimentFidelity::smoke();
    let prep = PreparedData::new(DatasetId::Iris, 1);
    let data = prep.refs();
    let (_, p_max) = unconstrained_reference(DatasetId::Iris, act, neg, &data, &fid.train, 1)
        .expect("reference run");
    let r = run_constrained(
        DatasetId::Iris,
        act,
        neg,
        &data,
        &prep.split.test.x,
        &prep.split.test.labels,
        p_max,
        0.6,
        &fid,
        1,
    )
    .expect("constrained run");
    let h = [r.budget_mw, r.power_mw, r.test_accuracy, r.val_accuracy]
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits()));
    let got = fnv1a(fnv1a(h, r.devices as u64), u64::from(r.feasible));
    assert_eq!(got, GOLDEN_CONSTRAINED_RUN, "{r:?}; got {got:#018x}");
}

#[test]
fn smoke_multi_constraint_run_reproduces_its_golden_digest() {
    // The first pair of budgets ends with both multipliers active; under
    // the second, the best iterate depends on the device count, not on
    // power alone.
    let got =
        [(0.35, 0.85), (0.45, 0.8)]
            .iter()
            .fold(FNV_OFFSET, |h, &(power_frac, device_frac)| {
                let mut net = network(53);
                let ds = Dataset::generate(DatasetId::Iris, 53);
                let split = ds.split(53);
                let data = DataRefs::from_split(&split);
                let p0 = hard_power(&net, data.x_train).expect("shapes match");
                let devices = net.device_count() as f64;
                let cfg = MultiConstraintConfig {
                    constraints: vec![
                        ConstraintKind::Power {
                            budget_watts: power_frac * p0,
                        },
                        ConstraintKind::DeviceCount {
                            budget_devices: device_frac * devices,
                        },
                    ],
                    mu: 2.0,
                    outer_iters: 4,
                    inner: TrainConfig {
                        max_epochs: 30,
                        ..TrainConfig::smoke()
                    },
                };
                let r =
                    train_multi_constraint(&mut net, &data, &cfg).expect("multi-constraint run");
                let h = r
                    .lambdas
                    .iter()
                    .chain(&r.violations)
                    .chain([&r.val_accuracy])
                    .fold(h, |h, v| fnv1a(h, v.to_bits()));
                digest_params(h, &net)
            });
    assert_eq!(got, GOLDEN_MULTI, "got {got:#018x}");
}

#[test]
fn smoke_rescue_reproduces_its_golden_digest() {
    let mut net = network(59);
    let ds = Dataset::generate(DatasetId::Iris, 59);
    let split = ds.split(59);
    let data = DataRefs::from_split(&split);
    // No outer iterate can reach a budget this far below the initial
    // power, so every penalty round runs and the shrink projection ends
    // the rescue.
    let budget = 1e-9 * hard_power(&net, data.x_train).expect("shapes match");
    let cfg = AugLagConfig {
        outer_iters: 1,
        inner: TrainConfig {
            max_epochs: 10,
            ..TrainConfig::smoke()
        },
        ..AugLagConfig::smoke(budget)
    };
    let mut rec = RecordingObserver::new();
    let report = train_auglag_observed(&mut net, &data, &cfg, &mut rec).expect("rescued run");
    assert!(report.rescued && report.feasible, "{report:?}");
    let stages: Vec<(&str, usize)> = rec.rescues.iter().map(|e| (e.stage, e.round)).collect();
    let h = rec.rescues.iter().fold(FNV_OFFSET, |h, e| {
        let h = e.stage.bytes().fold(h, |h, b| fnv1a(h, u64::from(b)));
        let h = fnv1a(h, e.round as u64);
        fnv1a(h, e.power_watts.to_bits())
    });
    let got = digest_params(fnv1a(h, report.power_watts.to_bits()), &net);
    assert_eq!(got, GOLDEN_RESCUE, "rescue {stages:?}; got {got:#018x}");
}
