//! Cross-crate integration tests: the full pipeline through the `pnc`
//! facade — SPICE characterization → surrogates → network → constrained
//! training → pruning → evaluation.

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::datasets::{Dataset, DatasetId};
use pnc::spice::AfKind;
use pnc::surrogate::NegationModel;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc::train::finetune::finetune;
use pnc::train::observer::NoopObserver;
use pnc::train::trainer::{fit_cross_entropy, DataRefs, TrainConfig};
use std::sync::OnceLock;

/// One shared smoke-fidelity surrogate bundle for the whole file.
fn parts() -> &'static (LearnableActivation, NegationModel) {
    static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
    CELL.get_or_init(|| {
        let act = LearnableActivation::fit(
            AfKind::PTanh,
            &SurrogateFidelity::smoke(),
            &Telemetry::disabled(),
        )
        .expect("surrogate fit");
        let neg = fit_negation_model(9).expect("negation fit");
        (act, neg)
    })
}

fn make_net(inputs: usize, outputs: usize, seed: u64) -> PrintedNetwork {
    let (act, neg) = parts().clone();
    let mut rng = pnc::linalg::rng::seeded(seed);
    PrintedNetwork::new(
        inputs,
        outputs,
        NetworkConfig::default(),
        act,
        neg,
        &mut rng,
    )
    .expect("positive widths")
}

#[test]
fn constrained_training_is_feasible_and_learns() {
    let ds = Dataset::generate(DatasetId::Iris, 1);
    let split = ds.split(1);
    let data = DataRefs::from_split(&split);

    let mut reference = make_net(4, 3, 5);
    fit_cross_entropy(&mut reference, &data, &TrainConfig::smoke()).unwrap();
    let p_max = hard_power(&reference, data.x_train).unwrap();

    let budget = 0.4 * p_max;
    let mut net = make_net(4, 3, 5);
    let report = train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig::smoke(budget),
        &mut NoopObserver,
    )
    .unwrap();

    assert!(report.feasible, "must satisfy the budget: {report:?}");
    assert!(hard_power(&net, data.x_train).unwrap() <= budget * 1.0001);
    let acc = net.accuracy(&split.test.x, &split.test.labels).unwrap();
    assert!(acc > 0.4, "should beat chance clearly: {acc}");
}

#[test]
fn finetune_preserves_feasibility_end_to_end() {
    let ds = Dataset::generate(DatasetId::Seeds, 2);
    let split = ds.split(2);
    let data = DataRefs::from_split(&split);

    let mut reference = make_net(7, 3, 6);
    fit_cross_entropy(&mut reference, &data, &TrainConfig::smoke()).unwrap();
    let budget = 0.5 * hard_power(&reference, data.x_train).unwrap();

    let mut net = make_net(7, 3, 6);
    train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig::smoke(budget),
        &mut NoopObserver,
    )
    .unwrap();
    let ft = finetune(&mut net, &data, budget, &TrainConfig::smoke()).unwrap();
    assert!(ft.feasible, "{ft:?}");
    assert!(hard_power(&net, data.x_train).unwrap() <= budget * 1.0001);
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let ds = Dataset::generate(DatasetId::Iris, 3);
        let split = ds.split(3);
        let data = DataRefs::from_split(&split);
        let mut net = make_net(4, 3, 7);
        let report = train_auglag_observed(
            &mut net,
            &data,
            &AugLagConfig::smoke(5e-5),
            &mut NoopObserver,
        )
        .unwrap();
        (
            report.power_watts,
            report.val_accuracy,
            net.param_values()[0].clone(),
        )
    };
    let (p1, a1, t1) = run();
    let (p2, a2, t2) = run();
    assert_eq!(p1, p2);
    assert_eq!(a1, a2);
    assert_eq!(t1, t2);
}

#[test]
fn tighter_budgets_never_raise_power() {
    let ds = Dataset::generate(DatasetId::Iris, 4);
    let split = ds.split(4);
    let data = DataRefs::from_split(&split);

    let mut reference = make_net(4, 3, 8);
    fit_cross_entropy(&mut reference, &data, &TrainConfig::smoke()).unwrap();
    let p_max = hard_power(&reference, data.x_train).unwrap();

    let mut powers = Vec::new();
    for frac in [0.2, 0.8] {
        let mut net = make_net(4, 3, 8);
        let report = train_auglag_observed(
            &mut net,
            &data,
            &AugLagConfig::smoke(frac * p_max),
            &mut NoopObserver,
        )
        .unwrap();
        assert!(report.feasible, "frac {frac}: {report:?}");
        powers.push(report.power_watts);
    }
    assert!(
        powers[0] <= powers[1] * 1.05,
        "20% budget should not burn more than 80%: {powers:?}"
    );
}

#[test]
fn all_four_activation_kinds_train_feasibly() {
    let ds = Dataset::generate(DatasetId::Iris, 5);
    let split = ds.split(5);
    let data = DataRefs::from_split(&split);
    let neg = parts().1;

    for kind in AfKind::ALL {
        let act =
            LearnableActivation::fit(kind, &SurrogateFidelity::smoke(), &Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let mut rng = pnc::linalg::rng::seeded(9);
        let mut net =
            PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng).unwrap();
        let p0 = hard_power(&net, data.x_train).unwrap();
        let cfg = AugLagConfig {
            outer_iters: 2,
            inner: TrainConfig {
                max_epochs: 30,
                ..TrainConfig::smoke()
            },
            ..AugLagConfig::smoke(0.6 * p0)
        };
        let report = train_auglag_observed(&mut net, &data, &cfg, &mut NoopObserver).unwrap();
        assert!(
            report.feasible,
            "{} failed to satisfy its budget: {report:?}",
            kind.name()
        );
    }
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that every subsystem is reachable through the
    // facade, plus a tiny smoke usage of each.
    let m = pnc::linalg::Matrix::identity(3);
    assert_eq!(m.sum(), 3.0);

    let mut tape = pnc::autodiff::Tape::new();
    let v = tape.parameter(pnc::linalg::Matrix::filled(1, 1, 2.0));
    let s = tape.square(v);
    assert_eq!(tape.scalar(s), 4.0);

    let mut c = pnc::spice::Circuit::new();
    let n = c.node("n");
    c.vsource(n, pnc::spice::Circuit::GROUND, 1.0);
    c.resistor(n, pnc::spice::Circuit::GROUND, 1000.0);
    let op = pnc::spice::solve_dc(&c).expect("divider solves");
    assert!((op.voltage(n) - 1.0).abs() < 1e-9);

    let ds = Dataset::generate(DatasetId::Iris, 1);
    assert_eq!(ds.features(), 4);

    let front = pnc::train::pareto::pareto_front(&[]);
    assert!(front.is_empty());
}
