//! Wearable-health scenario (paper Fig. 1d / Sec. I): a disposable
//! smart bandage classifies wound state from five biosensor channels on
//! a tiny printed battery. The battery's rated drain allows 0.5 mW;
//! the clinical team also wants the *fewest printed devices* (yield and
//! cost scale with device count on flexible substrates).
//!
//! The example compares p-tanh (accuracy-oriented) against p-ReLU
//! (device-count-oriented) at the same budget — the trade-off the paper
//! highlights in its discussion ("p-ReLU achieves 80.42 % accuracy with
//! only 37 devices — a 36 % reduction").
//!
//! ```text
//! cargo run --release --example wearable_health
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::datasets::{Dataset, DatasetId};
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc::train::finetune::finetune;
use pnc::train::observer::NoopObserver;
use pnc::train::trainer::{DataRefs, TrainConfig};

const BATTERY_BUDGET_W: f64 = 0.5e-3;

fn train_with(
    kind: AfKind,
    negation: pnc::surrogate::NegationModel,
    split: &pnc::datasets::Split,
) -> (f64, f64, usize) {
    println!("  fitting {} surrogates …", kind.name());
    let activation =
        LearnableActivation::fit(kind, &SurrogateFidelity::smoke(), &Telemetry::disabled())
            .expect("surrogate fitting");
    let data = DataRefs::from_split(split);
    let mut rng = pnc::linalg::rng::seeded(3);
    let mut net = PrintedNetwork::new(
        split.train.x.cols(),
        2,
        NetworkConfig::default(),
        activation,
        negation,
        &mut rng,
    )
    .expect("5-3-2 topology");

    let cfg = TrainConfig {
        max_epochs: 250,
        patience: 50,
        ..TrainConfig::default()
    };
    train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig {
            budget_watts: BATTERY_BUDGET_W,
            mu: 2.0,
            outer_iters: 4,
            inner: cfg.with_seed(3),
            warm_start: true,
            rescue: true,
        },
        &mut NoopObserver,
    )
    .expect("constrained training");
    finetune(&mut net, &data, BATTERY_BUDGET_W, &cfg).expect("fine-tuning");

    let acc = net
        .accuracy(&split.test.x, &split.test.labels)
        .expect("shapes match");
    let power = hard_power(&net, data.x_train).expect("shapes match");
    let devices = net.device_count();
    (acc, power, devices)
}

fn main() {
    println!("wearable smart bandage: infection detection at 0.5 mW\n");

    // The Mammographic Mass stand-in doubles as a 5-feature binary
    // medical-screening task of realistic difficulty.
    let dataset = Dataset::generate(DatasetId::MammographicMass, 11);
    let split = dataset.split(4);
    let negation = fit_negation_model(11).expect("negation fitting");

    let mut rows = Vec::new();
    for kind in [AfKind::PTanh, AfKind::PRelu] {
        let (acc, power, devices) = train_with(kind, negation, &split);
        println!(
            "  {:<15} acc {:.1}%  power {:.3} mW  devices {}",
            kind.name(),
            100.0 * acc,
            power * 1e3,
            devices
        );
        assert!(
            power <= BATTERY_BUDGET_W,
            "{} exceeded the battery budget",
            kind.name()
        );
        rows.push((kind, acc, power, devices));
    }

    let (tanh, relu) = (&rows[0], &rows[1]);
    println!("\ntrade-off:");
    println!(
        "  p-tanh accuracy edge : {:+.1} percentage points",
        100.0 * (tanh.1 - relu.1)
    );
    println!(
        "  p-ReLU device saving : {:.0}% fewer printed components ({} vs {})",
        100.0 * (1.0 - relu.3 as f64 / tanh.3 as f64),
        relu.3,
        tanh.3
    );
    println!(
        "\nThe paper's guidance holds: choose p-tanh when accuracy is king, p-ReLU when \
         substrate area, yield, or unit cost dominate."
    );
}
