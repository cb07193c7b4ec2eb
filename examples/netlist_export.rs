//! Compile a trained pNC to its printable transistor-level netlist and
//! cross-validate the differentiable abstraction against full-circuit
//! simulation — the step between "trained model" and "send to the
//! printer".
//!
//! ```text
//! cargo run --release --example netlist_export
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::export::export_network;
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::datasets::{Dataset, DatasetId};
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc::train::finetune::finetune;
use pnc::train::observer::NoopObserver;
use pnc::train::trainer::{DataRefs, TrainConfig};

fn main() {
    println!("train → prune → export → transistor-level cross-validation\n");

    let activation = LearnableActivation::fit(
        AfKind::PRelu,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fitting");
    let negation = fit_negation_model(11).expect("negation fitting");
    let dataset = Dataset::generate(DatasetId::Iris, 8);
    let split = dataset.split(2);
    let data = DataRefs::from_split(&split);

    let mut rng = pnc::linalg::rng::seeded(5);
    let mut net = PrintedNetwork::new(
        4,
        3,
        NetworkConfig::default(),
        activation,
        negation,
        &mut rng,
    )
    .expect("4-3-3 topology");

    let p0 = hard_power(&net, data.x_train).expect("shapes match");
    let budget = 0.5 * p0;
    let cfg = TrainConfig {
        max_epochs: 250,
        patience: 50,
        ..TrainConfig::default()
    };
    train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig {
            budget_watts: budget,
            mu: 2.0,
            outer_iters: 4,
            inner: cfg.with_seed(5),
            warm_start: true,
            rescue: true,
        },
        &mut NoopObserver,
    )
    .expect("constrained training");
    finetune(&mut net, &data, budget, &cfg).expect("fine-tuning");
    println!(
        "trained: {:.1}% test accuracy at {:.3} mW",
        100.0
            * net
                .accuracy(&split.test.x, &split.test.labels)
                .expect("shapes match"),
        hard_power(&net, data.x_train).expect("shapes match") * 1e3
    );

    // Lower to the printable circuit.
    let exported = export_network(&net).expect("lowering");
    let stats = exported.stats();
    println!(
        "\nexported circuit: {} resistors, {} transistors \
         ({} crossbar R, {} negation cells, {} activation circuits)",
        stats.resistors,
        stats.transistors,
        stats.crossbar_resistors,
        stats.negation_circuits,
        stats.activation_circuits
    );

    // Netlist artifact.
    let text = exported.to_spice_string();
    let path = "target/experiments/pnc_iris.cir";
    std::fs::create_dir_all("target/experiments").expect("mkdir");
    std::fs::write(path, &text).expect("write netlist");
    println!("wrote {} ({} lines)", path, text.lines().count());
    println!("\nfirst netlist cards:");
    for line in text.lines().take(8) {
        println!("  {line}");
    }

    // Cross-validate: does the transistor-level circuit classify like
    // the differentiable abstraction it was trained through?
    let x = &split.test.x;
    let labels = &split.test.labels;
    let abstract_preds = net.predict(x).expect("shapes match").row_argmax();
    let circuit_preds = exported.classify(x).expect("full-circuit DC inference");
    let agree = abstract_preds
        .iter()
        .zip(&circuit_preds)
        .filter(|(a, b)| a == b)
        .count();
    let circuit_acc = circuit_preds
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count() as f64
        / labels.len() as f64;
    println!("\ncross-validation on {} test samples:", labels.len());
    println!(
        "  abstraction vs circuit agreement : {:.1}%",
        100.0 * agree as f64 / labels.len() as f64
    );
    println!(
        "  full-circuit test accuracy       : {:.1}%",
        100.0 * circuit_acc
    );
    println!(
        "\n(Differences stem from inter-stage loading, which the differentiable\n\
         abstraction ignores — the exported netlist is the ground truth.)"
    );
}
