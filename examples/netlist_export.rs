//! Compile a trained pNC to its printable transistor-level netlist and
//! cross-validate the differentiable abstraction against full-circuit
//! simulation — the step between "trained model" and "send to the
//! printer".
//!
//! ```text
//! cargo run --release --example netlist_export
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation};
use pnc::circuit::export::export_network;
use pnc::datasets::DatasetId;
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::hard_power;
use pnc::train::experiment::{
    train_constrained, unconstrained_reference, ExperimentFidelity, PreparedData,
};
use pnc::train::observer::NoopObserver;

/// Seed of the data split and the network initialization.
const SEED: u64 = 1;

/// Budget as a fraction of the unconstrained reference's peak power.
const BUDGET_FRAC: f64 = 0.6;

fn main() {
    println!("train → prune → export → transistor-level cross-validation\n");

    // The paper's protocol (Sec. IV-A1): an unconstrained reference
    // fixes P_max, then the constrained step trains at a fraction of it.
    let fidelity = ExperimentFidelity::smoke();
    let activation =
        LearnableActivation::fit(AfKind::PRelu, &fidelity.surrogate, &Telemetry::disabled())
            .expect("surrogate fitting");
    let negation = fit_negation_model(fidelity.surrogate.transfer_grid).expect("negation fitting");
    let prep = PreparedData::new(DatasetId::Iris, SEED);
    let split = &prep.split;
    let data = prep.refs();

    let (_, p_max) = unconstrained_reference(
        DatasetId::Iris,
        &activation,
        &negation,
        &data,
        &fidelity.train,
        SEED,
    )
    .expect("reference training");
    let budget = BUDGET_FRAC * p_max;
    let net = train_constrained(
        DatasetId::Iris,
        &activation,
        &negation,
        &data,
        budget,
        &fidelity,
        SEED,
        &mut NoopObserver,
    )
    .expect("constrained training");
    println!(
        "trained: {:.1}% test accuracy at {:.3} mW (budget {:.3} mW = {:.0}% of P_max)",
        100.0
            * net
                .accuracy(&split.test.x, &split.test.labels)
                .expect("shapes match"),
        hard_power(&net, data.x_train).expect("shapes match") * 1e3,
        budget * 1e3,
        BUDGET_FRAC * 100.0
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
        "\n(Differences stem from surrogate fit error and from the loading the\n\
         buffered export keeps — the exported netlist is the ground truth.)"
    );
}
