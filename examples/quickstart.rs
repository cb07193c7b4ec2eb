//! Quickstart: train a printed neuromorphic circuit on Iris under a
//! strict power budget, in five steps.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::datasets::{Dataset, DatasetId};
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc::train::finetune::finetune;
use pnc::train::observer::NoopObserver;
use pnc::train::trainer::{fit_cross_entropy, DataRefs, TrainConfig};

fn main() {
    // 1. Characterize the printed hardware: simulate the p-tanh
    //    activation circuit with the SPICE-level solver and fit its
    //    transfer + power surrogates (the paper's Sec. III-A pipeline).
    println!("[1/5] fitting p-tanh surrogates from SPICE simulations …");
    let activation = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fitting");
    let negation = fit_negation_model(11).expect("negation fitting");
    println!(
        "      transfer RMSE {:.3} V, power surrogate R² {:.3}",
        activation.transfer().fit_rmse(),
        activation.power_surrogate().validation_r2()
    );

    // 2. Data: the Iris stand-in, split 60/20/20 as in the paper.
    let dataset = Dataset::generate(DatasetId::Iris, 42);
    let split = dataset.split(7);
    let data = DataRefs::from_split(&split);

    // 3. Find the unconstrained power ceiling P_max.
    println!("[2/5] training an unconstrained reference …");
    let mut rng = pnc::linalg::rng::seeded(2);
    let mut reference = PrintedNetwork::new(
        dataset.features(),
        dataset.classes(),
        NetworkConfig::default(),
        activation.clone(),
        negation,
        &mut rng,
    )
    .expect("4-3-3 topology");
    let train_cfg = TrainConfig {
        max_epochs: 300,
        patience: 60,
        ..TrainConfig::default()
    };
    fit_cross_entropy(&mut reference, &data, &train_cfg).expect("reference fit");
    let p_max = hard_power(&reference, data.x_train).expect("shapes match");
    let ref_acc = reference
        .accuracy(&split.test.x, &split.test.labels)
        .expect("shapes match");
    println!(
        "      reference: {:.1}% accuracy at {:.3} mW",
        100.0 * ref_acc,
        p_max * 1e3
    );

    // 4. Constrain to 40 % of P_max with the augmented Lagrangian.
    println!("[3/5] power-constrained training at a 40% budget …");
    let budget = 0.4 * p_max;
    let mut rng = pnc::linalg::rng::seeded(2);
    let mut net = PrintedNetwork::new(
        dataset.features(),
        dataset.classes(),
        NetworkConfig::default(),
        activation,
        negation,
        &mut rng,
    )
    .expect("4-3-3 topology");
    let report = train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig {
            budget_watts: budget,
            mu: 2.0,
            outer_iters: 4,
            inner: train_cfg.with_seed(2),
            warm_start: true,
            rescue: true,
        },
        &mut NoopObserver,
    )
    .expect("constrained training");
    println!(
        "      after {} outer iterations: feasible = {}, λ = {:.3}",
        report.outer.len(),
        report.feasible,
        report.lambda_final
    );

    // 5. Prune + fine-tune, then evaluate.
    println!("[4/5] mask-based fine-tuning …");
    let ft = finetune(&mut net, &data, budget, &train_cfg).expect("fine-tuning");
    println!("      pruned {} crossbar entries", ft.pruned_entries);

    println!("[5/5] results");
    let acc = net
        .accuracy(&split.test.x, &split.test.labels)
        .expect("shapes match");
    let power = hard_power(&net, data.x_train).expect("shapes match");
    let breakdown = net.power_report(data.x_train).expect("shapes match");
    println!(
        "      test accuracy : {:.1}% (unconstrained {:.1}%)",
        100.0 * acc,
        100.0 * ref_acc
    );
    println!(
        "      power         : {:.3} mW of {:.3} mW budget ({})",
        power * 1e3,
        budget * 1e3,
        if power <= budget {
            "FEASIBLE"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "      breakdown     : crossbar {:.3} mW, activations {:.3} mW ({}), negations {:.3} mW ({})",
        breakdown.crossbar_watts * 1e3,
        breakdown.activation_watts * 1e3,
        breakdown.af_circuits,
        breakdown.negation_watts * 1e3,
        breakdown.neg_circuits
    );
    println!("      devices       : {}", net.device_count());
    assert!(
        power <= budget,
        "the augmented Lagrangian must end feasible"
    );
}
