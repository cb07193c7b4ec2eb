//! Smart-packaging scenario (paper Fig. 1a–c): a printed classifier on
//! a milk carton decides from six sensor channels (temperature history,
//! gas, humidity) whether the content is *fresh*, *degrading* or
//! *spoiled* — powered by a printed energy harvester with a hard
//! 0.3 mW budget.
//!
//! Demonstrates using the library with **your own sensor data** (not a
//! built-in benchmark dataset) and a fixed absolute power budget rather
//! than a fraction of P_max.
//!
//! ```text
//! cargo run --release --example smart_packaging
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::linalg::rng::{next_normal, seeded};
use pnc::linalg::Matrix;
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc::train::observer::NoopObserver;
use pnc::train::trainer::{DataRefs, TrainConfig};
use rand::Rng;

/// Synthesizes carton sensor readings: 6 channels, 3 freshness classes.
/// Spoilage raises mean temperature, gas (ethanol/CO₂) and humidity and
/// adds variance — a simple generative story standing in for real
/// supply-chain traces.
fn carton_batch(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = seeded(seed);
    let mut x = Matrix::zeros(n, 6);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let class = rng.gen_range(0..3usize); // 0 fresh, 1 degrading, 2 spoiled
        let severity = class as f64 / 2.0;
        // temp mean, temp peak, time-above-8C, gas, humidity, lid-events
        let means = [
            -0.4 + 0.5 * severity,
            -0.3 + 0.7 * severity,
            -0.6 + 0.9 * severity,
            -0.5 + 0.8 * severity,
            -0.2 + 0.4 * severity,
            -0.1 + 0.2 * severity,
        ];
        for (j, &m) in means.iter().enumerate() {
            let noise = 0.18 + 0.08 * severity;
            x[(i, j)] = (m + noise * next_normal(&mut rng)).clamp(-0.8, 0.8);
        }
        y.push(class);
    }
    (x, y)
}

fn main() {
    const HARVESTER_BUDGET_W: f64 = 0.3e-3; // 0.3 mW

    println!("smart packaging: freshness classifier under a 0.3 mW harvester budget\n");

    // p-Clipped_ReLU: the paper's best activation at low power budgets.
    println!("fitting p-Clipped_ReLU surrogates …");
    let activation = LearnableActivation::fit(
        AfKind::PClippedRelu,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fitting");
    let negation = fit_negation_model(11).expect("negation fitting");

    let (x_train, y_train) = carton_batch(240, 1);
    let (x_val, y_val) = carton_batch(80, 2);
    let (x_test, y_test) = carton_batch(80, 3);
    let data = DataRefs {
        x_train: &x_train,
        y_train: &y_train,
        x_val: &x_val,
        y_val: &y_val,
    };

    let mut rng = seeded(9);
    let mut net = PrintedNetwork::new(
        6,
        3,
        NetworkConfig::default(),
        activation,
        negation,
        &mut rng,
    )
    .expect("6-3-3 topology");

    let p_init = hard_power(&net, &x_train).expect("shapes match");
    println!(
        "initial circuit draws {:.3} mW; harvester provides {:.3} mW",
        p_init * 1e3,
        HARVESTER_BUDGET_W * 1e3
    );

    let report = train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig {
            budget_watts: HARVESTER_BUDGET_W,
            mu: 2.0,
            outer_iters: 4,
            inner: TrainConfig {
                max_epochs: 250,
                patience: 50,
                seed: Some(9),
                ..TrainConfig::default()
            },
            warm_start: true,
            rescue: true,
        },
        &mut NoopObserver,
    )
    .expect("constrained training");

    let acc =
        pnc::autodiff::functional::accuracy(&net.predict(&x_test).expect("shapes match"), &y_test);
    let power = hard_power(&net, &x_train).expect("shapes match");
    println!("\nresults:");
    println!("  test accuracy : {:.1}% (chance: 33.3%)", 100.0 * acc);
    println!(
        "  power         : {:.3} mW / {:.3} mW ({})",
        power * 1e3,
        HARVESTER_BUDGET_W * 1e3,
        if report.feasible {
            "within harvest"
        } else {
            "OVER BUDGET"
        }
    );
    println!(
        "  devices       : {} printed components",
        net.device_count()
    );
    println!(
        "  λ trajectory  : {:?}",
        report
            .outer
            .iter()
            .map(|o| format!("{:.2}", o.lambda))
            .collect::<Vec<_>>()
    );
    assert!(
        report.feasible,
        "the carton must run on harvested power alone"
    );
    assert!(acc > 0.5, "classifier should clearly beat chance");
}
