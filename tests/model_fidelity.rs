//! Model-fidelity integration tests: the differentiable abstraction,
//! the surrogate models and the transistor-level circuit must tell a
//! consistent story.

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::export::export_network;
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::linalg::{rng as lrng, Matrix};
use pnc::spice::af::{input_grid, mean_power, transfer_curve};
use pnc::spice::{AfDesign, AfKind};
use pnc::surrogate::NegationModel;
use pnc::telemetry::Telemetry;
use std::sync::OnceLock;

fn parts() -> &'static (LearnableActivation, NegationModel) {
    static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
    CELL.get_or_init(|| {
        let act = LearnableActivation::fit(
            AfKind::PTanh,
            &SurrogateFidelity::smoke(),
            &Telemetry::disabled(),
        )
        .expect("surrogate fit");
        let neg = fit_negation_model(11).expect("negation fit");
        (act, neg)
    })
}

#[test]
fn transfer_surrogate_tracks_spice_across_designs() {
    let (act, _) = parts();
    let grid = input_grid(11);
    let vrow = Matrix::row(&grid);
    let mut worst = 0.0f64;
    // Interior designs only: the smoke-fidelity surrogate (24 Sobol
    // samples) is not expected to generalize to the extreme corners of
    // a 6-dimensional design space — the paper-scale fit (10,000
    // samples) covers those.
    for t in [0.4, 0.5, 0.6] {
        let q: Vec<f64> = AfKind::PTanh
            .bounds()
            .iter()
            .map(|&(lo, hi)| lo * (hi / lo).powf(t))
            .collect();
        let design = AfDesign::new(AfKind::PTanh, q.clone()).unwrap();
        let simulated = transfer_curve(&design, &grid).expect("spice");
        let predicted = act.transfer().eval(&vrow, &q);
        let rmse = (simulated
            .iter()
            .enumerate()
            .map(|(j, &y)| (predicted[(0, j)] - y).powi(2))
            .sum::<f64>()
            / grid.len() as f64)
            .sqrt();
        worst = worst.max(rmse);
    }
    assert!(worst < 0.25, "worst transfer RMSE across designs: {worst}");
}

#[test]
fn power_surrogate_tracks_spice_across_designs() {
    let (act, _) = parts();
    for t in [0.3, 0.5, 0.7] {
        let q: Vec<f64> = AfKind::PTanh
            .bounds()
            .iter()
            .map(|&(lo, hi)| lo * (hi / lo).powf(t))
            .collect();
        let design = AfDesign::new(AfKind::PTanh, q.clone()).unwrap();
        let simulated = mean_power(&design, 9).expect("spice");
        let predicted = act.power_surrogate().predict(&q);
        let ratio = (predicted / simulated).max(simulated / predicted);
        assert!(
            ratio < 3.0,
            "power surrogate off by {ratio:.2}× at t = {t} ({predicted:e} vs {simulated:e})"
        );
    }
}

#[test]
fn exported_circuit_agrees_with_abstraction_on_most_samples() {
    let (act, negm) = parts().clone();
    let mut rng = lrng::seeded(61);
    let net =
        PrintedNetwork::new(4, 3, NetworkConfig::default(), act, negm, &mut rng).expect("4-3-3");
    let exported = export_network(&net).expect("lowering");

    let x = lrng::uniform_matrix(&mut rng, 20, 4, -0.7, 0.7);
    let abstract_preds = net.predict(&x).expect("shapes match").row_argmax();
    let circuit_preds = exported.classify(&x).expect("full-circuit inference");
    let agree = abstract_preds
        .iter()
        .zip(&circuit_preds)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree * 2 >= x.rows(),
        "abstraction and circuit should agree on most samples: {agree}/{}",
        x.rows()
    );
}

#[test]
fn negation_surrogate_tracks_its_circuit() {
    let (_, negm) = parts();
    let inputs = input_grid(11);
    let simulated = pnc::spice::af::negation_transfer(&inputs).expect("spice");
    let mut worst = 0.0f64;
    for (i, &v) in inputs.iter().enumerate() {
        worst = worst.max((negm.eval_scalar(v) - simulated[i]).abs());
    }
    assert!(worst < 0.2, "negation surrogate max error {worst}");
}

#[test]
fn exported_stats_scale_with_topology() {
    let (act, negm) = parts().clone();
    let mut rng = lrng::seeded(67);
    let small = PrintedNetwork::new(3, 2, NetworkConfig::default(), act.clone(), negm, &mut rng)
        .expect("3-3-2");
    let mut rng = lrng::seeded(67);
    let large =
        PrintedNetwork::new(9, 5, NetworkConfig::default(), act, negm, &mut rng).expect("9-3-5");
    let s = export_network(&small).unwrap().stats();
    let l = export_network(&large).unwrap().stats();
    assert!(l.crossbar_resistors > s.crossbar_resistors);
    assert!(l.resistors > s.resistors);
}
