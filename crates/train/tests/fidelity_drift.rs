//! Integration test for the surrogate-fidelity drift gate: a healthy
//! smoke-fit surrogate passes its SPICE spot check, while a corrupted
//! fit (the power surrogate's log-space mean shifted by one decade —
//! the shape of drift a stale cached fit or a botched persistence
//! round-trip would produce) trips the gate and latches a
//! `surrogate_drift` diagnosis, exactly like a watchdog diagnosis.

use pnc_core::activation::{fit_negation_model, SurrogateFidelity};
use pnc_core::{LearnableActivation, NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
use pnc_spice::AfKind;
use pnc_surrogate::{NegationModel, PowerSurrogate};
use pnc_telemetry::Telemetry;
use pnc_train::fidelity::{fidelity_sample, FidelityConfig, FidelityMonitor};
use pnc_train::observer::{NoopObserver, TrainObserver};
use std::sync::OnceLock;

/// The drift gate used throughout: generous against genuine smoke-fit
/// error (observed ≲ 0.2 relative), hopeless against a 10× corruption.
const GATE: f64 = 0.5;

fn smoke_parts() -> &'static (LearnableActivation, NegationModel) {
    static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
    CELL.get_or_init(|| {
        let act = LearnableActivation::fit(
            AfKind::PTanh,
            &SurrogateFidelity::smoke(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let neg = fit_negation_model(9).unwrap();
        (act, neg)
    })
}

fn network_with(act: LearnableActivation, neg: NegationModel, seed: u64) -> PrintedNetwork {
    let mut rng = lrng::seeded(seed);
    PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng).unwrap()
}

/// Shifts the power surrogate's standardized-output mean up one decade
/// in log10-power space: every prediction comes out 10× too high while
/// the model stays structurally valid (finite, positive, same widths).
fn corrupt_activation(act: &LearnableActivation) -> LearnableActivation {
    let (kind, scaler, mlp, y_mean, y_std, r2) = act.power_surrogate().parts();
    let drifted =
        PowerSurrogate::from_parts(kind, scaler.clone(), mlp.clone(), y_mean + 1.0, y_std, r2);
    LearnableActivation::from_parts(kind, act.transfer().clone(), drifted)
}

fn monitor(gate: Option<f64>) -> FidelityMonitor<NoopObserver> {
    FidelityMonitor::new(
        NoopObserver,
        Telemetry::disabled(),
        FidelityConfig {
            every_epochs: 2,
            gate_rel_err: gate,
            grid_points: 9,
        },
    )
}

#[test]
fn healthy_surrogate_passes_the_gate() {
    let (act, neg) = smoke_parts().clone();
    let net = network_with(act, neg, 7);

    let mut mon = monitor(Some(GATE));
    mon.check_now(&net, "final");

    assert_eq!(mon.failed_checks(), 0);
    assert!(
        mon.drift_diagnosis().is_none(),
        "healthy fit latched a drift diagnosis: {:?}",
        mon.drift_diagnosis()
    );
    let checks = mon.checks();
    assert_eq!(checks.len(), 1);
    assert_eq!(checks[0].label, "final");
    assert!(
        checks[0].rel_err < GATE,
        "smoke-fit rel err unexpectedly large: {}",
        checks[0].rel_err
    );
    assert!(checks[0].surrogate_watts > 0.0 && checks[0].spice_watts > 0.0);
}

#[test]
fn corrupted_surrogate_latches_a_drift_diagnosis() {
    let (act, neg) = smoke_parts().clone();
    let net = network_with(corrupt_activation(&act), neg, 7);

    let mut mon = monitor(Some(GATE));
    mon.check_now(&net, "final");

    let checks = mon.checks();
    assert_eq!(checks.len(), 1, "failed checks: {}", mon.failed_checks());
    assert!(
        checks[0].rel_err > 2.0,
        "a 10× power corruption must blow the relative error: {}",
        checks[0].rel_err
    );
    let diag = mon
        .drift_diagnosis()
        .expect("gate must latch on a 10x corruption");
    assert_eq!(diag.name(), "surrogate_drift");
    assert!(
        diag.describe().contains("surrogate"),
        "diagnosis text should name the surrogate: {}",
        diag.describe()
    );
}

#[test]
fn periodic_checks_follow_the_epoch_cadence_and_latch_once() {
    let (act, neg) = smoke_parts().clone();
    let net = network_with(corrupt_activation(&act), neg, 11);

    // every_epochs = 2 over five observed epochs → checks at global
    // epochs 2 and 4. The gate trips on the first check and must latch
    // exactly once even though the second check also exceeds it.
    let mut mon = monitor(Some(GATE));
    for epoch in 1..=5usize {
        mon.on_network(epoch, &net);
    }

    let epochs: Vec<u64> = mon.checks().iter().map(|c| c.epoch).collect();
    assert_eq!(epochs, [2, 4]);
    assert!(mon.checks().iter().all(|c| c.label == "epoch"));
    let diag = mon.drift_diagnosis().expect("gate latched");
    assert_eq!(diag.name(), "surrogate_drift");
}

#[test]
fn direct_sample_agrees_with_the_monitor_record() {
    let (act, neg) = smoke_parts().clone();
    let net = network_with(act, neg, 7);

    let sample = fidelity_sample(&net, 9).expect("spot check");
    let mut mon = monitor(None);
    mon.check_now(&net, "final");
    let rec = &mon.checks()[0];

    assert_eq!(rec.surrogate_watts, sample.surrogate_watts);
    assert_eq!(rec.spice_watts, sample.spice_watts);
    assert_eq!(rec.abs_err_watts, sample.abs_err_watts());
    assert_eq!(rec.rel_err, sample.rel_err());
    // No gate configured: errors are recorded, nothing latches.
    assert!(mon.drift_diagnosis().is_none());
}
