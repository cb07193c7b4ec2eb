//! Golden full-circuit inference: a seed-fixed export must classify,
//! and Monte-Carlo print, bit for bit as when the digest was recorded.
//! Any edit to the row solve (input drive, solver settings, circuit
//! reuse, starting point, argmax) that moves a single bit fails here.
//!
//! The codes, accuracies and powers are also pinned as values from the
//! cold-started row solve, so a re-recorded digest cannot hide a change
//! in what the circuit computes: codes and accuracies exactly, powers to
//! within the solver's convergence tolerance.

use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::export::export_network;
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
use pnc_spice::{AfKind, VariationModel};
use pnc_telemetry::Telemetry;

/// FNV-1a digest of the class codes `classify` returns for 16 seeded
/// rows, then each of 4 `tight` prints' accuracy and mean power bits
/// (`monte_carlo` seed 7, labelled with the nominal codes).
const GOLDEN_EXPORT_INFERENCE: u64 = 0xa6ba_f804_8c87_9ffb;

/// Class codes of the 16 rows.
const CODES: [usize; 16] = [0, 0, 2, 2, 2, 2, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0];
/// Accuracy of each print against the nominal codes.
const ACCURACIES: [f64; 4] = [0.5, 0.5625, 0.5625, 0.5625];
/// Mean power of each print (watts) when every row solve starts cold.
const COLD_POWERS_WATTS: [f64; 4] = [
    2.679643229639264e-4,
    2.682717044748785e-4,
    2.6884800544366334e-4,
    2.681434827902788e-4,
];
/// Relative power difference any start may leave: both solves stop
/// within the Newton tolerances of the same operating point.
const POWER_REL_TOL: f64 = 1e-9;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn classify_and_monte_carlo_reproduce_the_golden_digest() {
    let act = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let neg = fit_negation_model(9).expect("negation surrogate");
    // Seed 45 splits these rows between two classes, so the codes pin
    // the argmax and not only one constant class.
    let mut rng = lrng::seeded(45);
    let net = PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network");
    let exported = export_network(&net).expect("lowering");
    let x = lrng::uniform_matrix(&mut lrng::seeded(9), 16, 4, -1.0, 1.0);

    let codes = exported.classify(&x).expect("nominal inference");
    assert_eq!(codes, CODES);
    let mc = exported.monte_carlo(&x, &codes, &VariationModel::tight(), 4, 7);
    assert_eq!(mc.accuracies, ACCURACIES);
    for (p, cold) in mc.powers_watts.iter().zip(COLD_POWERS_WATTS) {
        assert!(
            ((p - cold) / cold).abs() < POWER_REL_TOL,
            "power {p:e} vs cold-start {cold:e}"
        );
    }
    let h = codes.iter().fold(FNV_OFFSET, |h, &c| fnv1a(h, c as u64));
    let got = mc
        .accuracies
        .iter()
        .zip(&mc.powers_watts)
        .fold(h, |h, (a, p)| fnv1a(fnv1a(h, a.to_bits()), p.to_bits()));
    assert_eq!(
        got, GOLDEN_EXPORT_INFERENCE,
        "powers {:?}; got {got:#018x}",
        mc.powers_watts
    );
}
