//! Golden full-circuit inference: a seed-fixed export must classify,
//! and Monte-Carlo print, bit for bit as when the digest was recorded.
//! Any edit to the row solve (input drive, solver settings, circuit
//! reuse, argmax) that moves a single bit fails here.

use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::export::export_network;
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
use pnc_spice::{AfKind, VariationModel};
use pnc_telemetry::Telemetry;

/// FNV-1a digest of the class codes `classify` returns for 16 seeded
/// rows, then each of 4 `tight` prints' accuracy and mean power bits
/// (`monte_carlo` seed 7, labelled with the nominal codes).
const GOLDEN_EXPORT_INFERENCE: u64 = 0x3ade_dc38_cc6e_bddf;

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
    let mc = exported.monte_carlo(&x, &codes, &VariationModel::tight(), 4, 7);
    let h = codes.iter().fold(FNV_OFFSET, |h, &c| fnv1a(h, c as u64));
    let got = mc
        .accuracies
        .iter()
        .zip(&mc.powers_watts)
        .fold(h, |h, (a, p)| fnv1a(fnv1a(h, a.to_bits()), p.to_bits()));
    assert_eq!(
        got, GOLDEN_EXPORT_INFERENCE,
        "codes {codes:?}, accuracies {:?}; got {got:#018x}",
        mc.accuracies
    );
}
