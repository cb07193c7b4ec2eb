//! Golden characterization: Sobol-sampled SPICE datasets and a fitted
//! smoke surrogate pair must reproduce, bit for bit, the digests
//! recorded when the test was written. Any edit to the sampling,
//! warm-start schedule, DC sweep or MLP fit that moves a single bit
//! fails here.

use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_spice::AfKind;
use pnc_surrogate::persist::{power_to_string, transfer_to_string};
use pnc_surrogate::sampling::{AfPowerDataset, AfTransferDataset};
use pnc_telemetry::Telemetry;

/// FNV-1a digest of `AfPowerDataset::generate(PTanh, 24, 7)`: the
/// `designs` bits (row-major), then the `power` bits.
const GOLDEN_POWER_DATASET: u64 = 0xceab_8cb2_2791_2a9d;
/// FNV-1a digest of `AfTransferDataset::generate(PSigmoid, 12, 9)`:
/// the `designs`, `inputs` and `outputs` bits, in that order.
const GOLDEN_TRANSFER_DATASET: u64 = 0xbbf8_bd69_5c7d_0910;
/// FNV-1a digest of `power_to_string` for a smoke p-tanh activation.
const GOLDEN_POWER_MODEL: u64 = 0x6831_bbe8_45bd_2f3f;
/// FNV-1a digest of `transfer_to_string` for the same activation.
const GOLDEN_TRANSFER_MODEL: u64 = 0xec08_6024_0faa_e173;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_floats<'a>(h: u64, values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(h, |h, v| fnv1a(h, v.to_bits()))
}

fn digest_text(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |h, b| fnv1a(h, u64::from(b)))
}

#[test]
fn power_dataset_reproduces_the_golden_digest() {
    let ds = AfPowerDataset::generate(AfKind::PTanh, 24, 7, &Telemetry::disabled())
        .expect("power dataset");
    let got = digest_floats(digest_floats(FNV_OFFSET, ds.designs.as_slice()), &ds.power);
    assert_eq!(got, GOLDEN_POWER_DATASET, "got {got:#018x}");
}

#[test]
fn transfer_dataset_reproduces_the_golden_digest() {
    let ds = AfTransferDataset::generate(AfKind::PSigmoid, 12, 9, &Telemetry::disabled())
        .expect("transfer dataset");
    let h = digest_floats(FNV_OFFSET, ds.designs.as_slice());
    let got = digest_floats(digest_floats(h, &ds.inputs), ds.outputs.as_slice());
    assert_eq!(got, GOLDEN_TRANSFER_DATASET, "got {got:#018x}");
}

#[test]
fn smoke_activation_models_reproduce_the_golden_digests() {
    let act = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let got = (
        digest_text(&power_to_string(act.power_surrogate())),
        digest_text(&transfer_to_string(act.transfer())),
    );
    assert_eq!(
        got,
        (GOLDEN_POWER_MODEL, GOLDEN_TRANSFER_MODEL),
        "got ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
}
