//! Golden trajectory: one smoke augmented-Lagrangian run followed by
//! fine-tuning must reproduce, bit for bit, the per-epoch
//! `(objective, val_accuracy, power_watts)` trajectory, the epoch
//! count and the final parameters recorded when the test was written.
//! Any edit to the epoch loop that moves a single bit fails here.

use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_telemetry::Telemetry;
use pnc_train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc_train::finetune::finetune;
use pnc_train::observer::RecordingObserver;
use pnc_train::trainer::{DataRefs, TrainConfig};

/// Epochs recorded across every inner solve of the run.
const GOLDEN_EPOCHS: usize = 77;
/// FNV-1a digest of the per-epoch `(objective, val_accuracy,
/// power_watts)` bits, in epoch order.
const GOLDEN_TRAJECTORY: u64 = 0xacf3_db0c_3a25_d51d;
/// FNV-1a digest of the final parameter bits, in `param_values` order.
const GOLDEN_PARAMS: u64 = 0x6532_6dd1_e118_ae23;

fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn smoke_auglag_and_finetune_reproduce_the_golden_trajectory() {
    let act = LearnableActivation::fit(
        pnc_spice::AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let neg = pnc_core::activation::fit_negation_model(9).expect("negation surrogate");
    let mut rng = pnc_linalg::rng::seeded(41);
    let mut net = PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network");
    let ds = Dataset::generate(DatasetId::Iris, 41);
    let split = ds.split(41);
    let data = DataRefs::from_split(&split);

    let budget = 0.6 * hard_power(&net, data.x_train).expect("shapes match");
    // A short patience and a high floor make some inner solves stop on
    // the plateau rule and others run out of epochs, so both ends of
    // the loop are pinned.
    let inner = TrainConfig {
        max_epochs: 30,
        patience: 6,
        min_lr: 0.02,
        ..TrainConfig::smoke()
    };
    let cfg = AugLagConfig {
        inner,
        ..AugLagConfig::smoke(budget)
    };
    let mut rec = RecordingObserver::new();
    train_auglag_observed(&mut net, &data, &cfg, &mut rec).expect("auglag run");
    finetune(&mut net, &data, budget, &TrainConfig::smoke()).expect("finetune run");

    let fits: Vec<usize> = rec.outer_iters.iter().map(|(_, r)| r.fit.epochs).collect();
    let trajectory = rec.epochs.iter().fold(FNV_OFFSET, |h, r| {
        let power = r.power_watts.map_or(u64::MAX, f64::to_bits);
        let h = fnv1a(h, r.objective.to_bits());
        let h = fnv1a(h, r.val_accuracy.to_bits());
        fnv1a(h, power)
    });
    let params = net
        .param_values()
        .iter()
        .flat_map(|m| m.as_slice().to_vec())
        .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits()));
    let got = (rec.epochs.len(), trajectory, params);
    assert_eq!(
        got,
        (GOLDEN_EPOCHS, GOLDEN_TRAJECTORY, GOLDEN_PARAMS),
        "inner-solve epochs {fits:?}; got ({}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}
