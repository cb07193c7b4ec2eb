//! Criterion benchmarks of the training-loop building blocks: one
//! epoch of each objective (plain cross-entropy, penalty, augmented
//! Lagrangian) on an Iris-sized problem, plus full short runs comparing
//! warm- and cold-started augmented Lagrangian outer loops.

use criterion::{criterion_group, criterion_main, Criterion};
use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_linalg::rng as lrng;
use pnc_spice::AfKind;
use pnc_telemetry::Telemetry;
use pnc_train::auglag::{train_auglag_observed, AugLagConfig};
use pnc_train::observer::NoopObserver;
use pnc_train::penalty::{train_penalty_observed, PenaltyConfig};
use pnc_train::trainer::{fit_cross_entropy, DataRefs, TrainConfig};

struct Fixture {
    net: PrintedNetwork,
    split: pnc_datasets::Split,
}

fn fixture() -> Fixture {
    let act = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fit");
    let neg = fit_negation_model(9).expect("negation fit");
    let mut rng = lrng::seeded(7);
    let net = PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("valid widths");
    let ds = Dataset::generate(DatasetId::Iris, 1);
    let split = ds.split(1);
    Fixture { net, split }
}

fn one_epoch_cfg() -> TrainConfig {
    TrainConfig {
        max_epochs: 1,
        ..TrainConfig::default()
    }
}

fn bench_epochs(c: &mut Criterion) {
    let fx = fixture();
    let mut group = c.benchmark_group("train/one_epoch_iris");

    group.bench_function("cross_entropy", |bench| {
        bench.iter(|| {
            let mut net = fx.net.clone();
            let data = DataRefs::from_split(&fx.split);
            let r = fit_cross_entropy(&mut net, &data, &one_epoch_cfg());
            std::hint::black_box(r.expect("shapes match").final_objective)
        });
    });

    group.bench_function("penalty", |bench| {
        bench.iter(|| {
            let mut net = fx.net.clone();
            let data = DataRefs::from_split(&fx.split);
            let r = train_penalty_observed(
                &mut net,
                &data,
                &PenaltyConfig {
                    alpha: 0.5,
                    p_ref_watts: 1e-4,
                    inner: one_epoch_cfg().with_seed(7),
                    faithful: false,
                },
                &mut NoopObserver,
            );
            std::hint::black_box(r.expect("shapes match").power_watts)
        });
    });

    group.bench_function("auglag_outer_iter", |bench| {
        bench.iter(|| {
            let mut net = fx.net.clone();
            let data = DataRefs::from_split(&fx.split);
            let r = train_auglag_observed(
                &mut net,
                &data,
                &AugLagConfig {
                    budget_watts: 5e-5,
                    mu: 2.0,
                    outer_iters: 1,
                    inner: one_epoch_cfg().with_seed(7),
                    warm_start: true,
                    rescue: true,
                },
                &mut NoopObserver,
            );
            std::hint::black_box(r.expect("shapes match").power_watts)
        });
    });
    group.finish();
}

fn bench_warmstart_ablation(c: &mut Criterion) {
    let fx = fixture();
    let data = DataRefs::from_split(&fx.split);
    let budget = {
        let net = fx.net.clone();
        0.5 * pnc_train::auglag::hard_power(&net, data.x_train).expect("shapes match")
    };
    let short = TrainConfig {
        max_epochs: 15,
        patience: 10,
        ..TrainConfig::default()
    };
    let mut group = c.benchmark_group("train/auglag_3outer_iris");
    group.sample_size(10);
    for warm in [true, false] {
        group.bench_function(if warm { "warm_start" } else { "cold_start" }, |bench| {
            bench.iter(|| {
                let mut net = fx.net.clone();
                let r = train_auglag_observed(
                    &mut net,
                    &data,
                    &AugLagConfig {
                        budget_watts: budget,
                        mu: 2.0,
                        outer_iters: 3,
                        inner: short.with_seed(7),
                        warm_start: warm,
                        rescue: true,
                    },
                    &mut NoopObserver,
                );
                std::hint::black_box(r.expect("shapes match").val_accuracy)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epochs, bench_warmstart_ablation);
criterion_main!(benches);
