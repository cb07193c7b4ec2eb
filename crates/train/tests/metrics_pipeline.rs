//! Streaming-metrics integration: a fit driven by a registry-backed
//! [`TelemetryObserver`] must populate the hot-path histograms
//! (`tape_forward_ms`, `tape_backward_ms`, `epoch_time_ms`) in the
//! shared [`MetricsRegistry`], render a valid Prometheus exposition —
//! and, critically, produce bit-identical training results to an
//! uninstrumented run (observability must never perturb training).

use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_telemetry::stream::validate_prometheus;
use pnc_telemetry::{MetricsRegistry, Telemetry};
use pnc_train::observer::{NoopObserver, TelemetryObserver};
use pnc_train::trainer::{fit_instrumented, DataRefs, EpochMeasure, FitContext, TrainConfig};
use std::sync::Arc;

fn fresh_net() -> PrintedNetwork {
    let act = LearnableActivation::fit(
        pnc_spice::AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let neg = pnc_core::activation::fit_negation_model(9).expect("negation surrogate");
    let mut rng = pnc_linalg::rng::seeded(29);
    PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network")
}

#[test]
fn registry_backed_fit_populates_metrics_without_perturbing_training() {
    let ds = Dataset::generate(DatasetId::Iris, 29);
    let split = ds.split(29);
    let data = DataRefs::from_split(&split);
    let cfg = TrainConfig::smoke().with_seed(29);
    let objective = |_t: &mut pnc_autodiff::Tape, _b: &pnc_core::network::BoundNetwork, ce| ce;

    // Uninstrumented reference run.
    let mut bare = NoopObserver;
    let reference = fit_instrumented(
        &mut fresh_net(),
        &data,
        &cfg,
        &objective,
        &|_n| EpochMeasure::unconstrained(),
        &FitContext::default(),
        &mut bare,
    )
    .expect("reference fit");

    // Instrumented run: disabled sink, enabled metrics registry.
    let registry = Arc::new(MetricsRegistry::new());
    let tel = Telemetry::disabled().with_metrics(Arc::clone(&registry));
    let mut observer = TelemetryObserver::new(tel);
    let instrumented = fit_instrumented(
        &mut fresh_net(),
        &data,
        &cfg,
        &objective,
        &|_n| EpochMeasure::unconstrained(),
        &FitContext::default(),
        &mut observer,
    )
    .expect("instrumented fit");

    // Identical training trajectory: same epochs, bit-identical
    // objective and accuracy.
    assert_eq!(reference.epochs, instrumented.epochs);
    assert_eq!(
        reference.final_objective.to_bits(),
        instrumented.final_objective.to_bits()
    );
    assert_eq!(
        reference.best_val_accuracy.to_bits(),
        instrumented.best_val_accuracy.to_bits()
    );

    // Hot-path histograms saw one sample per epoch.
    let n = instrumented.epochs as u64;
    for name in ["tape_forward_ms", "tape_backward_ms", "epoch_time_ms"] {
        let s = registry.histogram(name).summary();
        assert_eq!(s.count, n, "{name}: {s:?}");
        assert!(s.min >= 0.0 && s.max.is_finite(), "{name}: {s:?}");
    }

    // And the registry renders a parseable exposition.
    let prom = registry.render_prometheus();
    let samples = validate_prometheus(&prom).expect("exposition parses");
    assert!(samples > 0, "{prom}");
    assert!(prom.contains("pnc_tape_forward_ms"), "{prom}");
}
