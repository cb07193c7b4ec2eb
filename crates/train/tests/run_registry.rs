//! End-to-end flight-recorder test: a training run whose loss goes
//! NaN mid-flight must still leave a complete, diagnosable run
//! directory — manifest flagged `aborted`, a `postmortem.md` naming
//! the `non_finite` diagnosis, the health event in `metrics.jsonl`,
//! and a summary — exactly what an operator needs after a crash.

use pnc_autodiff::Tape;
use pnc_autodiff::Var;
use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::network::BoundNetwork;
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{Dataset, DatasetId};
use pnc_telemetry::registry::{ExitStatus, RunRegistry};
use pnc_telemetry::{Sink, Telemetry};
use pnc_train::observer::NoopObserver;
use pnc_train::trainer::{fit_instrumented, DataRefs, EpochMeasure, FitContext, TrainConfig};
use pnc_train::watchdog::HealthWatchdog;
use pnc_train::{NonFiniteKind, TrainError};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pnc-run-registry-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn aborted_nan_run_leaves_a_complete_run_directory() {
    let root = temp_root("nan");
    let registry = RunRegistry::new(&root);
    let mut run = registry
        .create("train", &["--data".into(), "iris".into()])
        .expect("claim run dir");
    run.set_dataset("iris").unwrap();
    run.set_seed(13).unwrap();
    run.set_config("budget_mw", 0.3).unwrap();
    let run_id = run.run_id().to_string();

    // The run's metrics.jsonl is the telemetry sink, as the CLI wires it.
    let sink: Arc<dyn Sink> = run.metrics_sink();
    let tel = Telemetry::with_sink(sink);
    let mut watchdog = HealthWatchdog::new(NoopObserver, tel.clone()).with_solver_probe(|| 0);

    let ds = Dataset::generate(DatasetId::Iris, 13);
    let split = ds.split(13);
    let data = DataRefs::from_split(&split);
    let act = LearnableActivation::fit(
        pnc_spice::AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let neg = pnc_core::activation::fit_negation_model(9).expect("negation surrogate");
    let mut rng = pnc_linalg::rng::seeded(13);
    let mut net = PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network");

    // Poison the loss from epoch 2 onwards.
    let calls = std::cell::Cell::new(0usize);
    let objective = |tape: &mut Tape, _b: &BoundNetwork, ce: Var| {
        let n = calls.get() + 1;
        calls.set(n);
        if n >= 2 {
            tape.mul_scalar(ce, f64::NAN)
        } else {
            ce
        }
    };
    let err = fit_instrumented(
        &mut net,
        &data,
        &TrainConfig::smoke().with_seed(13),
        &objective,
        &|_n| EpochMeasure::unconstrained(),
        &FitContext::default(),
        &mut watchdog,
    )
    .expect_err("poisoned loss must abort");
    assert!(matches!(
        err,
        TrainError::NonFinite {
            what: NonFiniteKind::Loss,
            ..
        }
    ));

    // Seal the run the way the CLI abort path does.
    let diagnosis = watchdog
        .active_diagnosis()
        .expect("watchdog latched the NaN")
        .name();
    assert_eq!(diagnosis, "non_finite");
    run.write_postmortem(&watchdog.postmortem()).unwrap();
    run.abort(diagnosis, Default::default(), Default::default())
        .unwrap();

    // The run directory is complete and diagnosable after the crash.
    let record = registry.load(&run_id).expect("run loads back");
    assert_eq!(
        record.manifest.status,
        ExitStatus::Aborted("non_finite".to_string())
    );
    assert_eq!(record.manifest.seed, Some(13));
    assert!(record.manifest.ended_unix_secs.is_some());
    let summary = record.summary.expect("summary written on abort");
    assert_eq!(
        summary.status,
        ExitStatus::Aborted("non_finite".to_string())
    );

    let dir = registry.run_dir(&run_id);
    let postmortem = std::fs::read_to_string(dir.join("postmortem.md")).expect("postmortem.md");
    assert!(postmortem.contains("non_finite"), "{postmortem}");

    let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics.jsonl");
    assert!(
        metrics.contains("\"event\":\"health\""),
        "health event missing from metrics stream: {metrics}"
    );

    let _ = std::fs::remove_dir_all(&root);
}
