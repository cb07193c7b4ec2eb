//! Multi-constraint training + convergence tracing — the paper's
//! future-work direction ("applicability to additional circuit
//! components and constraints", Sec. V) on a disposable-sensor scenario
//! where *both* resources are hard-limited:
//!
//! * **power** (a printed battery rates 0.25 mW continuous), and
//! * **printed devices** (substrate area and yield cap the design at
//!   60 components).
//!
//! Also demonstrates `fit_instrumented` with a `RecordingObserver`:
//! per-epoch telemetry of the inner solves, rendered as terminal
//! sparklines.
//!
//! ```text
//! cargo run --release --example multi_constraint
//! ```

use pnc::circuit::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc::circuit::{NetworkConfig, PrintedNetwork};
use pnc::datasets::{Dataset, DatasetId};
use pnc::spice::AfKind;
use pnc::telemetry::Telemetry;
use pnc::train::multi::{train_multi_constraint, ConstraintKind, MultiConstraintConfig};
use pnc::train::observer::RecordingObserver;
use pnc::train::trainer::{fit_instrumented, DataRefs, EpochMeasure, FitContext, TrainConfig};

const POWER_BUDGET_W: f64 = 0.25e-3;
const DEVICE_BUDGET: f64 = 60.0;

fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|&v| LEVELS[(((v - lo) / span) * 7.0).round() as usize % 8])
        .collect()
}

fn main() {
    println!(
        "disposable sensor: ≤ {:.2} mW AND ≤ {:.0} printed devices\n",
        POWER_BUDGET_W * 1e3,
        DEVICE_BUDGET
    );

    // p-ReLU: the device-count-friendly activation (2 components each).
    let activation = LearnableActivation::fit(
        AfKind::PRelu,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fitting");
    let negation = fit_negation_model(11).expect("negation fitting");

    let dataset = Dataset::generate(DatasetId::Seeds, 3);
    let split = dataset.split(1);
    let data = DataRefs::from_split(&split);

    let mut rng = pnc::linalg::rng::seeded(4);
    let mut net = PrintedNetwork::new(
        dataset.features(),
        dataset.classes(),
        NetworkConfig::default(),
        activation,
        negation,
        &mut rng,
    )
    .expect("7-3-3 topology");

    println!(
        "initial circuit: {:.3} mW, {} devices",
        net.power_report(data.x_train)
            .expect("shapes match")
            .total()
            * 1e3,
        net.device_count()
    );

    // First, show one traced unconstrained inner solve: the telemetry
    // users would plot.
    println!("\ntracing a 120-epoch cross-entropy warm-up:");
    let mut recorder = RecordingObserver::new();
    fit_instrumented(
        &mut net,
        &data,
        &TrainConfig {
            max_epochs: 120,
            patience: 40,
            ..TrainConfig::default()
        },
        &|_t, _b, ce| ce,
        &|_it| EpochMeasure::unconstrained(),
        &FitContext::default(),
        &mut recorder,
    )
    .expect("warm-up fit");
    let objectives: Vec<f64> = recorder.epochs.iter().map(|r| r.objective).collect();
    let accs: Vec<f64> = recorder.epochs.iter().map(|r| r.val_accuracy).collect();
    println!("  objective {}", sparkline(&objectives));
    println!("  val acc   {}", sparkline(&accs));
    println!(
        "  ends at objective {:.3}, val acc {:.1} %",
        objectives.last().unwrap(),
        100.0 * accs.last().unwrap()
    );

    // Now the joint power + device-count constrained run.
    println!("\nmulti-constraint augmented Lagrangian:");
    let report = train_multi_constraint(
        &mut net,
        &data,
        &MultiConstraintConfig {
            constraints: vec![
                ConstraintKind::Power {
                    budget_watts: POWER_BUDGET_W,
                },
                ConstraintKind::DeviceCount {
                    budget_devices: DEVICE_BUDGET,
                },
            ],
            mu: 2.0,
            outer_iters: 5,
            inner: TrainConfig {
                max_epochs: 200,
                patience: 50,
                ..TrainConfig::default()
            },
        },
    )
    .expect("multi-constraint training");

    let power = net
        .power_report(data.x_train)
        .expect("shapes match")
        .total();
    let devices = net.device_count();
    let acc = net
        .accuracy(&split.test.x, &split.test.labels)
        .expect("shapes match");
    println!(
        "  multipliers  : {:?}",
        report
            .lambdas
            .iter()
            .map(|l| format!("{l:.2}"))
            .collect::<Vec<_>>()
    );
    println!(
        "  violations   : power {:+.1} %, devices {:+.1} %",
        100.0 * report.violations[0],
        100.0 * report.violations[1]
    );
    println!("\nresults:");
    println!("  test accuracy : {:.1} %", 100.0 * acc);
    println!(
        "  power         : {:.3} mW / {:.2} mW",
        power * 1e3,
        POWER_BUDGET_W * 1e3
    );
    println!("  devices       : {devices} / {DEVICE_BUDGET:.0}");
    println!(
        "  both budgets  : {}",
        if report.feasible {
            "SATISFIED"
        } else {
            "violated"
        }
    );
    assert!(report.feasible, "both constraints must hold");
    assert!(acc > 0.5, "classifier should clearly beat chance");
}
