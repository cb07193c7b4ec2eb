//! Ablation studies for the starred design decisions in DESIGN.md §5:
//!
//! 1. **Warm-starting** between augmented Lagrangian outer iterations
//!    (the paper prescribes it "to save computation time") — measured in
//!    epochs spent and final accuracy/feasibility.
//! 2. **Soft-count relaxation** — the paper's literal `σ(|θ|)` versus
//!    the sharpened `σ(k(|θ| − τ))` used here, measured by device count
//!    and the gap between soft and hard power.
//! 3. **Constraint handling** — augmented Lagrangian (one run) versus
//!    the penalty method queried at the same budget (many runs).
//!
//! ```text
//! cargo run --release -p pnc-bench --bin ablations -- --scale ci
//! ```

use pnc_bench::harness::{cap_for, fit_bundle, CappedData};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_core::count::CountConfig;
use pnc_core::NetworkConfig;
use pnc_core::PrintedNetwork;
use pnc_datasets::DatasetId;
use pnc_linalg::rng as lrng;
use pnc_spice::AfKind;
use pnc_train::auglag::{hard_power, train_auglag_observed, AugLagConfig};
use pnc_train::experiment::{unconstrained_reference, PreparedData};
use pnc_train::observer::NoopObserver;
use pnc_train::pareto::{best_under_budget, pareto_front, ParetoPoint};
use pnc_train::penalty::{train_penalty_observed, PenaltyConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let datasets: Vec<DatasetId> = match scale {
        Scale::Smoke => vec![DatasetId::Iris],
        _ => vec![
            DatasetId::Iris,
            DatasetId::Seeds,
            DatasetId::VertebralColumn,
        ],
    };
    println!(
        "Ablations — scale {}, {} dataset(s)",
        scale.name(),
        datasets.len()
    );
    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let mut csv_rows: Vec<Vec<String>> = Vec::new();

    // ------------------------------------------------------------------
    // 1. Warm-starting.
    // ------------------------------------------------------------------
    let mut t1 = TableWriter::new(&["dataset", "warm", "acc %", "power mW", "feasible", "epochs"]);
    for &id in &datasets {
        let prep = PreparedData::new(id, 1);
        let data = CappedData::new(&prep, cap);
        let refs = data.refs();
        let (_, p_max) = unconstrained_reference(
            id,
            &bundle.activation,
            &bundle.negation,
            &refs,
            &fidelity.train,
            1,
        )?;
        for warm in [true, false] {
            let mut net =
                pnc_train::experiment::build_network(id, &bundle.activation, &bundle.negation, 1);
            let cfg = AugLagConfig {
                budget_watts: 0.4 * p_max,
                mu: fidelity.mu,
                outer_iters: fidelity.auglag_outer,
                inner: fidelity.train.with_seed(1),
                warm_start: warm,
                rescue: true,
            };
            let report = train_auglag_observed(&mut net, &refs, &cfg, &mut NoopObserver)?;
            let test_acc = net.accuracy(&data.x_test, &data.y_test)?;
            let epochs: usize = report.outer.iter().map(|o| o.fit.epochs).sum();
            t1.row(vec![
                id.name().into(),
                warm.to_string(),
                format!("{:.2}", 100.0 * test_acc),
                format!("{:.3}", report.power_watts * 1e3),
                report.feasible.to_string(),
                epochs.to_string(),
            ]);
            csv_rows.push(vec![
                "warmstart".into(),
                id.name().into(),
                warm.to_string(),
                format!("{:.4}", test_acc),
                format!("{:.6}", report.power_watts * 1e3),
                epochs.to_string(),
            ]);
        }
    }
    println!("\n== Ablation 1: warm-starting between outer iterations ==");
    t1.print();

    // ------------------------------------------------------------------
    // 2. Count relaxation: paper-literal σ(|θ|) vs sharpened indicator.
    // ------------------------------------------------------------------
    let mut t2 = TableWriter::new(&[
        "dataset",
        "relaxation",
        "acc %",
        "hard power mW",
        "soft/hard gap",
        "devices",
    ]);
    for &id in &datasets {
        let prep = PreparedData::new(id, 1);
        let data = CappedData::new(&prep, cap);
        let refs = data.refs();
        for (label, count_cfg) in [
            ("sharp σ(k(|θ|−τ))", CountConfig::default()),
            ("paper σ(|θ|)", CountConfig::paper_literal()),
        ] {
            let mut rng = lrng::seeded(1);
            let mut net = PrintedNetwork::new(
                id.features(),
                id.classes(),
                NetworkConfig {
                    count: count_cfg,
                    ..NetworkConfig::default()
                },
                bundle.activation.clone(),
                bundle.negation,
                &mut rng,
            )?;
            let p0 = hard_power(&net, refs.x_train)?;
            let cfg = AugLagConfig {
                budget_watts: 0.5 * p0,
                mu: fidelity.mu,
                outer_iters: fidelity.auglag_outer,
                inner: fidelity.train.with_seed(1),
                warm_start: true,
                rescue: true,
            };
            train_auglag_observed(&mut net, &refs, &cfg, &mut NoopObserver)?;
            let test_acc = net.accuracy(&data.x_test, &data.y_test)?;
            let hard = hard_power(&net, refs.x_train)?;
            // Soft (differentiable) power at the solution.
            let mut tape = pnc_autodiff::Tape::new();
            let bound = net.bind(&mut tape, refs.x_train)?;
            let soft = tape.scalar(bound.power);
            let devices = net.device_count();
            t2.row(vec![
                id.name().into(),
                label.into(),
                format!("{:.2}", 100.0 * test_acc),
                format!("{:.3}", hard * 1e3),
                format!("{:.2}", soft / hard.max(1e-12)),
                devices.to_string(),
            ]);
            csv_rows.push(vec![
                "count_relaxation".into(),
                id.name().into(),
                label.into(),
                format!("{:.4}", test_acc),
                format!("{:.6}", hard * 1e3),
                devices.to_string(),
            ]);
        }
    }
    println!("\n== Ablation 2: soft device-count relaxation ==");
    t2.print();
    println!(
        "(soft/hard gap ≈ 1 means the differentiable power the optimizer sees matches the \
         indicator-count power being reported; the paper-literal relaxation overcounts \
         because σ(0) = ½.)"
    );

    // ------------------------------------------------------------------
    // 3. Constraint handling: AL single run vs penalty sweep query.
    // ------------------------------------------------------------------
    let mut t3 = TableWriter::new(&["dataset", "method", "acc % @40% budget", "power mW", "runs"]);
    for &id in &datasets {
        let prep = PreparedData::new(id, 1);
        let data = CappedData::new(&prep, cap);
        let refs = data.refs();
        let (_, p_max) = unconstrained_reference(
            id,
            &bundle.activation,
            &bundle.negation,
            &refs,
            &fidelity.train,
            1,
        )?;
        let budget = 0.4 * p_max;

        // AL: one run.
        let mut net =
            pnc_train::experiment::build_network(id, &bundle.activation, &bundle.negation, 1);
        let cfg = AugLagConfig {
            budget_watts: budget,
            mu: fidelity.mu,
            outer_iters: fidelity.auglag_outer,
            inner: fidelity.train.with_seed(1),
            warm_start: true,
            rescue: true,
        };
        let al = train_auglag_observed(&mut net, &refs, &cfg, &mut NoopObserver)?;
        let al_acc = net.accuracy(&data.x_test, &data.y_test)?;
        t3.row(vec![
            id.name().into(),
            "augmented Lagrangian".into(),
            format!("{:.2}", 100.0 * al_acc),
            format!("{:.3}", al.power_watts * 1e3),
            "1".into(),
        ]);

        // Penalty: small sweep, query the front at the budget.
        let alphas = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
        let mut points = Vec::new();
        for (k, &alpha) in alphas.iter().enumerate() {
            let mut pnet = pnc_train::experiment::build_network(
                id,
                &bundle.activation,
                &bundle.negation,
                1 + k as u64,
            );
            let r = train_penalty_observed(
                &mut pnet,
                &refs,
                &PenaltyConfig {
                    alpha,
                    p_ref_watts: p_max,
                    inner: fidelity.train.with_seed(1),
                    faithful: false,
                },
                &mut NoopObserver,
            )?;
            let acc = pnet.accuracy(&data.x_test, &data.y_test)?;
            points.push(ParetoPoint {
                power_mw: r.power_watts * 1e3,
                accuracy: acc,
            });
        }
        let front = pareto_front(&points);
        let at_budget = best_under_budget(&front, budget * 1e3);
        t3.row(vec![
            id.name().into(),
            "penalty sweep".into(),
            at_budget
                .map(|p| format!("{:.2}", 100.0 * p.accuracy))
                .unwrap_or_else(|| "no feasible point".into()),
            at_budget
                .map(|p| format!("{:.3}", p.power_mw))
                .unwrap_or_else(|| "-".into()),
            alphas.len().to_string(),
        ]);
        csv_rows.push(vec![
            "constraint_handling".into(),
            id.name().into(),
            "auglag".into(),
            format!("{:.4}", al_acc),
            format!("{:.6}", al.power_watts * 1e3),
            "1".into(),
        ]);
        if let Some(p) = at_budget {
            csv_rows.push(vec![
                "constraint_handling".into(),
                id.name().into(),
                "penalty".into(),
                format!("{:.4}", p.accuracy),
                format!("{:.6}", p.power_mw),
                alphas.len().to_string(),
            ]);
        }
    }
    println!("\n== Ablation 3: constraint handling at a 40% budget ==");
    t3.print();

    let path = write_csv(
        "ablations",
        &[
            "study", "dataset", "variant", "accuracy", "power_mw", "extra",
        ],
        &csv_rows,
    );
    println!("\nWrote {}", path.display());
    Ok(())
}
