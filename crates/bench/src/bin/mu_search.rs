//! μ-sensitivity study — the paper's Sec. III-C notes that "the
//! parameter μ ∈ ℝ⁺ is a hyperparameter that controls the speed of
//! convergence and influences the stability of the method", and
//! Sec. IV-A1 selects it per dataset with RayTune. This binary is the
//! reproduction's RayTune stand-in made visible: it sweeps μ across
//! three orders of magnitude at a fixed budget and reports how
//! feasibility, accuracy and the multiplier trajectory respond, plus
//! what the validation-based selection (`pnc_train::tune`) picks.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin mu_search -- --scale ci
//! ```

use pnc_bench::harness::{cap_for, fit_bundle, CappedData};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_datasets::DatasetId;
use pnc_spice::AfKind;
use pnc_train::auglag::{train_auglag_observed, AugLagConfig};
use pnc_train::experiment::{unconstrained_reference, PreparedData};
use pnc_train::observer::NoopObserver;
use pnc_train::tune::select_mu;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let datasets: Vec<DatasetId> = match scale {
        Scale::Smoke => vec![DatasetId::Iris],
        _ => vec![DatasetId::Iris, DatasetId::Seeds, DatasetId::BreastCancer],
    };
    let mu_grid = [0.1, 0.5, 2.0, 8.0, 32.0];
    println!(
        "μ sensitivity — scale {}, {} dataset(s), μ ∈ {:?}, 40% budget",
        scale.name(),
        datasets.len(),
        mu_grid
    );

    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let mut table = TableWriter::new(&[
        "dataset",
        "mu",
        "feasible",
        "val acc %",
        "power mW",
        "final λ",
        "rescued",
    ]);
    let mut rows: Vec<Vec<String>> = Vec::new();

    for &id in &datasets {
        eprintln!("[mu_search] {} …", id.name());
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

        for &mu in &mu_grid {
            let mut net =
                pnc_train::experiment::build_network(id, &bundle.activation, &bundle.negation, 1);
            let report = train_auglag_observed(
                &mut net,
                &refs,
                &AugLagConfig {
                    budget_watts: budget,
                    mu,
                    outer_iters: fidelity.auglag_outer,
                    inner: fidelity.train.with_seed(1),
                    warm_start: true,
                    // No rescue: expose μ's raw effect on feasibility.
                    rescue: false,
                },
                &mut NoopObserver,
            )?;
            table.row(vec![
                id.name().into(),
                format!("{mu}"),
                report.feasible.to_string(),
                format!("{:.2}", 100.0 * report.val_accuracy),
                format!("{:.3}", report.power_watts * 1e3),
                format!("{:.2}", report.lambda_final),
                report.rescued.to_string(),
            ]);
            rows.push(vec![
                id.name().into(),
                format!("{mu}"),
                report.feasible.to_string(),
                format!("{:.4}", report.val_accuracy),
                format!("{:.6e}", report.power_watts),
                format!("{:.4}", report.lambda_final),
            ]);
        }

        // What the tuner itself picks (with rescue enabled, as the
        // experiments run it).
        let template =
            pnc_train::experiment::build_network(id, &bundle.activation, &bundle.negation, 1);
        let base = AugLagConfig {
            budget_watts: budget,
            mu: 2.0,
            outer_iters: fidelity.auglag_outer,
            inner: fidelity.train.with_seed(1),
            warm_start: true,
            rescue: true,
        };
        let search = select_mu(&template, &refs, &base, &mu_grid)?;
        println!(
            "  {}: validation-selected μ = {} ({} candidates)",
            id.name(),
            search.best_mu(),
            search.trials.len()
        );
    }

    println!();
    table.print();
    println!(
        "\nReading: small μ under-enforces (high accuracy, budget violations); large μ\n\
         over-penalizes early iterations (feasible but can cost accuracy). The mid-range\n\
         is robust — which is why a 3-point validation grid suffices for the experiments."
    );
    let path = write_csv(
        "mu_sensitivity",
        &[
            "dataset",
            "mu",
            "feasible",
            "val_accuracy",
            "power_w",
            "lambda_final",
        ],
        &rows,
    );
    println!("Wrote {}", path.display());
    Ok(())
}
