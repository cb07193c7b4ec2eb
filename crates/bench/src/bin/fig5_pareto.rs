//! Regenerates **Fig. 5**: per-dataset penalty-based Pareto fronts
//! (blue scatter → pink front in the paper) against the single-run
//! augmented Lagrangian optima at the four power budgets (the rhombus
//! markers), using the p-tanh activation as in the paper.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin fig5_pareto -- --scale ci
//! ```

use pnc_bench::harness::{
    cap_for, fit_bundle, run_dataset, run_dataset_penalty, BUDGET_FRACS, MU_GRID,
};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_datasets::DatasetId;
use pnc_spice::AfKind;
use pnc_train::pareto::{best_under_budget, pareto_front, ParetoPoint};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let seeds = scale.seeds();
    let cap = cap_for(scale);
    let datasets: Vec<DatasetId> = match scale {
        Scale::Smoke => vec![DatasetId::Iris],
        Scale::Ci => vec![
            DatasetId::Iris,
            DatasetId::Seeds,
            DatasetId::BreastCancer,
            DatasetId::VertebralColumn,
        ],
        Scale::Full => DatasetId::ALL.to_vec(),
    };
    let (alphas, penalty_seeds) = scale.penalty_sweep();
    println!(
        "Fig. 5 Pareto comparison — scale {}, {} dataset(s), penalty sweep {} α × {} seeds, p-tanh",
        scale.name(),
        datasets.len(),
        alphas.len(),
        penalty_seeds
    );

    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let mut scatter_rows: Vec<Vec<String>> = Vec::new();
    let mut al_rows: Vec<Vec<String>> = Vec::new();
    let mut comparison = TableWriter::new(&[
        "dataset",
        "budget",
        "AL acc %",
        "AL power mW",
        "front acc %",
        "verdict",
        "AL runs",
        "penalty runs",
    ]);

    for &id in &datasets {
        eprintln!("[fig5] {} …", id.name());
        // Penalty sweep (the expensive blue scatter).
        let sweep_seeds: Vec<u64> = (1..=penalty_seeds as u64).collect();
        let penalty_runs =
            run_dataset_penalty(id, &bundle, &alphas, &sweep_seeds, &fidelity, cap, false)?;
        let points: Vec<ParetoPoint> = penalty_runs
            .iter()
            .map(|r| ParetoPoint {
                power_mw: r.power_mw,
                accuracy: r.test_accuracy,
            })
            .collect();
        let front = pareto_front(&points);
        for r in &penalty_runs {
            scatter_rows.push(vec![
                id.name().to_string(),
                format!("{:.3}", r.budget_frac), // α
                format!("{:.6}", r.power_mw),
                format!("{:.4}", r.test_accuracy),
                r.seed.to_string(),
            ]);
        }

        // Augmented Lagrangian points at each budget, with μ selected
        // from a small validation grid (the paper's RayTune step).
        let al_runs = run_dataset(
            id,
            &bundle,
            &BUDGET_FRACS,
            &seeds[..1],
            &fidelity,
            cap,
            &MU_GRID,
        )?;
        for r in &al_runs {
            al_rows.push(vec![
                id.name().to_string(),
                format!("{:.2}", r.budget_frac),
                format!("{:.6}", r.budget_mw),
                format!("{:.6}", r.power_mw),
                format!("{:.4}", r.test_accuracy),
                r.feasible.to_string(),
            ]);
            let front_at = best_under_budget(&front, r.budget_mw);
            let (front_acc, verdict) = match front_at {
                Some(p) => {
                    let diff = r.test_accuracy - p.accuracy;
                    let verdict = if diff >= -0.02 {
                        "matches/beats front"
                    } else {
                        "below front"
                    };
                    (format!("{:.2}", 100.0 * p.accuracy), verdict)
                }
                None => ("-".to_string(), "front has no feasible point"),
            };
            comparison.row(vec![
                id.name().into(),
                format!("{:.0}%", r.budget_frac * 100.0),
                format!("{:.2}", 100.0 * r.test_accuracy),
                format!("{:.3}", r.power_mw),
                front_acc,
                verdict.into(),
                format!("{}", MU_GRID.len()),
                format!("{}", alphas.len() * penalty_seeds),
            ]);
        }
    }

    println!();
    comparison.print();
    println!(
        "\nCost: the augmented Lagrangian reaches each budget in {} training runs (μ grid, \
         selected on validation); the penalty front costs {} runs per dataset at this scale \
         (paper: 50 α × 10 seeds ≤ 500, 'up to 150 runs' for a usable front).",
        MU_GRID.len(),
        alphas.len() * penalty_seeds
    );

    let p1 = write_csv(
        "fig5_penalty_scatter",
        &["dataset", "alpha", "power_mw", "accuracy", "seed"],
        &scatter_rows,
    );
    let p2 = write_csv(
        "fig5_auglag_points",
        &[
            "dataset",
            "budget_frac",
            "budget_mw",
            "power_mw",
            "accuracy",
            "feasible",
        ],
        &al_rows,
    );
    println!("Wrote {} and {}", p1.display(), p2.display());
    Ok(())
}
