//! Regenerates **Fig. 4**: the accuracy–power scatter across datasets,
//! activation functions and power budgets. Each point is a trained pNC;
//! the dashed budget thresholds of the figure become a feasibility
//! column here, and the binary asserts the paper's visual claim that
//! "all results lie below the defined power levels".
//!
//! ```text
//! cargo run --release -p pnc-bench --bin fig4_scatter -- --scale ci
//! ```

use pnc_bench::harness::{
    cap_for, fit_bundle, parallel_over_datasets, run_csv_row, run_dataset, BUDGET_FRACS,
    RUN_CSV_HEADER,
};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_spice::AfKind;
use pnc_train::experiment::RunResult;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let datasets = scale.datasets();
    let seeds = scale.seeds();
    let cap = cap_for(scale);
    // One μ candidate: every run uses the fidelity's fixed μ.
    let mu = [fidelity.mu];
    println!(
        "Fig. 4 scatter — scale {}, {} datasets × 4 AFs × 4 budgets × {} seed(s)",
        scale.name(),
        datasets.len(),
        seeds.len()
    );

    let mut all: Vec<RunResult> = Vec::new();
    for kind in AfKind::ALL {
        eprintln!("[fig4] {} …", kind.name());
        let bundle = fit_bundle(kind, &fidelity)?;
        let per_dataset = parallel_over_datasets(&datasets, |id| {
            run_dataset(id, &bundle, &BUDGET_FRACS, &seeds, &fidelity, cap, &mu)
        });
        for runs in per_dataset {
            all.extend(runs?);
        }
    }

    // Keep the top-3 models per (dataset, AF, budget) — the paper's
    // selection — which with few seeds means "all", exactly as run.
    let rows: Vec<Vec<String>> = all.iter().map(run_csv_row).collect();
    let path = write_csv("fig4_scatter", &RUN_CSV_HEADER, &rows);

    // Feasibility: the paper's headline visual property.
    let infeasible: Vec<&RunResult> = all.iter().filter(|r| !r.feasible).collect();
    println!(
        "\nAll points below their budget line: {} ({} of {} runs feasible)",
        infeasible.is_empty(),
        all.len() - infeasible.len(),
        all.len()
    );
    for r in &infeasible {
        println!(
            "  violation: {} {} at {:.0}%: {:.3} mW > {:.3} mW",
            r.dataset.name(),
            r.af.name(),
            r.budget_frac * 100.0,
            r.power_mw,
            r.budget_mw
        );
    }

    // Per-budget accuracy/power summary (the scatter's vertical bands).
    let mut t = TableWriter::new(&["budget", "af", "mean acc %", "mean power mW", "n"]);
    for &frac in &BUDGET_FRACS {
        for kind in AfKind::ALL {
            let pts: Vec<&RunResult> = all
                .iter()
                .filter(|r| r.af == kind && (r.budget_frac - frac).abs() < 1e-9)
                .collect();
            if pts.is_empty() {
                continue;
            }
            let acc = 100.0 * pts.iter().map(|r| r.test_accuracy).sum::<f64>() / pts.len() as f64;
            let pow = pts.iter().map(|r| r.power_mw).sum::<f64>() / pts.len() as f64;
            t.row(vec![
                format!("{:.0}%", frac * 100.0),
                kind.name().into(),
                format!("{acc:.2}"),
                format!("{pow:.3}"),
                pts.len().to_string(),
            ]);
        }
    }
    println!();
    t.print();

    // The trade-off the figure illustrates: average accuracy should
    // drop as the budget tightens.
    let mean_acc = |frac: f64| {
        let pts: Vec<&RunResult> = all
            .iter()
            .filter(|r| (r.budget_frac - frac).abs() < 1e-9)
            .collect();
        100.0 * pts.iter().map(|r| r.test_accuracy).sum::<f64>() / pts.len().max(1) as f64
    };
    println!(
        "\nBudget–accuracy trade-off: 20% → {:.1}%, 80% → {:.1}% (paper: accuracy decreases at 20%)",
        mean_acc(0.2),
        mean_acc(0.8)
    );
    println!("Wrote {}", path.display());
    Ok(())
}
