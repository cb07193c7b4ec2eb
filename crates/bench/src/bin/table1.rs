//! Regenerates **Table I**: averaged performance metrics across the
//! benchmark datasets — power (mW), accuracy (%) and device count per
//! activation function at the 20/40/60/80 % power budgets, next to the
//! penalty-based baseline at α ∈ {1, 0.75, 0.5, 0.25} — plus the
//! paper's headline accuracy-to-power ratios and run-count accounting.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin table1 -- --scale ci
//! ```

use pnc_bench::aggregate::average_cell;
use pnc_bench::harness::{
    cap_for, fit_bundle, run_csv_row, run_dataset, run_dataset_penalty, BASELINE_ALPHAS,
    BUDGET_FRACS, RUN_CSV_HEADER,
};
use pnc_bench::report::{f2, write_csv, TableWriter};
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
        "Table I reproduction — scale {}, {} datasets, {} seed(s)",
        scale.name(),
        datasets.len(),
        seeds.len()
    );

    // Constrained runs for every AF kind.
    let mut all_runs: Vec<RunResult> = Vec::new();
    let mut cells = Vec::new(); // (kind, budget, CellSummary)
    for kind in AfKind::ALL {
        eprintln!("[table1] fitting surrogates for {}", kind.name());
        let bundle = fit_bundle(kind, &fidelity)?;
        eprintln!("[table1] running {} …", kind.name());
        let per_dataset = pnc_bench::harness::parallel_over_datasets(&datasets, |id| {
            run_dataset(id, &bundle, &BUDGET_FRACS, &seeds, &fidelity, cap, &mu)
        });
        let runs: Vec<RunResult> = per_dataset
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect();
        for &frac in &BUDGET_FRACS {
            let subset: Vec<RunResult> = runs
                .iter()
                .filter(|r| (r.budget_frac - frac).abs() < 1e-9)
                .cloned()
                .collect();
            cells.push((kind, frac, average_cell(&subset, 3)));
        }
        all_runs.extend(runs);
    }

    // Penalty baseline with p-tanh (the paper's baseline AF).
    eprintln!("[table1] penalty baseline (p-tanh) …");
    let baseline_bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let baseline_per_dataset = pnc_bench::harness::parallel_over_datasets(&datasets, |id| {
        run_dataset_penalty(
            id,
            &baseline_bundle,
            &BASELINE_ALPHAS,
            &seeds,
            &fidelity,
            cap,
            true,
        )
    });
    let baseline_runs: Vec<RunResult> = baseline_per_dataset
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    let mut baseline_cells = Vec::new();
    for &alpha in &BASELINE_ALPHAS {
        let subset: Vec<RunResult> = baseline_runs
            .iter()
            .filter(|r| (r.budget_frac - alpha).abs() < 1e-9)
            .cloned()
            .collect();
        baseline_cells.push((alpha, average_cell(&subset, 3)));
    }

    // ------------------------------------------------------------------
    // Render Table I.
    // ------------------------------------------------------------------
    let mut table = TableWriter::new(&[
        "budget",
        "metric",
        "p-ReLU",
        "p-Clipped_ReLU",
        "p-sigmoid",
        "p-tanh",
        "baseline",
        "alpha",
    ]);
    for (row, &frac) in BUDGET_FRACS.iter().enumerate() {
        let alpha = BASELINE_ALPHAS[row];
        let b = &baseline_cells[row].1;
        let get = |kind: AfKind| {
            cells
                .iter()
                .find(|(k, f, _)| *k == kind && (*f - frac).abs() < 1e-9)
                .map(|(_, _, c)| *c)
                // lint: allow(L001, reason = "the loop above pushes a cell for every (kind, budget) pair")
                .expect("cell computed")
        };
        let cs = [
            get(AfKind::PRelu),
            get(AfKind::PClippedRelu),
            get(AfKind::PSigmoid),
            get(AfKind::PTanh),
        ];
        table.row(vec![
            format!("{:.0}%", frac * 100.0),
            "Pow(mW)".into(),
            f2(cs[0].power_mw),
            f2(cs[1].power_mw),
            f2(cs[2].power_mw),
            f2(cs[3].power_mw),
            f2(b.power_mw),
            format!("{alpha}"),
        ]);
        table.row(vec![
            String::new(),
            "Acc(%)".into(),
            f2(cs[0].accuracy_pct),
            f2(cs[1].accuracy_pct),
            f2(cs[2].accuracy_pct),
            f2(cs[3].accuracy_pct),
            f2(b.accuracy_pct),
            String::new(),
        ]);
        table.row(vec![
            String::new(),
            "#Dev".into(),
            format!("{:.0}", cs[0].devices),
            format!("{:.0}", cs[1].devices),
            format!("{:.0}", cs[2].devices),
            format!("{:.0}", cs[3].devices),
            "-".into(),
            String::new(),
        ]);
    }
    println!();
    table.print();

    // ------------------------------------------------------------------
    // Headline claims.
    // ------------------------------------------------------------------
    let best_cell = |frac: f64| -> pnc_bench::CellSummary {
        AfKind::ALL
            .iter()
            .map(|&k| {
                cells
                    .iter()
                    .find(|(kk, f, _)| *kk == k && (*f - frac).abs() < 1e-9)
                    .map(|(_, _, c)| *c)
                    // lint: allow(L001, reason = "the loop above pushes a cell for every (kind, budget) pair")
                    .expect("cell")
            })
            .max_by(|a, b| a.accuracy_per_mw().total_cmp(&b.accuracy_per_mw()))
            // lint: allow(L001, reason = "AfKind::ALL is a non-empty constant")
            .expect("four kinds")
    };
    let low = best_cell(0.2);
    let high = best_cell(0.8);
    let base_low = &baseline_cells[0].1; // α = 1 (lowest baseline power)
    let base_high = &baseline_cells[3].1; // α = 0.25
    println!("\nAccuracy-to-power ratios (% per mW), ours (best AF) vs baseline:");
    println!(
        "  20% budget: {:.1} vs {:.1}  →  {:.0}× (paper: ≈52×)",
        low.accuracy_per_mw(),
        base_low.accuracy_per_mw(),
        low.accuracy_per_mw() / base_low.accuracy_per_mw()
    );
    println!(
        "  80% budget: {:.1} vs {:.1}  →  {:.0}× (paper: ≈59×)",
        high.accuracy_per_mw(),
        base_high.accuracy_per_mw(),
        high.accuracy_per_mw() / base_high.accuracy_per_mw()
    );

    // Device-count claim: p-ReLU vs p-tanh at the 80 % budget.
    let dev_relu = cells
        .iter()
        .find(|(k, f, _)| *k == AfKind::PRelu && (*f - 0.8).abs() < 1e-9)
        .ok_or("missing p-ReLU cell at the 80% budget")?
        .2
        .devices;
    let dev_tanh = cells
        .iter()
        .find(|(k, f, _)| *k == AfKind::PTanh && (*f - 0.8).abs() < 1e-9)
        .ok_or("missing p-tanh cell at the 80% budget")?
        .2
        .devices;
    println!(
        "\nDevice count at 80% budget: p-ReLU {:.0} vs p-tanh {:.0} → {:.0}% fewer (paper: ≈36%)",
        dev_relu,
        dev_tanh,
        100.0 * (1.0 - dev_relu / dev_tanh)
    );

    // Run-count accounting.
    let ours_runs: usize = all_runs.iter().map(|r| r.training_runs).sum();
    let (full_alphas, full_seeds) = Scale::Full.penalty_sweep();
    println!(
        "\nTraining-run accounting: ours {} runs total ({} per dataset/AF/budget); a full \
         penalty Pareto front costs {} runs per dataset (paper: up to 150).",
        ours_runs,
        1,
        full_alphas.len() * full_seeds
    );

    // Feasibility check (Fig. 4's "all points below the dashed lines").
    let infeasible = all_runs.iter().filter(|r| !r.feasible).count();
    println!(
        "Feasibility: {}/{} constrained runs within budget.",
        all_runs.len() - infeasible,
        all_runs.len()
    );

    // ------------------------------------------------------------------
    // CSV artifacts.
    // ------------------------------------------------------------------
    let rows: Vec<Vec<String>> = all_runs.iter().map(run_csv_row).collect();
    let path = write_csv("table1_runs", &RUN_CSV_HEADER, &rows);
    let cell_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(k, f, c)| {
            vec![
                k.name().to_string(),
                format!("{f:.2}"),
                format!("{:.4}", c.power_mw),
                format!("{:.2}", c.accuracy_pct),
                format!("{:.1}", c.devices),
                format!("{:.2}", c.feasible_rate),
            ]
        })
        .chain(baseline_cells.iter().map(|(a, c)| {
            vec![
                "baseline".to_string(),
                format!("{a:.2}"),
                format!("{:.4}", c.power_mw),
                format!("{:.2}", c.accuracy_pct),
                "-".to_string(),
                "-".to_string(),
            ]
        }))
        .collect();
    let cell_path = write_csv(
        "table1_cells",
        &[
            "af",
            "budget_or_alpha",
            "power_mw",
            "accuracy_pct",
            "devices",
            "feasible_rate",
        ],
        &cell_rows,
    );
    println!("\nWrote {} and {}", path.display(), cell_path.display());
    Ok(())
}
