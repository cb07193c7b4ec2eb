//! Printing-variation robustness study (extension beyond the paper,
//! grounded in its pPDK reference \[29\] on printed-EGT variability).
//!
//! Trains pNCs at several power budgets, lowers each to its
//! transistor-level netlist, then Monte-Carlo "prints" perturbed copies
//! (resistance, V_th and K_p spreads) and measures the accuracy
//! distribution across prints. The interesting question: does strict
//! power constraining — which prunes devices and pushes conductances
//! toward thresholds — cost robustness?
//!
//! ```text
//! cargo run --release -p pnc-bench --bin variation -- --scale ci
//! ```

use pnc_bench::harness::{cap_for, fit_bundle, reference_stage};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_core::export::export_network;
use pnc_datasets::DatasetId;
use pnc_spice::{AfKind, VariationModel};
use pnc_train::experiment::train_constrained;
use pnc_train::observer::NoopObserver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let (datasets, prints, eval_rows): (Vec<DatasetId>, usize, usize) = match scale {
        Scale::Smoke => (vec![DatasetId::Iris], 12, 16),
        Scale::Ci => (
            vec![
                DatasetId::Iris,
                DatasetId::Seeds,
                DatasetId::VertebralColumn,
            ],
            30,
            24,
        ),
        Scale::Full => (
            vec![
                DatasetId::Iris,
                DatasetId::Seeds,
                DatasetId::VertebralColumn,
                DatasetId::BreastCancer,
                DatasetId::MammographicMass,
            ],
            100,
            40,
        ),
    };
    println!(
        "Printing-variation robustness — scale {}, {} dataset(s), {} Monte Carlo prints",
        scale.name(),
        datasets.len(),
        prints
    );

    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let corners = [
        ("tight", VariationModel::tight()),
        ("default", VariationModel::default()),
        ("loose", VariationModel::loose()),
    ];

    let mut table = TableWriter::new(&[
        "dataset",
        "budget",
        "nominal acc %",
        "corner",
        "mean acc %",
        "std",
        "worst %",
        "yield %",
    ]);
    let mut rows: Vec<Vec<String>> = Vec::new();

    for &id in &datasets {
        eprintln!("[variation] {} …", id.name());
        let (data, p_max) = reference_stage(id, &bundle, 1, &fidelity, cap)?;

        for &frac in &[0.3f64, 1.0] {
            let net = train_constrained(
                id,
                &bundle.activation,
                &bundle.negation,
                &data.refs(),
                frac * p_max,
                &fidelity,
                1,
                &mut NoopObserver,
            )?;
            let exported = export_network(&net)?;
            // Evaluate on a capped slice of the test set (full-circuit
            // DC per sample per print).
            let n_eval = data.x_test.rows().min(eval_rows);
            let idx: Vec<usize> = (0..n_eval).collect();
            let x_eval = data.x_test.select_rows(&idx);
            let y_eval = &data.y_test[..n_eval];
            let nominal = {
                let preds = exported.classify(&x_eval)?;
                preds.iter().zip(y_eval).filter(|(p, l)| p == l).count() as f64 / n_eval as f64
            };

            for (corner_name, corner) in &corners {
                let mc = exported.monte_carlo(&x_eval, y_eval, corner, prints, 11);
                table.row(vec![
                    id.name().into(),
                    format!("{:.0}%", frac * 100.0),
                    format!("{:.1}", 100.0 * nominal),
                    (*corner_name).into(),
                    format!("{:.1}", 100.0 * mc.mean_accuracy()),
                    format!("{:.1}", 100.0 * mc.std_accuracy()),
                    format!("{:.1}", 100.0 * mc.min_accuracy()),
                    format!("{:.0}", 100.0 * mc.yield_rate()),
                ]);
                rows.push(vec![
                    id.name().into(),
                    format!("{frac:.2}"),
                    (*corner_name).into(),
                    format!("{:.4}", nominal),
                    format!("{:.4}", mc.mean_accuracy()),
                    format!("{:.4}", mc.std_accuracy()),
                    format!("{:.4}", mc.min_accuracy()),
                    format!("{:.4}", mc.yield_rate()),
                    format!("{:.6e}", mc.mean_power()),
                ]);
            }
        }
    }

    println!();
    table.print();
    println!(
        "\nReading: 'budget 30%' rows are strictly power-constrained circuits; 'budget 100%' \
         rows are lightly constrained references. Accuracy spread under the default corner \
         shows how much classification robustness printing variation costs after aggressive \
         power optimization."
    );
    let path = write_csv(
        "variation_robustness",
        &[
            "dataset",
            "budget_frac",
            "corner",
            "nominal_acc",
            "mean_acc",
            "std_acc",
            "worst_acc",
            "yield",
            "mean_power_w",
        ],
        &rows,
    );
    println!("Wrote {}", path.display());
    Ok(())
}
