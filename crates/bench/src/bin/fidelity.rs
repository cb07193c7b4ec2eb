//! Surrogate-fidelity audit: per-dataset surrogate-vs-SPICE power
//! error at convergence (`BENCH_6.json`).
//!
//! Training optimizes against the MLP power surrogate and the
//! characterized negation constant; the SPICE engine is the ground
//! truth. For each dataset the binary trains a constrained pNC at the
//! 60 % budget, then re-evaluates the surrogate-modelled circuit power
//! (activation + negation; the crossbar term is analytic in both
//! paths) through SPICE and reports the absolute and relative error —
//! the same comparison `pnc-cli train --fidelity-every` spot-checks
//! during a run, taken once at the converged model.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin fidelity -- --scale smoke
//! cargo run --release -p pnc-bench --bin fidelity -- --scale ci --out BENCH_6.json
//! ```

use pnc_bench::harness::{cap_for, fit_bundle, parallel_over_datasets, reference_stage, AfBundle};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_datasets::DatasetId;
use pnc_spice::AfKind;
use pnc_train::experiment::train_constrained;
use pnc_train::fidelity::{fidelity_sample, FidelitySample};
use pnc_train::observer::NoopObserver;

/// Budget fraction the audit trains at: the middle of the paper's
/// sweep, where both the crossbar and the circuits stay active.
const BUDGET_FRAC: f64 = 0.6;

struct Row {
    dataset: DatasetId,
    budget_mw: f64,
    sample: FidelitySample,
}

fn audit_dataset(
    id: DatasetId,
    bundle: &AfBundle,
    fidelity: &pnc_train::experiment::ExperimentFidelity,
    cap: usize,
    seed: u64,
) -> Result<Row, String> {
    let (data, p_max) = reference_stage(id, bundle, seed, fidelity, cap)
        .map_err(|e| format!("{}: reference: {e}", id.name()))?;
    let budget = BUDGET_FRAC * p_max;
    let net = train_constrained(
        id,
        &bundle.activation,
        &bundle.negation,
        &data.refs(),
        budget,
        fidelity,
        seed,
        &mut NoopObserver,
    )
    .map_err(|e| format!("{}: train: {e}", id.name()))?;
    let sample = fidelity_sample(&net, fidelity.surrogate.transfer_grid)
        .map_err(|e| format!("{}: fidelity: {e}", id.name()))?;
    Ok(Row {
        dataset: id,
        budget_mw: budget * 1e3,
        sample,
    })
}

fn render_json(scale: Scale, grid_points: usize, rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"bench\": \"fidelity\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"af\": \"{}\",\n  \"grid_points\": {grid_points},\n  \"budget_frac\": {BUDGET_FRAC},\n  \"rows\": [\n",
        scale.name(),
        AfKind::PTanh.name(),
    ));
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"dataset\": \"{}\", \"budget_mw\": {:e}, \"surrogate_watts\": {:e}, \
                 \"spice_watts\": {:e}, \"abs_err_watts\": {:e}, \"rel_err\": {:e}}}",
                r.dataset.name(),
                r.budget_mw,
                r.sample.surrogate_watts,
                r.sample.spice_watts,
                r.sample.abs_err_watts(),
                r.sample.rel_err(),
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let seed = scale.seeds()[0];
    let datasets = scale.datasets();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_6.json".to_string());
    println!(
        "Surrogate fidelity audit — scale {}, {} dataset(s), grid {} points",
        scale.name(),
        datasets.len(),
        fidelity.surrogate.transfer_grid
    );

    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let results = parallel_over_datasets(&datasets, |id| {
        audit_dataset(id, &bundle, &fidelity, cap, seed)
    });
    let rows: Vec<Row> = results.into_iter().collect::<Result<_, _>>()?;

    let mut table = TableWriter::new(&[
        "dataset",
        "budget mW",
        "surrogate µW",
        "spice µW",
        "rel err",
    ]);
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for r in &rows {
        let cells = vec![
            r.dataset.name().to_string(),
            format!("{:.6}", r.budget_mw),
            format!("{:.4}", r.sample.surrogate_watts * 1e6),
            format!("{:.4}", r.sample.spice_watts * 1e6),
            format!("{:.3e}", r.sample.rel_err()),
        ];
        table.row(cells.clone());
        csv_rows.push(cells);
    }
    table.print();
    write_csv(
        "fidelity",
        &[
            "dataset",
            "budget_mw",
            "surrogate_uw",
            "spice_uw",
            "rel_err",
        ],
        &csv_rows,
    );

    let json = render_json(scale, fidelity.surrogate.transfer_grid, &rows);
    std::fs::write(&out_path, &json)?;
    println!("wrote {out_path}");
    Ok(())
}
