//! Settling-time / energy-per-inference study (extension beyond the
//! paper's static power analysis).
//!
//! A printed classifier's energy per inference is `P · t_settle`, where
//! the settling time is set by printed parasitics and the circuit's
//! impedance level. Strict power constraints push resistances *up*
//! (lower conductance = lower power), which slows the RC settling —
//! a power/latency trade-off that static analysis hides.
//!
//! For each budget the binary trains a pNC, lowers it to its netlist,
//! attaches lumped node parasitics, applies an input step and measures
//! the classification-output settling time and the resulting energy per
//! inference.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin latency -- --scale ci
//! ```

use pnc_bench::harness::{cap_for, fit_bundle, reference_stage};
use pnc_bench::report::{write_csv, TableWriter};
use pnc_bench::Scale;
use pnc_core::export::export_network;
use pnc_datasets::DatasetId;
use pnc_spice::transient::{add_node_parasitics, step_response};
use pnc_spice::AfKind;
use pnc_train::auglag::hard_power;
use pnc_train::experiment::train_constrained;
use pnc_train::observer::NoopObserver;

/// Lumped parasitic capacitance per circuit node (printed interconnect
/// + EGT gate capacitance are in the nF range).
const NODE_PARASITIC_F: f64 = 1.0e-9;

/// Band around its final value an output must stay within to count as
/// settled.
const SETTLE_TOL_V: f64 = 0.005;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let datasets: Vec<DatasetId> = match scale {
        Scale::Smoke => vec![DatasetId::Iris],
        _ => vec![DatasetId::Iris, DatasetId::Seeds],
    };
    println!(
        "Latency / energy-per-inference — scale {}, {} dataset(s), {} F node parasitics",
        scale.name(),
        datasets.len(),
        NODE_PARASITIC_F
    );

    let bundle = fit_bundle(AfKind::PTanh, &fidelity)?;
    let mut table = TableWriter::new(&[
        "dataset",
        "budget",
        "power mW",
        "settling µs",
        "energy/inference nJ",
    ]);
    let mut rows: Vec<Vec<String>> = Vec::new();

    for &id in &datasets {
        eprintln!("[latency] {} …", id.name());
        let (data, p_max) = reference_stage(id, &bundle, 1, &fidelity, cap)?;
        let refs = data.refs();

        for &frac in &[0.2f64, 0.8] {
            let net = train_constrained(
                id,
                &bundle.activation,
                &bundle.negation,
                &refs,
                frac * p_max,
                &fidelity,
                1,
                &mut NoopObserver,
            )?;
            let power = hard_power(&net, refs.x_train)?;

            let exported = export_network(&net)?;
            let mut circuit = exported.circuit().clone();
            add_node_parasitics(&mut circuit, NODE_PARASITIC_F);

            // Step the first input from rest to a representative level
            // and watch the slowest classification output settle.
            // The first three sources are the rails + input 0...
            // source indices: [vdd, vss, in0, in1, …]; input 0 is 2.
            let input0_src = 2usize;
            let tstop = 2e-3;
            let dt = tstop / 400.0;
            match step_response(&circuit, input0_src, 0.0, 0.6, tstop, dt) {
                Ok(result) => {
                    let mut worst: f64 = 0.0;
                    let mut settled_all = true;
                    for &out in exported.output_nodes() {
                        match result.settling_time(out, SETTLE_TOL_V) {
                            Some(t) => worst = worst.max(t),
                            None => settled_all = false,
                        }
                    }
                    if !settled_all {
                        println!(
                            "  {} at {:.0}%: outputs did not settle within {tstop:.0e} s",
                            id.name(),
                            frac * 100.0
                        );
                        continue;
                    }
                    // Every output settled at the first time point: the
                    // step moved none of them out of the band, so there
                    // is no settling time to measure.
                    if worst <= result.times[0] {
                        println!(
                            "  {} at {:.0}%: stepping input 0 moves no output beyond \
                             the {:.0} mV band; nothing to time",
                            id.name(),
                            frac * 100.0,
                            SETTLE_TOL_V * 1e3
                        );
                        continue;
                    }
                    let energy_nj = power * worst * 1e9;
                    table.row(vec![
                        id.name().into(),
                        format!("{:.0}%", frac * 100.0),
                        format!("{:.3}", power * 1e3),
                        format!("{:.1}", worst * 1e6),
                        format!("{energy_nj:.2}"),
                    ]);
                    rows.push(vec![
                        id.name().into(),
                        format!("{frac:.2}"),
                        format!("{:.6e}", power),
                        format!("{:.6e}", worst),
                        format!("{:.6e}", power * worst),
                    ]);
                }
                Err(e) => {
                    println!(
                        "  {} at {:.0}%: transient failed: {e}",
                        id.name(),
                        frac * 100.0
                    );
                }
            }
        }
    }

    println!();
    table.print();
    println!(
        "\nReading: tighter budgets raise impedances (R = 1/(|θ|·G_MAX) grows as conductances\n\
         shrink), so strictly power-constrained circuits settle more slowly — energy per\n\
         inference falls less than power does."
    );
    let path = write_csv(
        "latency_energy",
        &[
            "dataset",
            "budget_frac",
            "power_w",
            "settling_s",
            "energy_j",
        ],
        &rows,
    );
    println!("Wrote {}", path.display());
    Ok(())
}
