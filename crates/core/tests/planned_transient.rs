//! The transient engine on an exported network: every step is a planned
//! solve, so none starts cold, and the run settles on the planned DC
//! point at the stepped input.
//!
//! The only test in its binary, so the process-wide solver counters
//! see its solves alone.

use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::export::export_network;
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
use pnc_spice::dc::{solve_dc_planned, SolverConfig};
use pnc_spice::transient::{add_node_parasitics, step_response};
use pnc_spice::{stats, AfKind, BlockPlan};
use pnc_telemetry::Telemetry;

#[test]
fn planned_step_response_settles_on_the_planned_dc_point_without_cold_solves() {
    let act = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("smoke surrogate");
    let neg = fit_negation_model(9).expect("negation surrogate");
    let mut rng = lrng::seeded(45);
    let net = PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng)
        .expect("4-in 3-out network");
    let exported = export_network(&net).expect("lowering");
    let mut circuit = exported.circuit().clone();
    add_node_parasitics(&mut circuit, 1e-9);

    // Sources are [vdd, vss, in0, …]: step input 0.
    let (input0, v_final) = (2, 0.6);
    let steps = 400;
    let tstop = 1e-2;
    stats::reset();
    let run = step_response(&circuit, input0, 0.0, v_final, tstop, tstop / steps as f64)
        .expect("transient");
    let solved = stats::take();
    assert_eq!(solved.solves, steps as u64 + 1, "initial point + steps");
    assert_eq!(
        solved.solves - solved.warm_started_solves,
        0,
        "no cold solve, the initial point included"
    );
    assert!(solved.newton_iterations > 0, "block work is counted");

    let mut stepped = circuit.clone();
    stepped.set_vsource(input0, v_final).expect("input source");
    let dc = solve_dc_planned(
        &stepped,
        &BlockPlan::new(&stepped),
        &SolverConfig::default(),
        None,
        &Telemetry::disabled(),
    )
    .expect("planned DC solve");
    let last = run.voltages.last().expect("a final state");
    for (node, (v, want)) in last.iter().zip(dc.all_voltages()).enumerate() {
        assert!(
            (v - want).abs() < 1e-6,
            "node {node}: transient ends at {v} V, DC point {want} V"
        );
    }
}
