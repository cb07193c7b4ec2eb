//! Transient analysis: backward-Euler time integration.
//!
//! The paper's optimization is purely DC (static classification power),
//! but a printed classifier's *energy per inference* is power × settling
//! time, and settling is set by printed parasitics (electrolyte-gated
//! transistors are notoriously slow; node capacitances of printed
//! interconnect sit in the nF range). This module integrates any
//! netlist containing [`Element::Capacitor`]s with the A-stable
//! backward-Euler rule:
//!
//! ```text
//! i_C(t+Δt) = C/Δt · (v(t+Δt) − v(t))
//! ```
//!
//! Each step replaces every capacitor with its companion model — a
//! conductance `C/Δt` in parallel with a history current source — and
//! solves the resulting nonlinear DC system with the existing Newton
//! machinery. A capacitor to ground only adds to its node's diagonal,
//! so the companion circuit keeps the block order of the DC one: every
//! step is a planned solve ([`crate::block`]) whose blocks start from
//! the previous step's state.

use crate::block::BlockPlan;
use crate::dc::{solve_dc_planned, SolverConfig};
use crate::netlist::{Circuit, Element};
use crate::SpiceError;
use pnc_telemetry::Telemetry;

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Time points (seconds), starting at `0.0` (the initial DC point).
    pub times: Vec<f64>,
    /// Node voltages per time point (`times.len() × node_count`),
    /// indexed `[step][node]` with ground included as column 0.
    pub voltages: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Voltage trace of one node.
    pub fn node_trace(&self, node: usize) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node]).collect()
    }

    /// First time at which `node` stays within `tol_volts` of its final
    /// value for the remainder of the run, or `None` if it never
    /// settles.
    pub fn settling_time(&self, node: usize, tol_volts: f64) -> Option<f64> {
        let trace = self.node_trace(node);
        let last = *trace.last()?;
        let mut settle_idx = None;
        for (i, &v) in trace.iter().enumerate() {
            if (v - last).abs() <= tol_volts {
                if settle_idx.is_none() {
                    settle_idx = Some(i);
                }
            } else {
                settle_idx = None;
            }
        }
        settle_idx.map(|i| self.times[i])
    }
}

/// Builds the backward-Euler companion circuit for one step: capacitors
/// become `geq = C/Δt` conductances plus history current sources.
fn companion(circuit: &Circuit, dt_seconds: f64, v_prev: &[f64]) -> Circuit {
    let mut out = Circuit::new();
    for _ in 1..circuit.node_count() {
        out.node("n");
    }
    for e in circuit.elements() {
        match *e {
            Element::Capacitor { a, b, farads } => {
                let geq = farads / dt_seconds;
                out.resistor(a, b, 1.0 / geq);
                let dv_prev = v_prev[a] - v_prev[b];
                // i_C = geq·(v − v_prev): the −geq·v_prev part is a
                // current source injecting into `a`.
                out.isource(b, a, geq * dv_prev);
            }
            ref other => {
                // Clone every other element verbatim.
                match *other {
                    Element::Resistor { a, b, ohms } => {
                        out.resistor(a, b, ohms);
                    }
                    Element::VSource { plus, minus, volts } => {
                        out.vsource(plus, minus, volts);
                    }
                    Element::ISource { plus, minus, amps } => {
                        out.isource(plus, minus, amps);
                    }
                    Element::Vcvs {
                        plus,
                        minus,
                        ctrl_p,
                        ctrl_n,
                        gain,
                    } => {
                        out.vcvs(plus, minus, ctrl_p, ctrl_n, gain);
                    }
                    Element::Egt {
                        drain,
                        gate,
                        source,
                        w,
                        l,
                        model,
                    } => {
                        out.egt_with_model(drain, gate, source, w, l, model);
                    }
                    Element::Capacitor { .. } => unreachable!("handled above"),
                }
            }
        }
    }
    out
}

/// Integrates `circuit` from its DC operating point for `tstop_seconds` seconds
/// with fixed step `dt_seconds`.
///
/// # Errors
///
/// Propagates DC/Newton failures from the initial point or any step.
///
/// # Panics
///
/// Panics when `dt_seconds` or `tstop_seconds` is non-positive.
pub fn transient(
    circuit: &Circuit,
    tstop_seconds: f64,
    dt_seconds: f64,
) -> Result<TransientResult, SpiceError> {
    integrate(circuit, circuit, tstop_seconds, dt_seconds)
}

/// Step-response helper: solves the DC point with the source at
/// `v_initial_volts`, switches it to `v_final_volts` and integrates for `tstop_seconds`.
///
/// # Errors
///
/// Propagates element-index and solver failures.
///
/// # Panics
///
/// Panics when `dt_seconds` or `tstop_seconds` is non-positive.
pub fn step_response(
    circuit: &Circuit,
    source_index: usize,
    v_initial_volts: f64,
    v_final_volts: f64,
    tstop_seconds: f64,
    dt_seconds: f64,
) -> Result<TransientResult, SpiceError> {
    let mut before = circuit.clone();
    before.set_vsource(source_index, v_initial_volts)?;
    let mut after = circuit.clone();
    after.set_vsource(source_index, v_final_volts)?;
    integrate(&before, &after, tstop_seconds, dt_seconds)
}

/// The backward-Euler loop: integrates `circuit` for `tstop_seconds`
/// with fixed step `dt_seconds`, starting from the DC operating point of
/// `initial` (capacitors open). Both the initial point and the steps
/// are planned solves; the steps share one plan, built once on the
/// companion topology, and start from the previous step's state.
fn integrate(
    initial: &Circuit,
    circuit: &Circuit,
    tstop_seconds: f64,
    dt_seconds: f64,
) -> Result<TransientResult, SpiceError> {
    assert!(
        dt_seconds > 0.0 && tstop_seconds > 0.0,
        "transient: dt_seconds and tstop_seconds must be positive"
    );
    let cfg = SolverConfig::default();
    let tel = Telemetry::disabled();
    let op0 = solve_dc_planned(initial, &BlockPlan::new(initial), &cfg, None, &tel)?;
    let mut state = op0.state();
    let mut v_prev = op0.all_voltages();
    // The companion topology does not depend on the voltages.
    let plan = BlockPlan::new(&companion(circuit, dt_seconds, &v_prev));

    let steps = (tstop_seconds / dt_seconds).ceil() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity(steps + 1);
    times.push(0.0);
    voltages.push(v_prev.clone());

    for k in 1..=steps {
        let comp = companion(circuit, dt_seconds, &v_prev);
        let op = solve_dc_planned(&comp, &plan, &cfg, Some(&state), &tel)?;
        state = op.state();
        v_prev = op.all_voltages();
        times.push(k as f64 * dt_seconds);
        voltages.push(v_prev.clone());
    }
    Ok(TransientResult { times, voltages })
}

/// Adds a capacitor of `farads` from every non-ground node to ground —
/// the standard lumped model of printed interconnect parasitics.
/// Returns the number of capacitors added.
pub fn add_node_parasitics(circuit: &mut Circuit, farads: f64) -> usize {
    let n = circuit.node_count();
    for node in 1..n {
        circuit.capacitor(node, Circuit::GROUND, farads);
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RC low-pass: R = 10 kΩ, C = 1 nF → τ = 10 µs.
    fn rc() -> (Circuit, usize, usize) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vin, out, 10_000.0);
        c.capacitor(out, Circuit::GROUND, 1e-9);
        (c, src, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (c, src, out) = rc();
        let tau = 1e-5;
        let r = step_response(&c, src, 0.0, 1.0, 5.0 * tau, tau / 100.0).unwrap();
        let trace = r.node_trace(out);
        // Compare v(t) = 1 − e^(−t/τ) at several points.
        for (i, &t) in r.times.iter().enumerate() {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (trace[i] - expect).abs() < 0.02,
                "t = {t:.2e}: {} vs {expect}",
                trace[i]
            );
        }
    }

    #[test]
    fn rc_settling_time_is_a_few_tau() {
        let (c, src, out) = rc();
        let tau = 1e-5;
        let r = step_response(&c, src, 0.0, 1.0, 8.0 * tau, tau / 50.0).unwrap();
        let ts = r.settling_time(out, 0.01).expect("settles");
        // 1 % settling of a first-order system is ≈ 4.6 τ.
        assert!(
            (3.5 * tau..6.0 * tau).contains(&ts),
            "settling time {ts:.2e} (τ = {tau:.0e})"
        );
    }

    #[test]
    fn dc_initial_condition_is_respected() {
        let (c, src, out) = rc();
        // Start from 0.7 V steady state and keep the source there:
        // nothing should move.
        let r = step_response(&c, src, 0.7, 0.7, 5e-5, 1e-6).unwrap();
        let trace = r.node_trace(out);
        for &v in &trace {
            assert!((v - 0.7).abs() < 1e-6, "{trace:?}");
        }
    }

    #[test]
    fn transient_from_dc_point_is_flat_without_excitation() {
        let (mut c, _, out) = rc();
        c.set_vsource(0, 0.5).unwrap();
        let r = transient(&c, 3e-5, 1e-6).unwrap();
        let trace = r.node_trace(out);
        for &v in &trace {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn nonlinear_transient_converges() {
        // Inverter with output capacitance: input step, output slews.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);
        c.capacitor(out, Circuit::GROUND, 1e-9);
        let r = step_response(&c, src, 0.0, 1.0, 2e-3, 2e-5).unwrap();
        let trace = r.node_trace(out);
        assert!(trace[0] > 0.9, "output initially high: {}", trace[0]);
        assert!(
            *trace.last().unwrap() < 0.1,
            "output ends low: {}",
            trace.last().unwrap()
        );
        // Monotone fall (first-order-ish).
        for w in trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-6);
        }
    }

    #[test]
    fn add_node_parasitics_counts() {
        let (mut c, _, _) = rc();
        let nodes_before = c.node_count();
        let added = add_node_parasitics(&mut c, 1e-12);
        assert_eq!(added, nodes_before - 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_bad_dt() {
        let (c, _, _) = rc();
        let _ = transient(&c, 1e-5, 0.0);
    }
}
