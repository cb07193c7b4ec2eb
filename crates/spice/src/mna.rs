//! Modified nodal analysis: assembling the Newton linear system.
//!
//! Unknown vector layout: `[v₁ … v_{n−1}, i_src₁ … i_src_m]` — node
//! voltages for every non-ground node followed by one branch current
//! per ideal voltage source.
//!
//! For nonlinear elements the assembly linearizes around the current
//! voltage guess, producing the Jacobian `J` and the residual `f` of the
//! KCL/branch equations; the DC solver then iterates `J Δx = −f`.

use crate::netlist::{Circuit, Element};
use pnc_linalg::Matrix;

/// Minimum conductance from every node to ground. Keeps the matrix
/// non-singular when a transistor region leaves a node weakly driven.
pub const GMIN: f64 = 1e-12;

/// Assembled Newton system at a voltage guess.
#[derive(Debug, Clone)]
pub struct NewtonSystem {
    /// Jacobian of the residual with respect to the unknowns.
    pub jacobian: Matrix,
    /// Residual vector `f(x)` (KCL sums in amperes, then source branch
    /// voltage mismatches in volts).
    pub residual: Vec<f64>,
}

/// Index of a node voltage in the unknown vector, or `None` for ground.
fn unknown_of(node: usize) -> Option<usize> {
    if node == Circuit::GROUND {
        None
    } else {
        Some(node - 1)
    }
}

/// Voltage of `node` under the guess `x` (ground is 0).
pub fn node_voltage(x: &[f64], node: usize) -> f64 {
    match unknown_of(node) {
        None => 0.0,
        Some(i) => x[i],
    }
}

/// Number of unknowns for a circuit.
pub fn unknown_count(circuit: &Circuit) -> usize {
    circuit.node_count() - 1 + circuit.branch_count()
}

/// Receives Jacobian stamps during assembly. The *sequence* of `add`
/// calls is a pure function of the circuit topology — every stamp site
/// fires unconditionally for a given element/terminal structure — so
/// the same assembly walk can record the structure (value-free), stamp
/// a dense matrix, keep one block's entries, or discard them all, and
/// these stay aligned by construction.
pub(crate) trait JacobianSink {
    /// Accumulates `v` at `(row, col)`.
    fn add(&mut self, row: usize, col: usize, v: f64);
}

/// Dense sink: stamps straight into the matrix.
impl JacobianSink for Matrix {
    fn add(&mut self, row: usize, col: usize, v: f64) {
        self[(row, col)] += v;
    }
}

/// Assembles the Jacobian and residual of the MNA equations at guess `x`.
///
/// # Panics
///
/// Panics when `x.len() != unknown_count(circuit)`.
pub fn assemble(circuit: &Circuit, x: &[f64]) -> NewtonSystem {
    let n = unknown_count(circuit);
    let mut j = Matrix::zeros(n, n);
    let mut f = vec![0.0; n];
    assemble_into(circuit, x, &mut j, &mut f);
    NewtonSystem {
        jacobian: j,
        residual: f,
    }
}

/// Receives residual contributions during assembly. A plain residual
/// vector accumulates them in place; a block solve keeps only its own
/// rows, and the block planner records which rows an element touches.
pub(crate) trait ResidualSink {
    /// Accumulates `v` into equation `row`.
    fn add(&mut self, row: usize, v: f64);
}

impl ResidualSink for [f64] {
    fn add(&mut self, row: usize, v: f64) {
        self[row] += v;
    }
}

/// Assembly walk shared by every sink: stamps the Jacobian through
/// `j` and accumulates the residual into `f` (which must be zeroed by
/// the caller).
///
/// # Panics
///
/// Panics when `x.len()` or `f.len()` differ from
/// `unknown_count(circuit)`.
pub(crate) fn assemble_into<S: JacobianSink>(
    circuit: &Circuit,
    x: &[f64],
    j: &mut S,
    f: &mut [f64],
) {
    let n_nodes = circuit.node_count() - 1;
    let n = unknown_count(circuit);
    assert_eq!(x.len(), n, "assemble: guess length mismatch");
    assert_eq!(f.len(), n, "assemble: residual length mismatch");

    for i in 0..n_nodes {
        stamp_gmin(i, x, j, f);
    }
    for (element, branch_row) in stamped_elements(circuit) {
        stamp_element(element, branch_row, x, j, f);
    }
}

/// The circuit's elements in stamp order, each with the unknown of its
/// branch current: voltage sources and VCVS take the rows after the
/// node voltages in element order. Other elements carry the row the
/// next branch element would take and ignore it.
pub(crate) fn stamped_elements(circuit: &Circuit) -> impl Iterator<Item = (&Element, usize)> {
    let mut branch_row = circuit.node_count() - 1;
    circuit.elements().iter().map(move |element| {
        let row = branch_row;
        if matches!(element, Element::VSource { .. } | Element::Vcvs { .. }) {
            branch_row += 1;
        }
        (element, row)
    })
}

/// GMIN from the node whose KCL row and voltage unknown are `node_row`
/// to ground.
pub(crate) fn stamp_gmin<S: JacobianSink, R: ResidualSink + ?Sized>(
    node_row: usize,
    x: &[f64],
    j: &mut S,
    f: &mut R,
) {
    j.add(node_row, node_row, GMIN);
    f.add(node_row, GMIN * x[node_row]);
}

/// Stamps one element's Jacobian entries and residual contributions at
/// guess `x` — the device physics of every assembly. `branch_row` is
/// the element's branch-current unknown (see [`stamped_elements`]).
pub(crate) fn stamp_element<S: JacobianSink, R: ResidualSink + ?Sized>(
    element: &Element,
    branch_row: usize,
    x: &[f64],
    j: &mut S,
    f: &mut R,
) {
    match *element {
        Element::Resistor { a, b, ohms } => {
            let g = 1.0 / ohms;
            let va = node_voltage(x, a);
            let vb = node_voltage(x, b);
            let i_ab = g * (va - vb);
            if let Some(ia) = unknown_of(a) {
                f.add(ia, i_ab);
                j.add(ia, ia, g);
                if let Some(ib) = unknown_of(b) {
                    j.add(ia, ib, -(g));
                }
            }
            if let Some(ib) = unknown_of(b) {
                f.add(ib, -i_ab);
                j.add(ib, ib, g);
                if let Some(ia) = unknown_of(a) {
                    j.add(ib, ia, -(g));
                }
            }
        }
        Element::Capacitor { .. } => {
            // Open circuit in DC; the transient engine replaces
            // capacitors with backward-Euler companion elements.
        }
        Element::ISource { plus, minus, amps } => {
            if let Some(ip) = unknown_of(plus) {
                f.add(ip, amps);
            }
            if let Some(im) = unknown_of(minus) {
                f.add(im, -amps);
            }
        }
        Element::Vcvs {
            plus,
            minus,
            ctrl_p,
            ctrl_n,
            gain,
        } => {
            let row = branch_row;
            let i_src = x[row];
            if let Some(ip) = unknown_of(plus) {
                f.add(ip, i_src);
                j.add(ip, row, 1.0);
                j.add(row, ip, 1.0);
            }
            if let Some(im) = unknown_of(minus) {
                f.add(im, -i_src);
                j.add(im, row, -(1.0));
                j.add(row, im, -(1.0));
            }
            // Branch equation: V_p − V_m − gain·(V_cp − V_cn) = 0.
            f.add(
                row,
                node_voltage(x, plus)
                    - node_voltage(x, minus)
                    - gain * (node_voltage(x, ctrl_p) - node_voltage(x, ctrl_n)),
            );
            if let Some(cp) = unknown_of(ctrl_p) {
                j.add(row, cp, -(gain));
            }
            if let Some(cn) = unknown_of(ctrl_n) {
                j.add(row, cn, gain);
            }
        }
        Element::VSource { plus, minus, volts } => {
            let row = branch_row;
            let i_src = x[row];
            // Branch current leaves the + terminal into the circuit.
            if let Some(ip) = unknown_of(plus) {
                f.add(ip, i_src);
                j.add(ip, row, 1.0);
                j.add(row, ip, 1.0);
            }
            if let Some(im) = unknown_of(minus) {
                f.add(im, -i_src);
                j.add(im, row, -(1.0));
                j.add(row, im, -(1.0));
            }
            f.add(row, node_voltage(x, plus) - node_voltage(x, minus) - volts);
        }
        Element::Egt {
            drain,
            gate,
            source,
            w,
            l,
            model,
        } => {
            let vg = node_voltage(x, gate);
            let vd = node_voltage(x, drain);
            let vs = node_voltage(x, source);
            let e = model.eval(vg, vd, vs, w, l);
            // Current I_D flows into the drain terminal and out of
            // the source terminal.
            if let Some(id_row) = unknown_of(drain) {
                f.add(id_row, e.id_amps);
                if let Some(c) = unknown_of(gate) {
                    j.add(id_row, c, e.gm_siemens);
                }
                if let Some(c) = unknown_of(drain) {
                    j.add(id_row, c, e.gd_siemens);
                }
                if let Some(c) = unknown_of(source) {
                    j.add(id_row, c, e.gs_siemens);
                }
            }
            if let Some(is_row) = unknown_of(source) {
                f.add(is_row, -e.id_amps);
                if let Some(c) = unknown_of(gate) {
                    j.add(is_row, c, -(e.gm_siemens));
                }
                if let Some(c) = unknown_of(drain) {
                    j.add(is_row, c, -(e.gd_siemens));
                }
                if let Some(c) = unknown_of(source) {
                    j.add(is_row, c, -(e.gs_siemens));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divider_assembly_is_consistent() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 1000.0);
        c.resistor(out, Circuit::GROUND, 1000.0);

        // At the true solution the residual vanishes.
        let x = vec![1.0, 0.5, -0.0005]; // v_in, v_out, i_src
        let sys = assemble(&c, &x);
        for (k, r) in sys.residual.iter().enumerate() {
            assert!(r.abs() < 1e-9, "residual[{k}] = {r}");
        }
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let vdd = c.node("vdd");
        c.vsource(vin, Circuit::GROUND, 0.6);
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 50_000.0);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);

        let x = vec![0.6, 0.4, 1.0, -1e-5, -2e-5];
        let sys = assemble(&c, &x);
        let h = 1e-7;
        for col in 0..x.len() {
            let mut xp = x.clone();
            xp[col] += h;
            let mut xm = x.clone();
            xm[col] -= h;
            let fp = assemble(&c, &xp).residual;
            let fm = assemble(&c, &xm).residual;
            for row in 0..x.len() {
                let num = (fp[row] - fm[row]) / (2.0 * h);
                let ana = sys.jacobian[(row, col)];
                assert!(
                    (num - ana).abs() < 1e-5 * ana.abs().max(1e-6),
                    "J[{row}][{col}]: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn unknown_count_includes_sources() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.vsource(b, Circuit::GROUND, 2.0);
        c.resistor(a, b, 10.0);
        assert_eq!(unknown_count(&c), 4);
    }
}
