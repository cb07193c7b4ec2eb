//! Printed activation circuits and the negation (inverter) circuit.
//!
//! The paper treats activation functions as *learnable hardware*: each
//! printed AF circuit has a design vector `q^AF = [R, W, L]` (resistor
//! values, transistor widths, transistor lengths — Sec. III-A) whose
//! values shape both the transfer function and the power draw. This
//! module provides, for each of the four AFs of Fig. 3(c)–(f):
//!
//! * a netlist builder ([`AfKind::build`]) over the nEGT compact model,
//! * the feasible design space `ℚ^AF` ([`AfKind::bounds`]),
//! * reference transfer-curve and power evaluation via one DC sweep per
//!   design ([`sweep_design`]; [`transfer_curve`] and [`mean_power`]
//!   project it) — the ground truth that the surrogate MLPs in
//!   `pnc-surrogate` are trained against.
//!
//! Signal convention: the pNC operates on bipolar signals in `[−1, 1]`
//! with supplies `V_DD = +1 V`, `V_SS = −1 V` (nEGTs allow sub-1V
//! rails). The negation circuit approximates `neg(V) ≈ −V` around 0.
//!
//! Topologies (chosen to reproduce the qualitative power signatures the
//! paper reports in Fig. 3 bottom):
//!
//! * **p-ReLU** — source follower + grounded load resistor: output ≈ 0
//!   below threshold, rises smoothly above it; power grows smoothly and
//!   unboundedly with input ("reflecting its unbounded nature").
//! * **p-Clipped_ReLU** — p-ReLU plus a diode-connected clamp EGT into a
//!   sink resistor: power spikes as the clamp starts conducting near the
//!   clip threshold, then the output flattens ("stabilizes due to the
//!   clipping effect").
//! * **p-sigmoid** — two cascaded, source-degenerated common-source
//!   stages between the rails: a moderate-gain S-shaped transfer; at
//!   negative inputs the (hotter-sized) second stage is fully on, so
//!   the circuit draws markedly more current ("higher current demands
//!   at negative voltages").
//! * **p-tanh** — pseudo-differential pair with shared tail resistor,
//!   output taken at the reference-side drain: symmetric tanh-like
//!   transfer centred at 0.

use crate::dc::{dc_sweep, linspace, SweepResult};
use crate::netlist::{Circuit, NodeId};
use crate::power::total_power;
use crate::SpiceError;
use pnc_telemetry::Telemetry;

/// Positive supply rail (volts).
pub const VDD: f64 = 1.0;
/// Negative supply rail (volts).
pub const VSS: f64 = -1.0;

/// The four printed activation-circuit families from Fig. 3(c)–(f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AfKind {
    /// Unbounded rectifier (source follower). 1 EGT + 1 R.
    PRelu,
    /// Rectifier with output clamp. 2 EGT + 2 R.
    PClippedRelu,
    /// Cascaded degenerated-inverter sigmoid. 2 EGT + 4 R.
    PSigmoid,
    /// Pseudo-differential tanh. 2 EGT + 3 R (shared drain value).
    PTanh,
}

impl AfKind {
    /// All four kinds, in the paper's presentation order.
    pub const ALL: [AfKind; 4] = [
        AfKind::PRelu,
        AfKind::PClippedRelu,
        AfKind::PSigmoid,
        AfKind::PTanh,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AfKind::PRelu => "p-ReLU",
            AfKind::PClippedRelu => "p-Clipped_ReLU",
            AfKind::PSigmoid => "p-sigmoid",
            AfKind::PTanh => "p-tanh",
        }
    }

    /// Dimensionality of the design vector `q`.
    pub fn dim(self) -> usize {
        match self {
            AfKind::PRelu => 3,
            AfKind::PClippedRelu | AfKind::PSigmoid | AfKind::PTanh => 6,
        }
    }

    /// Names of the design parameters, in `q` order.
    pub fn param_names(self) -> &'static [&'static str] {
        match self {
            AfKind::PRelu => &["R_load", "W1", "L1"],
            AfKind::PClippedRelu => &["R_load", "R_supply", "W1", "L1", "W2", "L2"],
            AfKind::PSigmoid => &["R1", "R2", "W1", "L1", "W2", "L2"],
            AfKind::PTanh => &["R_drain", "R_tail", "W_A", "L_A", "W_B", "L_B"],
        }
    }

    /// Feasible design space `ℚ^AF`: `(lo, hi)` per parameter, matching
    /// printable component ranges (resistors in ohms, geometry in
    /// meters).
    pub fn bounds(self) -> Vec<(f64, f64)> {
        const R: (f64, f64) = (2.0e4, 1.0e6);
        const W: (f64, f64) = (2.0e-5, 5.0e-4);
        const L: (f64, f64) = (1.0e-5, 1.0e-4);
        match self {
            AfKind::PRelu => vec![R, W, L],
            AfKind::PClippedRelu | AfKind::PSigmoid | AfKind::PTanh => {
                vec![R, R, W, L, W, L]
            }
        }
    }

    /// Mid-range default design (geometric midpoint of each bound).
    pub fn default_design(self) -> AfDesign {
        let q = self
            .bounds()
            .iter()
            .map(|&(lo, hi)| (lo * hi).sqrt())
            .collect();
        AfDesign { kind: self, q }
    }

    /// Builds the AF netlist driven by a swept input source.
    ///
    /// Returns the circuit plus handles:
    /// `(circuit, input_source_index, output_node)`.
    ///
    /// # Panics
    ///
    /// Panics when `design.kind() != self` or the design vector has the
    /// wrong length (enforced by [`AfDesign::new`]).
    pub fn build(self, design: &AfDesign) -> (Circuit, usize, NodeId) {
        assert_eq!(design.kind, self, "design kind mismatch");
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        let vin = c.node("in");
        c.vsource(vdd, Circuit::GROUND, VDD);
        c.vsource(vss, Circuit::GROUND, VSS);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        let out = self.attach(&mut c, design.q(), vdd, vss, vin);
        (c, src, out)
    }

    /// Attaches this activation circuit to an existing netlist, driven
    /// by `vin` and supplied from `vdd`/`vss`. Returns the output node.
    /// Used by the network netlist exporter.
    ///
    /// # Panics
    ///
    /// Panics when `q.len() != self.dim()`.
    pub fn attach(
        self,
        c: &mut Circuit,
        q: &[f64],
        vdd: NodeId,
        vss: NodeId,
        vin: NodeId,
    ) -> NodeId {
        assert_eq!(q.len(), self.dim(), "attach: design dimension mismatch");
        match self {
            AfKind::PRelu => {
                let out = c.node("out");
                c.egt(vdd, vin, out, q[1], q[2]);
                c.resistor(out, Circuit::GROUND, q[0]);
                out
            }
            AfKind::PClippedRelu => {
                let out = c.node("out");
                let mid = c.node("mid");
                // Supply sag: the follower draws its drain current
                // through R_supply, so V_mid collapses as the output
                // rises; in triode the output clips near
                // V_DD·R_load/(R_load + R_supply) independent of input.
                c.resistor(vdd, mid, q[1]);
                c.egt(mid, vin, out, q[2], q[3]);
                c.resistor(out, Circuit::GROUND, q[0]);
                // Diode-connected clamp adds a hard ceiling ≈ V_th.
                c.egt(out, out, Circuit::GROUND, q[4], q[5]);
                out
            }
            AfKind::PSigmoid => {
                // Two source-degenerated common-source stages. The
                // degeneration (30 % of each stage's resistance budget)
                // sets a moderate gain ≈ (load/deg)² instead of the
                // near-step response of undegenerated inverters, and the
                // second stage is sized hotter (smaller total R), which
                // produces the higher current draw at negative inputs
                // the paper reports for p-sigmoid.
                let mid = c.node("mid");
                let out = c.node("out");
                let s1 = c.node("deg1");
                let s2 = c.node("deg2");
                c.resistor(vdd, mid, 1.5 * q[0]);
                c.resistor(s1, vss, 0.6 * q[0]);
                c.egt(mid, vin, s1, q[2], q[3]);
                c.resistor(vdd, out, 0.5 * q[1]);
                c.resistor(s2, vss, 0.2 * q[1]);
                c.egt(out, mid, s2, q[4], q[5]);
                out
            }
            AfKind::PTanh => {
                let da = c.node("drain_a");
                let db = c.node("drain_b");
                let tail = c.node("tail");
                c.resistor(vdd, da, q[0]);
                c.resistor(vdd, db, q[0]);
                c.egt(da, vin, tail, q[2], q[3]);
                // Reference side: gate at signal zero (ground).
                c.egt(db, Circuit::GROUND, tail, q[4], q[5]);
                c.resistor(tail, vss, q[1]);
                db
            }
        }
    }
}

/// A concrete design point `q` for one activation kind.
#[derive(Debug, Clone, PartialEq)]
pub struct AfDesign {
    kind: AfKind,
    q: Vec<f64>,
}

impl AfDesign {
    /// Wraps a design vector, validating its length against the kind's
    /// dimensionality and its entries against the feasible bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] when the length or any
    /// bound is violated.
    pub fn new(kind: AfKind, q: Vec<f64>) -> Result<Self, SpiceError> {
        if q.len() != kind.dim() {
            return Err(SpiceError::InvalidParameter {
                message: format!(
                    "{} expects {} design parameters, got {}",
                    kind.name(),
                    kind.dim(),
                    q.len()
                ),
            });
        }
        for (i, (&v, &(lo, hi))) in q.iter().zip(kind.bounds().iter()).enumerate() {
            if !(lo..=hi).contains(&v) {
                return Err(SpiceError::InvalidParameter {
                    message: format!(
                        "{} parameter {} = {v:.3e} outside [{lo:.3e}, {hi:.3e}]",
                        kind.name(),
                        kind.param_names()[i]
                    ),
                });
            }
        }
        Ok(AfDesign { kind, q })
    }

    /// The activation kind this design belongs to.
    pub fn kind(&self) -> AfKind {
        self.kind
    }

    /// The raw design vector.
    pub fn q(&self) -> &[f64] {
        &self.q
    }
}

/// Standard input grid used for transfer/power characterization.
pub fn input_grid(points: usize) -> Vec<f64> {
    linspace(VSS, VDD, points)
}

/// One DC sweep of an AF design over an input grid — the single
/// simulation behind its transfer curve, its power curve and the
/// per-point solved states that warm-start nearby designs.
#[derive(Debug)]
pub struct DesignSweep {
    circuit: Circuit,
    source: usize,
    output: NodeId,
    sweep: SweepResult,
}

impl DesignSweep {
    /// Output voltage at each grid input: the transfer curve
    /// `V_out(V_in)`.
    pub fn transfer(&self) -> Vec<f64> {
        self.sweep.node_curve(self.output)
    }

    /// Power drawn at each grid input (watts). Only dissipation in the
    /// AF itself is counted (the input source is ideal).
    ///
    /// # Errors
    ///
    /// Propagates element errors from re-applying the swept input.
    pub fn power(&self) -> Result<Vec<f64>, SpiceError> {
        let mut swept = self.circuit.clone();
        let mut powers = Vec::with_capacity(self.sweep.points.len());
        for (op, &v) in self.sweep.points.iter().zip(&self.sweep.inputs) {
            swept.set_vsource(self.source, v)?;
            powers.push(total_power(&swept, op));
        }
        Ok(powers)
    }

    /// Mean of [`DesignSweep::power`] over the grid.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DesignSweep::power`].
    pub fn mean_power(&self) -> Result<f64, SpiceError> {
        let p = self.power()?;
        Ok(p.iter().sum::<f64>() / p.len() as f64)
    }

    /// The solved state of every grid point, in grid order — the
    /// `donor` a sweep of a nearby design warm-starts from.
    pub fn states(&self) -> Vec<Vec<f64>> {
        self.sweep.points.iter().map(|op| op.state()).collect()
    }
}

/// Sweeps the input of an AF design over `inputs`, warm-starting from
/// `donor` (the solved states of the same grid on a nearby design)
/// when given — see [`dc_sweep`]. With an *enabled*
/// [`pnc_telemetry::Profiler`] on `tel` each grid solve records a
/// `dc_solve` span.
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn sweep_design(
    design: &AfDesign,
    inputs: &[f64],
    donor: Option<&[Vec<f64>]>,
    tel: &Telemetry,
) -> Result<DesignSweep, SpiceError> {
    let (circuit, source, output) = design.kind.build(design);
    let sweep = dc_sweep(&circuit, source, inputs, donor, tel)?;
    Ok(DesignSweep {
        circuit,
        source,
        output,
        sweep,
    })
}

/// Simulated transfer curve `V_out(V_in)` of an AF design over `inputs`.
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn transfer_curve(design: &AfDesign, inputs: &[f64]) -> Result<Vec<f64>, SpiceError> {
    Ok(sweep_design(design, inputs, None, &Telemetry::disabled())?.transfer())
}

/// Simulated power curve `P(V_in)` (watts) of an AF design over
/// `inputs` — see [`DesignSweep::power`].
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn power_curve(design: &AfDesign, inputs: &[f64]) -> Result<Vec<f64>, SpiceError> {
    sweep_design(design, inputs, None, &Telemetry::disabled())?.power()
}

/// Mean power over the standard input grid — the scalar target the
/// paper's surrogate models regress (`q^AF → 𝒫^AF`).
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn mean_power(design: &AfDesign, grid_points: usize) -> Result<f64, SpiceError> {
    sweep_design(
        design,
        &input_grid(grid_points),
        None,
        &Telemetry::disabled(),
    )?
    .mean_power()
}

/// Builds the standard-cell negation (inverter) circuit used for
/// negative weights: common-source nEGT between the rails with a
/// resistive pull-up and source degeneration. The degeneration resistor
/// linearizes the transfer (gain ≈ −R_pull/R_deg near the crossing) and
/// shifts the switching threshold toward 0 V so that `neg(V) ≈ −V` in
/// the mid range.
///
/// Returns `(circuit, input_source_index, output_node)`.
pub fn negation_circuit() -> (Circuit, usize, NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    let vin = c.node("in");
    c.vsource(vdd, Circuit::GROUND, VDD);
    c.vsource(vss, Circuit::GROUND, VSS);
    let src = c.vsource(vin, Circuit::GROUND, 0.0);
    let out = attach_negation(&mut c, vdd, vss, vin);
    (c, src, out)
}

/// Attaches the standard-cell negation inverter to an existing netlist.
/// Returns its output node. Used by the network netlist exporter.
pub fn attach_negation(c: &mut Circuit, vdd: NodeId, vss: NodeId, vin: NodeId) -> NodeId {
    let out = c.node("neg_out");
    let deg = c.node("neg_deg");
    c.resistor(vdd, out, 150_000.0);
    c.egt(out, vin, deg, 2.4e-4, 2.0e-5);
    c.resistor(deg, vss, 90_000.0);
    out
}

/// Simulated transfer curve of the negation circuit.
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn negation_transfer(inputs: &[f64]) -> Result<Vec<f64>, SpiceError> {
    let (c, src, out) = negation_circuit();
    let sweep = dc_sweep(&c, src, inputs, None, &Telemetry::disabled())?;
    Ok(sweep.node_curve(out))
}

/// Mean power of the negation circuit over the standard grid (watts).
///
/// # Errors
///
/// Propagates DC convergence errors.
pub fn negation_mean_power(grid_points: usize) -> Result<f64, SpiceError> {
    let (c, src, _) = negation_circuit();
    let inputs = input_grid(grid_points);
    let mut swept = c.clone();
    let mut total = 0.0;
    for &v in &inputs {
        swept.set_vsource(src, v)?;
        let op = crate::dc::solve_dc(&swept)?;
        total += total_power(&swept, &op);
    }
    Ok(total / inputs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<f64> {
        input_grid(21)
    }

    #[test]
    fn all_kinds_build_and_converge() {
        for kind in AfKind::ALL {
            let d = kind.default_design();
            let t = transfer_curve(&d, &grid()).unwrap_or_else(|e| {
                panic!("{} failed to converge: {e}", kind.name());
            });
            assert_eq!(t.len(), 21);
            assert!(
                t.iter().all(|v| v.is_finite() && (-1.2..=1.2).contains(v)),
                "{}: transfer out of rails: {t:?}",
                kind.name()
            );
        }
    }

    #[test]
    fn design_validation() {
        assert!(AfDesign::new(AfKind::PRelu, vec![1.0]).is_err());
        assert!(AfDesign::new(AfKind::PRelu, vec![1e5, 1e-4, 2e-5]).is_ok());
        // Resistance below the printable minimum.
        assert!(AfDesign::new(AfKind::PRelu, vec![1.0, 1e-4, 2e-5]).is_err());
    }

    #[test]
    fn prelu_is_rectifying_and_monotone() {
        let d = AfKind::PRelu.default_design();
        let t = transfer_curve(&d, &grid()).unwrap();
        // Flat ≈ 0 for strongly negative inputs.
        assert!(t[0].abs() < 0.05, "left tail {}", t[0]);
        // Clearly positive for +1.
        assert!(
            *t.last().unwrap() > 0.2,
            "right value {}",
            t.last().unwrap()
        );
        for w in t.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "p-ReLU must be monotone: {t:?}");
        }
    }

    #[test]
    fn clipped_relu_flattens_at_the_top() {
        let d = AfKind::PClippedRelu.default_design();
        let inputs = linspace(-1.0, 1.0, 41);
        let t = transfer_curve(&d, &inputs).unwrap();
        // Slope in the last quarter is much smaller than the max slope.
        let slopes: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
        let max_slope = slopes.iter().cloned().fold(0.0f64, f64::max);
        let tail_slope = slopes[slopes.len() - 5..]
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        assert!(
            tail_slope < 0.5 * max_slope,
            "no clipping: tail {tail_slope} vs max {max_slope}"
        );
        assert!(t[0].abs() < 0.05, "left tail {}", t[0]);
    }

    #[test]
    fn sigmoid_is_s_shaped() {
        let d = AfKind::PSigmoid.default_design();
        let inputs = linspace(-1.0, 1.0, 41);
        let t = transfer_curve(&d, &inputs).unwrap();
        // Rising overall with saturation on both ends.
        assert!(*t.last().unwrap() - t[0] > 0.5, "swing too small: {t:?}");
        let slopes: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
        let max_slope = slopes.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(slopes[0] < 0.3 * max_slope, "left end should be flat-ish");
        assert!(
            slopes[slopes.len() - 1] < 0.3 * max_slope,
            "right end should be flat-ish"
        );
    }

    #[test]
    fn tanh_is_centred_and_symmetricish() {
        let d = AfKind::PTanh.default_design();
        let inputs = linspace(-1.0, 1.0, 41);
        let t = transfer_curve(&d, &inputs).unwrap();
        assert!(*t.last().unwrap() > t[0], "must rise");
        // Steepest around 0 (within a few grid cells of centre).
        let slopes: Vec<f64> = t.windows(2).map(|w| w[1] - w[0]).collect();
        let arg = slopes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (12..=28).contains(&arg),
            "steepest at index {arg}, expected near centre (20)"
        );
    }

    #[test]
    fn power_curves_match_paper_signatures() {
        // p-ReLU: smooth increase, highest at +1.
        let p = power_curve(&AfKind::PRelu.default_design(), &grid()).unwrap();
        assert!(p.iter().all(|&x| x >= 0.0));
        let arg_max = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(
            arg_max,
            p.len() - 1,
            "p-ReLU power should peak at +1: {p:?}"
        );

        // p-sigmoid: asymmetric — more power at negative inputs.
        let p = power_curve(&AfKind::PSigmoid.default_design(), &grid()).unwrap();
        let left: f64 = p[..5].iter().sum();
        let right: f64 = p[p.len() - 5..].iter().sum();
        assert!(
            left > right,
            "p-sigmoid should burn more at negative inputs: {left} vs {right}"
        );
    }

    #[test]
    fn mean_power_is_positive_and_sane() {
        for kind in AfKind::ALL {
            let p = mean_power(&kind.default_design(), 11).unwrap();
            // Physically plausible printed-AF power: 0.1 µW .. 1 mW.
            assert!(
                p > 1e-7 && p < 1e-3,
                "{}: mean power {p} W outside plausible range",
                kind.name()
            );
        }
    }

    #[test]
    fn negation_inverts_around_zero() {
        let inputs = linspace(-0.8, 0.8, 17);
        let t = negation_transfer(&inputs).unwrap();
        // Falling transfer.
        for w in t.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "negation must be monotone falling");
        }
        // Output swings from positive to negative as input crosses 0.
        assert!(t[0] > 0.3, "neg(-0.8) should be clearly positive: {}", t[0]);
        assert!(
            *t.last().unwrap() < -0.2,
            "neg(0.8) should be clearly negative: {}",
            t.last().unwrap()
        );
    }

    #[test]
    fn negation_power_is_positive() {
        let p = negation_mean_power(7).unwrap();
        assert!(p > 0.0 && p < 1e-3, "negation power {p}");
    }

    #[test]
    fn bounds_and_names_are_consistent() {
        for kind in AfKind::ALL {
            assert_eq!(kind.bounds().len(), kind.dim());
            assert_eq!(kind.param_names().len(), kind.dim());
            let d = kind.default_design();
            assert_eq!(d.q().len(), kind.dim());
            assert_eq!(d.kind(), kind);
            // Default design is feasible.
            assert!(AfDesign::new(kind, d.q().to_vec()).is_ok());
        }
    }

    #[test]
    fn power_depends_on_design() {
        // Larger W should change (typically raise) power for p-ReLU.
        let kind = AfKind::PRelu;
        let b = kind.bounds();
        let small = AfDesign::new(kind, vec![b[0].1, b[1].0, b[2].1]).unwrap();
        let large = AfDesign::new(kind, vec![b[0].0, b[1].1, b[2].0]).unwrap();
        let ps = mean_power(&small, 11).unwrap();
        let pl = mean_power(&large, 11).unwrap();
        assert!(
            pl > 2.0 * ps,
            "strong design should burn much more: {pl} vs {ps}"
        );
    }
}
