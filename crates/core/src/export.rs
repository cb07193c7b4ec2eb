//! Transistor-level netlist export of trained printed networks.
//!
//! This is the "compiler backend" a downstream user needs: a trained
//! [`PrintedNetwork`] is lowered to the complete analog circuit that
//! would be inkjet-printed — crossbar resistors (one per surviving
//! conductance, `R = 1/(|θ|·G_MAX)`), one shared negation inverter per
//! input line that feeds any negative weight, and one activation
//! circuit per active output, all between the ±1 V rails.
//!
//! Two consumers:
//!
//! * [`ExportedNetwork::to_spice_string`] — a SPICE-flavoured text
//!   netlist for external tools and for the lab notebook.
//! * [`ExportedNetwork::simulate`] — full-circuit DC inference with the
//!   in-repo solver, used to **cross-validate the differentiable
//!   abstraction against the transistor-level circuit** (see the
//!   `model_fidelity` integration test and experiment). The abstract
//!   model treats stage outputs as ideal voltage sources; the exported
//!   circuit buffers them to match, but keeps every other loading
//!   effect, so the agreement between the two quantifies the remaining
//!   abstraction gap.

use crate::count::CountConfig;
use crate::crossbar::G_MAX;
use crate::network::PrintedNetwork;
use crate::CoreError;
use pnc_linalg::{argmax, Matrix};
use pnc_spice::af::{attach_negation, VDD, VSS};
use pnc_spice::dc::{solve_dc_planned, SolverConfig};
use pnc_spice::netlist::{Circuit, Element};
use pnc_spice::power::total_power;
use pnc_spice::variation::VariationModel;
use pnc_spice::{BlockPlan, NodeId, OperatingPoint, SpiceError};
use pnc_telemetry::Telemetry;

/// A lowered, printable circuit with handles for simulation.
#[derive(Debug, Clone)]
pub struct ExportedNetwork {
    circuit: Circuit,
    /// Block solve order of the circuit's topology, which every row
    /// drive and every perturbed print shares.
    plan: BlockPlan,
    input_sources: Vec<usize>,
    output_nodes: Vec<NodeId>,
    stats: ExportStats,
}

/// Device statistics of an exported circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// Crossbar resistors printed.
    pub crossbar_resistors: usize,
    /// Negation inverters printed.
    pub negation_circuits: usize,
    /// Activation circuits printed.
    pub activation_circuits: usize,
    /// Total transistors in the netlist.
    pub transistors: usize,
    /// Total resistors in the netlist.
    pub resistors: usize,
}

impl ExportedNetwork {
    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Export statistics.
    pub fn stats(&self) -> ExportStats {
        self.stats
    }

    /// Output node per class.
    pub fn output_nodes(&self) -> &[NodeId] {
        &self.output_nodes
    }

    /// Runs full-circuit DC inference for one feature vector, returning
    /// the output-node voltages (hardware argmax = predicted class).
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures.
    ///
    /// # Panics
    ///
    /// Panics when `features.len()` differs from the network input
    /// count.
    pub fn simulate(&self, features: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let op = self.solve_row(&mut self.circuit.clone(), features)?;
        Ok(self.output_voltages(&op))
    }

    /// Batch inference: argmax class per row of `x`.
    ///
    /// # Errors
    ///
    /// Propagates the first DC failure.
    ///
    /// # Panics
    ///
    /// Panics when `x.cols()` differs from the network input count.
    pub fn classify(&self, x: &Matrix) -> Result<Vec<usize>, SpiceError> {
        let mut circuit = self.circuit.clone();
        (0..x.rows())
            .map(|i| {
                let op = self.solve_row(&mut circuit, x.row_slice(i))?;
                Ok(argmax(&self.output_voltages(&op)))
            })
            .collect()
    }

    /// The one row solve: drives `circuit`'s input sources with
    /// `features` and solves its DC point with the block plan, every
    /// block started from zero (cold when the plan has no guess).
    /// `circuit` is this network's circuit or a perturbed print of it;
    /// every row overwrites every input source, so one copy serves any
    /// number of rows.
    fn solve_row(
        &self,
        circuit: &mut Circuit,
        features: &[f64],
    ) -> Result<OperatingPoint, SpiceError> {
        assert_eq!(
            features.len(),
            self.input_sources.len(),
            "expected {} features",
            self.input_sources.len()
        );
        for (&src, &v) in self.input_sources.iter().zip(features) {
            circuit.set_vsource(src, v)?;
        }
        let cfg = SolverConfig {
            max_iterations: 300,
            ..SolverConfig::default()
        };
        solve_dc_planned(circuit, &self.plan, &cfg, None, &Telemetry::disabled())
    }

    /// Output-node voltages of a solved row, one per class.
    fn output_voltages(&self, op: &OperatingPoint) -> Vec<f64> {
        self.output_nodes.iter().map(|&n| op.voltage(n)).collect()
    }

    /// Monte Carlo robustness under printing variation: fabricates
    /// `prints` perturbed copies of the circuit and evaluates each on
    /// `(x, labels)`. Returns per-print accuracies and mean powers.
    ///
    /// Print `p` perturbs from its own RNG seeded with
    /// `derive_seed(seed, p)` rather than one shared stream advanced in
    /// loop order, so the prints are independent trials and the report
    /// is bit-identical for any executor thread count (trials fan out
    /// over [`pnc_parallel::ExecutorHandle`]).
    ///
    /// Prints whose DC analysis fails to converge on any sample are
    /// reported with `NaN` accuracy (rare; counted by the caller as
    /// yield loss).
    ///
    /// # Panics
    ///
    /// Panics when `labels.len() != x.rows()`, or when `x.cols()`
    /// differs from the network input count.
    pub fn monte_carlo(
        &self,
        x: &Matrix,
        labels: &[usize],
        variation: &VariationModel,
        prints: usize,
        seed: u64,
    ) -> MonteCarloReport {
        assert_eq!(x.rows(), labels.len(), "monte_carlo: label count");
        let trials: Vec<usize> = (0..prints).collect();
        let per_print: Vec<(f64, f64)> =
            pnc_parallel::ExecutorHandle::get().par_map(&trials, |_, &p| {
                let mut rng = pnc_linalg::rng::seeded(pnc_parallel::derive_seed(seed, p as u64));
                let mut varied = variation.sample(&self.circuit, &mut rng);
                let mut correct = 0usize;
                let mut power_acc = 0.0;
                for (i, &label) in labels.iter().enumerate() {
                    let Ok(op) = self.solve_row(&mut varied, x.row_slice(i)) else {
                        return (f64::NAN, f64::NAN);
                    };
                    correct += usize::from(argmax(&self.output_voltages(&op)) == label);
                    power_acc += total_power(&varied, &op);
                }
                (
                    correct as f64 / x.rows() as f64,
                    power_acc / x.rows() as f64,
                )
            });
        MonteCarloReport {
            accuracies: per_print.iter().map(|&(a, _)| a).collect(),
            powers_watts: per_print.iter().map(|&(_, p)| p).collect(),
        }
    }

    /// Renders a SPICE-flavoured text netlist. nEGTs are emitted as
    /// `M<idx> drain gate source egt_n W=<w> L=<l>` cards referencing
    /// an `egt_n` model the header documents.
    pub fn to_spice_string(&self) -> String {
        let mut s = String::new();
        s.push_str("* pNC netlist exported by the pnc workspace\n");
        s.push_str("* supplies: VDD=+1V, VSS=-1V; model egt_n: EKV-style printed nEGT\n");
        s.push_str(&format!(
            "* devices: {} R, {} EGT ({} crossbar R, {} negation cells, {} activation circuits)\n",
            self.stats.resistors,
            self.stats.transistors,
            self.stats.crossbar_resistors,
            self.stats.negation_circuits,
            self.stats.activation_circuits,
        ));
        let name = |n: NodeId| -> String {
            if n == Circuit::GROUND {
                "0".to_string()
            } else {
                format!("n{n}_{}", self.circuit.node_name(n))
            }
        };
        let mut r_idx = 0usize;
        let mut v_idx = 0usize;
        let mut m_idx = 0usize;
        for e in self.circuit.elements() {
            match *e {
                Element::Resistor { a, b, ohms } => {
                    r_idx += 1;
                    s.push_str(&format!("R{r_idx} {} {} {ohms:.1}\n", name(a), name(b)));
                }
                Element::VSource { plus, minus, volts } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "V{v_idx} {} {} DC {volts:.6}\n",
                        name(plus),
                        name(minus)
                    ));
                }
                Element::Capacitor { a, b, farads } => {
                    r_idx += 1;
                    s.push_str(&format!("C{r_idx} {} {} {farads:.3e}\n", name(a), name(b)));
                }
                Element::ISource { plus, minus, amps } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "I{v_idx} {} {} DC {amps:.6e}\n",
                        name(plus),
                        name(minus)
                    ));
                }
                Element::Vcvs {
                    plus,
                    minus,
                    ctrl_p,
                    ctrl_n,
                    gain,
                } => {
                    v_idx += 1;
                    s.push_str(&format!(
                        "E{v_idx} {} {} {} {} {gain:.6}\n",
                        name(plus),
                        name(minus),
                        name(ctrl_p),
                        name(ctrl_n)
                    ));
                }
                Element::Egt {
                    drain,
                    gate,
                    source,
                    w,
                    l,
                    ..
                } => {
                    m_idx += 1;
                    s.push_str(&format!(
                        "M{m_idx} {} {} {} egt_n W={w:.3e} L={l:.3e}\n",
                        name(drain),
                        name(gate),
                        name(source)
                    ));
                }
            }
        }
        s.push_str(".end\n");
        s
    }
}

/// Monte Carlo variation-analysis results.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Classification accuracy of each simulated print (`NaN` = the
    /// print failed to simulate).
    pub accuracies: Vec<f64>,
    /// Mean power of each print over the evaluation inputs, watts.
    pub powers_watts: Vec<f64>,
}

impl MonteCarloReport {
    /// Mean accuracy over successfully simulated prints.
    pub fn mean_accuracy(&self) -> f64 {
        let ok: Vec<f64> = self
            .accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }

    /// Standard deviation of accuracy over successful prints.
    pub fn std_accuracy(&self) -> f64 {
        let ok: Vec<f64> = self
            .accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .collect();
        let m = ok.iter().sum::<f64>() / ok.len().max(1) as f64;
        (ok.iter().map(|a| (a - m) * (a - m)).sum::<f64>() / ok.len().max(1) as f64).sqrt()
    }

    /// Worst-print accuracy.
    pub fn min_accuracy(&self) -> f64 {
        self.accuracies
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Fraction of prints that simulated successfully.
    pub fn yield_rate(&self) -> f64 {
        let ok = self.accuracies.iter().filter(|a| a.is_finite()).count();
        ok as f64 / self.accuracies.len().max(1) as f64
    }

    /// Mean power across successful prints, watts.
    pub fn mean_power(&self) -> f64 {
        let ok: Vec<f64> = self
            .powers_watts
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }
}

/// Lowers a trained network to its printable circuit.
///
/// Conductances with `|θ| ≤ cfg.count.threshold` (or masked entries)
/// are not printed; input lines whose weights are all positive get no
/// negation inverter; output columns with no surviving conductance get
/// no activation circuit (their node floats at 0 via a ground tie).
///
/// Every negation output, and every activation output that feeds
/// another crossbar, drives the next stage through an ideal unity-gain
/// buffer. The differentiable training abstraction treats stage outputs
/// as ideal voltage sources; the buffers make the lowered circuit match
/// that assumption.
///
/// # Errors
///
/// Returns [`CoreError::InvalidTopology`] if the network has no layers
/// (cannot happen through the public constructor).
pub fn export_network(net: &PrintedNetwork) -> Result<ExportedNetwork, CoreError> {
    if net.layer_count() == 0 {
        return Err(CoreError::InvalidTopology {
            message: "network has no layers".to_string(),
        });
    }
    let cfg: CountConfig = net.config().count;
    let tau = cfg.threshold;
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vss = c.node("vss");
    c.vsource(vdd, Circuit::GROUND, VDD);
    c.vsource(vss, Circuit::GROUND, VSS);

    let mut stats = ExportStats::default();

    // Input lines driven by ideal sensor sources.
    let mut lines: Vec<NodeId> = Vec::with_capacity(net.inputs());
    let mut input_sources = Vec::with_capacity(net.inputs());
    for j in 0..net.inputs() {
        let n = c.node(&format!("in{j}"));
        input_sources.push(c.vsource(n, Circuit::GROUND, 0.0));
        lines.push(n);
    }

    for layer in 0..net.layer_count() {
        let theta = net.theta_effective(layer);
        let inputs = theta.rows() - 2;
        let outputs = theta.cols();
        debug_assert_eq!(inputs, lines.len(), "layer width chain");

        // Shared negation inverter per input line that needs one.
        let mut neg_lines: Vec<Option<NodeId>> = vec![None; inputs];
        for (j, slot) in neg_lines.iter_mut().enumerate() {
            let needs = (0..outputs).any(|n| theta[(j, n)] < -tau);
            if needs {
                let raw = attach_negation(&mut c, vdd, vss, lines[j]);
                let b = c.node("neg_buf");
                c.vcvs(b, Circuit::GROUND, raw, Circuit::GROUND, 1.0);
                *slot = Some(b);
                stats.negation_circuits += 1;
            }
        }

        let mut next_lines = Vec::with_capacity(outputs);
        for n in 0..outputs {
            let z = c.node(&format!("l{layer}z{n}"));
            let mut any = false;
            for j in 0..inputs + 2 {
                let th = theta[(j, n)];
                if th.abs() <= tau {
                    continue;
                }
                any = true;
                stats.crossbar_resistors += 1;
                let ohms = 1.0 / (th.abs() * G_MAX);
                let from = if j < inputs {
                    if th >= 0.0 {
                        lines[j]
                    } else {
                        // lint: allow(L001, reason = "lowering allocates a negation line for every input that has a negative weight")
                        neg_lines[j].expect("negation cell exists for negative weight")
                    }
                } else if j == inputs {
                    // Bias row: V_DD when positive, V_SS when negative
                    // (no inverter needed for a rail).
                    if th >= 0.0 {
                        vdd
                    } else {
                        vss
                    }
                } else {
                    // Ground row: 0 V either way.
                    Circuit::GROUND
                };
                c.resistor(from, z, ohms);
            }
            if !any {
                // Fully pruned column: tie to ground so the node is
                // well-defined (nothing downstream reads a signal).
                c.resistor(z, Circuit::GROUND, 1.0e9);
            } else {
                stats.activation_circuits += 1;
            }
            let q = net.layer_design(layer);
            let mut out = if any {
                net.activation().kind().attach(&mut c, &q, vdd, vss, z)
            } else {
                z
            };
            // Buffer activation outputs that drive another crossbar
            // (the final layer's outputs are read by an ideal sense
            // stage and need no buffer).
            if layer + 1 < net.layer_count() && any {
                let b = c.node("af_buf");
                c.vcvs(b, Circuit::GROUND, out, Circuit::GROUND, 1.0);
                out = b;
            }
            next_lines.push(out);
        }
        lines = next_lines;
    }

    for e in c.elements() {
        match e {
            Element::Resistor { .. } => stats.resistors += 1,
            Element::Egt { .. } => stats.transistors += 1,
            Element::VSource { .. }
            | Element::Vcvs { .. }
            | Element::Capacitor { .. }
            | Element::ISource { .. } => {}
        }
    }

    Ok(ExportedNetwork {
        plan: BlockPlan::new(&c),
        circuit: c,
        input_sources,
        output_nodes: lines,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{LearnableActivation, SurrogateFidelity};
    use crate::network::NetworkConfig;
    use pnc_linalg::rng as lrng;
    use pnc_spice::dc::solve_dc_with;
    use pnc_spice::AfKind;
    use pnc_surrogate::NegationModel;
    use std::sync::OnceLock;

    fn parts() -> &'static (LearnableActivation, NegationModel) {
        static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
        CELL.get_or_init(|| {
            let act = LearnableActivation::fit(
                AfKind::PTanh,
                &SurrogateFidelity::smoke(),
                &Telemetry::disabled(),
            )
            .unwrap();
            let neg = crate::activation::fit_negation_model(9).unwrap();
            (act, neg)
        })
    }

    fn net(seed: u64) -> PrintedNetwork {
        let (act, negm) = parts().clone();
        let mut rng = lrng::seeded(seed);
        PrintedNetwork::new(4, 3, NetworkConfig::default(), act, negm, &mut rng).unwrap()
    }

    #[test]
    fn export_produces_consistent_stats() {
        let network = net(41);
        let exported = export_network(&network).unwrap();
        let stats = exported.stats();
        assert!(stats.crossbar_resistors > 0);
        assert!(stats.activation_circuits > 0);
        assert!(stats.transistors > 0);
        // Device-count consistency against the abstract model.
        let report = network.power_report(&Matrix::zeros(1, 4)).unwrap();
        assert_eq!(stats.activation_circuits, report.af_circuits);
        assert_eq!(stats.negation_circuits, report.neg_circuits);
        assert_eq!(stats.crossbar_resistors, report.resistors);
    }

    #[test]
    fn spice_string_has_cards_for_every_element() {
        let exported = export_network(&net(43)).unwrap();
        let text = exported.to_spice_string();
        assert!(text.starts_with("* pNC netlist"));
        assert!(text.trim_end().ends_with(".end"));
        let r_cards = text.lines().filter(|l| l.starts_with('R')).count();
        let m_cards = text.lines().filter(|l| l.starts_with('M')).count();
        assert_eq!(r_cards, exported.stats().resistors);
        assert_eq!(m_cards, exported.stats().transistors);
    }

    #[test]
    fn full_circuit_inference_converges_and_is_bounded() {
        let exported = export_network(&net(47)).unwrap();
        let v = exported.simulate(&[0.3, -0.2, 0.5, -0.6]).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|x| x.is_finite() && x.abs() <= 1.2), "{v:?}");
    }

    #[test]
    fn abstract_and_circuit_outputs_correlate() {
        // Surrogate fit error makes the outputs differ in value, but they
        // should vary together and stay close.
        let network = net(53);
        let exported = export_network(&network).unwrap();
        let mut rng = lrng::seeded(3);
        let x = lrng::uniform_matrix(&mut rng, 12, 4, -0.7, 0.7);
        let abstract_logits = network.predict(&x).unwrap();

        let mut pairs_abs = Vec::new();
        let mut pairs_cir = Vec::new();
        for i in 0..x.rows() {
            let sim = exported.simulate(x.row_slice(i)).unwrap();
            for k in 0..3 {
                // predict() scales by logit_scale; undo for comparison.
                pairs_abs.push(abstract_logits[(i, k)] / network.config().logit_scale);
                pairs_cir.push(sim[k]);
            }
        }
        let corr = pnc_linalg::stats::pearson(&pairs_abs, &pairs_cir);
        assert!(
            corr > 0.6,
            "abstract vs circuit outputs should correlate strongly: r = {corr}"
        );
        // The residual is the stacked surrogate error (transfer +
        // negation fits) of the smoke fidelity, not stage loading: the
        // export buffers every stage output.
        let sse: f64 = pairs_abs
            .iter()
            .zip(&pairs_cir)
            .map(|(a, c)| (a - c).powi(2))
            .sum();
        let rmse = (sse / pairs_abs.len() as f64).sqrt();
        assert!(
            rmse < 0.35,
            "exported circuit should track the abstraction: rmse {rmse}"
        );
    }

    #[test]
    fn block_started_rows_classify_as_cold_started_ones() {
        // Seed 45 splits these rows between two classes.
        let exported = export_network(&net(45)).unwrap();
        let one_step = SolverConfig {
            max_iterations: 1,
            ..SolverConfig::default()
        };
        let (guess, _) = exported.plan.guess(exported.circuit(), &one_step, None);
        assert!(guess.is_none());

        let x = lrng::uniform_matrix(&mut lrng::seeded(9), 16, 4, -1.0, 1.0);
        let cfg = SolverConfig {
            max_iterations: 300,
            ..SolverConfig::default()
        };
        let mut c = exported.circuit().clone();
        let cold: Vec<usize> = (0..x.rows())
            .map(|i| {
                for (&src, &v) in exported.input_sources.iter().zip(x.row_slice(i)) {
                    c.set_vsource(src, v).unwrap();
                }
                let op = solve_dc_with(&c, &cfg, None, &Telemetry::disabled()).unwrap();
                argmax(&exported.output_voltages(&op))
            })
            .collect();
        assert!(cold.iter().any(|&k| k != cold[0]), "rows split: {cold:?}");
        assert_eq!(exported.classify(&x).unwrap(), cold);
    }

    #[test]
    fn monte_carlo_reports_spread_and_yield() {
        let network = net(61);
        let exported = export_network(&network).unwrap();
        let mut rng = lrng::seeded(9);
        let x = lrng::uniform_matrix(&mut rng, 8, 4, -0.6, 0.6);
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let report = exported.monte_carlo(&x, &labels, &VariationModel::default(), 10, 7);
        assert_eq!(report.accuracies.len(), 10);
        assert!(report.yield_rate() > 0.8, "yield {}", report.yield_rate());
        assert!(report.mean_accuracy() >= 0.0 && report.mean_accuracy() <= 1.0);
        assert!(report.mean_power() > 0.0);
        // Looser process → at least as much accuracy spread.
        let loose = exported.monte_carlo(&x, &labels, &VariationModel::loose(), 10, 7);
        assert!(loose.std_accuracy() + 1e-9 >= report.std_accuracy() * 0.2);
    }

    #[test]
    fn pruned_network_exports_fewer_devices() {
        let mut network = net(59);
        let full = export_network(&network).unwrap().stats();
        let mut values = network.param_values();
        for v in values[0].as_mut_slice().iter_mut().take(8) {
            *v *= 1e-4;
        }
        network.set_param_values(&values);
        network.build_masks();
        let pruned = export_network(&network).unwrap().stats();
        assert!(
            pruned.crossbar_resistors < full.crossbar_resistors,
            "{pruned:?} vs {full:?}"
        );
    }
}
