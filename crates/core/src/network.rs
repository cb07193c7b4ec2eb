//! Multi-layer printed neuromorphic networks.
//!
//! A [`PrintedNetwork`] stacks crossbar + activation layers with the
//! paper's fixed experimental topology (`#inputs-3-#outputs`) as the
//! default. It owns:
//!
//! * per-layer surrogate conductance matrices `Θ` (crossbar weights),
//! * per-layer unconstrained activation parameters `ρ` (mapped into the
//!   design space by [`LearnableActivation`]),
//! * optional pruning masks `m^C` / `m^N` produced by
//!   [`PrintedNetwork::build_masks`] for the paper's fine-tuning phase.
//!
//! Features enter as a [`Batch`] ([`PrintedNetwork::encode`]): the
//! first crossbar's augmented input `[x, 1, 0]` and its negation,
//! computed once, since neither depends on a parameter. Everything
//! needed by a training step happens on a caller-provided [`Tape`]
//! through [`PrintedNetwork::bind`]: parameters are registered, the
//! forward pass yields logits, the power model yields a single
//! differentiable scalar in watts, and each layer's crossbar drive is
//! recorded so [`PrintedNetwork::power_report_from`] can price the
//! same parameters without another forward. Inference
//! ([`PrintedNetwork::predict_batch`]) runs the same chain without the
//! power subgraph.

use crate::activation::{devices_per_af, LearnableActivation, DEVICES_PER_NEGATION};
use crate::count::{self, CountConfig};
use crate::crossbar::{self, CrossbarOutput};
use crate::power::{LayerPower, PowerBreakdown};
use crate::CoreError;
use pnc_autodiff::{Gradients, Tape, Var};
use pnc_linalg::{rng as lrng, Matrix};
use pnc_surrogate::NegationModel;
use rand::rngs::StdRng;

/// Rows per tape in [`PrintedNetwork::predict_batch`]. A row's logits
/// depend on that row alone, so the split changes no bit; it bounds the
/// tape's memory on large validation and test sets.
const PREDICT_ROWS: usize = 256;

/// Network construction settings.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Hidden layer widths; the paper always uses `[3]`.
    pub hidden: Vec<usize>,
    /// Multiplier applied to output voltages before softmax — output
    /// swings are well below ±1 V, so unscaled voltages make gradients
    /// needlessly small. Monotone, so hardware argmax is unchanged.
    // lint: dimensionless
    pub logit_scale: f64,
    /// Standard deviation of the initial surrogate conductances.
    // lint: dimensionless
    pub theta_init_std: f64,
    /// Device-count relaxation settings.
    pub count: CountConfig,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            hidden: vec![3],
            logit_scale: 5.0,
            theta_init_std: 0.25,
            count: CountConfig::default(),
        }
    }
}

/// One crossbar + activation layer.
#[derive(Debug, Clone)]
struct Layer {
    /// `(inputs + 2) × outputs` surrogate conductances.
    theta: Matrix,
    /// `1 × q_dim` unconstrained activation design parameters.
    rho: Matrix,
    /// Optional pruning mask over `theta` (1 = keep).
    mask: Option<Matrix>,
}

/// Features encoded once as the first crossbar's drive: the augmented
/// input `[x, 1, 0]` and its negation through the network's fixed
/// negation cell (paper Fig. 3b). Neither depends on a parameter, so a
/// training loop encodes each split once per fit
/// ([`PrintedNetwork::encode`]) and every epoch reads the same values.
#[derive(Debug, Clone)]
pub struct Batch {
    x_aug: Matrix,
    x_neg: Matrix,
    negation: NegationModel,
}

impl Batch {
    /// Number of rows (samples).
    pub fn rows(&self) -> usize {
        self.x_aug.rows()
    }

    /// A copy of rows `start..end`.
    fn slice_rows(&self, start: usize, end: usize) -> Batch {
        let cols = self.x_aug.cols();
        let rows = |m: &Matrix| {
            Matrix::from_vec(
                end - start,
                cols,
                m.as_slice()[start * cols..end * cols].to_vec(),
            )
        };
        Batch {
            x_aug: rows(&self.x_aug),
            x_neg: rows(&self.x_neg),
            negation: self.negation,
        }
    }
}

/// Tape handles for one bound layer.
#[derive(Debug, Clone, Copy)]
pub struct BoundLayer {
    /// Parameter node for `Θ`.
    pub theta: Var,
    /// Parameter node for `ρ`.
    pub rho: Var,
    /// The crossbar's nodes. Its drive, `x_aug` = `[h, 1, 0]` and
    /// `x_neg` (layer 0: the batch's), is what
    /// [`PrintedNetwork::power_report_from`] prices.
    pub crossbar: CrossbarOutput,
}

/// A network bound to a tape for one training step.
#[derive(Debug)]
pub struct BoundNetwork {
    /// Per-layer handles, in layer order.
    pub layers: Vec<BoundLayer>,
    /// Network output (logits) node.
    pub logits: Var,
    /// Differentiable total power (watts).
    pub power: Var,
}

impl BoundNetwork {
    /// Flattens the parameter handles in the canonical order used by
    /// [`PrintedNetwork::param_values`].
    pub fn param_vars(&self) -> Vec<Var> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &self.layers {
            out.push(l.theta);
        }
        for l in &self.layers {
            out.push(l.rho);
        }
        out
    }

    /// Extracts gradients aligned with [`BoundNetwork::param_vars`].
    pub fn param_grads(&self, grads: &Gradients) -> Vec<Option<Matrix>> {
        self.param_vars()
            .iter()
            .map(|&v| grads.get(v).cloned())
            .collect()
    }
}

/// A printed neuromorphic network with learnable activation circuits.
#[derive(Debug, Clone)]
pub struct PrintedNetwork {
    cfg: NetworkConfig,
    inputs: usize,
    outputs: usize,
    layers: Vec<Layer>,
    activation: LearnableActivation,
    negation: NegationModel,
    freeze_designs: bool,
}

impl PrintedNetwork {
    /// Creates a randomly initialized network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidTopology`] when any width is zero.
    pub fn new(
        inputs: usize,
        outputs: usize,
        cfg: NetworkConfig,
        activation: LearnableActivation,
        negation: NegationModel,
        rng: &mut StdRng,
    ) -> Result<Self, CoreError> {
        if inputs == 0 || outputs == 0 || cfg.hidden.contains(&0) {
            return Err(CoreError::InvalidTopology {
                message: format!(
                    "widths must be positive: inputs {inputs}, hidden {:?}, outputs {outputs}",
                    cfg.hidden
                ),
            });
        }
        let mut widths = vec![inputs];
        widths.extend_from_slice(&cfg.hidden);
        widths.push(outputs);

        let layers = widths
            .windows(2)
            .map(|w| Layer {
                theta: lrng::normal_matrix(rng, w[0] + 2, w[1], 0.0, cfg.theta_init_std),
                rho: activation.initial_rho(rng),
                mask: None,
            })
            .collect();

        Ok(PrintedNetwork {
            cfg,
            inputs,
            outputs,
            layers,
            activation,
            negation,
            freeze_designs: false,
        })
    }

    /// Freezes (or unfreezes) the activation design vectors `ρ`: when
    /// frozen, [`PrintedNetwork::bind`] registers them as constants so
    /// no gradient reaches them and optimizers leave them untouched.
    /// Used to model baselines that predate learnable activation
    /// hardware (e.g. the penalty baseline of Zhao et al., ICCAD'23).
    pub fn set_freeze_designs(&mut self, freeze: bool) {
        self.freeze_designs = freeze;
    }

    /// Whether activation designs are currently frozen.
    pub fn designs_frozen(&self) -> bool {
        self.freeze_designs
    }

    /// Input feature count.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Output class count.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The shared activation model.
    pub fn activation(&self) -> &LearnableActivation {
        &self.activation
    }

    /// The negation-circuit surrogate.
    pub fn negation(&self) -> &NegationModel {
        &self.negation
    }

    /// Construction settings.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Parameter plumbing
    // ------------------------------------------------------------------

    /// Snapshot of all trainable parameters: `[Θ₀ … Θ_L, ρ₀ … ρ_L]`.
    pub fn param_values(&self) -> Vec<Matrix> {
        let mut out: Vec<Matrix> = self.layers.iter().map(|l| l.theta.clone()).collect();
        out.extend(self.layers.iter().map(|l| l.rho.clone()));
        out
    }

    /// Writes back parameters in [`PrintedNetwork::param_values`] order.
    ///
    /// # Panics
    ///
    /// Panics on count or shape mismatch.
    pub fn set_param_values(&mut self, values: &[Matrix]) {
        let l = self.layers.len();
        assert_eq!(values.len(), 2 * l, "expected {} parameter matrices", 2 * l);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            assert_eq!(values[i].shape(), layer.theta.shape(), "theta {i} shape");
            layer.theta = values[i].clone();
        }
        for (i, layer) in self.layers.iter_mut().enumerate() {
            assert_eq!(values[l + i].shape(), layer.rho.shape(), "rho {i} shape");
            layer.rho = values[l + i].clone();
        }
    }

    /// Effective conductances of layer `i` (mask applied).
    pub fn theta_effective(&self, i: usize) -> Matrix {
        let l = &self.layers[i];
        match &l.mask {
            Some(m) => l.theta.hadamard(m),
            None => l.theta.clone(),
        }
    }

    /// The pruning mask of layer `i`, if one is active.
    pub fn mask(&self, i: usize) -> Option<&Matrix> {
        self.layers[i].mask.as_ref()
    }

    /// The activation design vector of layer `i` in physical units.
    pub fn layer_design(&self, i: usize) -> Vec<f64> {
        self.activation.q_from_rho(&self.layers[i].rho)
    }

    // ------------------------------------------------------------------
    // Tape binding: forward + power
    // ------------------------------------------------------------------

    /// Encodes features `x` as the first crossbar's drive
    /// ([`crossbar::encode`] through this network's negation cell).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `x` has the wrong
    /// number of columns.
    pub fn encode(&self, x: &Matrix) -> Result<Batch, CoreError> {
        self.validate_input(x)?;
        let (x_aug, x_neg) = crossbar::encode(x, &self.negation);
        Ok(Batch {
            x_aug,
            x_neg,
            negation: self.negation,
        })
    }

    /// Registers all parameters on `tape`, runs the forward pass on
    /// `batch` and assembles the differentiable power model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `batch` was
    /// encoded for a different input width.
    ///
    /// # Panics
    ///
    /// Panics when `batch` was encoded with a different negation model.
    pub fn bind(&self, tape: &mut Tape, batch: &Batch) -> Result<BoundNetwork, CoreError> {
        let (layers, logits) = self.record(tape, batch, true)?;
        let mut power_terms: Vec<Var> = Vec::with_capacity(layers.len());
        for (i, (layer, bound)) in self.layers.iter().zip(&layers).enumerate() {
            // Power: crossbar + soft-counted activation and negation
            // circuits. The soft counts see the *masked* theta.
            let masked_theta = match &layer.mask {
                Some(m) => tape.mul_const(bound.theta, m),
                None => bound.theta,
            };
            let p_cross = crossbar::power(tape, &bound.crossbar);
            let n_af = count::soft_af_count(tape, masked_theta, &self.cfg.count);
            let n_neg =
                count::soft_neg_count(tape, masked_theta, self.input_width(i), &self.cfg.count);
            let p_af_each = self.activation.power_on_tape(tape, bound.rho);
            let p_af = tape.mul(n_af, p_af_each);
            let p_neg = tape.mul_scalar(n_neg, self.negation.mean_power_watts);
            let sum1 = tape.add(p_cross, p_af);
            power_terms.push(tape.add(sum1, p_neg));
        }

        let mut power = power_terms[0];
        for &t in &power_terms[1..] {
            power = tape.add(power, t);
        }

        Ok(BoundNetwork {
            layers,
            logits,
            power,
        })
    }

    /// Records the crossbar and activation chain on `tape` and returns
    /// each layer's handles and the logits. Layer 0 reads the batch's
    /// drive as constants; every later layer encodes the previous
    /// activation ([`crossbar::encode_on_tape`]). With `trainable`, `Θ`
    /// and `ρ` are parameters (`ρ` stays constant while designs are
    /// frozen); otherwise every parameter is a constant.
    fn record(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        trainable: bool,
    ) -> Result<(Vec<BoundLayer>, Var), CoreError> {
        self.check_drive_width(&batch.x_aug)?;
        assert!(
            batch.negation == self.negation,
            "batch was encoded with a different negation model"
        );
        let mut bound_layers = Vec::with_capacity(self.layers.len());
        let mut input = tape.constant(batch.x_aug.clone());
        let mut negated = tape.constant(batch.x_neg.clone());
        let mut h = input;

        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                (input, negated) = crossbar::encode_on_tape(tape, h, &self.negation);
            }
            let theta = if trainable {
                tape.parameter(layer.theta.clone())
            } else {
                tape.constant(layer.theta.clone())
            };
            let rho = if trainable && !self.freeze_designs {
                tape.parameter(layer.rho.clone())
            } else {
                tape.constant(layer.rho.clone())
            };
            let out = crossbar::forward(tape, input, negated, theta, layer.mask.as_ref());
            // Activation on every neuron, including the output layer
            // (each printed neuron ends in an activation circuit).
            h = self.activation.apply_on_tape(tape, out.vz, rho);
            bound_layers.push(BoundLayer {
                theta,
                rho,
                crossbar: out,
            });
        }

        let logits = tape.mul_scalar(h, self.cfg.logit_scale);
        Ok((bound_layers, logits))
    }

    /// Checks that a first-crossbar drive (`[x, 1, 0]`) matches the
    /// network's input width.
    fn check_drive_width(&self, x_aug: &Matrix) -> Result<(), CoreError> {
        let got = x_aug.cols().saturating_sub(2);
        if x_aug.cols() != self.inputs + 2 {
            return Err(CoreError::InputWidthMismatch {
                expected: self.inputs,
                got,
            });
        }
        Ok(())
    }

    fn input_width(&self, i: usize) -> usize {
        self.layers[i].theta.rows() - 2
    }

    /// Validates that `x` matches the network's input width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] on a column-count
    /// mismatch.
    pub fn validate_input(&self, x: &Matrix) -> Result<(), CoreError> {
        if x.cols() != self.inputs {
            return Err(CoreError::InputWidthMismatch {
                expected: self.inputs,
                got: x.cols(),
            });
        }
        Ok(())
    }

    /// Forward pass returning logits: the crossbar and activation chain
    /// of [`PrintedNetwork::bind`] without its power subgraph,
    /// bit-identical to `bind`'s logits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `batch` was
    /// encoded for a different input width.
    pub fn predict_batch(&self, batch: &Batch) -> Result<Matrix, CoreError> {
        let rows = batch.rows();
        let mut logits = Vec::with_capacity(rows * self.outputs);
        // At least one chunk, so an empty batch is width-checked too.
        for start in (0..rows.max(1)).step_by(PREDICT_ROWS) {
            let chunk = batch.slice_rows(start, (start + PREDICT_ROWS).min(rows));
            let mut tape = Tape::new();
            let (_, out) = self.record(&mut tape, &chunk, false)?;
            logits.extend_from_slice(tape.value(out).as_slice());
        }
        Ok(Matrix::from_vec(rows, self.outputs, logits))
    }

    /// [`PrintedNetwork::predict_batch`] on features `x`, encoded on the
    /// spot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `x` has the wrong
    /// number of columns.
    pub fn predict(&self, x: &Matrix) -> Result<Matrix, CoreError> {
        self.predict_batch(&self.encode(x)?)
    }

    /// Classification accuracy on `(x, labels)`, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `x` has the wrong
    /// number of columns.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> Result<f64, CoreError> {
        Ok(pnc_autodiff::functional::accuracy(
            &self.predict(x)?,
            labels,
        ))
    }

    // ------------------------------------------------------------------
    // Hard (reporting) power and device counts
    // ------------------------------------------------------------------

    /// Power report with indicator (hard) device counts — the paper's
    /// "final power estimation" semantics. Runs the plain chain of
    /// [`PrintedNetwork::predict`] for each layer's crossbar drive and
    /// prices it with [`PrintedNetwork::power_report_from`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when `x` has the wrong
    /// number of columns.
    pub fn power_report(&self, x: &Matrix) -> Result<PowerBreakdown, CoreError> {
        let batch = self.encode(x)?;
        let mut tape = Tape::new();
        let (layers, _) = self.record(&mut tape, &batch, false)?;
        let drives: Vec<(&Matrix, &Matrix)> = layers
            .iter()
            .map(|l| (tape.value(l.crossbar.x_aug), tape.value(l.crossbar.x_neg)))
            .collect();
        self.power_report_from(&drives)
    }

    /// Prices each layer's crossbar drive — its augmented input and
    /// that input's negation, as recorded by [`PrintedNetwork::bind`]
    /// ([`BoundLayer::crossbar`]) — with indicator device counts. The
    /// negations are read, not evaluated again. Bit-identical to
    /// [`PrintedNetwork::power_report`] on the same parameters and
    /// features.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] when the first input
    /// has the wrong number of columns.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one drive per layer.
    pub fn power_report_from(
        &self,
        drives: &[(&Matrix, &Matrix)],
    ) -> Result<PowerBreakdown, CoreError> {
        assert_eq!(drives.len(), self.layers.len(), "one drive per layer");
        self.check_drive_width(drives[0].0)?;
        let mut report = PowerBreakdown::default();
        for (i, (layer, &(x_aug, x_neg))) in self.layers.iter().zip(drives).enumerate() {
            let theta_eff = self.theta_effective(i);
            let classes = crossbar::power_reference_classes(x_aug, x_neg, &theta_eff);
            let n_af = count::hard_af_count(&theta_eff, &self.cfg.count);
            let n_neg = count::hard_neg_count(&theta_eff, self.input_width(i), &self.cfg.count);
            let p_af = self.activation.power_value(&layer.rho);
            let resistors = crossbar::resistor_count(&theta_eff, &self.cfg.count);

            let layer_power = LayerPower {
                crossbar: classes,
                activation_watts: n_af as f64 * p_af,
                negation_watts: n_neg as f64 * self.negation.mean_power_watts,
                af_circuits: n_af,
                neg_circuits: n_neg,
                resistors,
            };
            report.crossbar_watts += layer_power.crossbar.total_watts();
            report.activation_watts += layer_power.activation_watts;
            report.negation_watts += layer_power.negation_watts;
            report.af_circuits += n_af;
            report.neg_circuits += n_neg;
            report.resistors += resistors;
            report.layers.push(layer_power);
        }
        Ok(report)
    }

    /// Total printed-device count with indicator semantics (Table I's
    /// `#Dev`): crossbar resistors + activation circuits + negation
    /// circuits, weighted by devices per circuit.
    pub fn device_count(&self) -> usize {
        let mut devices = 0usize;
        for i in 0..self.layers.len() {
            let theta_eff = self.theta_effective(i);
            devices += crossbar::resistor_count(&theta_eff, &self.cfg.count);
            devices += count::hard_af_count(&theta_eff, &self.cfg.count)
                * devices_per_af(self.activation.kind());
            devices += count::hard_neg_count(&theta_eff, self.input_width(i), &self.cfg.count)
                * DEVICES_PER_NEGATION;
        }
        devices
    }

    // ------------------------------------------------------------------
    // Pruning masks (fine-tuning phase, Sec. IV-A1)
    // ------------------------------------------------------------------

    /// Builds pruning masks from the current parameters: `m^C` zeroes
    /// conductances with `|θ| ≤ τ`; `m^N` additionally zeroes the
    /// negative entries of input rows whose total negative conductance
    /// is below `2τ` (dropping a barely-used negation circuit). Returns
    /// the number of pruned entries.
    pub fn build_masks(&mut self) -> usize {
        let tau = self.cfg.count.threshold;
        let mut pruned = 0usize;
        for i in 0..self.layers.len() {
            let inputs = self.input_width(i);
            let theta = self.layers[i].theta.clone();
            let mut mask = Matrix::ones(theta.rows(), theta.cols());
            for j in 0..theta.rows() {
                for n in 0..theta.cols() {
                    if theta[(j, n)].abs() <= tau {
                        mask[(j, n)] = 0.0;
                        pruned += 1;
                    }
                }
            }
            // m^N: rows whose negation circuit is not worth printing.
            for j in 0..inputs {
                let neg_total: f64 = (0..theta.cols()).map(|n| (-theta[(j, n)]).max(0.0)).sum();
                if neg_total > 0.0 && neg_total < 2.0 * tau {
                    for n in 0..theta.cols() {
                        // lint: allow(L002, reason = "mask entries are assigned exactly 0.0 or 1.0")
                        if theta[(j, n)] < 0.0 && mask[(j, n)] != 0.0 {
                            mask[(j, n)] = 0.0;
                            pruned += 1;
                        }
                    }
                }
            }
            self.layers[i].mask = Some(mask);
        }
        pruned
    }

    /// Drops all pruning masks.
    pub fn clear_masks(&mut self) {
        for layer in &mut self.layers {
            layer.mask = None;
        }
    }

    /// Whether any pruning mask is active.
    pub fn has_masks(&self) -> bool {
        self.layers.iter().any(|l| l.mask.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::SurrogateFidelity;
    use pnc_spice::AfKind;
    use pnc_telemetry::Telemetry;
    use std::sync::OnceLock;

    /// Shared smoke-fidelity activation so the test battery fits one
    /// SPICE+fit cycle.
    fn smoke_parts() -> &'static (LearnableActivation, NegationModel) {
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

    fn small_network(seed: u64) -> PrintedNetwork {
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(seed);
        PrintedNetwork::new(4, 3, NetworkConfig::default(), act, neg, &mut rng).unwrap()
    }

    #[test]
    fn rejects_zero_widths() {
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(1);
        assert!(PrintedNetwork::new(0, 3, NetworkConfig::default(), act, neg, &mut rng).is_err());
    }

    #[test]
    fn topology_matches_paper_default() {
        let net = small_network(2);
        assert_eq!(net.layer_count(), 2); // in-3-out
        assert_eq!(net.inputs(), 4);
        assert_eq!(net.outputs(), 3);
    }

    #[test]
    fn predict_shape_and_finiteness() {
        let net = small_network(3);
        let x = lrng::uniform_matrix(&mut lrng::seeded(4), 7, 4, -0.8, 0.8);
        let logits = net.predict(&x).unwrap();
        assert_eq!(logits.shape(), (7, 3));
        assert!(logits.all_finite());
    }

    #[test]
    fn predict_in_row_chunks_equals_bind_bitwise() {
        let mut net = small_network(4);
        let x = lrng::uniform_matrix(&mut lrng::seeded(5), 2 * PREDICT_ROWS + 7, 4, -0.8, 0.8);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for masked in [false, true] {
            if masked {
                net.build_masks();
            }
            let mut tape = Tape::new();
            let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
            let logits = net.predict(&x).unwrap();
            assert_eq!(logits.shape(), (x.rows(), 3));
            assert_eq!(bits(&logits), bits(tape.value(bound.logits)));
        }
        assert_eq!(net.predict(&Matrix::zeros(0, 4)).unwrap().shape(), (0, 3));
    }

    #[test]
    fn encode_and_bind_reject_wrong_width() {
        let net = small_network(5);
        let x = Matrix::zeros(2, 9);
        let is_mismatch = |e: CoreError| {
            e == CoreError::InputWidthMismatch {
                expected: 4,
                got: 9,
            }
        };
        assert!(net.encode(&x).is_err_and(is_mismatch));
        // A batch encoded by a wider network is refused too.
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(5);
        let wide = PrintedNetwork::new(9, 3, NetworkConfig::default(), act, neg, &mut rng).unwrap();
        let batch = wide.encode(&x).unwrap();
        assert!(net.bind(&mut Tape::new(), &batch).is_err_and(is_mismatch));
        assert!(net.predict_batch(&batch).is_err_and(is_mismatch));
    }

    #[test]
    fn power_is_positive_and_tape_close_to_hard_report() {
        let net = small_network(6);
        let x = lrng::uniform_matrix(&mut lrng::seeded(7), 10, 4, -0.8, 0.8);
        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let soft_power = tape.scalar(bound.power);
        let hard = net.power_report(&x).unwrap();
        assert!(soft_power > 0.0);
        assert!(hard.total() > 0.0);
        // Soft counts ≈ hard counts for a dense random init, so the two
        // power estimates should be within a factor ~2.
        let ratio = soft_power / hard.total();
        assert!(
            (0.5..2.0).contains(&ratio),
            "soft {soft_power:e} vs hard {:e}",
            hard.total()
        );
    }

    #[test]
    fn param_roundtrip() {
        let mut net = small_network(8);
        let values = net.param_values();
        assert_eq!(values.len(), 4); // 2 thetas + 2 rhos
        let mut perturbed = values.clone();
        perturbed[0] = perturbed[0].shift(0.1);
        net.set_param_values(&perturbed);
        assert!(net.param_values()[0].approx_eq(&perturbed[0], 1e-15));
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let net = small_network(9);
        let x = lrng::uniform_matrix(&mut lrng::seeded(10), 6, 4, -0.8, 0.8);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let ce = tape.softmax_cross_entropy(bound.logits, &labels);
        let pw_scaled = tape.mul_scalar(bound.power, 1e3);
        let loss = tape.add(ce, pw_scaled);
        let grads = tape.backward(loss);
        for (k, g) in bound.param_grads(&grads).iter().enumerate() {
            let g = g
                .as_ref()
                .unwrap_or_else(|| panic!("no grad for param {k}"));
            assert!(g.all_finite(), "param {k} grad not finite");
            assert!(g.max_abs() > 0.0, "param {k} grad identically zero");
        }
    }

    #[test]
    fn masks_prune_and_reduce_power() {
        let mut net = small_network(11);
        let x = lrng::uniform_matrix(&mut lrng::seeded(12), 8, 4, -0.8, 0.8);
        // Shrink some weights below threshold so pruning has targets.
        let mut values = net.param_values();
        for v in values[0].as_mut_slice().iter_mut().take(6) {
            *v *= 0.001;
        }
        net.set_param_values(&values);
        let before = net.power_report(&x).unwrap().total();
        let pruned = net.build_masks();
        assert!(pruned >= 6, "expected prunable entries, got {pruned}");
        assert!(net.has_masks());
        let after = net.power_report(&x).unwrap().total();
        assert!(after <= before + 1e-12, "pruning must not add power");
        net.clear_masks();
        assert!(!net.has_masks());
    }

    #[test]
    fn device_count_is_consistent() {
        let net = small_network(13);
        let x = Matrix::zeros(1, 4);
        let devices = net.device_count();
        let report = net.power_report(&x).unwrap();
        // Sanity: every counted AF contributes its device cost.
        assert!(devices >= report.af_circuits * devices_per_af(AfKind::PTanh));
        assert!(devices > 0);
    }

    #[test]
    fn deeper_topologies_work() {
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(31);
        let net = PrintedNetwork::new(
            6,
            2,
            NetworkConfig {
                hidden: vec![5, 4],
                ..NetworkConfig::default()
            },
            act,
            neg,
            &mut rng,
        )
        .unwrap();
        assert_eq!(net.layer_count(), 3);
        let x = lrng::uniform_matrix(&mut lrng::seeded(32), 4, 6, -0.8, 0.8);
        let logits = net.predict(&x).unwrap();
        assert_eq!(logits.shape(), (4, 2));
        assert!(logits.all_finite());
        // Gradients flow through all six parameter matrices.
        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let loss = tape.softmax_cross_entropy(bound.logits, &[0, 1, 0, 1]);
        let pw = tape.mul_scalar(bound.power, 1e3);
        let total = tape.add(loss, pw);
        let grads = tape.backward(total);
        for (k, g) in bound.param_grads(&grads).iter().enumerate() {
            assert!(g.is_some(), "param {k} missing gradient");
        }
    }

    #[test]
    fn seeded_construction_is_reproducible() {
        let a = small_network(20);
        let b = small_network(20);
        assert_eq!(a.param_values()[0], b.param_values()[0]);
        let c = small_network(21);
        assert_ne!(a.param_values()[0], c.param_values()[0]);
    }
}
