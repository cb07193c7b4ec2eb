//! The resistor crossbar: normalized weighted sums and analytical power.
//!
//! A crossbar column computes (paper Sec. II-B1a)
//!
//! ```text
//! V_z^n = Σ_j (g_jn / G_n) · V_eff^j + g_bn / G_n,
//! G_n = Σ_j g_jn + g_bn + g_dn
//! ```
//!
//! where `V_eff^j` is the input voltage or its negation depending on the
//! sign of the surrogate conductance `θ_jn`. With the input matrix
//! augmented by a ones column (bias, `g_b` to V_DD = 1) and a zeros
//! column (`g_d` to ground) this becomes two matrix products:
//!
//! ```text
//! V_z = (X⁺ · relu(Θ) + neg(X⁺) · relu(−Θ)) / rowsum(|Θ|)
//! ```
//!
//! The analytical crossbar power (paper Sec. II-B1a) expands the square
//! `(V_eff − V_z)² ⊙ |Θ|` into three matrix products, so the whole
//! computation stays on the autodiff tape.

use crate::count::CountConfig;
use pnc_autodiff::{Tape, Var};
use pnc_linalg::Matrix;
use pnc_surrogate::NegationModel;

/// Physical conductance represented by `|θ| = 1`, in siemens. Printed
/// resistors down to 10 kΩ are comfortably inkjet-printable.
pub const G_MAX: f64 = 1.0e-4;

/// Guard added to crossbar denominators: represents the always-present
/// `g_d` leak path and keeps `V_z` finite when a column prunes to zero.
pub const DENOM_EPS: f64 = 1e-4;

/// Result of a crossbar forward pass on the tape.
#[derive(Debug, Clone, Copy)]
pub struct CrossbarOutput {
    /// Output voltages `V_z` (`batch × outputs`).
    pub vz: Var,
    /// Augmented input (`batch × (inputs + 2)`), reused by the power
    /// computation.
    pub x_aug: Var,
    /// Negated augmented input.
    pub x_neg: Var,
    /// `relu(Θ)` — conductances fed by the plain input.
    pub g_pos: Var,
    /// `relu(−Θ)` — conductances fed by the negated input.
    pub g_neg: Var,
    /// Row-summed `|Θ|` (`1 × outputs`), the normalization conductance.
    pub denom: Var,
}

/// Drive of the negated bias and ground rows: `neg(1 V)` and
/// `neg(0 V)`, the negation surrogate at the rail voltages.
fn negated_rails(neg: &NegationModel) -> [f64; 2] {
    [neg.eval_scalar(1.0), neg.eval_scalar(0.0)]
}

/// Encodes fixed input voltages as a crossbar's drive: the augmented
/// input `[x, 1, 0]` and its negation, whose data columns pass through
/// `neg` and whose rail columns are [`negated_rails`]. Bit-identical to
/// [`encode_on_tape`] on the same values.
pub fn encode(x: &Matrix, neg: &NegationModel) -> (Matrix, Matrix) {
    let (rows, n) = x.shape();
    let rails = negated_rails(neg);
    let mut aug = Matrix::zeros(rows, n + 2);
    let mut negated = Matrix::zeros(rows, n + 2);
    for i in 0..rows {
        let xi = x.row_slice(i);
        let a = aug.row_slice_mut(i);
        a[..n].copy_from_slice(xi);
        a[n] = 1.0;
        let ng = negated.row_slice_mut(i);
        for (o, &v) in ng.iter_mut().zip(xi) {
            *o = neg.eval_scalar(v);
        }
        ng[n..].copy_from_slice(&rails);
    }
    (aug, negated)
}

/// Encodes a layer output `h` on the tape as the next crossbar's drive:
/// `[h, 1, 0]` and its negation. Only `h`'s columns pass through the
/// negation surrogate; the rail columns are the constants
/// [`negated_rails`].
pub fn encode_on_tape(tape: &mut Tape, h: Var, neg: &NegationModel) -> (Var, Var) {
    let aug = tape.append_bias_cols(h);
    let negated_h = neg.eval_on_tape(tape, h);
    let rails = negated_rails(neg);
    let rail_cols = tape.constant(Matrix::from_fn(tape.shape(h).0, 2, |_, j| rails[j]));
    (aug, tape.hstack(negated_h, rail_cols))
}

/// Computes the crossbar forward pass.
///
/// `x_aug` is the `batch × (inputs + 2)` augmented input `[x, 1, 0]`
/// and `x_neg` its negation ([`encode`], [`encode_on_tape`]), `theta`
/// the `(inputs + 2) × outputs` surrogate conductance parameter, and
/// `mask` an optional pruning mask multiplied into `|Θ|` (1 = keep).
pub fn forward(
    tape: &mut Tape,
    x_aug: Var,
    x_neg: Var,
    theta: Var,
    mask: Option<&Matrix>,
) -> CrossbarOutput {
    let (rows, _) = tape.shape(theta);
    assert_eq!(
        tape.shape(x_aug).1,
        rows,
        "crossbar: theta must have one row per augmented input (inputs, bias and ground)"
    );
    assert_eq!(
        tape.shape(x_neg),
        tape.shape(x_aug),
        "crossbar: the negated input must match the augmented input"
    );

    let theta = match mask {
        Some(m) => tape.mul_const(theta, m),
        None => theta,
    };

    let g_pos = tape.relu(theta);
    let ntheta = tape.neg(theta);
    let g_neg = tape.relu(ntheta);

    let num_pos = tape.matmul(x_aug, g_pos);
    let num_neg = tape.matmul(x_neg, g_neg);
    let numerator = tape.add(num_pos, num_neg);

    let abs_theta = tape.abs(theta);
    let denom_raw = tape.sum_rows(abs_theta);
    let denom = tape.add_scalar(denom_raw, DENOM_EPS);
    let vz = tape.div_row(numerator, denom);

    CrossbarOutput {
        vz,
        x_aug,
        x_neg,
        g_pos,
        g_neg,
        denom,
    }
}

/// Batch-mean crossbar power `𝒫^C` in watts as a `1 × 1` node.
///
/// Expands `Σ_{j,n} (V_eff − V_z)² |θ| · G_MAX` into
/// `Σ (X⁺² · g⁺ + X⁻² · g⁻) − 2 Σ V_z ⊙ Num + Σ V_z² ⊙ D`, averaged
/// over the batch.
pub fn power(tape: &mut Tape, out: &CrossbarOutput) -> Var {
    let batch = tape.shape(out.x_aug).0 as f64;

    // Term 1: Σ_j V_eff² |θ| — input-side energies.
    let xa_sq = tape.square(out.x_aug);
    let xn_sq = tape.square(out.x_neg);
    let t1_pos = tape.matmul(xa_sq, out.g_pos);
    let t1_neg = tape.matmul(xn_sq, out.g_neg);
    let t1 = tape.add(t1_pos, t1_neg); // batch × outputs

    // Term 2: −2 V_z ⊙ Num where Num = V_z ⊙ D (recovered from vz·denom).
    let num = tape.mul_row(out.vz, out.denom);
    let t2 = tape.mul(out.vz, num); // V_z ⊙ Num

    // Term 3: V_z² ⊙ D.
    let vz_sq = tape.square(out.vz);
    let t3 = tape.mul_row(vz_sq, out.denom);

    let minus2_t2 = tape.mul_scalar(t2, -2.0);
    let sum = tape.add(t1, minus2_t2);
    let sum = tape.add(sum, t3);
    let total = tape.sum_all(sum);
    // Mean over the batch, scaled to physical conductance.
    tape.mul_scalar(total, G_MAX / batch)
}

/// Plain (tape-free) reference implementation of the batch-mean crossbar
/// power on input voltages `x`, used by tests. `theta_eff` must already
/// have any pruning mask applied.
pub fn power_reference(x: &Matrix, theta_eff: &Matrix, neg: &NegationModel) -> f64 {
    let (x_aug, x_neg) = encode(x, neg);
    power_reference_classes(&x_aug, &x_neg, theta_eff).total_watts()
}

/// Batch-mean crossbar power split by device class, in watts.
///
/// The classes partition every dissipating element of a crossbar
/// column: resistors on the data-input rows, the bias resistor (row
/// `inputs`, tied to V_DD), the ground-row resistor (row `inputs + 1`,
/// tied to 0 V), and the always-present `g_d` leak path modelled by
/// [`DENOM_EPS`]. The class sums reconstruct [`power_reference`]
/// exactly (same loop, four accumulators).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CrossbarClassPower {
    /// Resistors on the data-input rows (`j < inputs`).
    pub input_watts: f64,
    /// The bias-row resistor (`j = inputs`, driven by V_DD = 1).
    pub bias_watts: f64,
    /// The ground-row resistor (`j = inputs + 1`, driven by 0 V).
    pub ground_watts: f64,
    /// The `DENOM_EPS` leak path: `V_z² · ε · G_MAX` per column.
    pub leak_watts: f64,
}

impl CrossbarClassPower {
    /// Total crossbar power: the sum of the four device classes.
    pub fn total_watts(&self) -> f64 {
        self.input_watts + self.bias_watts + self.ground_watts + self.leak_watts
    }
}

/// Computes [`power_reference`] with per-device-class attribution from
/// a crossbar's drive: the augmented input `x_aug` and its negation
/// `x_neg` ([`encode`], or the values [`forward`] read).
pub fn power_reference_classes(
    x_aug: &Matrix,
    x_neg: &Matrix,
    theta_eff: &Matrix,
) -> CrossbarClassPower {
    let batch = x_aug.rows();
    let width = x_aug.cols();
    let inputs = width - 2;
    let outputs = theta_eff.cols();
    assert_eq!(theta_eff.rows(), width);
    assert_eq!(x_neg.shape(), x_aug.shape());

    let mut classes = CrossbarClassPower::default();
    for b in 0..batch {
        let xa = x_aug.row_slice(b);
        let xn = x_neg.row_slice(b);
        for n in 0..outputs {
            // Output voltage of this column.
            let mut num = 0.0;
            let mut den = DENOM_EPS;
            for j in 0..width {
                let th = theta_eff[(j, n)];
                let veff = if th >= 0.0 { xa[j] } else { xn[j] };
                num += veff * th.abs();
                den += th.abs();
            }
            let vz = num / den;
            for j in 0..width {
                let th = theta_eff[(j, n)];
                // lint: allow(L002, reason = "pruned-entry fast path: only a bit-exact zero marks a removed resistor")
                if th == 0.0 {
                    continue;
                }
                let veff = if th >= 0.0 { xa[j] } else { xn[j] };
                let dv = veff - vz;
                let p = dv * dv * th.abs() * G_MAX;
                if j < inputs {
                    classes.input_watts += p;
                } else if j == inputs {
                    classes.bias_watts += p;
                } else {
                    classes.ground_watts += p;
                }
            }
            // The DENOM_EPS leak path dissipates V_z² · ε · G_MAX.
            classes.leak_watts += vz * vz * DENOM_EPS * G_MAX;
        }
    }
    let scale = 1.0 / batch as f64;
    classes.input_watts *= scale;
    classes.bias_watts *= scale;
    classes.ground_watts *= scale;
    classes.leak_watts *= scale;
    classes
}

/// Hard count of printed crossbar resistors: entries with
/// `|θ| > threshold` (the bias and ground resistors ride along in Θ).
pub fn resistor_count(theta_eff: &Matrix, cfg: &CountConfig) -> usize {
    theta_eff
        .as_slice()
        .iter()
        .filter(|&&t| t.abs() > cfg.threshold)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnc_linalg::rng as lrng;

    fn ideal_neg() -> NegationModel {
        NegationModel::ideal(1e-5)
    }

    /// Records the encoded drive of `x` as tape constants.
    fn drive(tape: &mut Tape, x: &Matrix, neg: &NegationModel) -> (Var, Var) {
        let (xa, xn) = encode(x, neg);
        (tape.constant(xa), tape.constant(xn))
    }

    #[test]
    fn encode_matches_the_tape_encoding_bitwise() {
        let mut rng = lrng::seeded(25);
        let x = lrng::uniform_matrix(&mut rng, 5, 3, -0.9, 0.9);
        let neg = NegationModel {
            a: 0.1,
            b: -0.9,
            c: 0.05,
            d: 1.7,
            ..ideal_neg()
        };
        let (xa, xn) = encode(&x, &neg);
        let mut tape = Tape::new();
        let h = tape.constant(x.clone());
        let (ta, tn) = encode_on_tape(&mut tape, h, &neg);
        // The negation surrogate's tape chain over the whole augmented
        // input, rails included.
        let whole = neg.eval_on_tape(&mut tape, ta);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&xa), bits(tape.value(ta)));
        assert_eq!(bits(&xn), bits(tape.value(tn)));
        assert_eq!(bits(&xn), bits(tape.value(whole)));
    }

    #[test]
    fn positive_weights_form_weighted_average() {
        // With all-positive conductances and no bias, V_z is a convex
        // combination of inputs — check against a hand computation.
        let mut tape = Tape::new();
        let (xa, xn) = drive(&mut tape, &Matrix::from_rows(&[&[0.5, -0.5]]), &ideal_neg());
        // theta: rows = in1, in2, bias, gnd; single output.
        let theta = tape.parameter(Matrix::from_rows(&[&[0.3], &[0.1], &[0.0], &[0.0]]));
        let out = forward(&mut tape, xa, xn, theta, None);
        let vz = tape.value(out.vz)[(0, 0)];
        let expect = (0.5 * 0.3 + (-0.5) * 0.1) / (0.4 + DENOM_EPS);
        assert!((vz - expect).abs() < 1e-12, "vz {vz} vs {expect}");
    }

    #[test]
    fn bias_conductance_pulls_toward_one() {
        let mut tape = Tape::new();
        let (xa, xn) = drive(&mut tape, &Matrix::from_rows(&[&[0.0]]), &ideal_neg());
        let theta = tape.parameter(Matrix::from_rows(&[&[0.0], &[0.5], &[0.0]]));
        let out = forward(&mut tape, xa, xn, theta, None);
        let vz = tape.value(out.vz)[(0, 0)];
        // Only the bias conducts: V_z ≈ 1 · 0.5/(0.5 + ε).
        assert!((vz - 0.5 / (0.5 + DENOM_EPS)).abs() < 1e-12);
    }

    #[test]
    fn negative_theta_uses_negated_input() {
        let mut tape = Tape::new();
        let neg = ideal_neg();
        let (xa, xn) = drive(&mut tape, &Matrix::from_rows(&[&[0.4]]), &neg);
        let theta = tape.parameter(Matrix::from_rows(&[&[-0.5], &[0.0], &[0.0]]));
        let out = forward(&mut tape, xa, xn, theta, None);
        let vz = tape.value(out.vz)[(0, 0)];
        let expect = neg.eval_scalar(0.4) * 0.5 / (0.5 + DENOM_EPS);
        assert!((vz - expect).abs() < 1e-12, "vz {vz} vs {expect}");
        assert!(vz < 0.0, "negative weight must flip the sign");
    }

    #[test]
    fn grounded_column_outputs_near_zero() {
        let mut tape = Tape::new();
        let (xa, xn) = drive(&mut tape, &Matrix::from_rows(&[&[0.9]]), &ideal_neg());
        let theta = tape.parameter(Matrix::zeros(3, 1));
        let out = forward(&mut tape, xa, xn, theta, None);
        assert_eq!(tape.value(out.vz)[(0, 0)], 0.0);
    }

    #[test]
    fn mask_prunes_conductances() {
        let mut tape = Tape::new();
        let (xa, xn) = drive(&mut tape, &Matrix::from_rows(&[&[1.0]]), &ideal_neg());
        let theta = tape.parameter(Matrix::from_rows(&[&[0.5], &[0.5], &[0.0]]));
        let mask = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]);
        let out = forward(&mut tape, xa, xn, theta, Some(&mask));
        let vz = tape.value(out.vz)[(0, 0)];
        // Bias row masked off: only the input conductance remains.
        assert!((vz - 0.5 / (0.5 + DENOM_EPS)).abs() < 1e-12);
    }

    #[test]
    fn tape_power_matches_reference() {
        let mut rng = lrng::seeded(21);
        let x = lrng::uniform_matrix(&mut rng, 6, 4, -0.8, 0.8);
        let theta_m = lrng::normal_matrix(&mut rng, 6, 3, 0.0, 0.4);
        let neg = ideal_neg();

        let mut tape = Tape::new();
        let (xa, xn) = drive(&mut tape, &x, &neg);
        let tv = tape.parameter(theta_m.clone());
        let out = forward(&mut tape, xa, xn, tv, None);
        let p = power(&mut tape, &out);
        let tape_power = tape.scalar(p);
        let ref_power = power_reference(&x, &theta_m, &neg);
        assert!(
            (tape_power - ref_power).abs() < 1e-12 * ref_power.max(1e-12),
            "tape {tape_power:e} vs reference {ref_power:e}"
        );
    }

    #[test]
    fn power_is_nonnegative_and_scales_with_conductance() {
        let mut rng = lrng::seeded(22);
        let x = lrng::uniform_matrix(&mut rng, 8, 3, -0.8, 0.8);
        let neg = ideal_neg();
        let small = lrng::normal_matrix(&mut rng, 5, 2, 0.0, 0.1);
        let large = small.scale(5.0);
        let ps = power_reference(&x, &small, &neg);
        let pl = power_reference(&x, &large, &neg);
        assert!(ps >= 0.0);
        assert!(pl > ps, "more conductance must burn more power");
    }

    #[test]
    fn power_gradient_checks() {
        let mut rng = lrng::seeded(23);
        let x = lrng::uniform_matrix(&mut rng, 4, 3, -0.5, 0.5);
        let theta0 = lrng::normal_matrix(&mut rng, 5, 2, 0.1, 0.3);
        let neg = ideal_neg();
        let rep = pnc_autodiff::gradcheck::check_gradient(&theta0, 1e-6, move |tape, p| {
            let (xa, xn) = drive(tape, &x, &neg);
            let out = forward(tape, xa, xn, p, None);
            let pw = power(tape, &out);
            // Scale to O(1) for conditioning (power is ~1e-5 W).
            tape.mul_scalar(pw, 1e5)
        });
        assert!(rep.passes(1e-4), "{rep:?}");
    }

    #[test]
    fn forward_gradient_checks() {
        let mut rng = lrng::seeded(24);
        let x = lrng::uniform_matrix(&mut rng, 3, 2, -0.5, 0.5);
        let theta0 = lrng::normal_matrix(&mut rng, 4, 2, 0.05, 0.3);
        let neg = ideal_neg();
        let rep = pnc_autodiff::gradcheck::check_gradient(&theta0, 1e-6, move |tape, p| {
            let (xa, xn) = drive(tape, &x, &neg);
            let out = forward(tape, xa, xn, p, None);
            let sq = tape.square(out.vz);
            tape.sum_all(sq)
        });
        assert!(rep.passes(1e-5), "{rep:?}");
    }

    #[test]
    fn resistor_count_thresholds() {
        let theta = Matrix::from_rows(&[&[0.5, 0.005], &[-0.3, 0.0], &[0.0, 0.2]]);
        let cfg = CountConfig::default();
        assert_eq!(resistor_count(&theta, &cfg), 3);
    }
}
