//! Property-based tests of circuit-level invariants: crossbar outputs
//! stay inside physical voltage bounds, power is nonnegative and
//! monotone under pruning, device counts behave like counts, and the
//! SPICE solver respects conservation laws on random ladder networks.

use pnc::autodiff::Tape;
use pnc::circuit::count::{hard_af_count, hard_neg_count, soft_af_count, CountConfig};
use pnc::circuit::crossbar;
use pnc::linalg::Matrix;
use pnc::spice::dc::{residual_norm, solve_dc};
use pnc::spice::Circuit;
use pnc::surrogate::NegationModel;
use proptest::prelude::*;

fn theta_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-0.9..0.9f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn input_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-0.8..0.8f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn crossbar_output_is_bounded(theta in theta_strategy(5, 3), x in input_strategy(4, 3)) {
        // Normalized Kirchhoff mixing of voltages in [−1, 1] (plus the
        // 1 V bias) can never leave [−1, 1].
        let neg = NegationModel::ideal(1e-5);
        let (xa, xn) = crossbar::encode(&x, &neg);
        let mut tape = Tape::new();
        let xa = tape.constant(xa);
        let xn = tape.constant(xn);
        let tv = tape.parameter(theta);
        let out = crossbar::forward(&mut tape, xa, xn, tv, None);
        let vz = tape.value(out.vz);
        prop_assert!(vz.min() >= -1.0 - 1e-9 && vz.max() <= 1.0 + 1e-9, "{vz:?}");
    }

    #[test]
    fn crossbar_power_is_nonnegative(theta in theta_strategy(6, 2), x in input_strategy(5, 4)) {
        let neg = NegationModel::ideal(1e-5);
        let p = crossbar::power_reference(&x, &theta, &neg);
        prop_assert!(p >= 0.0, "negative power {p}");
        prop_assert!(p.is_finite());
    }

    #[test]
    fn pruning_never_raises_crossbar_power(theta in theta_strategy(5, 3), x in input_strategy(4, 3)) {
        let neg = NegationModel::ideal(1e-5);
        let full = crossbar::power_reference(&x, &theta, &neg);
        // Zero the smallest-magnitude half of the entries.
        let mut mags: Vec<f64> = theta.as_slice().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cut = mags[mags.len() / 2];
        let pruned_theta = theta.map(|v| if v.abs() <= cut { 0.0 } else { v });
        let pruned = crossbar::power_reference(&x, &pruned_theta, &neg);
        // Fewer conductances dissipate less (voltages shift, but the
        // quadratic form shrinks with the conductance set in practice;
        // allow a sliver for the normalization shift).
        prop_assert!(pruned <= full * 1.25 + 1e-12, "pruned {pruned} vs full {full}");
    }

    #[test]
    fn hard_counts_are_bounded_counts(theta in theta_strategy(6, 4)) {
        let cfg = CountConfig::default();
        let af = hard_af_count(&theta, &cfg);
        let neg = hard_neg_count(&theta, 4, &cfg);
        prop_assert!(af <= 4, "AF count exceeds outputs");
        prop_assert!(neg <= 4, "neg count exceeds inputs");
    }

    #[test]
    fn soft_count_upper_bounds_are_respected(theta in theta_strategy(6, 4)) {
        let cfg = CountConfig::default();
        let mut tape = Tape::new();
        let tv = tape.parameter(theta);
        let c = soft_af_count(&mut tape, tv, &cfg);
        let v = tape.scalar(c);
        prop_assert!((0.0..=4.0 + 1e-9).contains(&v), "soft AF count {v}");
    }

    #[test]
    fn soft_count_tracks_hard_count(theta in theta_strategy(6, 4)
        .prop_filter("entries decisive", |m| {
            m.as_slice().iter().all(|&v| v == 0.0 || v.abs() > 0.05)
        })) {
        let cfg = CountConfig::default();
        let hard = hard_af_count(&theta, &cfg) as f64;
        let mut tape = Tape::new();
        let tv = tape.parameter(theta);
        let c = soft_af_count(&mut tape, tv, &cfg);
        let soft = tape.scalar(c);
        prop_assert!((soft - hard).abs() < 0.1, "soft {soft} vs hard {hard}");
    }

    #[test]
    fn resistor_ladder_conserves_energy(resistances in proptest::collection::vec(1_000.0..1_000_000.0f64, 3..8),
                                        volts in 0.1..1.5f64) {
        // A random series ladder driven by one source: dissipated power
        // equals V²/R_total and equals delivered power.
        let mut c = Circuit::new();
        let top = c.node("top");
        c.vsource(top, Circuit::GROUND, volts);
        let mut prev = top;
        for (i, &r) in resistances.iter().enumerate() {
            let next = if i + 1 == resistances.len() {
                Circuit::GROUND
            } else {
                c.node("n")
            };
            c.resistor(prev, next, r);
            prev = next;
        }
        let op = solve_dc(&c).unwrap();
        prop_assert!(residual_norm(&c, &op) < 1e-9);
        let rep = pnc::spice::power::power_report(&c, &op);
        let r_total: f64 = resistances.iter().sum();
        let expect = volts * volts / r_total;
        prop_assert!((rep.dissipated_watts - expect).abs() < 1e-6 * expect,
            "dissipated {} vs expected {expect}", rep.dissipated_watts);
        prop_assert!((rep.delivered_watts - rep.dissipated_watts).abs() < 1e-4 * expect + 1e-15);
    }

    #[test]
    fn parallel_resistors_split_current(r1 in 1_000.0..100_000.0f64, r2 in 1_000.0..100_000.0f64) {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.vsource(top, Circuit::GROUND, 1.0);
        c.resistor(top, Circuit::GROUND, r1);
        c.resistor(top, Circuit::GROUND, r2);
        let op = solve_dc(&c).unwrap();
        // Source supplies the sum of branch currents.
        let i = -op.source_current(0);
        let expect = 1.0 / r1 + 1.0 / r2;
        prop_assert!((i - expect).abs() < 1e-9 + 1e-6 * expect, "{i} vs {expect}");
    }

    #[test]
    fn negation_model_output_is_bounded(vals in proptest::collection::vec(-1.0..1.0f64, 1..20)) {
        let m = NegationModel::ideal(1e-5);
        for &v in &vals {
            let o = m.eval_scalar(v);
            prop_assert!((-1.0..=1.0).contains(&o), "neg({v}) = {o}");
        }
    }
}
