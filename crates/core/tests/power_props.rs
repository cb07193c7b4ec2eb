//! Property tests for power attribution: on any network and input,
//! the attribution tree's children sum to their parent on every node
//! (within `SUM_REL_TOL` relative) and the root equals the scalar
//! total the trainer optimizes against. This is the conservation law
//! the `runs power` audit relies on — if a stage were dropped or
//! double-counted the tree would silently lie, so the invariant is
//! pinned across random topologies, seeds, and input batches.
//!
//! Two more properties pin the seams the training loop relies on:
//! pricing a bound tape's recorded layer drives equals `power_report`,
//! and `predict` equals `bind`'s logits, bit for bit; and binding a
//! once-encoded batch equals the chain recorded op by op from the raw
//! features — logits, power, every layer's drive and every parameter
//! gradient, bit for bit.

use pnc_autodiff::{Tape, Var};
use pnc_core::activation::{fit_negation_model, SurrogateFidelity};
use pnc_core::{count, crossbar, LearnableActivation, NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
use pnc_linalg::Matrix;
use pnc_spice::AfKind;
use pnc_surrogate::NegationModel;
use pnc_telemetry::Telemetry;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared smoke-fidelity activation/negation fit: the SPICE sweep
/// and MLP fit dominate wall-clock, and the invariant under test does
/// not depend on fit quality.
fn smoke_parts() -> &'static (LearnableActivation, NegationModel) {
    static CELL: OnceLock<(LearnableActivation, NegationModel)> = OnceLock::new();
    CELL.get_or_init(|| {
        let act = LearnableActivation::fit(
            AfKind::PTanh,
            &SurrogateFidelity::smoke(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let neg = fit_negation_model(9).unwrap();
        (act, neg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn attribution_children_sum_to_parents_everywhere(
        seed in 0u64..1_000,
        inputs in 2usize..6,
        outputs in 2usize..5,
        rows in 1usize..9,
        data_seed in 0u64..1_000,
        span in 0.1f64..0.95,
    ) {
        let (act, neg) = smoke_parts().clone();
        let mut rng = lrng::seeded(seed);
        let net = PrintedNetwork::new(inputs, outputs, NetworkConfig::default(), act, neg, &mut rng)
            .unwrap();
        let x = lrng::uniform_matrix(&mut lrng::seeded(data_seed), rows, inputs, -span, span);

        let breakdown = net.power_report(&x).unwrap();
        let tree = breakdown.attribution();

        prop_assert!(tree.check_sum().is_ok(), "{:?}", tree.check_sum());
        let total = breakdown.total();
        prop_assert!(total > 0.0);
        prop_assert!(
            (tree.watts - total).abs() <= pnc_core::power::SUM_REL_TOL * total,
            "root {} vs total {}",
            tree.watts,
            total
        );
        // Leaves alone must also reconstruct the total: no power may
        // live only on an interior node.
        let leaf_sum: f64 = tree.leaves().iter().map(|(_, w)| w).sum();
        prop_assert!(
            (leaf_sum - total).abs() <= 64.0 * pnc_core::power::SUM_REL_TOL * total,
            "leaf sum {leaf_sum} vs total {total}"
        );
    }
}

/// Bit patterns of a matrix, for exact comparisons.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The training loop prices hard power from the layer inputs its
    /// tape forward recorded, and validates through the plain chain.
    /// Both must reproduce the stand-alone paths bit for bit.
    #[test]
    fn recorded_inputs_and_plain_chain_match_the_bound_forward(
        seed in 0u64..1_000,
        inputs in 2usize..6,
        outputs in 2usize..5,
        rows in 1usize..9,
        data_seed in 0u64..1_000,
        deep in 0u8..2,
        masked in 0u8..2,
        frozen in 0u8..2,
    ) {
        let (act, neg) = smoke_parts().clone();
        let cfg = NetworkConfig {
            hidden: if deep == 1 { vec![5, 4] } else { vec![3] },
            ..NetworkConfig::default()
        };
        let mut rng = lrng::seeded(seed);
        let mut net = PrintedNetwork::new(inputs, outputs, cfg, act, neg, &mut rng).unwrap();
        if masked == 1 {
            // Shrink a few conductances below the counting threshold so
            // the masks prune something.
            let mut values = net.param_values();
            for v in values[0].as_mut_slice().iter_mut().step_by(3) {
                *v *= 0.001;
            }
            net.set_param_values(&values);
            net.build_masks();
        }
        net.set_freeze_designs(frozen == 1);
        let x = lrng::uniform_matrix(&mut lrng::seeded(data_seed), rows, inputs, -0.9, 0.9);

        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let recorded: Vec<(&Matrix, &Matrix)> = bound
            .layers
            .iter()
            .map(|l| (tape.value(l.crossbar.x_aug), tape.value(l.crossbar.x_neg)))
            .collect();
        let from_tape = net.power_report_from(&recorded).unwrap();
        let plain = net.power_report(&x).unwrap();
        prop_assert_eq!(from_tape.total().to_bits(), plain.total().to_bits());
        prop_assert_eq!(format!("{from_tape:?}"), format!("{plain:?}"));

        prop_assert_eq!(bits(&net.predict(&x).unwrap()), bits(tape.value(bound.logits)));
    }
}

/// Handles of the op-by-op reference chain for one layer.
struct RefLayer {
    theta: Var,
    rho: Var,
    input: Var,
    negated: Var,
}

/// `bind`'s forward and power model recorded op by op from the raw
/// features: every layer augments its input on the tape
/// (`append_bias_cols`) and negates the whole augmented input with the
/// negation surrogate, rails included. Returns the layers, the logits
/// and the power.
fn reference_chain(net: &PrintedNetwork, tape: &mut Tape, x: &Matrix) -> (Vec<RefLayer>, Var, Var) {
    let neg = net.negation();
    let act = net.activation();
    let cfg = net.config();
    let thetas = net.param_values();
    let l = net.layer_count();
    let mut h = tape.constant(x.clone());
    let mut layers = Vec::new();
    let mut power_terms = Vec::new();
    for i in 0..l {
        let theta = tape.parameter(thetas[i].clone());
        let rho = if net.designs_frozen() {
            tape.constant(thetas[l + i].clone())
        } else {
            tape.parameter(thetas[l + i].clone())
        };
        let input = tape.append_bias_cols(h);
        let negated = neg.eval_on_tape(tape, input);
        let out = crossbar::forward(tape, input, negated, theta, net.mask(i));
        h = act.apply_on_tape(tape, out.vz, rho);

        let masked = match net.mask(i) {
            Some(m) => tape.mul_const(theta, m),
            None => theta,
        };
        let width = thetas[i].rows() - 2;
        let p_cross = crossbar::power(tape, &out);
        let n_af = count::soft_af_count(tape, masked, &cfg.count);
        let n_neg = count::soft_neg_count(tape, masked, width, &cfg.count);
        let p_af_each = act.power_on_tape(tape, rho);
        let p_af = tape.mul(n_af, p_af_each);
        let p_neg = tape.mul_scalar(n_neg, neg.mean_power_watts);
        let sum1 = tape.add(p_cross, p_af);
        power_terms.push(tape.add(sum1, p_neg));
        layers.push(RefLayer {
            theta,
            rho,
            input,
            negated,
        });
    }
    let logits = tape.mul_scalar(h, cfg.logit_scale);
    let mut power = power_terms[0];
    for &t in &power_terms[1..] {
        power = tape.add(power, t);
    }
    (layers, logits, power)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encoding the features once, recording layer 0's drive as
    /// constants and appending the rails of hidden layers as constants
    /// changes no bit of the training step.
    #[test]
    fn batch_bind_equals_the_chain_recorded_op_by_op(
        seed in 0u64..1_000,
        inputs in 2usize..6,
        outputs in 2usize..5,
        rows in 1usize..9,
        data_seed in 0u64..1_000,
        deep in 0u8..2,
        masked in 0u8..2,
        frozen in 0u8..2,
    ) {
        let (act, neg) = smoke_parts().clone();
        let cfg = NetworkConfig {
            hidden: if deep == 1 { vec![5, 4] } else { vec![3] },
            ..NetworkConfig::default()
        };
        let mut rng = lrng::seeded(seed);
        let mut net = PrintedNetwork::new(inputs, outputs, cfg, act, neg, &mut rng).unwrap();
        if masked == 1 {
            let mut values = net.param_values();
            for v in values[0].as_mut_slice().iter_mut().step_by(3) {
                *v *= 0.001;
            }
            net.set_param_values(&values);
            net.build_masks();
        }
        net.set_freeze_designs(frozen == 1);
        let x = lrng::uniform_matrix(&mut lrng::seeded(data_seed), rows, inputs, -0.9, 0.9);
        let labels: Vec<usize> = (0..rows).map(|i| i % outputs).collect();
        let loss = |tape: &mut Tape, logits: Var, power: Var| {
            let ce = tape.softmax_cross_entropy(logits, &labels);
            let scaled = tape.mul_scalar(power, 1e3);
            tape.add(ce, scaled)
        };

        let mut reference = Tape::new();
        let (ref_layers, ref_logits, ref_power) = reference_chain(&net, &mut reference, &x);
        let ref_loss = loss(&mut reference, ref_logits, ref_power);
        let ref_grads = reference.backward(ref_loss);

        let mut tape = Tape::new();
        let bound = net.bind(&mut tape, &net.encode(&x).unwrap()).unwrap();
        let bound_loss = loss(&mut tape, bound.logits, bound.power);
        let grads = tape.backward(bound_loss);

        prop_assert_eq!(bits(tape.value(bound.logits)), bits(reference.value(ref_logits)));
        prop_assert_eq!(tape.scalar(bound.power).to_bits(), reference.scalar(ref_power).to_bits());
        prop_assert_eq!(tape.scalar(bound_loss).to_bits(), reference.scalar(ref_loss).to_bits());
        prop_assert_eq!(bound.layers.len(), ref_layers.len());
        for (b, r) in bound.layers.iter().zip(&ref_layers) {
            prop_assert_eq!(bits(tape.value(b.crossbar.x_aug)), bits(reference.value(r.input)));
            prop_assert_eq!(bits(tape.value(b.crossbar.x_neg)), bits(reference.value(r.negated)));
            for (bv, rv) in [(b.theta, r.theta), (b.rho, r.rho)] {
                match (grads.get(bv), ref_grads.get(rv)) {
                    (Some(g), Some(rg)) => prop_assert_eq!(bits(g), bits(rg)),
                    (None, None) => prop_assert!(frozen == 1, "a trainable parameter lost its gradient"),
                    _ => prop_assert!(false, "gradient present on one side only"),
                }
            }
        }
    }
}
