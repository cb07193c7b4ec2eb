//! Property tests for power attribution: on any network and input,
//! the attribution tree's children sum to their parent on every node
//! (within `SUM_REL_TOL` relative) and the root equals the scalar
//! total the trainer optimizes against. This is the conservation law
//! the `runs power` audit relies on — if a stage were dropped or
//! double-counted the tree would silently lie, so the invariant is
//! pinned across random topologies, seeds, and input batches.
//!
//! A second property pins the seams the training loop relies on:
//! pricing a bound tape's recorded layer inputs equals
//! `power_report`, and `predict` equals `bind`'s logits, bit for bit.

use pnc_autodiff::Tape;
use pnc_core::activation::{fit_negation_model, SurrogateFidelity};
use pnc_core::{LearnableActivation, NetworkConfig, PrintedNetwork};
use pnc_linalg::rng as lrng;
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
fn bits(m: &pnc_linalg::Matrix) -> Vec<u64> {
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
        let bound = net.bind(&mut tape, &x).unwrap();
        let recorded: Vec<&pnc_linalg::Matrix> =
            bound.layer_inputs.iter().map(|&v| tape.value(v)).collect();
        let from_tape = net.power_report_from(&recorded).unwrap();
        let plain = net.power_report(&x).unwrap();
        prop_assert_eq!(from_tape.total().to_bits(), plain.total().to_bits());
        prop_assert_eq!(format!("{from_tape:?}"), format!("{plain:?}"));

        prop_assert_eq!(bits(&net.predict(&x).unwrap()), bits(tape.value(bound.logits)));
    }
}
