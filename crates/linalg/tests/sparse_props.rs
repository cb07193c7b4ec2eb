//! Property tests for the sparse LU path on random MNA-shaped systems:
//! a boosted conductance diagonal, symmetric off-diagonal coupling, and
//! zero-diagonal source rows with ±1 voltage/current coupling — the
//! exact structure [`pnc_spice`]'s stamping produces. Dense LU with
//! partial pivoting is the oracle: solutions must agree to 1e-10
//! relative, and one symbolic analysis must serve arbitrarily many
//! numeric (re)factorizations of the same pattern.

use pnc_linalg::decomp::Lu;
use pnc_linalg::sparse::{PatternBuilder, SparseLu, SparsityPattern, SymbolicLu};
use pnc_linalg::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random entry in [-1, 1] from a seed and index
/// (SplitMix64 finalizer — same generator family the workspace uses
/// for seed derivation).
fn entry(seed: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// An MNA-shaped test system: `nodes` conductance rows + `sources`
/// branch rows. Node block: diagonally-dominant symmetric pattern with
/// a random subset of off-diagonal couplings. Source rows/columns:
/// zero diagonal, ±1 coupling to one node each — the structure that
/// makes naive no-pivot elimination fail and forces the sparse path
/// to handle pivoting like the dense oracle does. The *structure*
/// (which couplings exist, which nodes the sources pin) depends only
/// on `seed`; the numeric values also mix in `value_seed`, so two
/// calls with the same `seed` share one sparsity pattern, like two
/// Newton iterates of one topology.
fn mna_system(
    seed: u64,
    value_seed: u64,
    nodes: usize,
    sources: usize,
) -> (SparsityPattern, Vec<f64>, Matrix) {
    // Each ideal source pins a *distinct* node — two sources on one
    // node would be genuinely singular (duplicate constraint rows).
    let sources = sources.min(nodes);
    let n = nodes + sources;
    let mut b = PatternBuilder::new(n);
    let mut dense = Matrix::zeros(n, n);
    let mut slots: Vec<(usize, f64)> = Vec::new();
    let mut stamp = |b: &mut PatternBuilder, r: usize, c: usize, v: f64| {
        slots.push((b.slot(r, c), v));
        dense[(r, c)] += v;
    };
    for i in 0..nodes {
        // Conductance diagonal, boosted for diagonal dominance.
        let g = entry(value_seed, i as u64).abs() + 1.0 + nodes as f64;
        stamp(&mut b, i, i, g);
        for j in (i + 1)..nodes {
            // ~Half of the possible couplings (structure from `seed`),
            // symmetric, like a resistor between nodes i and j.
            if entry(seed, (7 + i * nodes + j) as u64) > 0.0 {
                let v = entry(value_seed, (7 + i * nodes + j) as u64).abs() + 0.1;
                stamp(&mut b, i, j, -v);
                stamp(&mut b, j, i, -v);
            }
        }
    }
    let offset = (entry(seed, 1000).abs() * nodes as f64) as usize % nodes;
    for k in 0..sources {
        let row = nodes + k;
        let node = (offset + k) % nodes;
        stamp(&mut b, row, node, 1.0);
        stamp(&mut b, node, row, 1.0);
    }
    let pattern = b.build();
    let mut values = pattern.new_values();
    for &(slot, v) in &slots {
        values[pattern.slot_position(slot)] += v;
    }
    (pattern, values, dense)
}

fn rhs(seed: u64, n: usize) -> Vec<f64> {
    (0..n).map(|i| entry(seed ^ 0xABCD, i as u64)).collect()
}

fn max_rel_err(sparse: &[f64], dense: &[f64]) -> f64 {
    sparse
        .iter()
        .zip(dense)
        .map(|(s, d)| (s - d).abs() / d.abs().max(1.0))
        .fold(0.0f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_solves_match_the_dense_oracle(
        seed in 0u64..100_000,
        nodes in 1usize..12,
        sources in 0usize..4,
    ) {
        let (pattern, values, dense) = mna_system(seed, seed, nodes, sources);
        let n = pattern.dim();
        let sym = Arc::new(SymbolicLu::analyze(&pattern));
        let slu = SparseLu::factorize(&sym, &values).unwrap();
        let dlu = Lu::new(&dense).unwrap();
        let b = rhs(seed, n);
        let xs = slu.solve(&b).unwrap();
        let xd = dlu.solve(&b).unwrap();
        let err = max_rel_err(&xs, &xd);
        prop_assert!(err < 1e-10, "sparse vs dense solution diverged by {err}");
    }

    #[test]
    fn one_symbolic_analysis_serves_many_numeric_values(
        seed in 0u64..100_000,
        nodes in 2usize..10,
        sources in 0usize..3,
    ) {
        // Same pattern, three different value sets: analyze once,
        // factorize once, then refactorize in place. Every numeric
        // pass must match the dense oracle on its own values.
        let (pattern, values, dense) = mna_system(seed, seed, nodes, sources);
        let n = pattern.dim();
        let sym = Arc::new(SymbolicLu::analyze(&pattern));
        let mut slu = SparseLu::factorize(&sym, &values).unwrap();
        let b = rhs(seed, n);
        for round in 1..3u64 {
            // Rescale the conductance block only — the physical analog
            // of re-stamping the same topology at a new Newton iterate.
            let (_, values2, dense2) = mna_system(seed, seed ^ (round << 32), nodes, sources);
            slu.refactorize(&values2).unwrap();
            let xs = slu.solve(&b).unwrap();
            let xd = Lu::new(&dense2).unwrap().solve(&b).unwrap();
            let err = max_rel_err(&xs, &xd);
            prop_assert!(err < 1e-10, "round {round}: diverged by {err}");
        }
        // And the structure still matches the first factorization's.
        prop_assert_eq!(slu.dim(), dense.rows());
    }
}
