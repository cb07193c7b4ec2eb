//! Property test for in-place LU refactoring: one [`Lu`] refactored
//! through a sequence of matrices of sizes 1–6, with an exactly
//! singular matrix in the middle, must hold the same factors and give
//! the same solutions, bit for bit, as a fresh [`Lu::new`] of each
//! matrix. The singular matrix must still report `Singular`, and the
//! next refactor must recover.

use pnc_linalg::decomp::Lu;
use pnc_linalg::{LinalgError, Matrix};
use proptest::prelude::*;

/// Deterministic pseudo-random value in [-1, 1] (SplitMix64 finalizer).
fn entry(seed: u64, index: u64) -> f64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn refactor_equals_a_fresh_factorization_bitwise(
        sizes in proptest::collection::vec(1usize..7, 3..8),
        seed in 0u64..u64::MAX,
        zero_col in 0usize..6,
    ) {
        // The singular matrix goes in the middle of the sequence.
        let middle = sizes.len() / 2;
        let mut lu = Lu::default();
        let mut x = Vec::new();
        for (step, &n) in sizes.iter().enumerate() {
            let s = seed.wrapping_add(step as u64);
            let singular = step == middle;
            let zero = zero_col % n;
            // No diagonal boost: the pivot search must swap rows.
            let a = Matrix::from_fn(n, n, |i, j| {
                if singular && j == zero {
                    0.0
                } else {
                    entry(s, (i * n + j) as u64)
                }
            });
            let refactored = lu.refactor(&a);
            let fresh = Lu::new(&a);
            if singular {
                prop_assert!(
                    matches!(refactored, Err(LinalgError::Singular { .. })),
                    "a zero column must be singular: {refactored:?}"
                );
            }
            if step == middle + 1 {
                prop_assert!(refactored.is_ok(), "no recovery: {refactored:?}");
            }
            match (refactored, fresh) {
                (Ok(()), Ok(fresh)) => {
                    let (f, p) = lu.factors();
                    let (g, q) = fresh.factors();
                    prop_assert_eq!(f.shape(), g.shape());
                    prop_assert_eq!(bits(f.as_slice()), bits(g.as_slice()));
                    prop_assert_eq!(p, q);
                    prop_assert_eq!(lu.det().to_bits(), fresh.det().to_bits());
                    let b: Vec<f64> = (0..n).map(|i| entry(!s, i as u64)).collect();
                    lu.solve_into(&b, &mut x).unwrap();
                    prop_assert_eq!(bits(&x), bits(&fresh.solve(&b).unwrap()));
                }
                (Err(e), Err(f)) => prop_assert_eq!(e, f),
                (r, f) => prop_assert!(false, "refactor {r:?} vs fresh {:?}", f.map(|_| ())),
            }
        }
    }
}
