//! Property test of the dense-product contract: `matmul`, `t_matmul`
//! and `matmul_t` equal naive triple loops bit for bit. Every output
//! element starts at `+0.0` and adds its terms for `p = 0, 1, …, k − 1`
//! in ascending order; `matmul` and `t_matmul` skip a term whose lhs
//! factor is an exact zero, `matmul_t` skips none.
//!
//! Shapes run over `m, k, n ∈ 0..=9`, so every remainder of the
//! register tile shows up, and one shape above the parallel threshold
//! runs the row-blocked path. The lhs carries exact zeros (scattered,
//! plus a whole zero row and column), and the rhs carries `±∞` and
//! `NaN` only behind zero lhs factors: they must not reach the output
//! of `matmul` or `t_matmul`, and they must reach that of `matmul_t`.

use pnc_linalg::Matrix;
use pnc_parallel::ExecutorHandle;
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

const SPECIALS: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// Three threads, so the parallel path cuts row blocks that are not a
/// multiple of the tile height. The first lookup in the process fixes
/// the count; every test asks for the same one.
fn three_threads() {
    ExecutorHandle::configure(3);
}

/// `m × k` lhs for `matmul`: about a quarter of the entries are exact
/// zeros of either sign, row `zero_row` and column `zero_col` are
/// entirely zero.
fn lhs(seed: u64, m: usize, k: usize, zero_row: usize, zero_col: usize) -> Matrix {
    Matrix::from_fn(m, k, |i, p| {
        let v = entry(seed, (i * k + p) as u64);
        if i == zero_row || p == zero_col || v.abs() < 0.125 {
            0.0
        } else if v.abs() < 0.25 {
            -0.0
        } else {
            v
        }
    })
}

/// `k × n` rhs: row `special_row` holds `±∞`/`NaN`, the rest is finite.
fn rhs(seed: u64, k: usize, n: usize, special_row: usize) -> Matrix {
    Matrix::from_fn(k, n, |p, j| {
        if p == special_row {
            SPECIALS[j % SPECIALS.len()]
        } else {
            entry(seed ^ 0x5555, (p * n + j) as u64)
        }
    })
}

/// `C[i][j] = Σₚ A[i][p]·B[p][j]`, `p` ascending from `+0.0`, with
/// `at_a(i, p)` and `at_b(p, j)` reading the operands.
fn naive(
    (m, k, n): (usize, usize, usize),
    at_a: impl Fn(usize, usize) -> f64,
    at_b: impl Fn(usize, usize) -> f64,
    skip_zeros: bool,
) -> Matrix {
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                let a = at_a(i, p);
                if skip_zeros && a == 0.0 {
                    continue;
                }
                acc += a * at_b(p, j);
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Bit-for-bit equality. Two NaNs count as equal: which NaN payload an
/// addition propagates is not something the contract fixes.
fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {idx}: {g:e} vs {w:e}"
        );
    }
}

/// Checks all three products of one lhs `a` (`m × k`) against the
/// naive loops, with specials in the rhs behind `a`'s zero column.
fn check_products(seed: u64, (m, k, n): (usize, usize, usize), zero_row: usize, zero_col: usize) {
    let a = lhs(seed, m, k, zero_row, zero_col);

    // matmul: B[p][j] meets A[i][p] for every i; a zero column of A
    // shields row `zero_col` of B.
    let b = rhs(seed, k, n, zero_col);
    let got = a.matmul(&b);
    let want = naive((m, k, n), |i, p| a[(i, p)], |p, j| b[(p, j)], true);
    assert_bits_eq(&got, &want, "matmul");
    assert!(got.all_finite(), "matmul: a special leaked past a zero");

    // t_matmul: the same product with A stored transposed (k × m),
    // whose zero row `zero_col` shields row `zero_col` of B.
    let at = a.transpose();
    let got = at.t_matmul(&b).unwrap();
    let want = naive((m, k, n), |i, p| at[(p, i)], |p, j| b[(p, j)], true);
    assert_bits_eq(&got, &want, "t_matmul");
    assert!(got.all_finite(), "t_matmul: a special leaked past a zero");

    // matmul_t: A·Bᵀ with B read as n × k; no term is skipped, so the
    // specials behind A's zero column reach every row of the output.
    let b = rhs(seed, k, n, zero_col).transpose();
    let got = a.matmul_t(&b).unwrap();
    let want = naive((m, k, n), |i, p| a[(i, p)], |p, j| b[(j, p)], false);
    assert_bits_eq(&got, &want, "matmul_t");
    if zero_col < k {
        for i in 0..m {
            for j in 0..n {
                assert!(
                    got[(i, j)].is_nan(),
                    "matmul_t: 0·special must reach ({i}, {j})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn products_equal_naive_loops_bitwise(
        m in 0usize..10,
        k in 0usize..10,
        n in 0usize..10,
        seed in 0u64..u64::MAX,
        zeros in (0usize..11, 0usize..11),
    ) {
        three_threads();
        // Indices past the shape leave that row or column alone.
        check_products(seed, (m, k, n), zeros.0, zeros.1);
    }
}

#[test]
fn row_blocked_products_equal_naive_loops_bitwise() {
    three_threads();
    // 131 · 97 · 83 = 1 054 681 flops, above the 1 Mi parallel
    // threshold; 131 rows and 83 columns leave a partial tile on both
    // edges.
    for seed in 0..2 {
        check_products(seed, (131, 97, 83), 5, 17);
    }
}
