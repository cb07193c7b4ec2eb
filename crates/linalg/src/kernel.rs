//! The one register-tiled loop under every dense product.
//!
//! [`Matrix::try_matmul`](crate::Matrix::try_matmul),
//! [`Matrix::t_matmul`](crate::Matrix::t_matmul) and
//! [`Matrix::matmul_t`](crate::Matrix::matmul_t) all compute
//! `C[i][j] = Σₚ A[i][p]·B[p][j]` and differ only in where `A` and `B`
//! keep their elements. Each describes its operands as an [`Operand`]
//! and hands them to [`product`].
//!
//! **The contract.** Every output element starts at `+0.0` and adds
//! `A[i][p]·B[p][j]` for `p = 0, 1, …, k − 1` in ascending order, with
//! no fused multiply-add. With `SKIP`, a term whose `A[i][p]` is
//! an exact zero (either sign) is not added at all, so an `∞` or `NaN`
//! in `B` behind it never reaches the sum. A tile holds up to
//! [`MR`] × [`NR`] outputs in registers while they sum, and the
//! parallel path hands each worker a block of whole rows; both only
//! change which elements are computed together, never the terms of one
//! element or their order. Every product is therefore bit-identical to
//! the naive triple loop, at any shape and any thread count.

use pnc_parallel::ExecutorHandle;

/// Output rows per register tile.
const MR: usize = 4;

/// Output columns per register tile; the last tile of a row may be
/// narrower.
const NR: usize = 4;

/// Products below this flop count (`m · k · n`) always run
/// sequentially: the per-call scoped-spawn overhead of the executor
/// (~tens of µs) would swamp the arithmetic, and the training hot loop
/// multiplies many small per-layer matrices. On a 2-vCPU VM a
/// 1600 × 32 · 32 × 32 product (1.6 Mi flops) gains about 14 % from a
/// second thread and a 1600 × 6 · 6 × 32 one (300 Ki) loses about 40 %;
/// ROADMAP records the measurement.
pub(crate) const PAR_MIN_FLOPS: usize = 1024 * 1024;

/// Row blocks handed out per worker thread. More blocks than threads
/// lets the atomic work queue even out rows of unequal cost (the
/// zero-skip makes pruned rows cheaper); block size only changes the
/// partition, never the per-element arithmetic, so results are
/// bit-identical for any value.
const PAR_BLOCKS_PER_THREAD: usize = 4;

/// Where one operand keeps its elements, seen from the tile: element
/// `(t, p)` pairs tile index `t` (an output row for `A`, an output
/// column for `B`) with summation index `p`.
pub(crate) trait Operand: Copy + Sync {
    /// One tile's view of the operand.
    type Panel<const R: usize>: Panel<R>;

    /// The view of the `R` tile indices from `t0`, summed over `k`.
    fn panel<const R: usize>(self, t0: usize, k: usize) -> Self::Panel<R>;
}

/// The values one tile reads at each summation index.
pub(crate) trait Panel<const R: usize> {
    /// The tile's `R` values at summation index `p < k`.
    fn at(&self, p: usize) -> [f64; R];
}

/// `(t, p)` at `data[t · k + p]`: each tile index's `k` values are
/// contiguous (the lhs of `matmul` and `matmul_t`, the rhs of
/// `matmul_t`).
#[derive(Clone, Copy)]
pub(crate) struct AlongP<'a>(pub &'a [f64]);

/// `AcrossP(data, ld)` has `(t, p)` at `data[p · ld + t]`: the values of
/// one `p` are contiguous across tile indices (the rhs of `matmul` and
/// `t_matmul`, the lhs of `t_matmul`).
#[derive(Clone, Copy)]
pub(crate) struct AcrossP<'a>(pub &'a [f64], pub usize);

/// [`AlongP`]'s tile view: one run of exactly `k` values per tile
/// index, so the summation loop indexes them without bounds checks.
pub(crate) struct Runs<'a, const R: usize>([&'a [f64]; R]);

/// [`AcrossP`]'s tile view: the operand from the tile's first index.
pub(crate) struct Strided<'a> {
    data: &'a [f64],
    ld: usize,
}

impl<'a> Operand for AlongP<'a> {
    type Panel<const R: usize> = Runs<'a, R>;

    #[inline(always)]
    fn panel<const R: usize>(self, t0: usize, k: usize) -> Runs<'a, R> {
        Runs(std::array::from_fn(|r| {
            &self.0[(t0 + r) * k..(t0 + r + 1) * k]
        }))
    }
}

impl<const R: usize> Panel<R> for Runs<'_, R> {
    #[inline(always)]
    fn at(&self, p: usize) -> [f64; R] {
        std::array::from_fn(|r| self.0[r][p])
    }
}

impl<'a> Operand for AcrossP<'a> {
    type Panel<const R: usize> = Strided<'a>;

    #[inline(always)]
    fn panel<const R: usize>(self, t0: usize, _k: usize) -> Strided<'a> {
        // With k = 0 the operand is empty and `at` is never called.
        Strided {
            data: &self.0[t0.min(self.0.len())..],
            ld: self.1,
        }
    }
}

impl<const R: usize> Panel<R> for Strided<'_> {
    #[inline(always)]
    fn at(&self, p: usize) -> [f64; R] {
        let run = &self.data[p * self.ld..p * self.ld + R];
        std::array::from_fn(|r| run[r])
    }
}

/// Sums the `MR_ × NR_` tile at global output rows `i0..` and columns
/// `j0..` in registers, then writes it into `out`: the strip's rows,
/// row stride `n`.
#[inline(always)]
fn tile<A: Operand, B: Operand, const SKIP: bool, const MR_: usize, const NR_: usize>(
    a: A,
    b: B,
    k: usize,
    i0: usize,
    j0: usize,
    out: &mut [f64],
    n: usize,
) {
    let pa = a.panel::<MR_>(i0, k);
    let pb = b.panel::<NR_>(j0, k);
    let mut acc = [[0.0f64; NR_]; MR_];
    for p in 0..k {
        let av = pa.at(p);
        let bv = pb.at(p);
        // lint: allow(L002, reason = "zero-skip contract: only a bit-exact zero may skip its term")
        let any_zero = SKIP && av.iter().fold(false, |z, &x| z | (x == 0.0));
        if any_zero {
            for r in 0..MR_ {
                // lint: allow(L002, reason = "zero-skip contract: only a bit-exact zero may skip its term")
                if av[r] == 0.0 {
                    continue;
                }
                for c in 0..NR_ {
                    acc[r][c] += av[r] * bv[c];
                }
            }
        } else {
            for r in 0..MR_ {
                for c in 0..NR_ {
                    acc[r][c] += av[r] * bv[c];
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[r * n + j0..r * n + j0 + NR_].copy_from_slice(row);
    }
}

/// Fills `MR_` whole output rows starting at global row `i0`.
#[inline(always)]
fn row_strip<A: Operand, B: Operand, const SKIP: bool, const MR_: usize>(
    a: A,
    b: B,
    k: usize,
    i0: usize,
    out: &mut [f64],
    n: usize,
) {
    let mut j0 = 0;
    while j0 + NR <= n {
        tile::<A, B, SKIP, MR_, NR>(a, b, k, i0, j0, out, n);
        j0 += NR;
    }
    match n - j0 {
        3 => tile::<A, B, SKIP, MR_, 3>(a, b, k, i0, j0, out, n),
        2 => tile::<A, B, SKIP, MR_, 2>(a, b, k, i0, j0, out, n),
        1 => tile::<A, B, SKIP, MR_, 1>(a, b, k, i0, j0, out, n),
        _ => {}
    }
}

/// Fills the output rows `block` holds, the first being global row
/// `i0`.
fn fill_rows<A: Operand, B: Operand, const SKIP: bool>(
    a: A,
    b: B,
    k: usize,
    i0: usize,
    block: &mut [f64],
    n: usize,
) {
    let mut r = 0;
    for strip in block.chunks_exact_mut(MR * n) {
        row_strip::<A, B, SKIP, MR>(a, b, k, i0 + r, strip, n);
        r += MR;
    }
    let rest = &mut block[r * n..];
    match rest.len() / n {
        3 => row_strip::<A, B, SKIP, 3>(a, b, k, i0 + r, rest, n),
        2 => row_strip::<A, B, SKIP, 2>(a, b, k, i0 + r, rest, n),
        1 => row_strip::<A, B, SKIP, 1>(a, b, k, i0 + r, rest, n),
        _ => {}
    }
}

/// Writes the `m × n` product of `a` (`m × k`) and `b` (`k × n`) into
/// `out` (length `m · n`, row-major) under the contract in the module
/// docs. Large products fan out over blocks of whole output rows when
/// the executor fans out (not at `--threads 1`, nor inside a join
/// branch).
pub(crate) fn product<A: Operand, B: Operand, const SKIP: bool>(
    a: A,
    b: B,
    (m, k, n): (usize, usize, usize),
    out: &mut [f64],
) {
    if n == 0 {
        return;
    }
    let ex = ExecutorHandle::get();
    if m >= 2 && m * k * n >= PAR_MIN_FLOPS && ex.fans_out() {
        let blocks = (ex.threads() * PAR_BLOCKS_PER_THREAD).min(m);
        let rows_per_block = m.div_ceil(blocks).next_multiple_of(MR);
        ex.par_for_chunks(out, rows_per_block * n, |block, chunk| {
            fill_rows::<A, B, SKIP>(a, b, k, block * rows_per_block, chunk, n);
        });
    } else {
        fill_rows::<A, B, SKIP>(a, b, k, 0, out, n);
    }
}
