//! Sparse LU with pattern reuse for MNA-structured systems.
//!
//! The SPICE characterization workload solves the *same* sparsity
//! pattern thousands of times (BENCH_7 measured fingerprint
//! cardinality exactly 1 per activation kind). This module splits the
//! factorization into the three phases that makes cheap:
//!
//! 1. **Pattern** ([`PatternBuilder`] → [`SparsityPattern`]): the fixed
//!    set of structural nonzeros in compressed-sparse-column form, plus
//!    a slot map so stamping code can write values into preallocated
//!    positions without re-deriving coordinates.
//! 2. **Symbolic analysis** ([`SymbolicLu::analyze`]): a fill-reducing
//!    minimum-degree ordering of the pattern of `A + Aᵀ` and the
//!    permuted column gather lists. Pure function of the pattern —
//!    value-free, immutable, shareable across threads and solves.
//! 3. **Numeric factorization** ([`SparseLu::factorize`]): a
//!    left-looking Gilbert–Peierls factorization with partial pivoting
//!    (depth-first reach over the growing `L` structure, dense
//!    accumulator column). The first factorization freezes the pivot
//!    order and the `L`/`U` fill pattern; subsequent
//!    [`SparseLu::refactorize`] calls re-run only the numeric sweep
//!    over that frozen structure — no ordering, no reach, no pivot
//!    search — with a pivot-health guard that falls back to a full
//!    re-pivoted factorization when values drift too far.
//!
//! Row pivoting is not optional here: MNA branch rows (voltage
//! sources, controlled sources) have structurally zero diagonals, so a
//! diagonal-pivot factorization would fail on every circuit that
//! contains a source.
//!
//! The dense [`crate::decomp::Lu`] remains the fallback backend and the
//! oracle for the property tests in `tests/sparse_props.rs`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Absolute pivot magnitude below which a matrix is declared singular
/// (same floor as the dense LU in [`crate::decomp`]).
const PIVOT_FLOOR: f64 = 1e-300;

/// Relative pivot-drift guard for [`SparseLu::refactorize`]: when a
/// frozen pivot shrinks below this fraction of its column's largest
/// magnitude, the numeric-only sweep is abandoned and a full
/// re-pivoted factorization runs instead.
const PIVOT_DRIFT_TOL: f64 = 1e-6;

/// Sentinel for "row not yet chosen as a pivot".
const UNASSIGNED: usize = usize::MAX;

/// Records the structural nonzeros of a square matrix one *stamp slot*
/// at a time. Every [`PatternBuilder::slot`] call reserves one slot;
/// duplicate `(row, col)` coordinates are legal (MNA stamping hits the
/// same cell from several elements) and alias the same stored value
/// position, which accumulates under `+=` stamping.
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl PatternBuilder {
    /// Starts a pattern for an `n × n` matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Reserves a stamp slot at `(row, col)` and returns its slot id
    /// (dense in call order: 0, 1, 2, …).
    pub fn slot(&mut self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.n && col < self.n, "slot out of bounds");
        self.entries.push((row, col));
        self.entries.len() - 1
    }

    /// Finalizes the pattern: deduplicates coordinates into CSC storage
    /// and maps every slot to its value position.
    #[must_use]
    pub fn build(self) -> SparsityPattern {
        // (col, row) keys sort into CSC order directly.
        let mut positions: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for &(r, c) in &self.entries {
            let next = positions.len();
            positions.entry((c, r)).or_insert(next);
        }
        // Re-number in sorted (CSC) order.
        let mut csc_pos: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (i, (&key, _)) in positions.iter().enumerate() {
            csc_pos.insert(key, i);
        }
        let nnz = csc_pos.len();
        let mut col_ptr = vec![0usize; self.n + 1];
        let mut row_idx = vec![0usize; nnz];
        for (&(c, r), &p) in &csc_pos {
            col_ptr[c + 1] += 1;
            row_idx[p] = r;
        }
        for c in 0..self.n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let slot_pos = self
            .entries
            .iter()
            .map(|&(r, c)| csc_pos[&(c, r)])
            .collect();
        SparsityPattern {
            n: self.n,
            col_ptr,
            row_idx,
            slot_pos,
        }
    }
}

/// A fixed sparsity pattern in compressed-sparse-column form plus the
/// slot → value-position map produced by [`PatternBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    slot_pos: Vec<usize>,
}

impl SparsityPattern {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros (deduplicated).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Number of stamp slots reserved while building.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slot_pos.len()
    }

    /// Value position for `slot` (index into a values slice of length
    /// [`SparsityPattern::nnz`]).
    #[must_use]
    pub fn slot_position(&self, slot: usize) -> usize {
        self.slot_pos[slot]
    }

    /// A zeroed values buffer sized for this pattern.
    #[must_use]
    pub fn new_values(&self) -> Vec<f64> {
        vec![0.0; self.nnz()]
    }

    /// Materializes `values` as a dense matrix (test/oracle helper).
    #[must_use]
    pub fn to_dense(&self, values: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                m[(self.row_idx[p], c)] = values[p];
            }
        }
        m
    }
}

/// One-time symbolic analysis of a [`SparsityPattern`]: the
/// fill-reducing ordering and the permuted column gather lists. Pure
/// pattern data — no numeric state — so one `Arc<SymbolicLu>` is
/// safely shared across threads and reused for every solve of the same
/// circuit topology.
#[derive(Debug)]
pub struct SymbolicLu {
    n: usize,
    nnz: usize,
    /// Factor position → original index (symmetric fill-reducing
    /// minimum-degree order on `A + Aᵀ`).
    perm: Vec<usize>,
    /// Column `j` of the permuted matrix: `(permuted row, value
    /// position)` per structural entry.
    acols: Vec<Vec<(usize, usize)>>,
}

impl SymbolicLu {
    /// Analyzes `pattern`: computes the minimum-degree ordering and the
    /// permuted column structure.
    #[must_use]
    pub fn analyze(pattern: &SparsityPattern) -> Self {
        let n = pattern.n;
        let perm = min_degree_order(n, &pattern.col_ptr, &pattern.row_idx);
        let mut inv_perm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv_perm[old] = new;
        }
        let mut acols = vec![Vec::new(); n];
        for (jp, col) in acols.iter_mut().enumerate() {
            let c = perm[jp];
            for p in pattern.col_ptr[c]..pattern.col_ptr[c + 1] {
                col.push((inv_perm[pattern.row_idx[p]], p));
            }
        }
        SymbolicLu {
            n,
            nnz: pattern.nnz(),
            perm,
            acols,
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Structural nonzeros of the analyzed pattern.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The fill-reducing permutation (factor position → original
    /// index). Exposed for tests.
    #[must_use]
    pub fn ordering(&self) -> &[usize] {
        &self.perm
    }
}

/// Symmetric minimum-degree ordering on the pattern of `A + Aᵀ`
/// (classic elimination-graph variant; deterministic ties → smallest
/// index). Quadratic in `n`, which is fine at MNA sizes.
fn min_degree_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for c in 0..n {
        for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }
    let mut alive = vec![true; n];
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = UNASSIGNED;
        let mut best_deg = usize::MAX;
        for (v, &live) in alive.iter().enumerate() {
            if live && adj[v].len() < best_deg {
                best_deg = adj[v].len();
                best = v;
            }
        }
        let v = best;
        perm.push(v);
        alive[v] = false;
        let neigh: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &neigh {
            adj[u].remove(&v);
        }
        for a in 0..neigh.len() {
            for b in a + 1..neigh.len() {
                adj[neigh[a]].insert(neigh[b]);
                adj[neigh[b]].insert(neigh[a]);
            }
        }
        adj[v].clear();
    }
    perm
}

/// A numeric sparse LU factorization with a frozen structure: pivot
/// order, `L`/`U` fill and the scatter map are fixed at the first
/// [`SparseLu::factorize`]; [`SparseLu::refactorize`] re-runs only the
/// numeric sweep. All index arrays live in *pivot-position* space.
#[derive(Debug)]
pub struct SparseLu {
    n: usize,
    sym: Arc<SymbolicLu>,
    /// `L` (unit diagonal implicit): strictly-below-pivot entries per
    /// factor column, CSC-flattened.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// `U` above-diagonal entries per factor column (rows ascending —
    /// ascending pivot position is a valid elimination order).
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
    /// Pivot position → permuted row it eliminated.
    row_perm: Vec<usize>,
    /// Per factor column: `(pivot-space row, value position)` scatter
    /// list for loading the column from a values slice.
    scatter_ptr: Vec<usize>,
    scatter_x: Vec<usize>,
    scatter_pos: Vec<usize>,
}

/// Working state of the pivoting factorization, kept separate so the
/// frozen arrays can be assembled in one place.
struct FactorState {
    pinv: Vec<usize>,
    row_perm: Vec<usize>,
    /// `(permuted row, value)` pairs per column of `L`.
    lcols: Vec<Vec<(usize, f64)>>,
    /// `(pivot position, value)` pairs per column of `U`.
    ucols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
}

impl SparseLu {
    /// Factorizes `values` (CSC-position-indexed, as produced by
    /// stamping through the pattern's slot map) with partial pivoting,
    /// freezing the pivot order and fill structure for later
    /// [`SparseLu::refactorize`] calls.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `values` does not match the
    /// analyzed pattern's nonzero count; [`LinalgError::Singular`] when
    /// no acceptable pivot exists in some column.
    pub fn factorize(sym: &Arc<SymbolicLu>, values: &[f64]) -> Result<SparseLu, LinalgError> {
        if values.len() != sym.nnz {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_factorize",
                lhs: (values.len(), 1),
                rhs: (sym.nnz, 1),
            });
        }
        let state = factor_with_pivoting(sym, values)?;
        Ok(freeze(Arc::clone(sym), state))
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Recomputes the numeric factors for new `values` over the frozen
    /// structure. Returns `Ok(true)` when the cheap structure-reusing
    /// sweep succeeded, `Ok(false)` when pivot drift forced an internal
    /// full re-pivoted factorization (the factorization is still valid
    /// — callers only need the flag for accounting).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on a values-length mismatch and
    /// [`LinalgError::Singular`] when even the re-pivoted fallback
    /// fails; after an error the numeric contents are unspecified and
    /// the factorization must not be used for solves.
    pub fn refactorize(&mut self, values: &[f64]) -> Result<bool, LinalgError> {
        if values.len() != self.sym.nnz {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_refactorize",
                lhs: (values.len(), 1),
                rhs: (self.sym.nnz, 1),
            });
        }
        let n = self.n;
        let mut x = vec![0.0; n];
        for jp in 0..n {
            // Zero exactly the column's frozen pattern, then scatter.
            x[jp] = 0.0;
            for p in self.u_colptr[jp]..self.u_colptr[jp + 1] {
                x[self.u_rows[p]] = 0.0;
            }
            for p in self.l_colptr[jp]..self.l_colptr[jp + 1] {
                x[self.l_rows[p]] = 0.0;
            }
            for s in self.scatter_ptr[jp]..self.scatter_ptr[jp + 1] {
                x[self.scatter_x[s]] += values[self.scatter_pos[s]];
            }
            // Eliminate in ascending pivot order (valid topological
            // order of the frozen dependency DAG).
            for p in self.u_colptr[jp]..self.u_colptr[jp + 1] {
                let k = self.u_rows[p];
                let ukj = x[k];
                self.u_vals[p] = ukj;
                for q in self.l_colptr[k]..self.l_colptr[k + 1] {
                    x[self.l_rows[q]] -= self.l_vals[q] * ukj;
                }
            }
            let pivot = x[jp];
            let mut col_max = pivot.abs();
            for p in self.l_colptr[jp]..self.l_colptr[jp + 1] {
                col_max = col_max.max(x[self.l_rows[p]].abs());
            }
            if pivot.abs() < PIVOT_FLOOR || pivot.abs() < PIVOT_DRIFT_TOL * col_max {
                // Values drifted away from the frozen pivot choice:
                // redo the full pivoted factorization in place.
                let state = factor_with_pivoting(&self.sym, values)?;
                *self = freeze(Arc::clone(&self.sym), state);
                return Ok(false);
            }
            self.u_diag[jp] = pivot;
            for p in self.l_colptr[jp]..self.l_colptr[jp + 1] {
                self.l_vals[p] = x[self.l_rows[p]] / pivot;
            }
        }
        Ok(true)
    }

    /// Solves `A x = b` using the current factors.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_solve",
                lhs: (self.n, self.n),
                rhs: (b.len(), 1),
            });
        }
        let n = self.n;
        let mut c = vec![0.0; n];
        for k in 0..n {
            c[k] = b[self.sym.perm[self.row_perm[k]]];
        }
        // Forward substitution with unit-lower L.
        for k in 0..n {
            let ck = c[k];
            for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                c[self.l_rows[p]] -= self.l_vals[p] * ck;
            }
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            let ck = c[k] / self.u_diag[k];
            c[k] = ck;
            for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                c[self.u_rows[p]] -= self.u_vals[p] * ck;
            }
        }
        let mut x = vec![0.0; n];
        for j in 0..n {
            x[self.sym.perm[j]] = c[j];
        }
        Ok(x)
    }
}

/// Left-looking Gilbert–Peierls factorization with partial pivoting:
/// per column, a depth-first reach over the already-built `L`
/// structure discovers the fill pattern, a dense accumulator carries
/// the numeric column, and the largest-magnitude unassigned row
/// becomes the pivot (ties → smallest permuted row index, so the
/// result never depends on traversal incidentals).
fn factor_with_pivoting(sym: &SymbolicLu, values: &[f64]) -> Result<FactorState, LinalgError> {
    let n = sym.n;
    let mut st = FactorState {
        pinv: vec![UNASSIGNED; n],
        row_perm: vec![0; n],
        lcols: vec![Vec::new(); n],
        ucols: vec![Vec::new(); n],
        u_diag: vec![0.0; n],
    };
    let mut x = vec![0.0; n];
    let mut mark = vec![UNASSIGNED; n];
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for jp in 0..n {
        // Symbolic: reach of the column's structural rows through L.
        topo.clear();
        for &(r, _) in &sym.acols[jp] {
            if mark[r] == jp {
                continue;
            }
            mark[r] = jp;
            stack.push((r, 0));
            while let Some(&(row, cursor)) = stack.last() {
                let k = st.pinv[row];
                let deg = if k == UNASSIGNED {
                    0
                } else {
                    st.lcols[k].len()
                };
                if cursor < deg {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    let child = st.lcols[k][cursor].0;
                    if mark[child] != jp {
                        mark[child] = jp;
                        stack.push((child, 0));
                    }
                } else {
                    topo.push(row);
                    stack.pop();
                }
            }
        }
        // Numeric: scatter, then eliminate in reverse postorder
        // (dependencies before dependents).
        for &r in &topo {
            x[r] = 0.0;
        }
        for &(r, pos) in &sym.acols[jp] {
            x[r] += values[pos];
        }
        for &r in topo.iter().rev() {
            let k = st.pinv[r];
            if k == UNASSIGNED {
                continue;
            }
            let ukj = x[r];
            st.ucols[jp].push((k, ukj));
            for &(cr, lv) in &st.lcols[k] {
                x[cr] -= lv * ukj;
            }
        }
        st.ucols[jp].sort_unstable_by_key(|&(k, _)| k);
        // Pivot: largest magnitude among unassigned reached rows.
        let mut best = UNASSIGNED;
        let mut best_abs = -1.0;
        for &r in &topo {
            if st.pinv[r] != UNASSIGNED {
                continue;
            }
            let a = x[r].abs();
            if a > best_abs || (a >= best_abs && r < best) {
                best_abs = a;
                best = r;
            }
        }
        if best == UNASSIGNED || best_abs < PIVOT_FLOOR {
            return Err(LinalgError::Singular { pivot: jp });
        }
        st.pinv[best] = jp;
        st.row_perm[jp] = best;
        let pivot = x[best];
        st.u_diag[jp] = pivot;
        // Keep every structurally reached row — even numerically zero
        // ones — so the frozen pattern covers later refactorizations.
        let lcol = &mut st.lcols[jp];
        for &r in &topo {
            if st.pinv[r] == UNASSIGNED {
                lcol.push((r, x[r] / pivot));
            }
        }
        lcol.sort_unstable_by_key(|&(r, _)| r);
    }
    Ok(st)
}

/// Converts the pivoting factorization state into the frozen
/// pivot-position-space CSC arrays of a [`SparseLu`].
fn freeze(sym: Arc<SymbolicLu>, st: FactorState) -> SparseLu {
    let n = sym.n;
    let mut l_colptr = Vec::with_capacity(n + 1);
    let mut l_rows = Vec::new();
    let mut l_vals = Vec::new();
    let mut u_colptr = Vec::with_capacity(n + 1);
    let mut u_rows = Vec::new();
    let mut u_vals = Vec::new();
    let mut scatter_ptr = Vec::with_capacity(n + 1);
    let mut scatter_x = Vec::new();
    let mut scatter_pos = Vec::new();
    l_colptr.push(0);
    u_colptr.push(0);
    scatter_ptr.push(0);
    for jp in 0..n {
        for &(r, v) in &st.lcols[jp] {
            l_rows.push(st.pinv[r]);
            l_vals.push(v);
        }
        l_colptr.push(l_rows.len());
        for &(k, v) in &st.ucols[jp] {
            u_rows.push(k);
            u_vals.push(v);
        }
        u_colptr.push(u_rows.len());
        for &(r, pos) in &sym.acols[jp] {
            scatter_x.push(st.pinv[r]);
            scatter_pos.push(pos);
        }
        scatter_ptr.push(scatter_x.len());
    }
    SparseLu {
        n,
        sym,
        l_colptr,
        l_rows,
        l_vals,
        u_colptr,
        u_rows,
        u_vals,
        u_diag: st.u_diag,
        row_perm: st.row_perm,
        scatter_ptr,
        scatter_x,
        scatter_pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Lu;

    /// Builds an MNA-flavored test system: two node equations plus a
    /// voltage-source branch row with a structurally zero diagonal.
    fn mna_like() -> (SparsityPattern, Vec<f64>) {
        let mut b = PatternBuilder::new(3);
        let slots = vec![
            // Node 0: conductances + branch coupling.
            (b.slot(0, 0), 3.0e-4),
            (b.slot(0, 1), -1.0e-4),
            (b.slot(0, 2), 1.0),
            // Node 1.
            (b.slot(1, 0), -1.0e-4),
            (b.slot(1, 1), 2.0e-4),
            // Branch row: zero diagonal, needs pivoting.
            (b.slot(2, 0), 1.0),
        ];
        let pat = b.build();
        let mut vals = pat.new_values();
        for (slot, v) in slots {
            vals[pat.slot_position(slot)] += v;
        }
        (pat, vals)
    }

    fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-30))
            .fold(0.0, f64::max)
    }

    #[test]
    fn builder_dedups_aliased_slots() {
        let mut b = PatternBuilder::new(2);
        let s1 = b.slot(0, 0);
        let s2 = b.slot(0, 0);
        let s3 = b.slot(1, 0);
        let pat = b.build();
        assert_eq!(pat.nnz(), 2);
        assert_eq!(pat.slots(), 3);
        assert_eq!(pat.slot_position(s1), pat.slot_position(s2));
        assert_ne!(pat.slot_position(s1), pat.slot_position(s3));
    }

    #[test]
    fn ordering_is_a_permutation() {
        let (pat, _) = mna_like();
        let sym = SymbolicLu::analyze(&pat);
        let mut seen = sym.ordering().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn zero_diagonal_source_row_is_pivoted() {
        let (pat, vals) = mna_like();
        let sym = Arc::new(SymbolicLu::analyze(&pat));
        let lu = SparseLu::factorize(&sym, &vals).expect("factorizes despite zero diagonal");
        let b = vec![1.0, -0.5, 0.25];
        let x = lu.solve(&b).expect("solves");
        let dense = Lu::new(&pat.to_dense(&vals)).expect("dense oracle");
        let xd = dense.solve(&b).expect("dense solve");
        assert!(max_rel_err(&x, &xd) < 1e-12, "{x:?} vs {xd:?}");
    }

    #[test]
    fn refactorize_reuses_structure_and_matches_dense() {
        let (pat, vals) = mna_like();
        let sym = Arc::new(SymbolicLu::analyze(&pat));
        let mut lu = SparseLu::factorize(&sym, &vals).expect("first factorization");
        // Perturb values (same signs/magnitudes — a Newton re-stamp).
        let vals2: Vec<f64> = vals.iter().map(|v| v * 1.25).collect();
        let reused = lu.refactorize(&vals2).expect("refactorize");
        assert!(reused, "mild value change must reuse the frozen pivots");
        let b = vec![0.5, 1.5, -1.0];
        let x = lu.solve(&b).expect("solve after refactorize");
        let dense = Lu::new(&pat.to_dense(&vals2)).expect("dense oracle");
        let xd = dense.solve(&b).expect("dense solve");
        assert!(max_rel_err(&x, &xd) < 1e-12, "{x:?} vs {xd:?}");
    }

    #[test]
    fn refactorize_falls_back_on_pivot_drift() {
        // Start with a matrix whose natural pivots sit off-diagonal,
        // then hand refactorize values whose magnitudes invert — the
        // frozen pivot becomes tiny relative to its column and the
        // sweep must fall back to a full factorization, still
        // producing correct factors.
        let mut b = PatternBuilder::new(2);
        b.slot(0, 0);
        b.slot(1, 0);
        b.slot(0, 1);
        b.slot(1, 1);
        let pat = b.build();
        let sym = Arc::new(SymbolicLu::analyze(&pat));
        let mut vals = pat.new_values();
        // [[1e-9, 1], [1, 1e-9]] — pivots land on the off-diagonal.
        vals[pat.slot_position(0)] = 1e-9;
        vals[pat.slot_position(1)] = 1.0;
        vals[pat.slot_position(2)] = 1.0;
        vals[pat.slot_position(3)] = 1e-9;
        let mut lu = SparseLu::factorize(&sym, &vals).expect("factorize");
        // Swap the magnitudes: the frozen pivot rows now hold 1e-9.
        let mut vals2 = pat.new_values();
        vals2[pat.slot_position(0)] = 1.0;
        vals2[pat.slot_position(1)] = 1e-9;
        vals2[pat.slot_position(2)] = 1e-9;
        vals2[pat.slot_position(3)] = 1.0;
        let reused = lu.refactorize(&vals2).expect("fallback refactorize");
        assert!(!reused, "magnitude inversion must trigger the fallback");
        let x = lu.solve(&[1.0, 2.0]).expect("solve");
        let dense = Lu::new(&pat.to_dense(&vals2)).expect("dense");
        let xd = dense.solve(&[1.0, 2.0]).expect("dense solve");
        assert!(max_rel_err(&x, &xd) < 1e-10, "{x:?} vs {xd:?}");
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut b = PatternBuilder::new(2);
        b.slot(0, 0);
        b.slot(1, 0);
        let pat = b.build();
        let sym = Arc::new(SymbolicLu::analyze(&pat));
        let vals = vec![1.0, 1.0];
        // Column 1 has no structural entries → structurally singular.
        assert!(matches!(
            SparseLu::factorize(&sym, &vals),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn wrong_value_length_is_rejected() {
        let (pat, _) = mna_like();
        let sym = Arc::new(SymbolicLu::analyze(&pat));
        assert!(matches!(
            SparseLu::factorize(&sym, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
