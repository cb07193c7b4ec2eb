//! Block-triangular solves of large circuits.
//!
//! An exported network is block lower-triangular by construction: EGT
//! gates and VCVS control inputs draw no current, so no stage loads
//! the one that drives it. A [`BlockPlan`] finds that structure once
//! per circuit topology. A maximum transversal pairs every MNA equation
//! with an unknown it determines (a source's branch row has a
//! structurally zero diagonal, so the pairing is not the identity), and
//! Tarjan's strongly connected components of the paired dependency
//! graph give the diagonal blocks in an order where every block reads
//! only unknowns of earlier ones. [`BlockPlan::guess`] solves the
//! blocks in that order, each with the damped Newton descent of
//! [`crate::dc`] on its own small dense system. The result already
//! satisfies every equation, so [`crate::dc::solve_dc_planned`] accepts
//! it after one residual evaluation, and the whole circuit is never
//! factored.

use crate::dc::{newton_attempt, Equations, Linear, SolverConfig};
use crate::mna::{
    stamp_element, stamp_gmin, stamped_elements, unknown_count, JacobianSink, ResidualSink,
};
use crate::netlist::Circuit;
use crate::observe::pattern_fingerprint;
use crate::SpiceError;
use pnc_linalg::Matrix;

/// Marks an equation or unknown not yet paired.
const UNPAIRED: usize = usize::MAX;

/// Share of the caller's residual tolerance each block is solved to.
/// A block accepted at the caller's own tolerance sits at the edge of
/// it, and the errors add up stage after stage; at a thousandth of it
/// the whole-circuit solve accepts a start as accurate as its own cold
/// solution, while rounding in the KCL sums (~1e-18 A at the currents of
/// a printed network) stays far below the tighter bound.
const BLOCK_TOL_SHARE: f64 = 1e-3;

/// One diagonal block: equations and the unknowns they determine once
/// every earlier block is solved.
#[derive(Debug, Clone)]
struct Block {
    /// Equation rows, ascending (KCL rows come first).
    rows: Vec<usize>,
    /// Unknowns, ascending (node voltages come first).
    cols: Vec<usize>,
    /// `(KCL rows, node voltages)` heading `rows` and `cols`.
    heads: (usize, usize),
    /// `(element index, branch row)` of every element that contributes
    /// to `rows`, in element order.
    elements: Vec<(usize, usize)>,
}

/// The block lower-triangular solve order of one circuit topology.
///
/// Built once from the MNA stamp structure; serves every circuit that
/// shares the topology, whatever its element values (a perturbed print,
/// new input voltages).
#[derive(Debug, Clone)]
pub struct BlockPlan {
    /// Topology fingerprint of the planned circuit.
    fingerprint: u64,
    /// Element count of the planned circuit.
    elements: usize,
    /// `(block, position in its rows)` of every equation.
    row_slot: Vec<(usize, usize)>,
    /// `(block, position in its cols)` of every unknown.
    col_slot: Vec<(usize, usize)>,
    /// Blocks in solve order; empty when the circuit is structurally
    /// singular (no equation–unknown pairing covers every unknown).
    blocks: Vec<Block>,
}

/// Records the structural non-zeros of each Jacobian row.
struct Structure(Vec<Vec<usize>>);

impl JacobianSink for Structure {
    fn add(&mut self, row: usize, col: usize, _v: f64) {
        self.0[row].push(col);
    }
}

/// Records the equations one element contributes to.
struct Touched(Vec<usize>);

impl ResidualSink for Touched {
    fn add(&mut self, row: usize, _v: f64) {
        self.0.push(row);
    }
}

impl BlockPlan {
    /// Plans the block solve order of `circuit`'s topology.
    pub fn new(circuit: &Circuit) -> BlockPlan {
        let n = unknown_count(circuit);
        let n_nodes = circuit.node_count() - 1;
        let x = vec![0.0; n];
        let mut structure = Structure(vec![Vec::new(); n]);
        let mut ignored = Touched(Vec::new());
        for i in 0..n_nodes {
            stamp_gmin(i, &x, &mut structure, &mut ignored);
        }
        let mut touched = Vec::new();
        for (e, (element, branch_row)) in stamped_elements(circuit).enumerate() {
            let mut rows = Touched(Vec::new());
            stamp_element(element, branch_row, &x, &mut structure, &mut rows);
            rows.0.sort_unstable();
            rows.0.dedup();
            touched.push((e, branch_row, rows.0));
        }
        for cols in &mut structure.0 {
            cols.sort_unstable();
            cols.dedup();
        }
        let adj = structure.0;

        let mut plan = BlockPlan {
            fingerprint: pattern_fingerprint(circuit),
            elements: circuit.elements().len(),
            row_slot: vec![(0, 0); n],
            col_slot: vec![(0, 0); n],
            blocks: Vec::new(),
        };
        let Some(row_of_col) = max_transversal(&adj) else {
            return plan;
        };
        for mut cols in strong_components(&adj, &row_of_col) {
            let b = plan.blocks.len();
            cols.sort_unstable();
            let mut rows: Vec<usize> = cols.iter().map(|&c| row_of_col[c]).collect();
            rows.sort_unstable();
            for (p, &r) in rows.iter().enumerate() {
                plan.row_slot[r] = (b, p);
            }
            for (p, &c) in cols.iter().enumerate() {
                plan.col_slot[c] = (b, p);
            }
            let heads = (
                rows.iter().filter(|&&r| r < n_nodes).count(),
                cols.iter().filter(|&&c| c < n_nodes).count(),
            );
            plan.blocks.push(Block {
                rows,
                cols,
                heads,
                elements: Vec::new(),
            });
        }
        for (e, branch_row, rows) in touched {
            for r in rows {
                let block = &mut plan.blocks[plan.row_slot[r].0];
                if block.elements.last().map(|&(last, _)| last) != Some(e) {
                    block.elements.push((e, branch_row));
                }
            }
        }
        plan
    }

    /// Topology fingerprint of the planned circuit
    /// ([`crate::observe::pattern_fingerprint`]).
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A starting point for the DC solve of `circuit`, with the Newton
    /// iterations it took: every block solved in order by damped
    /// Newton, with the unknowns of earlier blocks held fixed. Each
    /// block starts from its unknowns in `start` (the previous time
    /// step's state, say), or from zero. Blocks take `cfg`'s iteration
    /// limit, damping and step tolerance, and a thousandth of its
    /// residual tolerance.
    ///
    /// `circuit` must share the planned topology: it may differ from
    /// the planned circuit in element values only. The state is `None`
    /// when a block fails to converge (its iterations still count),
    /// when `circuit` differs in size from the planned one, or when the
    /// topology is structurally singular; the caller then starts
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// May panic when `circuit` has the planned size but other wiring
    /// (checked in debug builds; release builds skip hashing the
    /// topology on every call).
    pub fn guess(
        &self,
        circuit: &Circuit,
        cfg: &SolverConfig,
        start: Option<&[f64]>,
    ) -> (Option<Vec<f64>>, usize) {
        let n = self.col_slot.len();
        if self.blocks.is_empty()
            || circuit.elements().len() != self.elements
            || unknown_count(circuit) != n
        {
            return (None, 0);
        }
        debug_assert_eq!(
            pattern_fingerprint(circuit),
            self.fingerprint,
            "guess: circuit is not of the planned topology"
        );
        let cfg = SolverConfig {
            residual_tol_amps: cfg.residual_tol_amps * BLOCK_TOL_SHARE,
            ..*cfg
        };
        let start = start.filter(|s| s.len() == n);
        let mut x = vec![0.0; n];
        let mut local = Vec::new();
        // One workspace serves every block.
        let mut lin = Linear::default();
        let mut iterations = 0;
        for (b, block) in self.blocks.iter().enumerate() {
            local.clear();
            local.extend(block.cols.iter().map(|&c| start.map_or(0.0, |s| s[c])));
            let eqs = BlockEquations {
                plan: self,
                block: b,
                circuit,
                x: &mut x,
            };
            match newton_attempt(eqs, &mut local, &cfg, None, &mut lin) {
                Ok((iters, _)) => iterations += iters,
                Err(SpiceError::NonConvergence { iterations: i, .. }) => {
                    return (None, iterations + i)
                }
                Err(_) => return (None, iterations),
            }
            for (&c, &v) in block.cols.iter().zip(&local) {
                x[c] = v;
            }
        }
        (Some(x), iterations)
    }
}

/// One block's equations over its own unknowns, every other unknown
/// held at its value in `x`.
struct BlockEquations<'a> {
    plan: &'a BlockPlan,
    block: usize,
    circuit: &'a Circuit,
    /// The whole circuit's unknowns: earlier blocks solved, later ones
    /// not yet read by this block.
    x: &'a mut [f64],
}

/// Keeps the stamps that land inside one block, in block coordinates.
struct BlockSink<'a, T: ?Sized> {
    plan: &'a BlockPlan,
    block: usize,
    out: &'a mut T,
}

impl JacobianSink for BlockSink<'_, Matrix> {
    fn add(&mut self, row: usize, col: usize, v: f64) {
        let ((rb, r), (cb, c)) = (self.plan.row_slot[row], self.plan.col_slot[col]);
        if rb == self.block && cb == self.block {
            self.out[(r, c)] += v;
        }
    }
}

impl ResidualSink for BlockSink<'_, [f64]> {
    fn add(&mut self, row: usize, v: f64) {
        let (rb, r) = self.plan.row_slot[row];
        if rb == self.block {
            self.out[r] += v;
        }
    }
}

impl Equations for BlockEquations<'_> {
    fn heads(&self) -> (usize, usize) {
        self.plan.blocks[self.block].heads
    }

    /// Stamps, in the whole circuit's order, GMIN on the block's KCL
    /// rows and every element contributing to its rows, so each entry
    /// sums its terms as the whole-circuit assembly does.
    fn assemble(&mut self, local: &[f64], lin: &mut Linear) {
        let (plan, b) = (self.plan, self.block);
        let block = &plan.blocks[b];
        for (&c, &v) in block.cols.iter().zip(local) {
            self.x[c] = v;
        }
        let (jacobian, residual) = lin.zeroed(block.cols.len());
        let mut j = BlockSink {
            plan,
            block: b,
            out: jacobian,
        };
        let mut r = BlockSink {
            plan,
            block: b,
            out: residual,
        };
        for &row in &block.rows[..block.heads.0] {
            stamp_gmin(row, self.x, &mut j, &mut r);
        }
        let elements = self.circuit.elements();
        for &(e, branch_row) in &block.elements {
            stamp_element(&elements[e], branch_row, self.x, &mut j, &mut r);
        }
    }
}

/// Pairs every row of the square structure `adj` (row → columns) with a
/// distinct column it contains, by augmenting paths. Returns the row
/// paired with each column, or `None` when no pairing covers every
/// column (structurally singular). Any such pairing gives the same
/// diagonal blocks.
fn max_transversal(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut row_of_col = vec![UNPAIRED; n];
    let mut col_of_row = vec![UNPAIRED; n];
    // Search state, stamped per root so it needs no clearing.
    let mut seen = vec![UNPAIRED; n];
    let mut via = vec![UNPAIRED; n];
    for root in 0..n {
        let mut stack = vec![root];
        let mut free = None;
        'search: while let Some(r) = stack.pop() {
            for &c in &adj[r] {
                if seen[c] == root {
                    continue;
                }
                seen[c] = root;
                via[c] = r;
                if row_of_col[c] == UNPAIRED {
                    free = Some(c);
                    break 'search;
                }
                stack.push(row_of_col[c]);
            }
        }
        // Flip the alternating path from the free column back to root.
        let mut c = free?;
        loop {
            let r = via[c];
            let previous = col_of_row[r];
            row_of_col[c] = r;
            col_of_row[r] = c;
            if r == root {
                break;
            }
            c = previous;
        }
    }
    Some(row_of_col)
}

/// Strongly connected components of the graph where unknown `c` depends
/// on every column of its paired row `adj[row_of_col[c]]`, in Tarjan's
/// order: every component after all the components it depends on.
/// Iterative, so deep dependency chains cannot overflow the stack.
fn strong_components(adj: &[Vec<usize>], row_of_col: &[usize]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![UNPAIRED; n];
    let mut low = vec![0; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut components = Vec::new();
    let mut next = 0;
    for root in 0..n {
        if index[root] != UNPAIRED {
            continue;
        }
        let mut calls = vec![(root, 0usize)];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut edge)) = calls.last_mut() {
            let deps = &adj[row_of_col[v]];
            if let Some(&w) = deps.get(*edge) {
                *edge += 1;
                if index[w] == UNPAIRED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    calls.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let mut component = Vec::new();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    component.push(w);
                    if w == v {
                        break;
                    }
                }
                components.push(component);
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::af::{attach_negation, VDD, VSS};
    use crate::dc::{solve_dc_with, tests::tanh_bank};
    use crate::mna::assemble;
    use crate::AfKind;
    use pnc_telemetry::Telemetry;

    /// Input → negation cell → unity buffer → crossbar resistor → p-tanh
    /// cell: two stages wired as an exported network wires them.
    fn buffered_chain() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        c.vsource(vdd, Circuit::GROUND, VDD);
        c.vsource(vss, Circuit::GROUND, VSS);
        let vin = c.node("in");
        c.vsource(vin, Circuit::GROUND, 0.4);
        let neg = attach_negation(&mut c, vdd, vss, vin);
        let buf = c.node("neg_buf");
        c.vcvs(buf, Circuit::GROUND, neg, Circuit::GROUND, 1.0);
        let z = c.node("z");
        c.resistor(buf, z, 50_000.0);
        c.resistor(vdd, z, 200_000.0);
        c.resistor(z, Circuit::GROUND, 100_000.0);
        let kind = AfKind::PTanh;
        kind.attach(&mut c, kind.default_design().q(), vdd, vss, z);
        c
    }

    /// Every unknown and every equation sits in exactly one square
    /// block, and no equation reads an unknown of a later block.
    fn assert_block_lower_triangular(c: &Circuit, plan: &BlockPlan) {
        let n = unknown_count(c);
        let mut seen_rows = vec![0; n];
        let mut seen_cols = vec![0; n];
        for block in &plan.blocks {
            assert_eq!(block.rows.len(), block.cols.len(), "square blocks");
            block.rows.iter().for_each(|&r| seen_rows[r] += 1);
            block.cols.iter().for_each(|&col| seen_cols[col] += 1);
        }
        assert!(seen_rows.iter().chain(&seen_cols).all(|&k| k == 1));
        // Any state with no symmetric accident exposes the structure.
        let x: Vec<f64> = (0..n).map(|i| 0.05 + 0.01 * i as f64).collect();
        let jac = assemble(c, &x).jacobian;
        for r in 0..n {
            for col in 0..n {
                if jac[(r, col)].abs() > 0.0 {
                    assert!(
                        plan.col_slot[col].0 <= plan.row_slot[r].0,
                        "row {r} reads unknown {col} of a later block"
                    );
                }
            }
        }
    }

    /// Starts `c` from the plan's guess and from cold: the guess must
    /// be accepted as it stands and agree with the cold solution.
    fn assert_guess_is_the_solution(c: &Circuit, plan: &BlockPlan) {
        let cfg = SolverConfig::default();
        let tel = Telemetry::disabled();
        let (guess, _) = plan.guess(c, &cfg, None);
        let guess = guess.expect("every block converges");
        let warm = solve_dc_with(c, &cfg, Some(&guess), &tel).expect("warm solve");
        let cold = solve_dc_with(c, &cfg, None, &tel).expect("cold solve");
        assert_eq!(
            warm.iterations(),
            0,
            "whole-circuit Newton accepts the guess"
        );
        for node in 0..c.node_count() {
            let d = (warm.voltage(node) - cold.voltage(node)).abs();
            assert!(d < 1e-9, "node {node} differs by {d:e} V");
        }
    }

    #[test]
    fn exported_style_circuits_split_into_small_ordered_blocks() {
        for c in [tanh_bank(4), buffered_chain()] {
            let plan = BlockPlan::new(&c);
            assert_block_lower_triangular(&c, &plan);
            let largest = plan.blocks.iter().map(|b| b.cols.len()).max();
            // One p-tanh cell is the largest coupled piece.
            assert_eq!(largest, Some(3), "{:?}", plan.blocks);
            assert_guess_is_the_solution(&c, &plan);
        }
    }

    #[test]
    fn a_feedback_loop_is_one_block_and_still_solves() {
        // Inverter whose output feeds back into its own gate node.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let gate = c.node("gate");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.7);
        c.resistor(vin, gate, 100_000.0);
        c.resistor(out, gate, 300_000.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, gate, Circuit::GROUND, 2e-4, 2e-5);
        let plan = BlockPlan::new(&c);
        assert_block_lower_triangular(&c, &plan);
        let (g, o) = (gate - 1, out - 1);
        assert_eq!(plan.col_slot[g].0, plan.col_slot[o].0, "loop in one block");
        assert_guess_is_the_solution(&c, &plan);
    }

    #[test]
    fn a_block_that_cannot_converge_gives_no_guess() {
        let c = tanh_bank(2);
        let plan = BlockPlan::new(&c);
        let one_step = SolverConfig {
            max_iterations: 1,
            ..SolverConfig::default()
        };
        let (state, iterations) = plan.guess(&c, &one_step, None);
        assert!(state.is_none());
        assert_eq!(iterations, 1, "the failed block's iteration counts");
        // A circuit of another size is not the planned topology.
        let other = plan.guess(&tanh_bank(3), &SolverConfig::default(), None);
        assert_eq!(other, (None, 0));
    }
}
