//! DC operating-point analysis: damped Newton–Raphson with supply
//! ramping as a homotopy fallback.

use crate::block::BlockPlan;
use crate::mna::{assemble_into, node_voltage, unknown_count, JacobianSink};
use crate::netlist::{Circuit, Element};
use crate::{observe, stats, SpiceError};
use pnc_linalg::cond::cond1_estimate;
use pnc_linalg::decomp::Lu;
use pnc_linalg::Matrix;
use pnc_telemetry::{Event, Level, Stopwatch, Telemetry};

/// Newton iteration limits and tolerances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Maximum Newton iterations per attempt.
    pub max_iterations: usize,
    /// Convergence threshold on the KCL residual (amperes).
    pub residual_tol_amps: f64,
    /// Convergence threshold on the voltage update (volts).
    pub step_tol_volts: f64,
    /// Maximum voltage change per Newton step (damping).
    pub max_step_volts: f64,
    /// Number of supply-ramp stages used when the cold start fails.
    pub ramp_stages: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iterations: 200,
            residual_tol_amps: 1e-12,
            step_tol_volts: 1e-10,
            max_step_volts: 0.4,
            ramp_stages: 8,
        }
    }
}

/// A converged DC solution.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    source_currents: Vec<f64>,
    iterations: usize,
    residual: f64,
}

impl OperatingPoint {
    /// Splits the solved unknown vector `x` after its `n_nodes` node
    /// voltages.
    fn from_state(x: &[f64], n_nodes: usize, iterations: usize, residual: f64) -> Self {
        OperatingPoint {
            voltages: x[..n_nodes].to_vec(),
            source_currents: x[n_nodes..].to_vec(),
            iterations,
            residual,
        }
    }

    /// Voltage of `node` (ground reports 0).
    pub fn voltage(&self, node: usize) -> f64 {
        if node == Circuit::GROUND {
            0.0
        } else {
            self.voltages[node - 1]
        }
    }

    /// Branch current of the `k`-th voltage source (in element order);
    /// positive current flows out of the `+` terminal through the
    /// external circuit... measured *into* the + terminal inside MNA, so
    /// a source *delivering* power reports a negative value here.
    pub fn source_current(&self, k: usize) -> f64 {
        self.source_currents[k]
    }

    /// Whole-circuit Newton iterations spent (including ramp stages).
    /// A planned solve's block iterations are not among them; the
    /// solver statistics count both.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// KCL residual norm (amperes) at the accepted solution — the
    /// value that passed the convergence test.
    pub fn final_residual(&self) -> f64 {
        self.residual
    }

    /// The solved unknown vector (`non-ground voltages ++ source
    /// currents`) — the form a warm start takes.
    pub(crate) fn state(&self) -> Vec<f64> {
        let mut state = self.voltages.clone();
        state.extend_from_slice(&self.source_currents);
        state
    }

    /// All node voltages including ground, indexed by `NodeId`.
    pub fn all_voltages(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.voltages.len() + 1);
        v.push(0.0);
        v.extend_from_slice(&self.voltages);
        v
    }
}

/// The workspace of one DC solve: the Jacobian and residual the last
/// assembly stamped, the Jacobian's LU factors, the negated residual
/// and the Newton step. Every Newton iteration of the solve — across
/// blocks, the plain attempt and each ramp stage — refills the same
/// storage, which grows to the largest system seen and is then never
/// reallocated. A workspace lives for one solve in its caller's frame;
/// no thread shares it.
#[derive(Default)]
pub(crate) struct Linear {
    jacobian: Matrix,
    residual: Vec<f64>,
    lu: Lu,
    neg_residual: Vec<f64>,
    step: Vec<f64>,
}

impl Linear {
    /// A zeroed `k × k` Jacobian and length-`k` residual for the caller
    /// to assemble into.
    pub(crate) fn zeroed(&mut self, k: usize) -> (&mut Matrix, &mut [f64]) {
        self.jacobian.resize_zeroed(k, k);
        self.residual.clear();
        self.residual.resize(k, 0.0);
        (&mut self.jacobian, &mut self.residual)
    }

    /// Factors the assembled Jacobian and solves `J·step = −residual`.
    fn solve(&mut self) -> Result<(), SpiceError> {
        let singular = |_| SpiceError::SingularMatrix;
        self.lu.refactor(&self.jacobian).map_err(singular)?;
        self.neg_residual.clear();
        self.neg_residual.extend(self.residual.iter().map(|r| -r));
        self.lu
            .solve_into(&self.neg_residual, &mut self.step)
            .map_err(singular)
    }

    /// `(dimension, structural non-zeros)` of the Jacobian: the
    /// bit-exact non-zeros of the assembled matrix.
    fn shape(&self) -> (usize, usize) {
        let j = &self.jacobian;
        // lint: allow(L002, reason = "sparsity counting: only a bit-exact zero is a structural zero")
        let nnz = j.as_slice().iter().filter(|&&v| v != 0.0).count();
        (j.rows(), nnz)
    }

    /// Conditioning estimate from the factors the last step paid for.
    fn cond1_estimate(&self) -> Option<f64> {
        cond1_estimate(&self.jacobian, &self.lu).ok()
    }
}

/// The square system one damped Newton descent drives to zero: a whole
/// circuit, or one block of it ([`crate::block::BlockPlan`]). Residual
/// rows lead with KCL rows (amperes) and unknowns with node voltages.
pub(crate) trait Equations {
    /// `(kcl_rows, voltages)`: the descent tests the residual of the
    /// first `kcl_rows` equations and damps the first `voltages` steps.
    fn heads(&self) -> (usize, usize);

    /// Assembles the Jacobian and residual at `x` into `lin`
    /// ([`Linear::zeroed`]).
    fn assemble(&mut self, x: &[f64], lin: &mut Linear);
}

impl Equations for &Circuit {
    fn heads(&self) -> (usize, usize) {
        let n_nodes = self.node_count() - 1;
        (n_nodes, n_nodes)
    }

    fn assemble(&mut self, x: &[f64], lin: &mut Linear) {
        let (j, f) = lin.zeroed(x.len());
        assemble_into(self, x, j, f);
    }
}

/// Largest absolute entry of `v` (0 when empty).
fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, r| m.max(r.abs()))
}

/// One damped Newton descent of `eqs` on dense LU in the caller's
/// workspace `lin`. Returns `(iterations, residual)` on convergence;
/// the residual is the KCL norm that passed the test.
pub(crate) fn newton_attempt(
    mut eqs: impl Equations,
    x: &mut [f64],
    cfg: &SolverConfig,
    mut cap: Option<&mut observe::AttemptCapture>,
    lin: &mut Linear,
) -> Result<(usize, f64), SpiceError> {
    let (kcl_rows, voltages) = eqs.heads();
    for iter in 0..cfg.max_iterations {
        eqs.assemble(x, lin);
        let max_resid = inf_norm(&lin.residual[..kcl_rows]);
        // Converged on arrival: every equation — including the linear
        // source rows, which a warm start from a different sweep point
        // leaves violated — is satisfied at `x`, so the step would be
        // ~0 and the factorization pure confirmation. Well-predicted
        // warm starts land here one iteration early.
        if inf_norm(&lin.residual) < cfg.residual_tol_amps {
            return Ok((iter, max_resid));
        }
        lin.solve()?;
        let dx = &lin.step;

        // Damping: limit voltage updates; currents move freely.
        let max_dv = inf_norm(&dx[..voltages]);
        let scale = if max_dv > cfg.max_step_volts {
            cfg.max_step_volts / max_dv
        } else {
            1.0
        };
        if let Some(c) = cap.as_deref_mut() {
            c.record_iteration(
                || lin.shape(),
                lin.cond1_estimate(),
                max_resid,
                max_dv * scale,
                scale < 1.0,
            );
        }
        for (xi, di) in x.iter_mut().zip(dx) {
            *xi += scale * di;
        }

        if max_resid < cfg.residual_tol_amps && max_dv * scale < cfg.step_tol_volts {
            return Ok((iter + 1, max_resid));
        }
    }
    eqs.assemble(x, lin);
    Err(SpiceError::NonConvergence {
        iterations: cfg.max_iterations,
        residual: inf_norm(&lin.residual[..kcl_rows]),
    })
}

/// Solves for the DC operating point with default solver settings.
///
/// # Errors
///
/// Returns [`SpiceError::EmptyCircuit`] for circuits without unknowns,
/// [`SpiceError::SingularMatrix`] for structurally defective circuits,
/// and [`SpiceError::NonConvergence`] when Newton and the supply-ramp
/// homotopy both fail.
pub fn solve_dc(circuit: &Circuit) -> Result<OperatingPoint, SpiceError> {
    solve_dc_with(
        circuit,
        &SolverConfig::default(),
        None,
        &Telemetry::disabled(),
    )
}

/// Runs a DC solve with trace capture *forced on*, independent of the
/// observatory's global switch, and returns the captured
/// [`observe::SolveTrace`] alongside the outcome. Unlike
/// [`solve_dc_with`] this records nothing into the process-wide
/// aggregates — it is the offline re-execution primitive behind
/// `pnc-cli solver replay`.
///
/// # Errors
///
/// The result slot carries the same conditions as [`solve_dc_with`];
/// the trace is returned either way (a failed solve still has a
/// trajectory worth diffing).
pub fn solve_dc_captured(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
) -> (Result<OperatingPoint, SpiceError>, observe::SolveTrace) {
    let mut cap = observe::AttemptCapture::new();
    let result = solve_dc_inner(circuit, cfg, warm_start, Some(&mut cap));
    let trace = cap.into_trace(circuit, cfg, warm_start, &result);
    (result.map(|(op, _ramped)| op), trace)
}

/// Solves for the DC operating point with explicit settings, an
/// optional warm-start guess (`voltages ++ source currents`), and
/// per-solve telemetry: emits a `dc_solve` debug event (iterations,
/// final residual, whether the supply-ramp fallback was engaged) on
/// success and a `dc_solve_failed` warning on error. When the handle
/// carries an enabled [`pnc_telemetry::Profiler`], each solve also
/// records a `dc_solve` span with the Newton iteration count and
/// outcome as attributes.
///
/// Every call updates the process-wide aggregate counters in
/// [`crate::stats`]; a solve handed a starting vector counts as
/// warm-started whatever its origin.
///
/// # Errors
///
/// Same conditions as [`solve_dc`]. A
/// [`SpiceError::NonConvergence`] carries the *total* Newton
/// iterations spent across the plain attempt and every ramp stage, so
/// failure cost is attributable from the error alone.
pub fn solve_dc_with(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    solve_recorded(circuit, None, cfg, warm_start, tel)
}

/// Solves the DC point of `circuit`, a circuit of `plan`'s topology,
/// from the plan's block guess ([`BlockPlan::guess`], each block
/// started from `start` or from zero). The guess is accepted when the
/// full residual there is below `cfg.residual_tol_amps` — the test
/// Newton applies on arrival, evaluated without a Jacobian — and
/// otherwise starts whole-circuit Newton. Without a guess the solve
/// starts from `start`, or cold.
///
/// Records and reports as [`solve_dc_with`] does: one solve, warm when
/// it had a starting point, whose iterations count the block Newton
/// iterations as well as the whole-circuit ones.
///
/// # Errors
///
/// Same conditions as [`solve_dc_with`].
pub fn solve_dc_planned(
    circuit: &Circuit,
    plan: &BlockPlan,
    cfg: &SolverConfig,
    start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    solve_recorded(circuit, Some(plan), cfg, start, tel)
}

/// The recorded solve behind [`solve_dc_with`] and
/// [`solve_dc_planned`]: stats, telemetry and the observatory around
/// [`solve_dc_inner`], started from `plan`'s guess when there is one.
fn solve_recorded(
    circuit: &Circuit,
    plan: Option<&BlockPlan>,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    let mut scope = tel.profiler().scope("dc_solve");
    stats::record_solve();
    let sw = Stopwatch::start();
    let (guess, block_iters) = plan.map_or((None, 0), |p| p.guess(circuit, cfg, warm_start));
    let start = guess.as_deref().or(warm_start);
    if start.is_some() {
        stats::record_warm_start();
    }
    let mut cap = observe::capture_if_enabled();
    let result = match guess
        .as_deref()
        .and_then(|g| accept_on_arrival(circuit, g, cfg))
    {
        Some(op) => Ok((op, false)),
        None => solve_dc_inner(circuit, cfg, start, cap.as_mut()),
    };
    stats::record_solve_time_ms(sw.elapsed_ms());
    let (iters, ramped) = match &result {
        Ok((op, ramped)) => {
            let (iters, resid, ramped) =
                (block_iters + op.iterations(), op.final_residual(), *ramped);
            stats::record_iterations(iters);
            stats::record_success();
            scope.set_u64("iterations", iters as u64);
            scope.set_bool("ramped", ramped);
            tel.emit(|| {
                Event::new("dc_solve", Level::Debug)
                    .with_u64("iterations", iters as u64)
                    .with_f64("residual", resid)
                    .with_bool("ramped", ramped)
            });
            (iters, ramped)
        }
        Err(e) => {
            scope.set_bool("failed", true);
            stats::record_failure();
            if let SpiceError::NonConvergence {
                iterations,
                residual,
            } = e
            {
                let (iters, resid) = (block_iters + iterations, *residual);
                stats::record_iterations(iters);
                scope.set_u64("iterations", iters as u64);
                tel.emit(|| {
                    Event::new("dc_solve_failed", Level::Warn)
                        .with_str("error", "non_convergence")
                        .with_u64("iterations", iters as u64)
                        .with_f64("residual", resid)
                });
                // Newton failed from the guess, so the ramp ran.
                (iters, true)
            } else {
                // Only a plan's blocks iterated, if anything did.
                if block_iters > 0 {
                    stats::record_iterations(block_iters);
                }
                let msg = e.to_string();
                tel.emit(|| Event::new("dc_solve_failed", Level::Warn).with_str("error", msg));
                (block_iters, false)
            }
        }
    };
    // Observatory: the per-point accounting window (always — a few
    // thread-local counter writes) and, when capturing, the trace. A
    // planned solve's trace starts from the block guess, so a replay
    // reproduces its whole-circuit part without the plan.
    let fingerprint = plan.map_or_else(
        || observe::pattern_fingerprint(circuit),
        BlockPlan::fingerprint,
    );
    observe::record_point_solve(fingerprint, iters as u64, ramped, result.is_err());
    if let Some(cap) = cap {
        observe::record_trace(cap.into_trace(circuit, cfg, start, &result));
    }
    result.map(|(op, _ramped)| op)
}

/// The operating point at `x` when every equation already holds there:
/// the full residual is below `cfg.residual_tol_amps`, the test
/// [`newton_attempt`] applies on arrival, evaluated without a Jacobian.
fn accept_on_arrival(circuit: &Circuit, x: &[f64], cfg: &SolverConfig) -> Option<OperatingPoint> {
    let f = residual(circuit, x);
    if inf_norm(&f) >= cfg.residual_tol_amps {
        return None;
    }
    let n_nodes = circuit.node_count() - 1;
    Some(OperatingPoint::from_state(
        x,
        n_nodes,
        0,
        inf_norm(&f[..n_nodes]),
    ))
}

/// Core solve: returns the operating point and whether the ramp
/// fallback was engaged. Every attempt — the plain one and each ramp
/// stage — factors on dense LU.
fn solve_dc_inner(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    mut cap: Option<&mut observe::AttemptCapture>,
) -> Result<(OperatingPoint, bool), SpiceError> {
    let n = unknown_count(circuit);
    if n == 0 {
        return Err(SpiceError::EmptyCircuit);
    }
    let n_nodes = circuit.node_count() - 1;

    let mut x = match warm_start {
        Some(ws) if ws.len() == n => ws.to_vec(),
        _ => vec![0.0; n],
    };

    // Attempt 1: plain Newton from the guess. It and every ramp stage
    // share one workspace.
    let mut lin = Linear::default();
    let mut total_iters = 0usize;
    match newton_attempt(circuit, &mut x, cfg, cap.as_deref_mut(), &mut lin) {
        Ok((iters, residual)) => {
            return Ok((
                OperatingPoint::from_state(&x, n_nodes, iters, residual),
                false,
            ));
        }
        Err(SpiceError::NonConvergence { iterations, .. }) => total_iters += iterations,
        Err(e) => return Err(e),
    }

    // Attempt 2: supply ramping — scale all sources from 0 to full.
    stats::record_ramp_fallback();
    let full_volts: Vec<Option<f64>> = circuit
        .elements()
        .iter()
        .map(|e| match e {
            Element::VSource { volts, .. } => Some(*volts),
            _ => None,
        })
        .collect();

    let mut ramped = circuit.clone();
    x = vec![0.0; n];
    let mut final_residual = f64::INFINITY;
    for stage in 1..=cfg.ramp_stages {
        let frac = stage as f64 / cfg.ramp_stages as f64;
        for (idx, fv) in full_volts.iter().enumerate() {
            if let Some(v) = fv {
                ramped
                    .set_vsource(idx, v * frac)
                    // lint: allow(L001, reason = "idx enumerates the circuit's own source list")
                    .expect("index points at a source");
            }
        }
        if let Some(c) = cap.as_deref_mut() {
            c.mark_ramp_stage();
        }
        match newton_attempt(&ramped, &mut x, cfg, cap.as_deref_mut(), &mut lin) {
            Ok((iters, residual)) => {
                total_iters += iters;
                final_residual = residual;
            }
            Err(SpiceError::NonConvergence {
                iterations,
                residual,
            }) => {
                total_iters += iterations;
                if stage == cfg.ramp_stages {
                    // Report the whole budget spent, not just the last
                    // attempt, so the failure's cost is attributable.
                    return Err(SpiceError::NonConvergence {
                        iterations: total_iters,
                        residual,
                    });
                }
                // Intermediate stage struggled; carry the partial
                // solution forward and keep ramping.
            }
            Err(e) => return Err(e),
        }
    }

    Ok((
        OperatingPoint::from_state(&x, n_nodes, total_iters, final_residual),
        true,
    ))
}

/// Result of a DC sweep: one operating point per sweep value.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Swept source values (volts).
    pub inputs: Vec<f64>,
    /// Operating point per input.
    pub points: Vec<OperatingPoint>,
}

impl SweepResult {
    /// Extracts the voltage of `node` across the sweep.
    pub fn node_curve(&self, node: usize) -> Vec<f64> {
        self.points.iter().map(|p| p.voltage(node)).collect()
    }
}

/// Residual of a candidate state at the circuit's current element
/// values: one assembly with the Jacobian entries discarded, no
/// factorization. Cheap enough to rank several warm-start candidates
/// per solve, or to accept a block guess.
fn residual(circuit: &Circuit, x: &[f64]) -> Vec<f64> {
    struct NullSink;
    impl JacobianSink for NullSink {
        fn add(&mut self, _row: usize, _col: usize, _v: f64) {}
    }
    let mut f = vec![0.0; x.len()];
    assemble_into(circuit, x, &mut NullSink, &mut f);
    f
}

/// Index of the warm-start candidate with the smallest assembled
/// residual at the target point (ties go to the earliest candidate,
/// so the choice is deterministic). `None` when `cands` is empty.
fn best_warm_candidate(circuit: &Circuit, cands: &[Vec<f64>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in cands.iter().enumerate() {
        let r = inf_norm(&residual(circuit, c));
        if best.is_none_or(|(_, b)| r < b) {
            best = Some((i, r));
        }
    }
    best.map(|(i, _)| i)
}

/// Sweeps the EMF of the voltage source at element index
/// `source_index` over `values` — the one continuation sweep behind
/// every DC sweep and AF curve — seeding each Newton solve from the
/// best of these warm-start candidates:
///
/// * **chain** — the converged state of point `k−1`,
/// * **secant** — `2·x_{k−1} − x_{k−2}` (error `O(h²)` in the grid
///   spacing, vs `O(h)` for plain chaining),
/// * **quadratic** — `3·x_{k−1} − 3·x_{k−2} + x_{k−3}` (`O(h³)` where
///   the curve is smooth),
/// * **donor slope** — `x_{k−1} + (donor[k] − donor[k−1])`: the donor
///   design's increment along its own sweep, re-anchored to this
///   circuit (nearby designs trace near-parallel curves),
/// * **donor** — `donor[k]` itself (the only candidate at point 0).
///
/// `donor`, when supplied, holds the solved states (see
/// [`OperatingPoint::state`]) of the same sweep on a nearby circuit.
/// Per point the candidate with the smallest assembled residual wins.
/// Every candidate and the ranking are pure functions of the inputs,
/// so trajectories stay bit-identical for any thread count.
///
/// Per-point `dc_solve` events and spans go to `tel` only when its
/// profiler is enabled, so unprofiled structured-log output keeps its
/// volume.
///
/// # Errors
///
/// Propagates element and convergence errors.
pub fn dc_sweep(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    donor: Option<&[Vec<f64>]>,
    tel: &Telemetry,
) -> Result<SweepResult, SpiceError> {
    let trace = tel.profiler().is_enabled();
    let cfg = SolverConfig::default();
    let quiet = Telemetry::disabled();
    let solve_tel = if trace { tel } else { &quiet };
    let donor_at = |k: usize| donor.and_then(|d| d.get(k));
    let mut swept = circuit.clone();
    let mut points = Vec::with_capacity(values.len());
    let mut prev: Option<Vec<f64>> = None;
    let mut prev2: Option<Vec<f64>> = None;
    let mut prev3: Option<Vec<f64>> = None;
    for (k, &v) in values.iter().enumerate() {
        swept.set_vsource(source_index, v)?;
        let mut cands: Vec<Vec<f64>> = Vec::with_capacity(4);
        if let Some(p) = &prev {
            cands.push(p.clone());
            if let Some(p2) = &prev2 {
                cands.push(p.iter().zip(p2).map(|(a, b)| 2.0 * a - b).collect());
                if let Some(p3) = &prev3 {
                    cands.push(
                        p.iter()
                            .zip(p2.iter().zip(p3))
                            .map(|(a, (b, c))| 3.0 * a - 3.0 * b + c)
                            .collect(),
                    );
                }
            }
            if let (Some(dk), Some(dkm1)) = (donor_at(k), k.checked_sub(1).and_then(donor_at)) {
                cands.push(
                    p.iter()
                        .zip(dk.iter().zip(dkm1))
                        .map(|(x, (a, b))| x + a - b)
                        .collect(),
                );
            }
        } else if let Some(dk) = donor_at(k) {
            cands.push(dk.clone());
        }
        let warm = best_warm_candidate(&swept, &cands).map(|i| cands[i].as_slice());
        let op = solve_dc_with(&swept, &cfg, warm, solve_tel)?;
        prev3 = prev2.take();
        prev2 = prev.take();
        prev = Some(op.state());
        points.push(op);
    }
    Ok(SweepResult {
        inputs: values.to_vec(),
        points,
    })
}

/// Convenience: evaluates the KCL residual norm at a solution (used in
/// tests to confirm physical consistency).
pub fn residual_norm(circuit: &Circuit, op: &OperatingPoint) -> f64 {
    let n_nodes = circuit.node_count() - 1;
    inf_norm(&residual(circuit, &op.state())[..n_nodes])
}

/// Linearly spaced values, inclusive of both endpoints.
// lint: dimensionless
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace needs at least two points");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

// Re-exported for power computation.
pub(crate) fn voltage_of(op: &OperatingPoint, node: usize) -> f64 {
    node_voltage(&op.all_voltages()[1..], node)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn divider_solves_exactly() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(out) - 1.0 / 3.0).abs() < 1e-9);
        assert!((op.voltage(vin) - 1.0).abs() < 1e-9);
        // Source current = −V/R_total = −1/3000.
        assert!((op.source_current(0) + 1.0 / 3000.0).abs() < 1e-9);
    }

    #[test]
    fn bridge_of_resistors() {
        // Wheatstone bridge, balanced: no current through the bridge R.
        let mut c = Circuit::new();
        let top = c.node("top");
        let l = c.node("l");
        let r = c.node("r");
        c.vsource(top, Circuit::GROUND, 1.0);
        c.resistor(top, l, 1000.0);
        c.resistor(top, r, 1000.0);
        c.resistor(l, Circuit::GROUND, 2000.0);
        c.resistor(r, Circuit::GROUND, 2000.0);
        c.resistor(l, r, 500.0); // bridge
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(l) - op.voltage(r)).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_swings() {
        // Common-source EGT with resistive pull-up: V_out high when the
        // gate is low, low when the gate is high.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);

        let mut low = c.clone();
        low.set_vsource(src, 0.0).unwrap();
        let op_low = solve_dc(&low).unwrap();
        assert!(op_low.voltage(out) > 0.9, "out = {}", op_low.voltage(out));

        let mut high = c.clone();
        high.set_vsource(src, 1.0).unwrap();
        let op_high = solve_dc(&high).unwrap();
        assert!(op_high.voltage(out) < 0.2, "out = {}", op_high.voltage(out));
    }

    #[test]
    fn source_follower_tracks_input() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        c.vsource(vin, Circuit::GROUND, 0.9);
        c.egt(vdd, vin, out, 4e-4, 1e-5);
        c.resistor(out, Circuit::GROUND, 200_000.0);
        let op = solve_dc(&c).unwrap();
        let vout = op.voltage(out);
        // Output follows the gate minus roughly a threshold.
        assert!(vout > 0.2 && vout < 0.9, "vout = {vout}");
    }

    #[test]
    fn residual_is_tiny_at_solution() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let op = solve_dc(&c).unwrap();
        assert!(residual_norm(&c, &op) < 1e-9);
    }

    #[test]
    fn sweep_is_monotone_for_follower() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.2);
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.egt(vdd, vin, out, 4e-4, 1e-5);
        c.resistor(out, Circuit::GROUND, 200_000.0);
        let sweep = dc_sweep(
            &c,
            src,
            &linspace(-1.0, 1.0, 41),
            None,
            &Telemetry::disabled(),
        )
        .unwrap();
        let curve = sweep.node_curve(out);
        // Margin: accepted points satisfy |f(x)| < 1e-12 A, which over
        // this circuit's ~5 µS output-node conductance allows ~2e-7 V
        // of slack per point in the flat region.
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "follower output must be monotone");
        }
        // ReLU-like: flat near zero for low inputs, rising after threshold.
        assert!(curve[0].abs() < 0.05);
        assert!(*curve.last().unwrap() > 0.3);
    }

    #[test]
    fn sweep_rejects_non_source_index() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 1.0);
        let r_idx = c.resistor(a, Circuit::GROUND, 100.0);
        assert!(dc_sweep(&c, r_idx, &[0.0, 1.0], None, &Telemetry::disabled()).is_err());
    }

    #[test]
    fn vcvs_buffers_a_loaded_divider() {
        // Divider into a unity-gain buffer into a heavy load: the
        // divider must stay at 0.5 V because the buffer draws nothing
        // from it, while the load sees the buffered copy.
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        let buf = c.node("buf");
        c.vsource(top, Circuit::GROUND, 1.0);
        c.resistor(top, mid, 10_000.0);
        c.resistor(mid, Circuit::GROUND, 10_000.0);
        c.vcvs(buf, Circuit::GROUND, mid, Circuit::GROUND, 1.0);
        c.resistor(buf, Circuit::GROUND, 100.0); // heavy load
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(mid) - 0.5).abs() < 1e-6, "divider loaded!");
        // The buffer copies its control node exactly (within Newton
        // tolerance); the 1e-9-scale offset on `mid` itself is GMIN.
        assert!((op.voltage(buf) - op.voltage(mid)).abs() < 1e-9);
    }

    #[test]
    fn vcvs_applies_gain() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, 0.3);
        c.vcvs(b, Circuit::GROUND, a, Circuit::GROUND, -2.5);
        c.resistor(b, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        assert!((op.voltage(b) + 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_errors() {
        let c = Circuit::new();
        assert!(matches!(solve_dc(&c), Err(SpiceError::EmptyCircuit)));
    }

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-1.0, 1.0, 5);
        assert_eq!(v, vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn final_residual_passes_tolerance() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig::default();
        let op = solve_dc_with(&c, &cfg, None, &Telemetry::disabled()).unwrap();
        assert!(op.final_residual() <= cfg.residual_tol_amps);
    }

    #[test]
    fn non_convergence_reports_total_iterations() {
        // A nonlinear circuit with a 1-iteration budget cannot
        // converge; the error must account for the plain attempt plus
        // every ramp stage, not just the final attempt.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vdd, Circuit::GROUND, 2e-4, 2e-5);
        let cfg = SolverConfig {
            max_iterations: 1,
            ramp_stages: 3,
            ..SolverConfig::default()
        };
        match solve_dc_with(&c, &cfg, None, &Telemetry::disabled()) {
            Err(SpiceError::NonConvergence { iterations, .. }) => {
                // 1 (plain) + 3 ramp stages × 1 = 4.
                assert_eq!(iterations, 4);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn traced_solve_emits_events_and_matches_plain() {
        use pnc_telemetry::MemorySink;
        use std::sync::Arc;

        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vin, Circuit::GROUND, 1.0);
        c.resistor(vin, out, 2_000.0);
        c.resistor(out, Circuit::GROUND, 1_000.0);

        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let cfg = SolverConfig::default();
        let traced = solve_dc_with(&c, &cfg, None, &tel).unwrap();
        let plain = solve_dc_with(&c, &cfg, None, &Telemetry::disabled()).unwrap();
        assert_eq!(traced.voltage(out), plain.voltage(out));

        let events = sink.events_named("dc_solve");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get_u64("iterations"), Some(traced.iterations() as u64));
        assert_eq!(e.get_f64("residual"), Some(traced.final_residual()));
        assert_eq!(e.get_bool("ramped"), Some(false));

        // Failure path emits a warning with the iteration total.
        let mut hard = Circuit::new();
        let vdd = hard.node("vdd");
        let o = hard.node("o");
        hard.vsource(vdd, Circuit::GROUND, 1.0);
        hard.resistor(vdd, o, 100_000.0);
        hard.egt(o, vdd, Circuit::GROUND, 2e-4, 2e-5);
        let tight = SolverConfig {
            max_iterations: 1,
            ramp_stages: 2,
            ..SolverConfig::default()
        };
        assert!(solve_dc_with(&hard, &tight, None, &tel).is_err());
        let fails = sink.events_named("dc_solve_failed");
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].get_u64("iterations"), Some(3));
    }

    /// `cells` p-tanh cells on shared ±1 V rails, each driven by its
    /// own input source: 4 + 5·`cells` unknowns, nonlinear throughout.
    pub(crate) fn tanh_bank(cells: usize) -> Circuit {
        let kind = crate::AfKind::PTanh;
        let design = kind.default_design();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vss = c.node("vss");
        c.vsource(vdd, Circuit::GROUND, crate::af::VDD);
        c.vsource(vss, Circuit::GROUND, crate::af::VSS);
        for k in 0..cells {
            let vin = c.node(&format!("in{k}"));
            c.vsource(vin, Circuit::GROUND, -0.8 + 0.3 * k as f64);
            kind.attach(&mut c, design.q(), vdd, vss, vin);
        }
        c
    }

    #[test]
    fn large_circuit_trace_replays_bit_identically() {
        // Through the JSONL round trip `solver replay` uses: a 34-unknown
        // cold solve runs dense Newton and replays bit for bit.
        let c = tanh_bank(6);
        let cfg = SolverConfig::default();
        let (res, trace) = solve_dc_captured(&c, &cfg, None);
        assert!(res.is_ok());
        assert_eq!(trace.dim, unknown_count(&c));
        assert!(trace.nnz > 0);
        assert!(trace.cond1_estimate > 0.0, "dense solves carry an estimate");
        assert!(trace.residuals_amps.len() > 1);

        let line = trace.to_jsonl();
        assert!(!line.contains("\"backend\""));
        let json = pnc_telemetry::json::parse(&line).unwrap();
        let parsed = observe::SolveTrace::from_json(&json).unwrap();
        let rebuilt = parsed.rebuild_circuit();
        let (rr, rt) = solve_dc_captured(&rebuilt, &parsed.config, parsed.warm_start.as_deref());
        assert!(rr.is_ok());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rt.residuals_amps), bits(&trace.residuals_amps));
        assert_eq!(bits(&rt.steps_volts), bits(&trace.steps_volts));
    }

    #[test]
    fn planned_solve_counts_one_solve_and_its_block_iterations() {
        let c = tanh_bank(6);
        let plan = BlockPlan::new(&c);
        let cfg = SolverConfig::default();
        // The point window is this thread's own, so parallel tests
        // cannot add to it.
        observe::point_window_reset();
        let planned = solve_dc_planned(&c, &plan, &cfg, None, &Telemetry::disabled()).unwrap();
        let window = observe::point_window_take();
        assert_eq!(window.solves, 1);
        assert!(window.newton_iterations > 0, "block work is counted");
        assert_eq!(window.fingerprint, observe::pattern_fingerprint(&c));
        assert_eq!(planned.iterations(), 0, "the guess is accepted on arrival");

        let cold = solve_dc(&c).unwrap();
        for node in 0..c.node_count() {
            let d = (planned.voltage(node) - cold.voltage(node)).abs();
            assert!(d < 1e-9, "node {node} differs by {d:e} V");
        }
    }

    #[test]
    fn linear_sweep_matches_per_point_solves() {
        // Divider: out = v/2 for every sweep value, and the continuation
        // sweep agrees with one-at-a-time solves to solver tolerance.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vin, out, 10_000.0);
        c.resistor(out, Circuit::GROUND, 10_000.0);
        let values = linspace(-1.0, 1.0, 9);
        let sweep = dc_sweep(&c, src, &values, None, &Telemetry::disabled()).unwrap();
        for (p, &v) in sweep.points.iter().zip(&values) {
            // GMIN loads the divider by a few parts in 1e9.
            assert!((p.voltage(out) - v / 2.0).abs() < 1e-7, "at v = {v}");
            let mut one = c.clone();
            one.set_vsource(src, v).unwrap();
            let op = solve_dc(&one).unwrap();
            assert!((p.voltage(out) - op.voltage(out)).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.5);
        c.resistor(vdd, out, 50_000.0);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig::default();
        let cold = solve_dc_with(&c, &cfg, None, &Telemetry::disabled()).unwrap();
        let warm = solve_dc_with(&c, &cfg, Some(&cold.state()), &Telemetry::disabled()).unwrap();
        assert!(warm.iterations() <= cold.iterations());
    }
}
