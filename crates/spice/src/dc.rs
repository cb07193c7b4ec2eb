//! DC operating-point analysis: damped Newton–Raphson with supply
//! ramping as a homotopy fallback.

use crate::mna::{assemble, assemble_into, node_voltage, unknown_count, JacobianSink};
use crate::netlist::{Circuit, Element};
use crate::pattern::{self, CircuitPattern};
use crate::{observe, stats, SpiceError};
use pnc_linalg::decomp::Lu;
use pnc_linalg::sparse::SparseLu;
use pnc_linalg::Matrix;
use pnc_telemetry::{Event, Level, Stopwatch, Telemetry};
use std::sync::atomic::{AtomicU8, Ordering};

/// Smallest MNA dimension for which [`SolverBackend::Auto`] picks the
/// sparse backend. The paper's activation circuits assemble 4–8 unknown
/// systems where dense LU wins outright; sparse pattern reuse pays off
/// once fill and O(n³) dense cost dominate the stamp cost.
pub const SPARSE_MIN_DIM: usize = 32;

/// Linear-system backend used inside the Newton loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Decide per circuit: the process-wide override from
    /// [`set_default_backend`] when one is set, otherwise sparse for
    /// systems of at least [`SPARSE_MIN_DIM`] unknowns and dense below.
    #[default]
    Auto,
    /// Dense LU with partial pivoting — the original path and the
    /// property-test oracle.
    Dense,
    /// Pattern-reusing sparse LU (one symbolic analysis per circuit
    /// topology, numeric refactorization per iteration).
    Sparse,
}

impl SolverBackend {
    /// Canonical lower-case name (CLI flag value, trace field).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Auto => "auto",
            SolverBackend::Dense => "dense",
            SolverBackend::Sparse => "sparse",
        }
    }

    /// Parses a backend name as accepted by `--solver-backend`.
    pub fn parse(s: &str) -> Option<SolverBackend> {
        match s {
            "auto" => Some(SolverBackend::Auto),
            "dense" => Some(SolverBackend::Dense),
            "sparse" => Some(SolverBackend::Sparse),
            _ => None,
        }
    }
}

// lint: allow(L003, reason = "process-wide backend override set once at CLI startup before any solves; per-solve state stays in SolverConfig")
static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide backend used when a [`SolverConfig`] leaves
/// `backend` at [`SolverBackend::Auto`] (the `--solver-backend` CLI
/// flag). Passing [`SolverBackend::Auto`] restores the size-based rule.
pub fn set_default_backend(backend: SolverBackend) {
    let code = match backend {
        SolverBackend::Auto => 0,
        SolverBackend::Dense => 1,
        SolverBackend::Sparse => 2,
    };
    DEFAULT_BACKEND.store(code, Ordering::Relaxed);
}

fn default_backend() -> SolverBackend {
    match DEFAULT_BACKEND.load(Ordering::Relaxed) {
        1 => SolverBackend::Dense,
        2 => SolverBackend::Sparse,
        _ => SolverBackend::Auto,
    }
}

/// Resolves `Auto` to a concrete backend for a system of `dim` unknowns.
fn resolve_backend(requested: SolverBackend, dim: usize) -> SolverBackend {
    match requested {
        SolverBackend::Auto => match default_backend() {
            SolverBackend::Auto => {
                if dim >= SPARSE_MIN_DIM {
                    SolverBackend::Sparse
                } else {
                    SolverBackend::Dense
                }
            }
            explicit => explicit,
        },
        explicit => explicit,
    }
}

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
    /// Linear-system backend; solve traces record the *resolved*
    /// choice, never `Auto`, so replays re-run the backend that
    /// actually produced the trajectory.
    pub backend: SolverBackend,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iterations: 200,
            residual_tol_amps: 1e-12,
            step_tol_volts: 1e-10,
            max_step_volts: 0.4,
            ramp_stages: 8,
            backend: SolverBackend::Auto,
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

    /// Newton iterations spent (including ramp stages).
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

/// One damped Newton descent. Returns `(iterations, residual)` on
/// convergence; the residual is the KCL norm that passed the test.
fn newton_attempt(
    circuit: &Circuit,
    x: &mut [f64],
    cfg: &SolverConfig,
    mut cap: Option<&mut observe::AttemptCapture>,
) -> Result<(usize, f64), SpiceError> {
    let n_nodes = circuit.node_count() - 1;
    for iter in 0..cfg.max_iterations {
        let sys = assemble(circuit, x);
        let max_resid = sys
            .residual
            .iter()
            .take(n_nodes)
            .fold(0.0f64, |m, r| m.max(r.abs()));
        // Converged on arrival: every equation — including the linear
        // source rows, which a warm start from a different sweep point
        // leaves violated — is satisfied at `x`, so the step would be
        // ~0 and the factorization pure confirmation. Well-predicted
        // warm starts land here one iteration early.
        let full_resid = sys.residual.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        if full_resid < cfg.residual_tol_amps {
            return Ok((iter, max_resid));
        }
        let lu = Lu::new(&sys.jacobian).map_err(|_| SpiceError::SingularMatrix)?;
        let neg_f: Vec<f64> = sys.residual.iter().map(|r| -r).collect();
        let dx = lu.solve(&neg_f).map_err(|_| SpiceError::SingularMatrix)?;

        // Damping: limit voltage updates; currents move freely.
        let max_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
        let scale = if max_dv > cfg.max_step_volts {
            cfg.max_step_volts / max_dv
        } else {
            1.0
        };
        if let Some(c) = cap.as_deref_mut() {
            c.record_iteration(&sys.jacobian, &lu, max_resid, max_dv * scale, scale < 1.0);
        }
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += scale * di;
        }

        if max_resid < cfg.residual_tol_amps && max_dv * scale < cfg.step_tol_volts {
            return Ok((iter + 1, max_resid));
        }
    }
    let sys = assemble(circuit, x);
    let resid = sys
        .residual
        .iter()
        .take(n_nodes)
        .fold(0.0f64, |m, r| m.max(r.abs()));
    Err(SpiceError::NonConvergence {
        iterations: cfg.max_iterations,
        residual: resid,
    })
}

/// [`newton_attempt`] on the sparse backend: the circuit's cached
/// pattern supplies preallocated value slots and the shared symbolic
/// factorization; the first iteration factorizes numerically, later
/// iterations refactorize in place (falling back to a fresh pivot
/// order only on pivot drift). Numeric factor state lives entirely in
/// this frame — nothing per-solve is shared across threads.
fn newton_attempt_sparse(
    circuit: &Circuit,
    pat: &CircuitPattern,
    x: &mut [f64],
    cfg: &SolverConfig,
    mut cap: Option<&mut observe::AttemptCapture>,
) -> Result<(usize, f64), SpiceError> {
    let n_nodes = circuit.node_count() - 1;
    let n = x.len();
    let mut vals = pat.new_values();
    let mut f = vec![0.0; n];
    let mut lu: Option<SparseLu> = None;
    for iter in 0..cfg.max_iterations {
        pat.stamp(circuit, x, &mut vals, &mut f);
        let max_resid = f.iter().take(n_nodes).fold(0.0f64, |m, r| m.max(r.abs()));
        // Converged on arrival — see the dense attempt for the
        // rationale; the full-vector check covers the source rows.
        let full_resid = f.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        if full_resid < cfg.residual_tol_amps {
            return Ok((iter, max_resid));
        }
        let lu_ref = match lu.as_mut() {
            None => {
                let fresh = SparseLu::factorize(pat.symbolic(), &vals)
                    .map_err(|_| SpiceError::SingularMatrix)?;
                stats::record_factorization();
                lu.insert(fresh)
            }
            Some(l) => {
                let reused = l
                    .refactorize(&vals)
                    .map_err(|_| SpiceError::SingularMatrix)?;
                if reused {
                    stats::record_refactorization();
                } else {
                    stats::record_factorization();
                }
                l
            }
        };
        let neg_f: Vec<f64> = f.iter().map(|r| -r).collect();
        let dx = lu_ref
            .solve(&neg_f)
            .map_err(|_| SpiceError::SingularMatrix)?;

        let max_dv = dx[..n_nodes].iter().fold(0.0f64, |m, d| m.max(d.abs()));
        let scale = if max_dv > cfg.max_step_volts {
            cfg.max_step_volts / max_dv
        } else {
            1.0
        };
        if let Some(c) = cap.as_deref_mut() {
            c.record_iteration_sparse(pat.dim(), pat.nnz(), max_resid, max_dv * scale, scale < 1.0);
        }
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += scale * di;
        }

        if max_resid < cfg.residual_tol_amps && max_dv * scale < cfg.step_tol_volts {
            return Ok((iter + 1, max_resid));
        }
    }
    pat.stamp(circuit, x, &mut vals, &mut f);
    let resid = f.iter().take(n_nodes).fold(0.0f64, |m, r| m.max(r.abs()));
    Err(SpiceError::NonConvergence {
        iterations: cfg.max_iterations,
        residual: resid,
    })
}

/// Dispatches one Newton attempt to the resolved backend.
fn run_attempt(
    circuit: &Circuit,
    pat: Option<&CircuitPattern>,
    x: &mut [f64],
    cfg: &SolverConfig,
    cap: Option<&mut observe::AttemptCapture>,
) -> Result<(usize, f64), SpiceError> {
    match pat {
        Some(p) => newton_attempt_sparse(circuit, p, x, cfg, cap),
        None => newton_attempt(circuit, x, cfg, cap),
    }
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
    solve_dc_with(circuit, &SolverConfig::default(), None)
}

/// Solves for the DC operating point with explicit settings and an
/// optional warm-start guess (`voltages ++ source currents`) — exactly
/// [`solve_dc_traced`] with a disabled telemetry handle.
///
/// # Errors
///
/// Same conditions as [`solve_dc_traced`].
pub fn solve_dc_with(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
) -> Result<OperatingPoint, SpiceError> {
    solve_dc_traced(circuit, cfg, warm_start, &Telemetry::disabled())
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
pub fn solve_dc_traced(
    circuit: &Circuit,
    cfg: &SolverConfig,
    warm_start: Option<&[f64]>,
    tel: &Telemetry,
) -> Result<OperatingPoint, SpiceError> {
    let mut scope = tel.profiler().scope("dc_solve");
    stats::record_solve();
    if warm_start.is_some() {
        stats::record_warm_start();
    }
    let mut cap = observe::capture_if_enabled();
    let sw = Stopwatch::start();
    let result = solve_dc_inner(circuit, cfg, warm_start, cap.as_mut());
    stats::record_solve_time_ms(sw.elapsed_ms());
    let (iters, ramped) = match &result {
        Ok((op, ramped)) => {
            stats::record_iterations(op.iterations());
            stats::record_success();
            let (iters, resid, ramped) = (op.iterations(), op.final_residual(), *ramped);
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
                stats::record_iterations(*iterations);
                scope.set_u64("iterations", *iterations as u64);
                let (iters, resid) = (*iterations, *residual);
                tel.emit(|| {
                    Event::new("dc_solve_failed", Level::Warn)
                        .with_str("error", "non_convergence")
                        .with_u64("iterations", iters as u64)
                        .with_f64("residual", resid)
                });
                // Newton failed from the guess, so the ramp ran.
                (iters, true)
            } else {
                let msg = e.to_string();
                tel.emit(|| Event::new("dc_solve_failed", Level::Warn).with_str("error", msg));
                (0, false)
            }
        }
    };
    // Observatory: the per-point accounting window (always — a few
    // thread-local counter writes) and, when capturing, the trace.
    observe::record_point_solve(circuit, iters as u64, ramped, result.is_err());
    if let Some(cap) = cap {
        observe::record_trace(cap.into_trace(circuit, cfg, warm_start, &result));
    }
    result.map(|(op, _ramped)| op)
}

/// Core solve: returns the operating point and whether the ramp
/// fallback was engaged.
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

    // Resolve the backend once per solve; every attempt (plain and
    // every ramp stage) uses the same resolved choice, and the capture
    // records it so replays re-run the path that produced the trace.
    let backend = resolve_backend(cfg.backend, n);
    if let Some(c) = cap.as_deref_mut() {
        c.set_backend(backend);
    }
    let pat = match backend {
        SolverBackend::Sparse => Some(pattern::cached_pattern(circuit)),
        _ => None,
    };
    let pat = pat.as_deref();

    let mut x = match warm_start {
        Some(ws) if ws.len() == n => ws.to_vec(),
        _ => vec![0.0; n],
    };

    // Attempt 1: plain Newton from the guess.
    let mut total_iters = 0usize;
    match run_attempt(circuit, pat, &mut x, cfg, cap.as_deref_mut()) {
        Ok((iters, residual)) => {
            return Ok((
                OperatingPoint {
                    voltages: x[..n_nodes].to_vec(),
                    source_currents: x[n_nodes..].to_vec(),
                    iterations: iters,
                    residual,
                },
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
        // The ramped clone only rescales source values, so it shares
        // the original topology — and therefore the same pattern.
        match run_attempt(&ramped, pat, &mut x, cfg, cap.as_deref_mut()) {
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
        OperatingPoint {
            voltages: x[..n_nodes].to_vec(),
            source_currents: x[n_nodes..].to_vec(),
            iterations: total_iters,
            residual: final_residual,
        },
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

/// Sweeps the EMF of the voltage source at element index `source_index`
/// over `values`, warm-starting each solve from the previous solutions.
///
/// # Errors
///
/// Propagates element and convergence errors.
pub fn dc_sweep(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
) -> Result<SweepResult, SpiceError> {
    sweep(circuit, source_index, values, None, &Telemetry::disabled())
}

/// Residual inf-norm of a candidate state at the circuit's current
/// element values: one assembly with the Jacobian entries discarded,
/// no factorization. Cheap enough to rank several warm-start
/// candidates per solve.
fn residual_inf(circuit: &Circuit, x: &[f64]) -> f64 {
    struct NullSink;
    impl JacobianSink for NullSink {
        fn add(&mut self, _row: usize, _col: usize, _v: f64) {}
    }
    let mut f = vec![0.0; x.len()];
    assemble_into(circuit, x, &mut NullSink, &mut f);
    f.iter().fold(0.0f64, |m, r| m.max(r.abs()))
}

/// Index of the warm-start candidate with the smallest assembled
/// residual at the target point (ties go to the earliest candidate,
/// so the choice is deterministic). `None` when `cands` is empty.
fn best_warm_candidate(circuit: &Circuit, cands: &[Vec<f64>]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in cands.iter().enumerate() {
        let r = residual_inf(circuit, c);
        if best.is_none_or(|(_, b)| r < b) {
            best = Some((i, r));
        }
    }
    best.map(|(i, _)| i)
}

/// The one continuation sweep behind [`dc_sweep`] and the AF curve
/// functions: sweeps `source_index` over `values`, seeding each Newton
/// solve from the best of these warm-start candidates:
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
/// A linear circuit skips the loop: its Newton step is exact, so the
/// sweep collapses to one factorization plus one blocked multi-RHS
/// solve. That fast path is skipped while per-solve instrumentation is
/// on (profiler spans or the solver observatory) — those consumers
/// want one trace per point. Per-point `dc_solve` events and spans go
/// to `tel` only when its profiler is enabled, so unprofiled
/// structured-log output keeps its volume.
///
/// # Errors
///
/// Propagates element and convergence errors.
pub(crate) fn sweep(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    donor: Option<&[Vec<f64>]>,
    tel: &Telemetry,
) -> Result<SweepResult, SpiceError> {
    let trace = tel.profiler().is_enabled();
    let cfg = SolverConfig::default();

    let linear = circuit
        .elements()
        .iter()
        .all(|e| !matches!(e, Element::Egt { .. }));
    if linear && !trace && !observe::is_enabled() {
        if let Some(res) = dc_sweep_linear(circuit, source_index, values, &cfg)? {
            return Ok(res);
        }
    }

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
        let op = solve_dc_traced(&swept, &cfg, warm, solve_tel)?;
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

/// The batched Newton step behind the linear-sweep fast path: for a
/// linear circuit `f(x) = A·x − b`, assembling at `x = 0` yields the
/// constant Jacobian `A` and residual `−b`, so one factorization plus
/// one blocked multi-RHS solve ([`Lu::solve_matrix`]) lands every sweep
/// point exactly. Each accepted column is verified against the Newton
/// residual tolerance; returns `Ok(None)` (fall back to the iterative
/// path) when the factorization fails or any column misses tolerance.
fn dc_sweep_linear(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    cfg: &SolverConfig,
) -> Result<Option<SweepResult>, SpiceError> {
    let n = unknown_count(circuit);
    if n == 0 || values.is_empty() {
        return Ok(None);
    }
    let n_nodes = circuit.node_count() - 1;
    let sw = Stopwatch::start();
    let x0 = vec![0.0; n];
    let mut swept = circuit.clone();

    // The Jacobian of a linear circuit is independent of the swept
    // source value (EMFs enter only the residual), so the factors from
    // the first sweep point serve all of them.
    swept.set_vsource(source_index, values[0])?;
    let first = assemble(&swept, &x0);
    let Ok(lu) = Lu::new(&first.jacobian) else {
        return Ok(None);
    };

    let mut rhs = Matrix::zeros(n, values.len());
    for (col, &v) in values.iter().enumerate() {
        swept.set_vsource(source_index, v)?;
        let sys = assemble(&swept, &x0);
        for row in 0..n {
            rhs[(row, col)] = -sys.residual[row];
        }
    }
    let Ok(solutions) = lu.solve_matrix(&rhs) else {
        return Ok(None);
    };

    let mut points = Vec::with_capacity(values.len());
    for (col, &v) in values.iter().enumerate() {
        let x: Vec<f64> = (0..n).map(|row| solutions[(row, col)]).collect();
        swept.set_vsource(source_index, v)?;
        let sys = assemble(&swept, &x);
        let resid = sys
            .residual
            .iter()
            .take(n_nodes)
            .fold(0.0f64, |m, r| m.max(r.abs()));
        if resid >= cfg.residual_tol_amps {
            return Ok(None);
        }
        points.push(OperatingPoint {
            voltages: x[..n_nodes].to_vec(),
            source_currents: x[n_nodes..].to_vec(),
            iterations: 1,
            residual: resid,
        });
    }

    // Aggregate accounting keeps the iterative path's per-point shape:
    // one solve and one (batched) Newton iteration per sweep value.
    let per_point_ms = sw.elapsed_ms() / values.len() as f64;
    for _ in values {
        stats::record_solve();
        stats::record_iterations(1);
        stats::record_success();
        stats::record_solve_time_ms(per_point_ms);
        observe::record_point_solve(circuit, 1, false, false);
    }
    Ok(Some(SweepResult {
        inputs: values.to_vec(),
        points,
    }))
}

/// Convenience: evaluates the KCL residual norm at a solution (used in
/// tests to confirm physical consistency).
pub fn residual_norm(circuit: &Circuit, op: &OperatingPoint) -> f64 {
    let n_nodes = circuit.node_count() - 1;
    let sys = assemble(circuit, &op.state());
    sys.residual
        .iter()
        .take(n_nodes)
        .fold(0.0f64, |m, r| m.max(r.abs()))
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
mod tests {
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
        let sweep = dc_sweep(&c, src, &linspace(-1.0, 1.0, 41)).unwrap();
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
        assert!(dc_sweep(&c, r_idx, &[0.0, 1.0]).is_err());
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
        let op = solve_dc_with(&c, &cfg, None).unwrap();
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
        match solve_dc_with(&c, &cfg, None) {
            Err(SpiceError::NonConvergence { iterations, .. }) => {
                // 1 (plain) + 3 ramp stages × 1 = 4.
                assert_eq!(iterations, 4);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn traced_solve_emits_events_and_matches_plain() {
        use pnc_telemetry::{MemorySink, Telemetry};
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
        let traced = solve_dc_traced(&c, &cfg, None, &tel).unwrap();
        let plain = solve_dc_with(&c, &cfg, None).unwrap();
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
        assert!(solve_dc_traced(&hard, &tight, None, &tel).is_err());
        let fails = sink.events_named("dc_solve_failed");
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].get_u64("iterations"), Some(3));
    }

    #[test]
    fn sparse_backend_matches_dense() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.6);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);

        let dense_cfg = SolverConfig {
            backend: SolverBackend::Dense,
            ..SolverConfig::default()
        };
        let sparse_cfg = SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let d = solve_dc_with(&c, &dense_cfg, None).unwrap();
        let s = solve_dc_with(&c, &sparse_cfg, None).unwrap();
        assert!((d.voltage(out) - s.voltage(out)).abs() < 1e-9);
        assert!((d.source_current(0) - s.source_current(0)).abs() < 1e-12);
        assert!(residual_norm(&c, &s) < 1e-9);
    }

    #[test]
    fn sparse_capture_records_resolved_backend() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.resistor(vdd, out, 10_000.0);
        c.egt(out, vdd, Circuit::GROUND, 1e-4, 2e-5);
        let cfg = SolverConfig {
            backend: SolverBackend::Sparse,
            ..SolverConfig::default()
        };
        let (res, trace) = solve_dc_captured(&c, &cfg, None);
        assert!(res.is_ok());
        assert_eq!(trace.config.backend, SolverBackend::Sparse);
        assert!(trace.dim > 0 && trace.nnz > 0);

        // Replaying the trace (its config carries the resolved
        // backend) reproduces the trajectory exactly.
        let rebuilt = trace.rebuild_circuit();
        let (rr, rt) = solve_dc_captured(&rebuilt, &trace.config, trace.warm_start.as_deref());
        assert!(rr.is_ok());
        assert_eq!(rt.residuals_amps, trace.residuals_amps);
        assert_eq!(rt.steps_volts, trace.steps_volts);
    }

    #[test]
    fn auto_backend_resolves_by_dimension() {
        // A long resistor ladder crosses SPARSE_MIN_DIM; the trace must
        // show the resolved choice, never `Auto`.
        let mut c = Circuit::new();
        let top = c.node("n0");
        c.vsource(top, Circuit::GROUND, 1.0);
        let mut prev = top;
        for i in 1..=40 {
            let nxt = c.node(&format!("n{i}"));
            c.resistor(prev, nxt, 1_000.0);
            prev = nxt;
        }
        c.resistor(prev, Circuit::GROUND, 1_000.0);
        let cfg = SolverConfig::default();
        let (res, trace) = solve_dc_captured(&c, &cfg, None);
        assert!(res.is_ok());
        assert!(trace.dim >= SPARSE_MIN_DIM);
        assert_eq!(trace.config.backend, SolverBackend::Sparse);

        // A small circuit stays dense under Auto.
        let mut small = Circuit::new();
        let a = small.node("a");
        small.vsource(a, Circuit::GROUND, 1.0);
        small.resistor(a, Circuit::GROUND, 100.0);
        let (_, small_trace) = solve_dc_captured(&small, &cfg, None);
        assert_eq!(small_trace.config.backend, SolverBackend::Dense);
    }

    #[test]
    fn linear_sweep_fast_path_matches_per_point_solves() {
        // Divider: out = v/2 for every sweep value; the batched path
        // must agree with one-at-a-time solves to solver tolerance and
        // report the single batched Newton step per point.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let src = c.vsource(vin, Circuit::GROUND, 0.0);
        c.resistor(vin, out, 10_000.0);
        c.resistor(out, Circuit::GROUND, 10_000.0);
        let values = linspace(-1.0, 1.0, 9);
        let sweep = dc_sweep(&c, src, &values).unwrap();
        for (p, &v) in sweep.points.iter().zip(&values) {
            // GMIN loads the divider by a few parts in 1e9.
            assert!((p.voltage(out) - v / 2.0).abs() < 1e-7, "at v = {v}");
            assert_eq!(p.iterations(), 1);
            let mut one = c.clone();
            one.set_vsource(src, v).unwrap();
            let op = solve_dc(&one).unwrap();
            assert!((p.voltage(out) - op.voltage(out)).abs() < 1e-9);
        }
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [
            SolverBackend::Auto,
            SolverBackend::Dense,
            SolverBackend::Sparse,
        ] {
            assert_eq!(SolverBackend::parse(b.name()), Some(b));
        }
        assert_eq!(SolverBackend::parse("blas"), None);
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
        let cold = solve_dc_with(&c, &cfg, None).unwrap();
        let warm = solve_dc_with(&c, &cfg, Some(&cold.state())).unwrap();
        assert!(warm.iterations() <= cold.iterations());
    }
}
