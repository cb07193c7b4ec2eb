//! Solver observatory: opt-in per-solve numerical observability.
//!
//! [`crate::stats`] answers "how much solver work happened"; this
//! module answers "what did the numerics look like while it happened".
//! When enabled (off by default — the only cost on the hot path is one
//! relaxed atomic load per solve plus a handful of thread-local
//! counter bumps), every [`crate::dc::solve_dc_with`] call records a
//! [`SolveTrace`]:
//!
//! * the Newton residual trajectory (`‖f‖∞` per iteration) and the
//!   damped step sizes (`‖Δx‖∞` after damping),
//! * damping and supply-ramp fallback events (which iterations were
//!   damped, where each ramp stage began),
//! * a sparsity-pattern fingerprint — a stable FNV-1a hash of the MNA
//!   structure (element kinds + terminals + dimensions, values
//!   excluded) plus the Jacobian's nonzero count,
//! * a per-solve `cond1_estimate` of the Jacobian via the Hager/Higham
//!   1-norm estimator in [`pnc_linalg::cond`], reusing the dense LU
//!   factors the Newton step already computed (a solve accepted on
//!   arrival factors nothing and reports 0.0),
//! * the captured inputs (elements, solver config, warm start) so the
//!   solve can be re-executed bit-for-bit by `pnc-cli solver replay`.
//!
//! Traces land in a seeded-deterministic reservoir ring buffer
//! (bounded memory no matter how many solves run) and, when a stream
//! is attached, as `solve_trace` JSONL lines. Aggregates — a log₁₀
//! condition-number histogram, a residual-reduction-rate histogram and
//! a max-condition high-water gauge — feed the Prometheus exposition
//! and the `HealthWatchdog` ill-conditioning probe.

use crate::dc::SolverConfig;
use crate::netlist::{Circuit, Element};
use crate::SpiceError;
use pnc_telemetry::json::{event_to_json, write_escaped, Json};
use pnc_telemetry::{Event, Level, StreamHistogram};
use std::cell::Cell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

/// Default ring-buffer capacity (traces kept in memory for
/// [`take_traces`]); the JSONL stream is unbounded.
pub const DEFAULT_RING_CAPACITY: usize = 256;

// lint: allow(L003, reason = "process-wide observatory on/off switch; one relaxed load per solve when off")
static ENABLED: AtomicBool = AtomicBool::new(false);
// lint: allow(L003, reason = "process-wide trace sequence number; read out once per run")
static SOLVE_SEQ: AtomicU64 = AtomicU64::new(0);
/// Max `cond1_estimate` seen, stored as `f64::to_bits` (bit patterns
/// of non-negative floats order like the floats themselves, so
/// `fetch_max` on the bits is a float max).
// lint: allow(L003, reason = "process-wide conditioning high-water gauge; watchdogs poll it to latch ill-conditioning")
static MAX_COND1_BITS: AtomicU64 = AtomicU64::new(0);

/// Per-solve `log₁₀(cond1_estimate)` distribution. Condition numbers
/// span 1..1e16, which would overflow the histogram's integer ticks if
/// recorded raw; decades fit comfortably at millitick resolution.
// lint: allow(L003, reason = "process-wide conditioning distribution, same lifecycle as the stats counters")
static COND1_LOG10: LazyLock<StreamHistogram> =
    LazyLock::new(|| StreamHistogram::with_ticks_per_unit(1e3));

/// Per-solve residual reduction rate in decades per iteration:
/// `(log₁₀ r_first − log₁₀ r_last) / (iterations − 1)` over the
/// recorded trajectory. Healthy damped Newton runs sit around 1–4;
/// values near zero mean the solver is grinding.
// lint: allow(L003, reason = "process-wide convergence-rate distribution, same lifecycle as the stats counters")
static REDUCTION_RATE: LazyLock<StreamHistogram> =
    LazyLock::new(|| StreamHistogram::with_ticks_per_unit(1e3));

struct Ring {
    seed: u64,
    capacity: usize,
    seen: u64,
    traces: Vec<SolveTrace>,
}

// lint: allow(L003, reason = "process-wide seeded trace reservoir; drained once per run by the orchestrator")
static RING: LazyLock<Mutex<Ring>> = LazyLock::new(|| {
    Mutex::new(Ring {
        seed: 0,
        capacity: DEFAULT_RING_CAPACITY,
        seen: 0,
        traces: Vec::new(),
    })
});

// lint: allow(L003, reason = "process-wide optional JSONL trace stream, attached once per run by the orchestrator")
static STREAM: LazyLock<Mutex<Option<BufWriter<File>>>> = LazyLock::new(|| Mutex::new(None));

thread_local! {
    /// Per-thread per-point accounting window (see [`point_window_take`]).
    // lint: allow(L003, reason = "per-thread accounting window; drained only by the sequential per-point compaction pass")
    static POINT_WINDOW: Cell<PointSolveStats> = const { Cell::new(PointSolveStats::zero()) };
}

/// SplitMix64 finalizer — the workspace's standard seed-derivation
/// mix, reused here so reservoir decisions are a pure function of
/// `(seed, arrival index)`.
fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Turns the observatory on: traces are recorded into a fresh
/// reservoir seeded with `seed` (capacity `capacity`, clamped to ≥ 1)
/// and aggregates start accumulating. Call [`reset`] first if a prior
/// window's data should not leak into this one.
pub fn enable(seed: u64, capacity: usize) {
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    let mut ring = RING.lock().unwrap();
    ring.seed = seed;
    ring.capacity = capacity.max(1);
    ring.seen = 0;
    ring.traces.clear();
    drop(ring);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the observatory off (aggregates and the ring keep their
/// contents until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether solves are currently being traced.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Attaches a JSONL stream: every recorded trace is appended to
/// `path` as one `solve_trace` line. Replaces any previous stream.
///
/// # Errors
///
/// Propagates the underlying file-creation error.
pub fn stream_to(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    *STREAM.lock().unwrap() = Some(BufWriter::new(file));
    Ok(())
}

/// Flushes and detaches the JSONL stream (no-op when none is
/// attached).
pub fn close_stream() {
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    if let Some(mut w) = STREAM.lock().unwrap().take() {
        let _ = w.flush();
    }
}

/// Drains the reservoir, returning the sampled traces sorted by
/// solve index. The reservoir's arrival counter restarts.
pub fn take_traces() -> Vec<SolveTrace> {
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    let mut ring = RING.lock().unwrap();
    ring.seen = 0;
    let mut traces = std::mem::take(&mut ring.traces);
    drop(ring);
    traces.sort_by_key(|t| t.solve_index);
    traces
}

/// High-water mark of `cond1_estimate` across all traced solves since
/// the last [`reset`] — the value the `HealthWatchdog`
/// ill-conditioning probe latches on.
pub fn max_cond1_estimate() -> f64 {
    f64::from_bits(MAX_COND1_BITS.load(Ordering::Relaxed))
}

/// Live handle onto the per-solve `log₁₀(cond1_estimate)` histogram
/// (clones share storage), for merging into a metrics registry.
pub fn cond1_log10_histogram() -> StreamHistogram {
    COND1_LOG10.clone()
}

/// Live handle onto the per-solve residual-reduction-rate histogram
/// (decades per iteration; clones share storage).
pub fn reduction_rate_histogram() -> StreamHistogram {
    REDUCTION_RATE.clone()
}

/// Turns the observatory off and clears every aggregate: ring,
/// histograms, conditioning gauge, sequence counter, and stream.
pub fn reset() {
    disable();
    close_stream();
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    let mut ring = RING.lock().unwrap();
    ring.seen = 0;
    ring.traces.clear();
    drop(ring);
    COND1_LOG10.clear();
    REDUCTION_RATE.clear();
    MAX_COND1_BITS.store(0, Ordering::Relaxed);
    SOLVE_SEQ.store(0, Ordering::Relaxed);
}

/// Stable structural fingerprint of a circuit's MNA pattern: FNV-1a
/// over element kinds and terminal indices plus the node and branch
/// counts. Element *values* (ohms, volts, W/L) are excluded, so two
/// Sobol points of the same activation circuit share a fingerprint —
/// exactly the "one sparsity pattern across the sweep" claim the
/// hardness atlas quantifies.
pub fn pattern_fingerprint(circuit: &Circuit) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(circuit.node_count() as u64);
    eat(circuit.branch_count() as u64);
    for e in circuit.elements() {
        match e {
            Element::Resistor { a, b, .. } => {
                eat(0);
                eat(*a as u64);
                eat(*b as u64);
            }
            Element::VSource { plus, minus, .. } => {
                eat(1);
                eat(*plus as u64);
                eat(*minus as u64);
            }
            Element::Vcvs {
                plus,
                minus,
                ctrl_p,
                ctrl_n,
                ..
            } => {
                eat(2);
                eat(*plus as u64);
                eat(*minus as u64);
                eat(*ctrl_p as u64);
                eat(*ctrl_n as u64);
            }
            Element::Capacitor { a, b, .. } => {
                eat(3);
                eat(*a as u64);
                eat(*b as u64);
            }
            Element::ISource { plus, minus, .. } => {
                eat(4);
                eat(*plus as u64);
                eat(*minus as u64);
            }
            Element::Egt {
                drain,
                gate,
                source,
                ..
            } => {
                eat(5);
                eat(*drain as u64);
                eat(*gate as u64);
                eat(*source as u64);
            }
        }
    }
    h
}

/// Per-thread solver accounting over a window — the hardness atlas's
/// per-Sobol-point ledger. [`point_window_reset`] / [`point_window_take`]
/// bracket one characterization point inside a `par_map` closure; the
/// executor runs each closure on exactly one thread, so the window
/// sees precisely that point's solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSolveStats {
    /// DC solves in the window (including failures).
    pub solves: u64,
    /// Newton iterations spent across those solves.
    pub newton_iterations: u64,
    /// Solves that engaged the supply-ramp fallback.
    pub ramp_fallbacks: u64,
    /// Solves that returned an error.
    pub failures: u64,
    /// Largest `cond1_estimate` in the window. Populated only while
    /// the observatory is [`enable`]d (conditioning is estimated on
    /// traced solves only); 0.0 otherwise.
    pub max_cond1_estimate: f64, // lint: dimensionless
    /// Sparsity-pattern fingerprint of the solved circuits (0 until
    /// the first solve lands).
    pub fingerprint: u64,
    /// Whether more than one distinct fingerprint was seen.
    pub multi_fingerprint: bool,
}

impl PointSolveStats {
    const fn zero() -> Self {
        PointSolveStats {
            solves: 0,
            newton_iterations: 0,
            ramp_fallbacks: 0,
            failures: 0,
            max_cond1_estimate: 0.0,
            fingerprint: 0,
            multi_fingerprint: false,
        }
    }
}

impl Default for PointSolveStats {
    fn default() -> Self {
        Self::zero()
    }
}

/// Zeroes the calling thread's accounting window.
pub fn point_window_reset() {
    POINT_WINDOW.with(|w| w.set(PointSolveStats::zero()));
}

/// Reads and zeroes the calling thread's accounting window.
pub fn point_window_take() -> PointSolveStats {
    POINT_WINDOW.with(|w| w.replace(PointSolveStats::zero()))
}

/// Called by every solve (traced or not) with the solved circuit's
/// [`pattern_fingerprint`]: a few thread-local counter bumps.
pub(crate) fn record_point_solve(fp: u64, newton_iterations: u64, ramped: bool, failed: bool) {
    POINT_WINDOW.with(|w| {
        let mut s = w.get();
        s.solves += 1;
        s.newton_iterations += newton_iterations;
        s.ramp_fallbacks += u64::from(ramped);
        s.failures += u64::from(failed);
        if s.fingerprint == 0 {
            s.fingerprint = fp;
        } else if s.fingerprint != fp {
            s.multi_fingerprint = true;
        }
        w.set(s);
    });
}

/// Per-iteration capture state handed down into the Newton loop when
/// the observatory is enabled (or a replay forces capture).
#[derive(Debug, Default)]
pub(crate) struct AttemptCapture {
    residuals_amps: Vec<f64>,
    steps_volts: Vec<f64>,
    damped_steps: u64,
    ramp_marks: Vec<usize>,
    dim: usize,
    nnz: usize,
    cond1_estimate: f64,
}

impl AttemptCapture {
    pub(crate) fn new() -> Self {
        AttemptCapture::default()
    }

    /// Records one Newton iteration: the pre-step residual norm, the
    /// damped step size, the Jacobian's `(dimension, non-zeros)` from
    /// `shape` (called at the first recorded iteration only), and a
    /// refreshed conditioning estimate when the factorization offers
    /// one (last iteration wins, i.e. the estimate reported is the one
    /// at the accepted solution; a solve that never offers one keeps
    /// 0.0, "never estimated", which downstream aggregates skip).
    pub(crate) fn record_iteration(
        &mut self,
        shape: impl FnOnce() -> (usize, usize),
        cond1: Option<f64>,
        max_resid: f64,
        step_volts: f64,
        damped: bool,
    ) {
        if self.dim == 0 {
            (self.dim, self.nnz) = shape();
        }
        if let Some(k) = cond1 {
            self.cond1_estimate = k;
        }
        self.residuals_amps.push(max_resid);
        self.steps_volts.push(step_volts);
        self.damped_steps += u64::from(damped);
    }

    /// Marks the start of a supply-ramp stage at the current position
    /// in the residual trajectory.
    pub(crate) fn mark_ramp_stage(&mut self) {
        self.ramp_marks.push(self.residuals_amps.len());
    }

    /// Finalizes the capture into a [`SolveTrace`], snapshotting the
    /// inputs (elements, config, warm start) needed to replay it.
    pub(crate) fn into_trace(
        self,
        circuit: &Circuit,
        cfg: &SolverConfig,
        warm_start: Option<&[f64]>,
        result: &Result<(crate::dc::OperatingPoint, bool), SpiceError>,
    ) -> SolveTrace {
        let (converged, ramped, iterations) = match result {
            Ok((op, ramped)) => (true, *ramped, op.iterations() as u64),
            Err(SpiceError::NonConvergence { iterations, .. }) => (false, true, *iterations as u64),
            Err(_) => (false, false, 0),
        };
        SolveTrace {
            solve_index: 0,
            fingerprint: pattern_fingerprint(circuit),
            dim: self.dim,
            nnz: self.nnz,
            iterations,
            converged,
            ramped,
            damped_steps: self.damped_steps,
            cond1_estimate: self.cond1_estimate,
            residuals_amps: self.residuals_amps,
            steps_volts: self.steps_volts,
            ramp_marks: self.ramp_marks,
            node_count: circuit.node_count(),
            config: *cfg,
            warm_start: warm_start.map(<[f64]>::to_vec),
            elements: circuit.elements().to_vec(),
        }
    }
}

/// One fully captured DC solve: trajectory, numerics, and the inputs
/// needed to re-execute it.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveTrace {
    /// Process-wide solve sequence number (assigned at record time;
    /// 0 for traces produced by direct capture, e.g. replays).
    pub solve_index: u64,
    /// Sparsity-pattern fingerprint (see [`pattern_fingerprint`]).
    pub fingerprint: u64,
    /// MNA system dimension (unknown count).
    pub dim: usize,
    /// Structural nonzeros in the Jacobian at the first iterate.
    pub nnz: usize,
    /// Total Newton iterations (attempts + ramp stages).
    pub iterations: u64,
    /// Whether the solve converged.
    pub converged: bool,
    /// Whether the supply-ramp fallback was engaged.
    pub ramped: bool,
    /// Iterations where step damping engaged (`scale < 1`).
    pub damped_steps: u64,
    /// Hager/Higham `κ₁` lower-bound estimate of the Jacobian at the
    /// last recorded iterate (0.0 if never estimated).
    pub cond1_estimate: f64, // lint: dimensionless
    /// `‖f‖∞` (amperes) at the start of each Newton iteration.
    pub residuals_amps: Vec<f64>,
    /// `‖Δx‖∞` (volts, post-damping) applied at each iteration.
    pub steps_volts: Vec<f64>,
    /// Indices into `residuals_amps` where each ramp stage began.
    pub ramp_marks: Vec<usize>,
    /// Node count (including ground) of the captured circuit.
    pub node_count: usize,
    /// Solver configuration the solve ran with.
    pub config: SolverConfig,
    /// Warm-start state, if one was supplied.
    pub warm_start: Option<Vec<f64>>,
    /// Captured circuit elements (replay rebuilds the netlist from
    /// these).
    pub elements: Vec<Element>,
}

fn push_f64_array(out: &mut String, key: &str, values: &[f64]) {
    out.push(',');
    write_escaped(out, key);
    out.push_str(":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            out.push_str(&format!("{v:?}"));
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

fn element_to_json(e: &Element) -> String {
    let mut o = String::new();
    let field = |o: &mut String, k: &str, v: f64| {
        o.push(',');
        write_escaped(o, k);
        o.push(':');
        o.push_str(&format!("{v:?}"));
    };
    match e {
        Element::Resistor { a, b, ohms } => {
            o.push_str(&format!("{{\"kind\":\"resistor\",\"a\":{a},\"b\":{b}"));
            field(&mut o, "ohms", *ohms);
        }
        Element::VSource { plus, minus, volts } => {
            o.push_str(&format!(
                "{{\"kind\":\"vsource\",\"plus\":{plus},\"minus\":{minus}"
            ));
            field(&mut o, "volts", *volts);
        }
        Element::Vcvs {
            plus,
            minus,
            ctrl_p,
            ctrl_n,
            gain,
        } => {
            o.push_str(&format!(
                "{{\"kind\":\"vcvs\",\"plus\":{plus},\"minus\":{minus},\"ctrl_p\":{ctrl_p},\"ctrl_n\":{ctrl_n}"
            ));
            field(&mut o, "gain", *gain);
        }
        Element::Capacitor { a, b, farads } => {
            o.push_str(&format!("{{\"kind\":\"capacitor\",\"a\":{a},\"b\":{b}"));
            field(&mut o, "farads", *farads);
        }
        Element::ISource { plus, minus, amps } => {
            o.push_str(&format!(
                "{{\"kind\":\"isource\",\"plus\":{plus},\"minus\":{minus}"
            ));
            field(&mut o, "amps", *amps);
        }
        Element::Egt {
            drain,
            gate,
            source,
            w,
            l,
            model,
        } => {
            o.push_str(&format!(
                "{{\"kind\":\"egt\",\"drain\":{drain},\"gate\":{gate},\"source\":{source}"
            ));
            field(&mut o, "w", *w);
            field(&mut o, "l", *l);
            field(&mut o, "vth_volts", model.vth_volts);
            field(&mut o, "slope", model.slope);
            field(&mut o, "phi_t_volts", model.phi_t_volts);
            field(&mut o, "kp", model.kp);
        }
    }
    o.push('}');
    o
}

fn element_from_json(j: &Json) -> Option<Element> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    let n = |k: &str| f(k).map(|v| v as usize);
    match j.get("kind").and_then(Json::as_str)? {
        "resistor" => Some(Element::Resistor {
            a: n("a")?,
            b: n("b")?,
            ohms: f("ohms")?,
        }),
        "vsource" => Some(Element::VSource {
            plus: n("plus")?,
            minus: n("minus")?,
            volts: f("volts")?,
        }),
        "vcvs" => Some(Element::Vcvs {
            plus: n("plus")?,
            minus: n("minus")?,
            ctrl_p: n("ctrl_p")?,
            ctrl_n: n("ctrl_n")?,
            gain: f("gain")?,
        }),
        "capacitor" => Some(Element::Capacitor {
            a: n("a")?,
            b: n("b")?,
            farads: f("farads")?,
        }),
        "isource" => Some(Element::ISource {
            plus: n("plus")?,
            minus: n("minus")?,
            amps: f("amps")?,
        }),
        "egt" => Some(Element::Egt {
            drain: n("drain")?,
            gate: n("gate")?,
            source: n("source")?,
            w: f("w")?,
            l: f("l")?,
            model: crate::EgtModel {
                vth_volts: f("vth_volts")?,
                slope: f("slope")?,
                phi_t_volts: f("phi_t_volts")?,
                kp: f("kp")?,
            },
        }),
        _ => None,
    }
}

impl SolveTrace {
    /// Residual reduction rate over the recorded trajectory, in
    /// decades per iteration. Returns 0.0 for trajectories too short
    /// (or too degenerate) to measure.
    pub fn reduction_rate(&self) -> f64 {
        let (Some(&first), Some(&last)) = (self.residuals_amps.first(), self.residuals_amps.last())
        else {
            return 0.0;
        };
        if self.residuals_amps.len() < 2 || first <= 0.0 || last <= 0.0 {
            return 0.0;
        }
        (first.log10() - last.log10()) / (self.residuals_amps.len() - 1) as f64
    }

    /// Serializes the trace as one `solve_trace` JSONL line.
    pub fn to_jsonl(&self) -> String {
        // Scalars go through the Event serializer so the line shares
        // its shape (and schema-lint coverage) with every other event;
        // arrays are spliced on before the closing brace.
        let header = Event::new("solve_trace", Level::Debug)
            .with_u64("solve_index", self.solve_index)
            .with_str("fingerprint", format!("{:016x}", self.fingerprint))
            .with_u64("dim", self.dim as u64)
            .with_u64("nnz", self.nnz as u64)
            .with_u64("iterations", self.iterations)
            .with_bool("converged", self.converged)
            .with_bool("ramped", self.ramped)
            .with_u64("damped_steps", self.damped_steps)
            .with_f64("cond1_estimate", self.cond1_estimate)
            .with_u64("node_count", self.node_count as u64)
            .with_u64("max_iterations", self.config.max_iterations as u64)
            .with_f64("residual_tol_amps", self.config.residual_tol_amps)
            .with_f64("step_tol_volts", self.config.step_tol_volts)
            .with_f64("max_step_volts", self.config.max_step_volts)
            .with_u64("ramp_stages", self.config.ramp_stages as u64);
        let mut out = event_to_json(&header, None);
        out.pop(); // strip '}' to splice the array fields
        push_f64_array(&mut out, "residuals_amps", &self.residuals_amps);
        push_f64_array(&mut out, "steps_volts", &self.steps_volts);
        out.push_str(",\"ramp_marks\":[");
        for (i, m) in self.ramp_marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&m.to_string());
        }
        out.push(']');
        match &self.warm_start {
            Some(ws) => push_f64_array(&mut out, "warm_start", ws),
            None => out.push_str(",\"warm_start\":null"),
        }
        out.push_str(",\"elements\":[");
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&element_to_json(e));
        }
        out.push_str("]}");
        out
    }

    /// Parses a trace from a JSON value produced by [`SolveTrace::to_jsonl`].
    /// Returns `None` for lines that are not `solve_trace` events or
    /// that are missing fields.
    pub fn from_json(j: &Json) -> Option<SolveTrace> {
        if j.get("event").and_then(Json::as_str) != Some("solve_trace") {
            return None;
        }
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        let u = |k: &str| f(k).map(|v| v as u64);
        let b = |k: &str| j.get(k).and_then(Json::as_bool);
        let f64_arr = |k: &str| -> Option<Vec<f64>> {
            match j.get(k)? {
                Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
                _ => None,
            }
        };
        let elements = match j.get("elements")? {
            Json::Arr(items) => items
                .iter()
                .map(element_from_json)
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let warm_start = match j.get("warm_start")? {
            Json::Null => None,
            Json::Arr(items) => Some(items.iter().map(Json::as_f64).collect::<Option<Vec<_>>>()?),
            _ => return None,
        };
        Some(SolveTrace {
            solve_index: u("solve_index")?,
            fingerprint: u64::from_str_radix(j.get("fingerprint")?.as_str()?, 16).ok()?,
            dim: u("dim")? as usize,
            nnz: u("nnz")? as usize,
            iterations: u("iterations")?,
            converged: b("converged")?,
            ramped: b("ramped")?,
            damped_steps: u("damped_steps")?,
            cond1_estimate: f("cond1_estimate")?,
            residuals_amps: f64_arr("residuals_amps")?,
            steps_volts: f64_arr("steps_volts")?,
            ramp_marks: f64_arr("ramp_marks")?.iter().map(|&m| m as usize).collect(),
            node_count: u("node_count")? as usize,
            // Older traces also carry a `backend` field. It is ignored:
            // replay runs dense Newton on the whole circuit, whatever
            // its size.
            config: SolverConfig {
                max_iterations: u("max_iterations")? as usize,
                residual_tol_amps: f("residual_tol_amps")?,
                step_tol_volts: f("step_tol_volts")?,
                max_step_volts: f("max_step_volts")?,
                ramp_stages: u("ramp_stages")? as usize,
            },
            warm_start,
            elements,
        })
    }

    /// Rebuilds the captured netlist. Node names are synthetic
    /// (`n1`, `n2`, …) — MNA only cares about indices, so the rebuilt
    /// circuit solves identically to the recorded one.
    pub fn rebuild_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        for i in 1..self.node_count {
            c.node(&format!("n{i}"));
        }
        for e in &self.elements {
            match e {
                Element::Resistor { a, b, ohms } => {
                    c.resistor(*a, *b, *ohms);
                }
                Element::VSource { plus, minus, volts } => {
                    c.vsource(*plus, *minus, *volts);
                }
                Element::Vcvs {
                    plus,
                    minus,
                    ctrl_p,
                    ctrl_n,
                    gain,
                } => {
                    c.vcvs(*plus, *minus, *ctrl_p, *ctrl_n, *gain);
                }
                Element::Capacitor { a, b, farads } => {
                    c.capacitor(*a, *b, *farads);
                }
                Element::ISource { plus, minus, amps } => {
                    c.isource(*plus, *minus, *amps);
                }
                Element::Egt {
                    drain,
                    gate,
                    source,
                    w,
                    l,
                    model,
                } => {
                    c.egt_with_model(*drain, *gate, *source, *w, *l, *model);
                }
            }
        }
        c
    }
}

/// Records a finished trace: assigns its sequence number, feeds the
/// aggregates, appends to the JSONL stream (if attached), and offers
/// it to the seeded reservoir.
pub(crate) fn record_trace(mut trace: SolveTrace) {
    trace.solve_index = SOLVE_SEQ.fetch_add(1, Ordering::Relaxed);
    if trace.cond1_estimate > 0.0 {
        COND1_LOG10.record(trace.cond1_estimate.log10().max(0.0));
        MAX_COND1_BITS.fetch_max(trace.cond1_estimate.to_bits(), Ordering::Relaxed);
        POINT_WINDOW.with(|w| {
            let mut s = w.get();
            s.max_cond1_estimate = s.max_cond1_estimate.max(trace.cond1_estimate);
            w.set(s);
        });
    }
    let rate = trace.reduction_rate();
    if rate > 0.0 {
        REDUCTION_RATE.record(rate);
    }
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    if let Some(w) = STREAM.lock().unwrap().as_mut() {
        let mut line = trace.to_jsonl();
        line.push('\n');
        let _ = w.write_all(line.as_bytes());
    }
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    let mut ring = RING.lock().unwrap();
    ring.seen += 1;
    if ring.traces.len() < ring.capacity {
        ring.traces.push(trace);
    } else {
        // Reservoir sampling: trace k replaces a random survivor with
        // probability capacity/k, keyed off the seeded mix so the
        // decision is a pure function of (seed, arrival index).
        let slot = splitmix(ring.seed, ring.seen) % ring.seen;
        if (slot as usize) < ring.capacity {
            let idx = slot as usize;
            ring.traces[idx] = trace;
        }
    }
}

/// `Some(capture)` when the observatory is enabled, `None` otherwise —
/// the solver's single cheap check per solve.
pub(crate) fn capture_if_enabled() -> Option<AttemptCapture> {
    is_enabled().then(AttemptCapture::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("in");
        let b = c.node("out");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, b, 2_000.0);
        c.resistor(b, Circuit::GROUND, 1_000.0);
        c
    }

    #[test]
    fn fingerprint_ignores_values_but_not_structure() {
        let c = divider();
        let mut same_structure = divider();
        same_structure.set_vsource(0, 0.25).unwrap();
        assert_eq!(
            pattern_fingerprint(&c),
            pattern_fingerprint(&same_structure)
        );

        let mut extra = divider();
        extra.resistor(1, Circuit::GROUND, 500.0);
        assert_ne!(pattern_fingerprint(&c), pattern_fingerprint(&extra));
    }

    #[test]
    fn trace_jsonl_round_trips() {
        let c = divider();
        let trace = SolveTrace {
            solve_index: 7,
            fingerprint: pattern_fingerprint(&c),
            dim: 3,
            nnz: 7,
            iterations: 2,
            converged: true,
            ramped: false,
            damped_steps: 1,
            cond1_estimate: 4.5e3,
            residuals_amps: vec![1e-3, 1e-9],
            steps_volts: vec![0.4, 1e-11],
            ramp_marks: vec![],
            node_count: c.node_count(),
            config: SolverConfig::default(),
            warm_start: Some(vec![0.9, 0.3, -1e-4]),
            elements: c.elements().to_vec(),
        };
        let line = trace.to_jsonl();
        let parsed = pnc_telemetry::json::parse(&line).expect("line parses");
        let back = SolveTrace::from_json(&parsed).expect("trace round-trips");
        assert_eq!(back, trace);

        // Older traces carry a `backend` field; it parses and is ignored.
        let old = line.replacen(
            ",\"residuals_amps\"",
            ",\"backend\":\"sparse\",\"residuals_amps\"",
            1,
        );
        let parsed = pnc_telemetry::json::parse(&old).expect("old line parses");
        assert_eq!(SolveTrace::from_json(&parsed), Some(trace));
    }

    #[test]
    fn rebuilt_circuit_matches_the_original_elements() {
        let c = divider();
        let trace = SolveTrace {
            solve_index: 0,
            fingerprint: pattern_fingerprint(&c),
            dim: 3,
            nnz: 7,
            iterations: 1,
            converged: true,
            ramped: false,
            damped_steps: 0,
            cond1_estimate: 0.0,
            residuals_amps: vec![],
            steps_volts: vec![],
            ramp_marks: vec![],
            node_count: c.node_count(),
            config: SolverConfig::default(),
            warm_start: None,
            elements: c.elements().to_vec(),
        };
        let rebuilt = trace.rebuild_circuit();
        assert_eq!(rebuilt.elements(), c.elements());
        assert_eq!(rebuilt.node_count(), c.node_count());
        assert_eq!(pattern_fingerprint(&rebuilt), trace.fingerprint);
    }

    #[test]
    fn reduction_rate_measures_decades_per_iteration() {
        let mut t = SolveTrace {
            solve_index: 0,
            fingerprint: 0,
            dim: 0,
            nnz: 0,
            iterations: 3,
            converged: true,
            ramped: false,
            damped_steps: 0,
            cond1_estimate: 0.0,
            residuals_amps: vec![1e-3, 1e-6, 1e-9],
            steps_volts: vec![0.1, 0.01, 0.001],
            ramp_marks: vec![],
            node_count: 0,
            config: SolverConfig::default(),
            warm_start: None,
            elements: vec![],
        };
        assert!((t.reduction_rate() - 3.0).abs() < 1e-12);
        t.residuals_amps = vec![1e-3];
        assert_eq!(t.reduction_rate(), 0.0);
    }

    #[test]
    fn captured_replay_reproduces_the_trajectory_exactly() {
        // A nonlinear circuit exercises damping and a multi-iteration
        // trajectory; re-solving the rebuilt netlist with the recorded
        // config must walk the identical residual path bit for bit.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.6);
        c.resistor(vdd, out, 50_000.0);
        c.egt(out, vin, Circuit::GROUND, 1e-4, 2e-5);

        let cfg = SolverConfig::default();
        let (res, trace) = crate::dc::solve_dc_captured(&c, &cfg, None);
        let op = res.unwrap();
        assert!(trace.converged);
        assert_eq!(trace.iterations as usize, op.iterations());
        assert_eq!(trace.residuals_amps.len(), op.iterations());
        assert!(trace.cond1_estimate > 1.0);
        assert!(trace.dim > 0 && trace.nnz > 0);

        let rebuilt = trace.rebuild_circuit();
        let (res2, replayed) = crate::dc::solve_dc_captured(&rebuilt, &trace.config, None);
        assert!(res2.is_ok());
        assert_eq!(replayed.residuals_amps, trace.residuals_amps);
        assert_eq!(replayed.steps_volts, trace.steps_volts);
        assert_eq!(
            replayed.cond1_estimate.to_bits(),
            trace.cond1_estimate.to_bits()
        );
    }

    #[test]
    fn point_window_accumulates_and_takes() {
        point_window_reset();
        let c = divider();
        record_point_solve(pattern_fingerprint(&c), 5, false, false);
        record_point_solve(pattern_fingerprint(&c), 9, true, true);
        let s = point_window_take();
        assert_eq!(s.solves, 2);
        assert_eq!(s.newton_iterations, 14);
        assert_eq!(s.ramp_fallbacks, 1);
        assert_eq!(s.failures, 1);
        assert_eq!(s.fingerprint, pattern_fingerprint(&c));
        assert!(!s.multi_fingerprint);
        // The window is zero after take.
        assert_eq!(point_window_take(), PointSolveStats::zero());
    }
}
