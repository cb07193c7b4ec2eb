//! Process-wide aggregate solver statistics.
//!
//! The DC solver is invoked from deep inside characterization sweeps
//! and power evaluations, far from any place a telemetry handle could
//! reasonably be threaded. Instead, every [`crate::dc::solve_dc_with`]
//! and [`crate::dc::solve_dc_planned`] call unconditionally updates
//! these relaxed atomic counters (a few
//! nanoseconds per solve), and an orchestrator — typically the CLI at
//! the end of a run — reads them out with [`snapshot`] or [`take`] and
//! emits a single `spice_stats` event.

use pnc_telemetry::{Event, HistogramSummary, Level, StreamHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

// lint: allow(L003, reason = "process-wide monotonic counters aggregated across solver threads; read out once per run")
static SOLVES: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide monotonic counters aggregated across solver threads; read out once per run")
static NEWTON_ITERATIONS: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide monotonic counters aggregated across solver threads; read out once per run")
static RAMP_FALLBACKS: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide monotonic counters aggregated across solver threads; read out once per run")
static FAILURES: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide divergence-streak gauge; watchdogs poll it to diagnose sick runs")
static FAILURE_STREAK: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide divergence-streak high-water mark, same lifecycle as the counters above")
static LONGEST_FAILURE_STREAK: AtomicU64 = AtomicU64::new(0);
// lint: allow(L003, reason = "process-wide monotonic counters aggregated across solver threads; read out once per run")
static WARM_STARTED_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Per-solve Newton iteration counts. A full-scale bench run performs
/// millions of solves, so the distribution lives in a log-bucketed
/// streamed histogram: bounded memory, allocation-free recording, and
/// — unlike the reservoir it replaced — deterministic summaries that
/// don't depend on which solves happened to survive sampling. Unit
/// resolution (1 tick per iteration) keeps small integer counts exact.
// lint: allow(L003, reason = "process-wide iteration-count distribution, same lifecycle as the atomic counters above")
static NEWTON_PER_SOLVE: LazyLock<StreamHistogram> =
    LazyLock::new(|| StreamHistogram::with_ticks_per_unit(1.0));

/// Per-solve wall-clock time in milliseconds, recorded by every
/// [`crate::dc::solve_dc_with`] call at the streamed histogram's
/// default ns-per-ms resolution.
// lint: allow(L003, reason = "process-wide solve-latency distribution, same lifecycle as the atomic counters above")
static SOLVE_TIME_MS: LazyLock<StreamHistogram> = LazyLock::new(StreamHistogram::new);

/// A point-in-time copy of the aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStatsSnapshot {
    /// DC solves attempted (including failed ones).
    pub solves: u64,
    /// Newton iterations spent across all solves, attempts and ramp
    /// stages, a planned solve's block iterations included.
    pub newton_iterations: u64,
    /// Solves where the cold/warm Newton attempt failed and the
    /// supply-ramp homotopy was engaged.
    pub ramp_fallbacks: u64,
    /// Solves that returned an error.
    pub failures: u64,
    /// Longest run of *consecutive* failed solves observed — the
    /// Newton non-convergence streak a health watchdog keys on. A few
    /// isolated failures are normal near extreme operating points;
    /// a long unbroken streak means the solver has stopped converging.
    pub longest_failure_streak: u64,
    /// Always 0: no solve factors a sparse matrix. Kept until the
    /// benchmark stops reading it (ROADMAP item 6).
    pub factorizations: u64,
    /// Always 0, as [`Self::factorizations`] (ROADMAP item 6).
    pub refactorizations: u64,
    /// Always 0, as [`Self::factorizations`] (ROADMAP item 6).
    pub pattern_hits: u64,
    /// Always 0, as [`Self::factorizations`] (ROADMAP item 6).
    pub pattern_misses: u64,
    /// Solves handed a starting vector instead of a cold zero guess:
    /// within-sweep continuation (previous point, extrapolations) and
    /// cross-point donors in Sobol characterization alike.
    pub warm_started_solves: u64,
}

impl SolverStatsSnapshot {
    /// Renders the snapshot as a `spice_stats` telemetry event.
    pub fn to_event(&self) -> Event {
        Event::new("spice_stats", Level::Info)
            .with_u64("solves", self.solves)
            .with_u64("newton_iterations", self.newton_iterations)
            .with_u64("ramp_fallbacks", self.ramp_fallbacks)
            .with_u64("failures", self.failures)
            .with_u64("longest_failure_streak", self.longest_failure_streak)
            .with_u64("warm_started_solves", self.warm_started_solves)
    }
}

/// Reads the counters without resetting them.
pub fn snapshot() -> SolverStatsSnapshot {
    SolverStatsSnapshot {
        solves: SOLVES.load(Ordering::Relaxed),
        newton_iterations: NEWTON_ITERATIONS.load(Ordering::Relaxed),
        ramp_fallbacks: RAMP_FALLBACKS.load(Ordering::Relaxed),
        failures: FAILURES.load(Ordering::Relaxed),
        longest_failure_streak: LONGEST_FAILURE_STREAK.load(Ordering::Relaxed),
        warm_started_solves: WARM_STARTED_SOLVES.load(Ordering::Relaxed),
        ..SolverStatsSnapshot::default()
    }
}

/// Current run of consecutive failed solves (zeroed by any successful
/// solve). Health watchdogs poll this to detect Newton divergence
/// streaks mid-run.
pub fn failure_streak() -> u64 {
    FAILURE_STREAK.load(Ordering::Relaxed)
}

/// Longest consecutive-failure streak since the last [`take`]/[`reset`].
pub fn longest_failure_streak() -> u64 {
    LONGEST_FAILURE_STREAK.load(Ordering::Relaxed)
}

/// Summary of the per-solve Newton iteration distribution (count /
/// min / max / mean / p50 / p95 / p99) accumulated since the last
/// [`take`] or [`reset`]. Iteration counts below 64 are exact;
/// larger ones carry the streamed histogram's ≤ 1/64 bucket error.
pub fn newton_iteration_summary() -> HistogramSummary {
    NEWTON_PER_SOLVE.summary()
}

/// Summary of per-solve wall-clock time (milliseconds) accumulated
/// since the last [`take`] or [`reset`].
///
/// A planned solve ([`crate::dc::solve_dc_planned`]) is timed whole:
/// its block guess, the arrival check and any whole-circuit Newton
/// that follows. Block plans start every exported-network row solve,
/// and the guess is most of such a solve's time. Before block plans
/// the same rows timed whole-circuit Newton only, so a comparison
/// across their introduction reads the caller's own timer (perfbench's
/// `core.simulate_ms`), not this summary.
pub fn solve_time_summary() -> HistogramSummary {
    SOLVE_TIME_MS.summary()
}

/// A live handle onto the per-solve Newton-iteration histogram
/// (clones share storage), for merging into a metrics registry.
pub fn newton_iteration_histogram() -> StreamHistogram {
    NEWTON_PER_SOLVE.clone()
}

/// A live handle onto the per-solve wall-time histogram (clones share
/// storage), for merging into a metrics registry. What one sample
/// covers is as for [`solve_time_summary`]: a planned solve's block
/// guess included.
pub fn solve_time_histogram() -> StreamHistogram {
    SOLVE_TIME_MS.clone()
}

/// Reads and zeroes the counters, returning the values they held; the
/// per-solve iteration histogram is cleared too (read it first with
/// [`newton_iteration_summary`] if you need the distribution).
/// Use this to attribute solver work to a phase of a larger run.
pub fn take() -> SolverStatsSnapshot {
    NEWTON_PER_SOLVE.clear();
    SOLVE_TIME_MS.clear();
    FAILURE_STREAK.store(0, Ordering::Relaxed);
    SolverStatsSnapshot {
        solves: SOLVES.swap(0, Ordering::Relaxed),
        newton_iterations: NEWTON_ITERATIONS.swap(0, Ordering::Relaxed),
        ramp_fallbacks: RAMP_FALLBACKS.swap(0, Ordering::Relaxed),
        failures: FAILURES.swap(0, Ordering::Relaxed),
        longest_failure_streak: LONGEST_FAILURE_STREAK.swap(0, Ordering::Relaxed),
        warm_started_solves: WARM_STARTED_SOLVES.swap(0, Ordering::Relaxed),
        ..SolverStatsSnapshot::default()
    }
}

/// Zeroes the counters.
pub fn reset() {
    let _ = take();
}

pub(crate) fn record_solve() {
    SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_iterations(n: usize) {
    NEWTON_ITERATIONS.fetch_add(n as u64, Ordering::Relaxed);
    NEWTON_PER_SOLVE.record(n as f64);
}

pub(crate) fn record_solve_time_ms(ms: f64) {
    SOLVE_TIME_MS.record(ms);
}

/// A solve converged: breaks any consecutive-failure streak. Kept
/// separate from [`record_iterations`] because failed solves also
/// report their (wasted) iteration counts.
pub(crate) fn record_success() {
    FAILURE_STREAK.store(0, Ordering::Relaxed);
}

pub(crate) fn record_ramp_fallback() {
    RAMP_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// A solve was seeded from a warm state.
pub(crate) fn record_warm_start() {
    WARM_STARTED_SOLVES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_failure() {
    FAILURES.fetch_add(1, Ordering::Relaxed);
    let streak = FAILURE_STREAK.fetch_add(1, Ordering::Relaxed) + 1;
    LONGEST_FAILURE_STREAK.fetch_max(streak, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use crate::netlist::Circuit;

    // NOTE: counters are process-global and Rust runs tests in
    // parallel, so assertions here are monotonic (deltas ≥ expected)
    // rather than exact.
    #[test]
    fn solves_and_iterations_accumulate() {
        let before = snapshot();
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, b, 1_000.0);
        c.resistor(b, Circuit::GROUND, 1_000.0);
        let op = solve_dc(&c).unwrap();
        let after = snapshot();
        assert!(after.solves > before.solves);
        assert!(after.newton_iterations >= before.newton_iterations + op.iterations() as u64);
    }

    #[test]
    fn newton_histogram_tracks_per_solve_iterations() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, Circuit::GROUND, 500.0);
        let before = newton_iteration_summary().count;
        let op = solve_dc(&c).unwrap();
        let s = newton_iteration_summary();
        // Parallel tests may also solve, so assertions are monotonic.
        assert!(s.count > before);
        assert!(s.max >= op.iterations() as f64);
        // Warm-started solves that are converged on arrival record 0
        // iterations, so the minimum is only bounded below by zero.
        assert!(s.min >= 0.0);
    }

    #[test]
    fn solve_time_histogram_tracks_solves() {
        // The handle is taken before this test's solve: its count can
        // only rise past the pre-solve value if it shares live storage
        // with the static rather than holding a copy.
        let handle = solve_time_histogram();
        let before = handle.summary().count;
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Circuit::GROUND, 1.0);
        c.resistor(a, Circuit::GROUND, 250.0);
        solve_dc(&c).unwrap();
        // Parallel tests may also solve, so assertions are monotonic.
        assert!(handle.summary().count > before);
        let s = solve_time_summary();
        assert!(s.min >= 0.0 && s.max.is_finite());
    }

    #[test]
    fn snapshot_event_shape() {
        let e = SolverStatsSnapshot {
            solves: 10,
            newton_iterations: 55,
            ramp_fallbacks: 2,
            failures: 1,
            longest_failure_streak: 1,
            warm_started_solves: 5,
            ..SolverStatsSnapshot::default()
        }
        .to_event();
        assert_eq!(e.name, "spice_stats");
        assert_eq!(e.get_u64("solves"), Some(10));
        assert_eq!(e.get_u64("newton_iterations"), Some(55));
        assert_eq!(e.get_u64("ramp_fallbacks"), Some(2));
        assert_eq!(e.get_u64("failures"), Some(1));
        assert_eq!(e.get_u64("longest_failure_streak"), Some(1));
        assert_eq!(e.get_u64("warm_started_solves"), Some(5));
        // The always-zero sparse-path fields are not reported.
        for gone in [
            "factorizations",
            "refactorizations",
            "pattern_hits",
            "pattern_misses",
        ] {
            assert_eq!(e.get_u64(gone), None, "{gone}");
        }
        let s = snapshot();
        let zeroed = [
            s.factorizations,
            s.refactorizations,
            s.pattern_hits,
            s.pattern_misses,
        ];
        assert_eq!(zeroed, [0; 4]);
    }

    #[test]
    fn failure_streak_counts_consecutive_failures_and_resets() {
        // Direct counter exercise: the streak grows with failures and
        // any completed solve breaks it. Parallel tests may interleave
        // their own solves, so assertions are monotonic where global
        // state is involved.
        record_failure();
        record_failure();
        assert!(longest_failure_streak() >= 2);
        record_success();
        assert!(failure_streak() < 2);
        // The high-water mark survives the reset of the live streak.
        assert!(longest_failure_streak() >= 2);
    }
}
