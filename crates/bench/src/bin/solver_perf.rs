//! Solver benchmark: characterization cost and hardness per
//! activation-function kind with block-synchronous warm starts engaged
//! (`BENCH_8.json`).
//!
//! Runs surrogate characterization for each printed AF cell with the
//! solve-trace recorder and the hardness atlas enabled, records the
//! solver rollups — the warm-start counter plus the observatory
//! fields: the Hager/Higham condition estimate, the
//! sparsity-fingerprint cardinality and the distance↔iterations
//! correlation — and, when a baseline snapshot recorded at the same
//! scale is readable (`BENCH_7.json`, recorded before warm starting
//! existed), prints the per-kind Newton-iteration reduction and
//! enforces the ≥25% aggregate-reduction gate. The existing `trend`
//! binary consumes the output unchanged.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin solver_perf -- \
//!     --scale smoke --out BENCH_8.json --baseline BENCH_7.json
//! ```
//!
//! `--no-gate` skips the reduction gate (used by CI smoke runs whose
//! scale has no recorded baseline).
//!
//! `warm_started_solves` counts every solve handed a starting vector:
//! within-sweep continuation (chain/secant/quadratic) and cross-point
//! donors alike.

use pnc_bench::harness::{configure_threads_from_args, fit_bundle_traced, isolate_solver_stats};
use pnc_bench::snapshot::{DatasetPerf, PerfSnapshot, SolverRollup};
use pnc_bench::Scale;
use pnc_spice::AfKind;
use pnc_surrogate::{atlas, SolverAtlas};
use pnc_telemetry::{Profiler, Stopwatch, Telemetry};
use std::process::ExitCode;

/// Ring seed for the trace recorder: fixed so repeated runs sample the
/// same solves and the snapshot stays reproducible.
const TRACE_SEED: u64 = 7;

/// Required aggregate Newton-iteration reduction against the baseline.
const GATE: f64 = 0.25;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let threads = match configure_threads_from_args() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_args();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_8.json".to_string());
    let baseline = arg_value(&args, "--baseline").unwrap_or_else(|| "BENCH_7.json".to_string());
    let gate = !args.iter().any(|a| a == "--no-gate");
    match run(scale, &out, &baseline, gate, threads) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    scale: Scale,
    out: &str,
    baseline: &str,
    gate: bool,
    threads: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = scale.fidelity();
    println!(
        "Sparse/warm-start solver benchmark — scale {}, {} AF kind(s), {} thread(s)",
        scale.name(),
        AfKind::ALL.len(),
        threads,
    );

    // Sequential on purpose: the trace recorder, the atlas, and the
    // SPICE solver stats are process-global, so a parallel map over AF
    // kinds would bleed one kind's aggregates into another's rollup.
    let mut perfs = Vec::with_capacity(AfKind::ALL.len());
    pnc_parallel::stats::reset();
    for kind in AfKind::ALL {
        eprintln!("[solver_perf] {} …", kind.name());
        pnc_spice::observe::reset();
        pnc_spice::observe::enable(TRACE_SEED, pnc_spice::observe::DEFAULT_RING_CAPACITY);
        atlas::enable();
        let tel = Telemetry::disabled().with_profiler(Profiler::enabled());
        let started = Stopwatch::start();
        let (bundle, stats, iters) = isolate_solver_stats(|| {
            let _scope = tel.profiler().scope("fit_bundle");
            fit_bundle_traced(kind, &fidelity, &tel)
        });
        let wall_ms = started.elapsed_ms();
        pnc_spice::observe::disable();
        atlas::disable();
        let atlas = SolverAtlas::new(atlas::take());
        pnc_spice::observe::reset();
        bundle?;
        let rollup = atlas.rollup();
        perfs.push(DatasetPerf::from_report(
            kind.name(),
            wall_ms,
            &tel.profiler().report(),
            SolverRollup::from_stats(stats, &iters).with_observatory(
                rollup.max_cond1_estimate,
                rollup.fingerprint_cardinality,
                rollup.distance_iters_correlation,
            ),
        ));
    }

    let executor = pnc_parallel::stats::take().into();
    let snap = PerfSnapshot {
        scale: scale.name().to_string(),
        run_id: None,
        threads: Some(threads),
        rel_tol: None,
        noise_floor_ms: None,
        executor: Some(executor),
        datasets: perfs,
    };
    snap.write(out)?;
    println!("Wrote {out}");
    for d in &snap.datasets {
        println!(
            "  {:<14} {:>9.1} ms   {:>6} solves   {:>7} iters   {:>6} warm   max cond1 {:>10.3e}   {} pattern(s)   dist↔iters {:+.3}",
            d.dataset,
            d.wall_ms,
            d.solver.solves,
            d.solver.newton_iterations,
            d.solver.warm_started_solves,
            d.solver.max_cond1_estimate,
            d.solver.fingerprint_cardinality,
            d.solver.distance_iters_correlation,
        );
    }

    compare_against_baseline(&snap, baseline, gate)
}

/// Prints the per-kind Newton-iteration reduction against a baseline
/// snapshot and enforces the aggregate gate. Missing or differently
/// scaled baselines skip the comparison (with a note) rather than fail:
/// the reduction is only meaningful against the same workload.
fn compare_against_baseline(
    snap: &PerfSnapshot,
    baseline: &str,
    gate: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let Ok(text) = std::fs::read_to_string(baseline) else {
        println!("No baseline at {baseline}; skipping the reduction gate.");
        return Ok(());
    };
    let Some(base) = PerfSnapshot::from_json(&text) else {
        return Err(format!("{baseline}: not a perf snapshot").into());
    };
    if base.scale != snap.scale {
        println!(
            "Baseline {baseline} was recorded at scale {}, this run at {}; skipping the \
             reduction gate.",
            base.scale, snap.scale
        );
        return Ok(());
    }
    let mut now_total = 0u64;
    let mut base_total = 0u64;
    println!("Newton-iteration reduction vs {baseline}:");
    for d in &snap.datasets {
        let Some(b) = base.datasets.iter().find(|b| b.dataset == d.dataset) else {
            continue;
        };
        now_total += d.solver.newton_iterations;
        base_total += b.solver.newton_iterations;
        let red = reduction(b.solver.newton_iterations, d.solver.newton_iterations);
        println!(
            "  {:<14} {:>7} → {:>7} iters   ({:+.1}%)",
            d.dataset,
            b.solver.newton_iterations,
            d.solver.newton_iterations,
            -100.0 * red
        );
    }
    if base_total == 0 {
        println!("Baseline has no matching datasets; skipping the reduction gate.");
        return Ok(());
    }
    let total = reduction(base_total, now_total);
    println!(
        "  {:<14} {:>7} → {:>7} iters   ({:+.1}%)   gate ≥{:.0}%",
        "total",
        base_total,
        now_total,
        -100.0 * total,
        100.0 * GATE
    );
    if gate && total < GATE {
        return Err(format!(
            "aggregate Newton-iteration reduction {:.1}% is below the {:.0}% gate",
            100.0 * total,
            100.0 * GATE
        )
        .into());
    }
    Ok(())
}

/// Fractional reduction from `base` to `now` (positive = fewer).
fn reduction(base: u64, now: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    1.0 - now as f64 / base as f64
}
