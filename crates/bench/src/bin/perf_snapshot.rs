//! Perf-snapshot writer: times the standard constrained pipeline per
//! dataset with the hierarchical profiler attached and writes the
//! machine-readable `BENCH_3.json` (wall clock, phase breakdown,
//! SPICE solver rollup per dataset, and executor utilization).
//! `--compare` diffs two snapshot files and exits non-zero when any
//! wall clock or phase regressed beyond the tolerance (default 10 %
//! relative with a 10 ms noise floor; override with `--rel-tol` /
//! `--noise-floor-ms`). The thresholds a snapshot was gated with are
//! recorded in its JSON.
//!
//! ```text
//! cargo run --release -p pnc-bench --bin perf_snapshot -- --scale smoke --out BENCH_3.json [--run-id <id>]
//! cargo run --release -p pnc-bench --bin perf_snapshot -- --compare old.json new.json [--rel-tol 0.15] [--noise-floor-ms 25]
//! ```

use pnc_bench::harness::{
    cap_for, configure_threads_from_args, fit_bundle_traced, isolate_solver_stats, reference_stage,
};
use pnc_bench::snapshot::{
    comparable_thread_counts, compare_with, CompareConfig, DatasetPerf, PerfSnapshot, SolverRollup,
};
use pnc_bench::Scale;
use pnc_spice::AfKind;
use pnc_telemetry::{Profiler, Stopwatch, Telemetry};
use pnc_train::experiment::train_constrained;
use pnc_train::observer::TelemetryObserver;
use std::process::ExitCode;

/// Budget fraction the snapshot pipeline trains at: mid-range, so the
/// augmented Lagrangian does real constraint work without rescue noise.
const SNAPSHOT_BUDGET_FRAC: f64 = 0.6;

/// Parses an `--flag <value>` f64 override, falling back to `default`.
/// Exits with an error message on an unparseable value.
fn parse_f64_flag(args: &[String], flag: &str, default: f64) -> Result<f64, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    args.get(i + 1)
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{flag} requires a non-negative number"))
}

fn compare_config(args: &[String]) -> Result<CompareConfig, String> {
    let defaults = CompareConfig::default();
    Ok(CompareConfig {
        rel_tol: parse_f64_flag(args, "--rel-tol", defaults.rel_tol)?,
        noise_floor_ms: parse_f64_flag(args, "--noise-floor-ms", defaults.noise_floor_ms)?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let cfg = match compare_config(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(old), Some(new)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!(
                "usage: perf_snapshot --compare <old.json> <new.json> \
                 [--rel-tol 0.10] [--noise-floor-ms 10]"
            );
            return ExitCode::FAILURE;
        };
        return run_compare(old, new, cfg);
    }
    let threads = match configure_threads_from_args() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_args();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_3.json".to_string());
    let run_id = args
        .iter()
        .position(|a| a == "--run-id")
        .and_then(|i| args.get(i + 1))
        .cloned();
    match run_snapshot(scale, &out, run_id, threads, cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_compare(old_path: &str, new_path: &str, cfg: CompareConfig) -> ExitCode {
    let (old, new) = match (PerfSnapshot::read(old_path), PerfSnapshot::read(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !comparable_thread_counts(&old, &new) {
        eprintln!(
            "error: thread counts differ ({} vs {}); wall clocks are not comparable — \
             re-measure both snapshots at the same --threads",
            old.threads.map_or("?".into(), |t| t.to_string()),
            new.threads.map_or("?".into(), |t| t.to_string()),
        );
        return ExitCode::FAILURE;
    }
    if old.scale != new.scale {
        eprintln!(
            "warning: comparing different scales ({} vs {})",
            old.scale, new.scale
        );
    }
    let regressions = compare_with(&old, &new, cfg);
    if regressions.is_empty() {
        println!(
            "no regressions: {} dataset(s) within {:.1} % of baseline (noise floor {:.1} ms)",
            new.datasets.len(),
            cfg.rel_tol * 100.0,
            cfg.noise_floor_ms
        );
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            println!("REGRESSION {r}");
        }
        ExitCode::FAILURE
    }
}

fn run_snapshot(
    scale: Scale,
    out: &str,
    run_id: Option<String>,
    threads: usize,
    cfg: CompareConfig,
) -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = scale.fidelity();
    let cap = cap_for(scale);
    let datasets = scale.datasets();
    println!(
        "Perf snapshot — scale {}, {} dataset(s), budget {:.0} %, {} thread(s)",
        scale.name(),
        datasets.len(),
        SNAPSHOT_BUDGET_FRAC * 100.0,
        threads
    );

    // Sequential on purpose: the SPICE solver stats are process-global,
    // so a parallel map would bleed counters across datasets.
    let mut perfs = Vec::with_capacity(datasets.len() + 1);

    // Surrogate characterization is the SPICE-heavy phase (training
    // itself runs on the fitted surrogates), so it gets its own entry
    // — this is where the Newton-iteration rollup carries data.
    eprintln!("[perf] characterization …");
    // Zero the executor counters so the snapshot's utilization block
    // covers exactly this run.
    pnc_parallel::stats::reset();
    let tel = Telemetry::disabled().with_profiler(Profiler::enabled());
    let started = Stopwatch::start();
    let (bundle, stats, iters) = {
        let (bundle, stats, iters) = isolate_solver_stats(|| {
            let _scope = tel.profiler().scope("fit_bundle");
            fit_bundle_traced(AfKind::PTanh, &fidelity, &tel)
        });
        (bundle?, stats, iters)
    };
    perfs.push(DatasetPerf::from_report(
        "(characterization)",
        started.elapsed_ms(),
        &tel.profiler().report(),
        SolverRollup::from_stats(stats, &iters),
    ));
    for &id in &datasets {
        eprintln!("[perf] {} …", id.name());
        let tel = Telemetry::disabled().with_profiler(Profiler::enabled());
        let started = Stopwatch::start();
        let (result, stats, iters) =
            isolate_solver_stats(|| -> Result<(), Box<dyn std::error::Error>> {
                let (data, p_max) = {
                    let _scope = tel.profiler().scope("reference");
                    reference_stage(id, &bundle, 1, &fidelity, cap)?
                };
                let mut observer = TelemetryObserver::new(tel.clone());
                train_constrained(
                    id,
                    &bundle.activation,
                    &bundle.negation,
                    &data.refs(),
                    SNAPSHOT_BUDGET_FRAC * p_max,
                    &fidelity,
                    1,
                    &mut observer,
                )?;
                observer.finish();
                Ok(())
            });
        result?;
        let wall_ms = started.elapsed_ms();
        let report = tel.profiler().report();
        perfs.push(DatasetPerf::from_report(
            id.name(),
            wall_ms,
            &report,
            SolverRollup::from_stats(stats, &iters),
        ));
    }

    let executor = pnc_parallel::stats::take().into();
    let snap = PerfSnapshot {
        scale: scale.name().to_string(),
        run_id,
        threads: Some(threads),
        rel_tol: Some(cfg.rel_tol),
        noise_floor_ms: Some(cfg.noise_floor_ms),
        executor: Some(executor),
        datasets: perfs,
    };
    snap.write(out)?;
    println!("Wrote {out}");
    println!(
        "  executor: {} call(s), {} item(s), {:.0} % busy, {:.0} items/s",
        executor.calls,
        executor.items,
        executor.utilization * 100.0,
        executor.items_per_sec
    );
    for d in &snap.datasets {
        println!(
            "  {:<24} {:>9.1} ms   {:>7} solves   newton p95 {:>5.1}",
            d.dataset, d.wall_ms, d.solver.solves, d.solver.iters_p95
        );
    }
    Ok(())
}
