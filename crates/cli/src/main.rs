//! `pnc-cli` — train power-constrained printed neuromorphic classifiers
//! on your own CSV data and compile them to printable netlists.
//!
//! ```text
//! pnc-cli datasets
//! pnc-cli export-dataset --id iris --out iris.csv
//! pnc-cli characterize --af p-tanh
//! pnc-cli train --data iris.csv --budget-mw 0.2 --af p-tanh --netlist circuit.cir
//! ```

mod args;
mod runs;
mod solver;
mod watch;

use args::{parse_af, parse_dataset, Args};
use pnc_core::activation::{fit_negation_model, LearnableActivation, SurrogateFidelity};
use pnc_core::export::export_network;
use pnc_core::{NetworkConfig, PrintedNetwork};
use pnc_datasets::{load_csv, save_csv, Dataset, DatasetId};
use pnc_parallel::ExecutorHandle;
use pnc_telemetry::registry::{FidelityRecord, RunHandle, RunRegistry};
use pnc_telemetry::trace::{parse_chrome_trace, validate_chrome_trace, write_chrome_trace};
use pnc_telemetry::{
    ConsoleSink, CountingAllocator, Event, JsonlSink, Level, MetricsRegistry, MultiSink,
    ProfileReport, Profiler, Telemetry,
};
use pnc_train::auglag::{train_auglag_observed, AugLagConfig};
use pnc_train::fidelity::{FidelityConfig, FidelityMonitor};
use pnc_train::finetune::finetune;
use pnc_train::observer::TelemetryObserver;
use pnc_train::trainer::{DataRefs, TrainConfig};
use pnc_train::watchdog::HealthWatchdog;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Counting system-allocator wrapper: inert (one relaxed load per
/// allocation) until `--alloc-stats` flips the runtime flag.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "\
pnc-cli — power-constrained printed neuromorphic classifiers

USAGE:
  pnc-cli datasets
      List the built-in benchmark datasets.

  pnc-cli export-dataset --id <name> [--out <file.csv>] [--seed N]
      Write a built-in dataset to CSV (features…, label).

  pnc-cli characterize --af <kind> [--samples N] [--fidelity smoke|default|paper]
      Fit and report the SPICE-derived surrogates for one activation.

  pnc-cli train --data <file.csv> --budget-mw <P> [--af <kind>]
                [--seed N] [--epochs N] [--hidden N] [--mu X]
                [--netlist <out.cir>] [--fidelity smoke|default|paper]
                [--fidelity-every K] [--fidelity-gate X]
      Train under a strict power budget and optionally export the
      printable netlist. CSV format: one sample per row, features
      first, integer class label last; optional header row.
      --fidelity-every K re-checks the surrogate power against the
      SPICE path every K epochs (plus once at convergence), recording
      the drift into metrics and summary.json; --fidelity-gate X
      latches a surrogate_drift health diagnosis when any check's
      relative error exceeds X.

  pnc-cli profile-report --trace <trace.json>
      Validate a saved Chrome trace and re-render its flame-style
      phase summary.

  pnc-cli runs list [--ids] [--run-dir <dir>]
  pnc-cli runs show <id> [--run-dir <dir>]
  pnc-cli runs diff <a> <b> [--run-dir <dir>] [--noise-floor X]
      Inspect the run registry: list recorded runs (--ids for bare
      ids), show one run's manifest/summary plus the exact CLI line to
      reproduce it, or diff two runs field by field (exits nonzero
      when anything differs above the noise floor).

  pnc-cli runs power <id> [--run-dir <dir>] [--json]
      Render a run's power attribution tree (network → layer → stage
      → device class) with each layer's share of the budget and the
      remaining headroom. --json emits the stored tree verbatim.

  pnc-cli runs trend [--run-dir <dir>] [--rel-tol X] [--noise-floor X]
                     [--window N]
      Historical trend analytics over every completed run, oldest
      first: wall clock plus each summary metric, flagged when the
      last --window runs all drift past the thresholds (exits
      nonzero on any sustained regression).

  pnc-cli solver atlas <run-id> [--run-dir <dir>] [--top N]
  pnc-cli solver report <run-id> [--run-dir <dir>] [--top N]
  pnc-cli solver replay <trace.jsonl> [--noise-floor X]
      Solver observatory surfaces for runs recorded with
      --solver-traces: render the characterization hardness atlas
      (per-point Newton work, conditioning, sparsity-fingerprint
      cardinality, distance↔iterations correlation, top-N hardest
      points — byte-identical for any --threads), the atlas plus a
      sampled-trace rollup, or re-execute recorded solves and diff
      the residual trajectories under the noise floor (exits nonzero
      on divergence).

  pnc-cli watch <runs/<id>> [--once] [--interval-ms N]
      Live console dashboard over a run directory: tails
      metrics.jsonl and refreshes epoch rate, power vs. budget, λ/μ,
      and the solver failure streak until the run leaves the running
      state. --once renders a single frame (and validates
      metrics.prom when present) and exits, nonzero when the run is
      over its power budget.

RUN REGISTRY (characterize and train):
  --run-dir <dir>     Record this invocation under <dir>/<run-id>/:
                      manifest.json (args, config, seed, git SHA),
                      metrics.jsonl (every telemetry event), and
                      summary.json on exit. Aborted runs also get a
                      postmortem.md with the watchdog's diagnosis.

PARALLELISM (all commands):
  --threads N         Worker threads for characterization, variation
                      sweeps, and experiment fan-out (default: all
                      cores; PNC_THREADS env overrides the default;
                      --threads 1 runs fully sequential). Results are
                      bit-identical for any thread count.

SOLVER OBSERVATORY (characterize and train):
  --solver-traces     Record Newton convergence traces (sampled into
                      runs/<id>/solver_traces.jsonl) and the per-point
                      hardness atlas (runs/<id>/solver_atlas.json),
                      plus conditioning estimates in the metrics
                      exposition. Bounded overhead: one condition
                      estimate per iteration, ring-buffer sampled
                      traces.

METRICS (characterize and train):
  --metrics <file>    Also write the Prometheus text exposition to
                      <file>. With --run-dir, metrics.prom lands in
                      the run directory regardless.
  --alloc-stats       Turn on allocation accounting (counts, bytes,
                      peak) for this process; totals are reported as
                      an alloc_stats event and exposition metrics.

LOGGING (characterize and train):
  --log-json <file>   Write structured JSONL telemetry (one event per line).
  --profile <file>    Record a hierarchical span trace (Chrome trace JSON,
                      loadable in Perfetto / chrome://tracing) and print a
                      flame-style phase summary on exit.
  --verbose           Also show debug-level events on stderr.
  --quiet             Only show warnings on stderr.

Activation kinds: p-relu, p-clipped-relu, p-sigmoid, p-tanh.
";

/// Claims a run directory under `--run-dir` (when given) and stamps
/// the manifest with the raw CLI arguments after the subcommand.
fn start_run(args: &Args, command: &str) -> Result<Option<RunHandle>, String> {
    let Some(root) = args.get("run-dir") else {
        return Ok(None);
    };
    let cli_args: Vec<String> = std::env::args().skip(2).collect();
    let run = RunRegistry::new(root)
        .create(command, &cli_args)
        .map_err(|e| format!("--run-dir {root}: {e}"))?;
    Ok(Some(run))
}

/// Emits the `run_start` event for a freshly claimed run directory.
fn emit_run_start(tel: &Telemetry, run: Option<&RunHandle>) {
    if let Some(run) = run {
        let (id, dir) = (run.run_id().to_string(), run.dir().display().to_string());
        tel.emit(|| {
            Event::new("run_start", Level::Info)
                .with_str("run_id", id.clone())
                .with_str("dir", dir.clone())
        });
    }
}

/// Seals a successful run: writes `summary.json`, emits `run_end`.
fn finish_run(
    tel: &Telemetry,
    run: Option<RunHandle>,
    metrics: BTreeMap<String, f64>,
    flags: BTreeMap<String, bool>,
    fidelity: Vec<FidelityRecord>,
) -> Result<(), String> {
    let Some(run) = run else {
        return Ok(());
    };
    let id = run.run_id().to_string();
    let dir = run.dir().display().to_string();
    let summary = run
        .finish_with_fidelity(metrics, flags, fidelity)
        .map_err(|e| format!("run {id}: cannot write summary: {e}"))?;
    tel.emit(|| {
        Event::new("run_end", Level::Info)
            .with_str("run_id", id.clone())
            .with_str("status", "completed")
            .with_f64("wall_clock_ms", summary.wall_clock_ms)
    });
    println!("  run dir       : {dir}");
    Ok(())
}

/// Seals an aborted run: writes `postmortem.md` and the aborted
/// manifest/summary, emits a warn-level `run_end`, and prints the
/// post-mortem pointer straight to stderr — deliberately *not* via
/// telemetry levels, so it survives `--quiet`.
fn abort_run(tel: &Telemetry, run: Option<RunHandle>, reason: &str, postmortem: &str) {
    let Some(run) = run else {
        eprintln!("training aborted ({reason})");
        return;
    };
    let id = run.run_id().to_string();
    let postmortem_path = run.write_postmortem(postmortem);
    let sealed = run.abort(reason, BTreeMap::new(), BTreeMap::new());
    tel.emit(|| {
        Event::new("run_end", Level::Warn)
            .with_str("run_id", id.clone())
            .with_str("status", "aborted")
            .with_str("reason", reason)
    });
    tel.flush();
    match postmortem_path {
        Ok(path) => eprintln!(
            "training aborted ({reason}); post-mortem: {}",
            path.display()
        ),
        Err(e) => eprintln!("training aborted ({reason}); cannot write post-mortem: {e}"),
    }
    if let Err(e) = sealed {
        eprintln!("warning: cannot seal run {id}: {e}");
    }
}

/// Builds the telemetry pipeline from `--log-json` / `--verbose` /
/// `--quiet`: console events go to stderr (level-filtered), JSONL to
/// the requested file, and — when a run directory is active — every
/// event also lands in the run's `metrics.jsonl`.
fn telemetry_from(args: &Args, run: Option<&RunHandle>) -> Result<Telemetry, String> {
    let verbose = args.flag("verbose");
    let quiet = args.flag("quiet");
    if verbose && quiet {
        return Err("--verbose and --quiet are mutually exclusive".to_string());
    }
    let level = if quiet {
        Level::Warn
    } else if verbose {
        Level::Debug
    } else {
        Level::Info
    };
    let mut multi = MultiSink::new().with(Box::new(ConsoleSink::new(level)));
    if let Some(path) = args.get("log-json") {
        let sink =
            JsonlSink::create(path).map_err(|e| format!("--log-json {path}: cannot open: {e}"))?;
        multi.push(Box::new(sink));
    }
    if let Some(run) = run {
        multi.push(Box::new(run.metrics_sink()));
    }
    let mut tel = Telemetry::with_sink(Arc::new(multi));
    if args.get("profile").is_some() {
        tel = tel.with_profiler(Profiler::enabled());
    }
    Ok(tel)
}

/// Sets up the streaming-metrics pipeline for one command: zeroes the
/// process-global executor counters (so utilization covers exactly
/// this run), honors `--alloc-stats`, and attaches a fresh registry to
/// the telemetry handle. The registry is returned so the command can
/// merge process-global stats in and render the exposition at the end.
fn attach_metrics(args: &Args, tel: Telemetry) -> (Telemetry, Arc<MetricsRegistry>) {
    pnc_parallel::stats::reset();
    if args.flag("alloc-stats") {
        pnc_telemetry::alloc::reset();
        pnc_telemetry::alloc::enable();
    }
    let registry = Arc::new(MetricsRegistry::new());
    (tel.with_metrics(Arc::clone(&registry)), registry)
}

/// Arms the solver observatory when `--solver-traces` is given: resets
/// any previous observation state, enables trace capture (ring seeded
/// by the run seed, so the sampled subset is reproducible), streams
/// sampled traces into the run directory, and turns on the
/// characterization hardness atlas. Returns whether observation is on.
fn start_solver_observation(
    args: &Args,
    run: Option<&RunHandle>,
    seed: u64,
) -> Result<bool, String> {
    if !args.flag("solver-traces") {
        return Ok(false);
    }
    pnc_spice::observe::reset();
    pnc_spice::observe::enable(seed, pnc_spice::observe::DEFAULT_RING_CAPACITY);
    if let Some(run) = run {
        let path = run.dir().join("solver_traces.jsonl");
        pnc_spice::observe::stream_to(&path)
            .map_err(|e| format!("{}: cannot open trace stream: {e}", path.display()))?;
    }
    pnc_surrogate::atlas::enable();
    Ok(true)
}

/// Seals the solver observatory: closes the trace stream, drains the
/// atlas collector, emits the `solver_atlas` rollup event, and writes
/// `solver_atlas.json` into the run directory. No-op when observation
/// was not armed.
fn finish_solver_observation(
    enabled: bool,
    run: Option<&RunHandle>,
    tel: &Telemetry,
) -> Result<(), String> {
    if !enabled {
        return Ok(());
    }
    pnc_spice::observe::close_stream();
    pnc_spice::observe::disable();
    pnc_surrogate::atlas::disable();
    let atlas = pnc_surrogate::SolverAtlas::new(pnc_surrogate::atlas::take());
    tel.emit_event(atlas.to_event());
    if let Some(run) = run {
        let path = run.dir().join("solver_atlas.json");
        let mut json = atlas.to_json_string();
        json.push('\n');
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  solver atlas  : {}", path.display());
    }
    Ok(())
}

/// Tears the observatory down on an abort path without writing
/// artifacts (a partial atlas would mislead more than it informs; the
/// streamed traces already on disk are left for debugging).
fn abort_solver_observation(enabled: bool) {
    if enabled {
        pnc_spice::observe::reset();
        pnc_surrogate::atlas::disable();
        pnc_surrogate::atlas::take();
    }
}

/// Seals the metrics pipeline: merges the process-global SPICE solver
/// histograms and executor/allocator counters into the registry, emits
/// their events, and writes the Prometheus exposition into the run
/// directory (always, when one is active) and to `--metrics <file>`
/// (when given).
fn export_metrics(
    args: &Args,
    run: Option<&RunHandle>,
    tel: &Telemetry,
    registry: &MetricsRegistry,
) -> Result<(), String> {
    // The stats handles clone shared storage, so merging here folds
    // everything the solver recorded into the named registry slots.
    registry
        .histogram("spice_solve_time_ms")
        .merge_from(&pnc_spice::stats::solve_time_histogram());
    registry
        .histogram_scaled("spice_newton_iterations", 1.0)
        .merge_from(&pnc_spice::stats::newton_iteration_histogram());
    let solver = pnc_spice::stats::snapshot();
    registry
        .counter("spice_ramp_fallbacks")
        .add(solver.ramp_fallbacks);
    registry
        .gauge("spice_longest_failure_streak")
        .set(solver.longest_failure_streak as f64);
    registry
        .counter("spice_warm_started_solves")
        .add(solver.warm_started_solves);
    // Conditioning telemetry is populated only while --solver-traces
    // observation is enabled; the merges are no-ops otherwise.
    registry
        .histogram_scaled("spice_cond1_log10", 1e3)
        .merge_from(&pnc_spice::observe::cond1_log10_histogram());
    registry
        .histogram_scaled("spice_residual_reduction_rate", 1e3)
        .merge_from(&pnc_spice::observe::reduction_rate_histogram());
    registry
        .gauge("spice_max_cond1_estimate")
        .set(pnc_spice::observe::max_cond1_estimate());

    let ex = pnc_parallel::stats::snapshot();
    tel.emit_event(ex.to_event());
    registry.counter("executor_calls").add(ex.calls);
    registry.counter("executor_items").add(ex.items);
    registry.gauge("executor_utilization").set(ex.utilization());
    registry
        .gauge("executor_items_per_sec")
        .set(ex.items_per_sec());
    registry
        .gauge("executor_max_fanout")
        .set(ex.max_fanout as f64);

    if pnc_telemetry::alloc::is_enabled() {
        let a = pnc_telemetry::alloc::snapshot();
        tel.emit_event(a.to_event());
        registry.counter("alloc_count").add(a.allocs);
        registry.counter("alloc_bytes_total").add(a.alloc_bytes);
        registry.gauge("alloc_peak_bytes").set(a.peak_bytes as f64);
        registry.gauge("alloc_live_bytes").set(a.live_bytes as f64);
    }

    let text = registry.render_prometheus();
    let write = |path: &Path| -> Result<(), String> {
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  metrics       : {}", path.display());
        Ok(())
    };
    if let Some(run) = run {
        write(&run.dir().join("metrics.prom"))?;
    }
    if let Some(path) = args.get("metrics") {
        write(Path::new(path))?;
    }
    Ok(())
}

/// Writes the recorded span trace to the `--profile` path and prints the
/// flame-style phase summary. No-op when profiling was not requested.
fn finish_profile(args: &Args, tel: &Telemetry) -> Result<(), String> {
    let Some(path) = args.get("profile") else {
        return Ok(());
    };
    let spans = tel.profiler().spans();
    write_chrome_trace(path, &spans).map_err(|e| format!("--profile {path}: cannot write: {e}"))?;
    let report = tel.profiler().report();
    for event in report.to_events() {
        tel.emit_event(event);
    }
    tel.flush();
    println!("\nprofile ({} spans → {path}):", spans.len());
    println!("{}", report.render());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match configure_threads(&args).and_then(|()| match_command(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Applies `--threads N` to the process-wide executor before any
/// command runs. Thread count never changes results (the executor is
/// deterministic), only wall clock.
fn configure_threads(args: &Args) -> Result<(), String> {
    if let Some(n) = args.get("threads") {
        ExecutorHandle::configure_flag(n)?;
    }
    Ok(())
}

fn match_command(args: &Args) -> Result<(), String> {
    match args.command.as_deref() {
        Some("datasets") => cmd_datasets(),
        Some("export-dataset") => cmd_export_dataset(args),
        Some("characterize") => cmd_characterize(args),
        Some("train") => cmd_train(args),
        Some("profile-report") => cmd_profile_report(args),
        Some("runs") => runs::cmd_runs(args),
        Some("solver") => solver::cmd_solver(args),
        Some("watch") => watch::cmd_watch(args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn fidelity_from(args: &Args) -> Result<SurrogateFidelity, String> {
    match args.get("fidelity").unwrap_or("default") {
        "smoke" => Ok(SurrogateFidelity::smoke()),
        "default" => Ok(SurrogateFidelity::default()),
        "paper" => Ok(SurrogateFidelity::paper()),
        other => Err(format!("unknown fidelity '{other}'")),
    }
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<24} {:>8} {:>7} {:>7}",
        "name", "samples", "feats", "classes"
    );
    for id in DatasetId::ALL {
        println!(
            "{:<24} {:>8} {:>7} {:>7}",
            id.name(),
            id.samples(),
            id.features(),
            id.classes()
        );
    }
    Ok(())
}

fn cmd_export_dataset(args: &Args) -> Result<(), String> {
    let id = parse_dataset(args.require("id")?)?;
    let seed = args.get_or("seed", 1u64)?;
    let default_name = format!("{}.csv", args.require("id")?.to_ascii_lowercase());
    let out = args.get("out").unwrap_or(&default_name);
    let ds = Dataset::generate(id, seed);
    save_csv(&ds, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} samples × {} features, {} classes)",
        out,
        ds.len(),
        ds.features(),
        ds.classes()
    );
    Ok(())
}

fn cmd_characterize(args: &Args) -> Result<(), String> {
    let kind = parse_af(args.require("af")?)?;
    let mut fidelity = fidelity_from(args)?;
    if let Some(n) = args.get("samples") {
        fidelity.power.samples = n.parse().map_err(|_| "--samples: not a number")?;
    }
    let mut run = start_run(args, "characterize")?;
    if let Some(run) = run.as_mut() {
        let err = |e: std::io::Error| format!("run manifest: {e}");
        run.set_config("af", kind.name()).map_err(err)?;
        run.set_config("samples", fidelity.power.samples)
            .map_err(err)?;
        run.set_config("fidelity", args.get("fidelity").unwrap_or("default"))
            .map_err(err)?;
        run.set_config("threads", ExecutorHandle::threads())
            .map_err(err)?;
    }
    let tel = telemetry_from(args, run.as_ref())?;
    let (tel, metrics_registry) = attach_metrics(args, tel);
    let seed = args.get_or("seed", 1u64)?;
    let observing = start_solver_observation(args, run.as_ref(), seed)?;
    emit_run_start(&tel, run.as_ref());
    tel.emit(|| {
        Event::new("characterize_start", Level::Info)
            .with_str("kind", kind.name())
            .with_u64("samples", fidelity.power.samples as u64)
    });
    let act = match LearnableActivation::fit(kind, &fidelity, &tel) {
        Ok(act) => act,
        Err(e) => {
            abort_solver_observation(observing);
            abort_run(
                &tel,
                run.take(),
                "error",
                "# Run post-mortem\n\nCharacterization failed before any watchdog diagnosis.\n",
            );
            return Err(e.to_string());
        }
    };
    finish_solver_observation(observing, run.as_ref(), &tel)?;
    tel.emit_event(pnc_spice::stats::snapshot().to_event());
    export_metrics(args, run.as_ref(), &tel, &metrics_registry)?;
    finish_profile(args, &tel)?;
    finish_run(
        &tel,
        run.take(),
        BTreeMap::from([
            (
                "power_r2".to_string(),
                act.power_surrogate().validation_r2(),
            ),
            ("transfer_rmse".to_string(), act.transfer().fit_rmse()),
        ]),
        BTreeMap::new(),
        Vec::new(),
    )?;
    tel.flush();
    println!(
        "  design space      : {} parameters {:?}",
        kind.dim(),
        kind.param_names()
    );
    println!(
        "  power surrogate   : validation R² = {:.3} (log-power)",
        act.power_surrogate().validation_r2()
    );
    println!(
        "  transfer surrogate: RMSE = {:.3} V against SPICE sweeps",
        act.transfer().fit_rmse()
    );
    let d = kind.default_design();
    println!(
        "  default design    : {:.3} µW per circuit, {} devices",
        act.power_surrogate().predict(d.q()) * 1e6,
        pnc_core::activation::devices_per_af(kind)
    );
    Ok(())
}

fn cmd_profile_report(args: &Args) -> Result<(), String> {
    let path = args.require("trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("--trace {path}: {e}"))?;
    let validation = validate_chrome_trace(&text).map_err(|e| format!("{path}: invalid: {e}"))?;
    let spans =
        parse_chrome_trace(&text).ok_or_else(|| format!("{path}: not a Chrome trace document"))?;
    println!(
        "{path}: valid Chrome trace ({} events across {} threads)",
        validation.events, validation.threads
    );
    println!("{}", ProfileReport::from_trace(&spans).render());
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let data_path = args.require("data")?;
    let budget_mw: f64 = args
        .require("budget-mw")?
        .parse()
        .map_err(|_| "--budget-mw: not a number")?;
    if budget_mw <= 0.0 {
        return Err("--budget-mw must be positive".to_string());
    }
    let kind = parse_af(args.get("af").unwrap_or("p-tanh"))?;
    let seed = args.get_or("seed", 1u64)?;
    let epochs = args.get_or("epochs", 500usize)?;
    let hidden = args.get_or("hidden", 3usize)?;
    let mu = args.get_or("mu", 2.0f64)?;
    let fidelity = fidelity_from(args)?;
    let fidelity_every = args.get_or("fidelity-every", 0usize)?;
    let fidelity_gate = match args.get("fidelity-gate") {
        Some(s) => {
            let gate: f64 = s
                .parse()
                .map_err(|_| "--fidelity-gate: not a relative error")?;
            if !gate.is_finite() || gate <= 0.0 {
                return Err("--fidelity-gate must be a positive relative error".to_string());
            }
            Some(gate)
        }
        None => None,
    };
    let mut run = start_run(args, "train")?;
    if let Some(run) = run.as_mut() {
        let err = |e: std::io::Error| format!("run manifest: {e}");
        run.set_dataset(data_path).map_err(err)?;
        run.set_seed(seed).map_err(err)?;
        run.set_config("budget_mw", budget_mw).map_err(err)?;
        run.set_config("af", kind.name()).map_err(err)?;
        run.set_config("epochs", epochs).map_err(err)?;
        run.set_config("hidden", hidden).map_err(err)?;
        run.set_config("mu", mu).map_err(err)?;
        run.set_config("fidelity", args.get("fidelity").unwrap_or("default"))
            .map_err(err)?;
        run.set_config("fidelity_every", fidelity_every)
            .map_err(err)?;
        if let Some(gate) = fidelity_gate {
            run.set_config("fidelity_gate", gate).map_err(err)?;
        }
        run.set_config("threads", ExecutorHandle::threads())
            .map_err(err)?;
    }
    let tel = telemetry_from(args, run.as_ref())?;
    let (tel, metrics_registry) = attach_metrics(args, tel);
    let observing = start_solver_observation(args, run.as_ref(), seed)?;
    emit_run_start(&tel, run.as_ref());

    let custom = load_csv(Path::new(data_path)).map_err(|e| e.to_string())?;
    tel.emit(|| {
        Event::new("dataset_loaded", Level::Info)
            .with_str("path", data_path)
            .with_u64("samples", custom.len() as u64)
            .with_u64("features", custom.features() as u64)
            .with_u64("classes", custom.classes as u64)
    });
    let split = custom.split(seed);
    let data = DataRefs::from_split(&split);

    let activation = LearnableActivation::fit(kind, &fidelity, &tel).map_err(|e| e.to_string())?;
    let negation = fit_negation_model(fidelity.transfer_grid).map_err(|e| e.to_string())?;

    let mut rng = pnc_linalg::rng::seeded(seed);
    let mut net = PrintedNetwork::new(
        custom.features(),
        custom.classes,
        NetworkConfig {
            hidden: vec![hidden],
            ..NetworkConfig::default()
        },
        activation,
        negation,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;

    let train_cfg = TrainConfig {
        max_epochs: epochs,
        patience: (epochs / 5).max(20),
        ..TrainConfig::default()
    };
    let budget = budget_mw * 1e-3;
    tel.emit(|| {
        Event::new("train_start", Level::Info)
            .with_str("kind", kind.name())
            .with_u64("features", custom.features() as u64)
            .with_u64("hidden", hidden as u64)
            .with_u64("classes", custom.classes as u64)
            .with_f64("budget_watts", budget)
            .with_f64("mu", mu)
            .with_u64("max_epochs", epochs as u64)
    });
    let monitor = FidelityMonitor::new(
        TelemetryObserver::new(tel.clone()),
        tel.clone(),
        FidelityConfig {
            every_epochs: fidelity_every,
            gate_rel_err: fidelity_gate,
            grid_points: fidelity.transfer_grid,
        },
    );
    let mut observer = HealthWatchdog::new(monitor, tel.clone());
    let train_outcome = train_auglag_observed(
        &mut net,
        &data,
        &AugLagConfig {
            budget_watts: budget,
            mu,
            outer_iters: 5,
            inner: train_cfg.with_seed(seed),
            warm_start: true,
            rescue: true,
        },
        &mut observer,
    );
    let report = match train_outcome {
        Ok(report) => report,
        Err(e) => {
            let fallback = match &e {
                pnc_train::TrainError::NonFinite { .. } => "non_finite",
                _ => "error",
            };
            let reason = observer
                .active_diagnosis()
                .map_or(fallback, |d| d.name())
                .to_string();
            abort_solver_observation(observing);
            abort_run(&tel, run.take(), &reason, &observer.postmortem());
            return Err(e.to_string());
        }
    };
    let mut monitor = observer.into_inner();
    let ft = {
        let _scope = tel.profiler().scope("finetune");
        finetune(&mut net, &data, budget, &train_cfg).map_err(|e| e.to_string())?
    };
    if fidelity_every > 0 || fidelity_gate.is_some() {
        let _scope = tel.profiler().scope("fidelity_check");
        monitor.check_now(&net, "final");
    }
    let fidelity_checks = monitor.take_checks();
    let drift = monitor.drift_diagnosis().copied();
    monitor.into_inner().finish();

    let breakdown = net.power_report(data.x_train).map_err(|e| e.to_string())?;
    let power = breakdown.total();
    let test_acc = pnc_core::PrintedNetwork::accuracy(&net, &split.test.x, &split.test.labels)
        .map_err(|e| e.to_string())?;
    tel.emit(|| {
        Event::new("train_done", Level::Info)
            .with_f64("test_accuracy", test_acc)
            .with_f64("power_watts", power)
            .with_f64("budget_watts", budget)
            .with_bool("feasible", power <= budget)
            .with_bool("rescued", report.rescued)
            .with_u64("pruned_entries", ft.pruned_entries as u64)
            .with_u64("devices", net.device_count() as u64)
    });
    for (i, layer) in breakdown.layers.iter().enumerate() {
        let l = *layer;
        tel.emit(|| {
            Event::new("power_breakdown", Level::Info)
                .with_u64("layer", i as u64)
                .with_f64("crossbar_watts", l.crossbar.total_watts())
                .with_f64("activation_watts", l.activation_watts)
                .with_f64("negation_watts", l.negation_watts)
                .with_f64("layer_watts", l.total_watts())
                .with_f64("total_watts", power)
                .with_f64("budget_watts", budget)
        });
    }
    let tree = breakdown.attribution();
    if let Some(run) = run.as_ref() {
        let path = run.dir().join("power.json");
        let json = format!(
            "{{\n  \"format_version\": 1,\n  \"budget_watts\": {budget:e},\n  \"tree\": {}\n}}\n",
            tree.to_json()
        );
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  power report  : {}", path.display());
    }
    finish_solver_observation(observing, run.as_ref(), &tel)?;
    tel.emit_event(pnc_spice::stats::snapshot().to_event());
    metrics_registry.gauge("power_watts").set(power);
    metrics_registry.gauge("budget_watts").set(budget);
    metrics_registry.gauge("test_accuracy").set(test_acc);
    export_metrics(args, run.as_ref(), &tel, &metrics_registry)?;
    finish_profile(args, &tel)?;
    let soft_power = report.outer.last().map_or(f64::NAN, |o| o.power_watts);
    let mut flags = BTreeMap::from([
        ("feasible".to_string(), power <= budget),
        ("rescued".to_string(), report.rescued),
    ]);
    if fidelity_gate.is_some() {
        flags.insert("surrogate_drift".to_string(), drift.is_some());
    }
    finish_run(
        &tel,
        run.take(),
        BTreeMap::from([
            ("test_accuracy".to_string(), test_acc),
            ("hard_power_watts".to_string(), power),
            ("soft_power_watts".to_string(), soft_power),
            ("budget_watts".to_string(), budget),
            ("devices".to_string(), net.device_count() as f64),
            ("pruned_entries".to_string(), ft.pruned_entries as f64),
        ]),
        flags,
        fidelity_checks.clone(),
    )?;
    tel.flush();
    println!("\nresults:");
    println!("  test accuracy : {:.1} %", 100.0 * test_acc);
    println!(
        "  power         : {:.4} mW of {budget_mw} mW ({})",
        power * 1e3,
        if power <= budget {
            "FEASIBLE"
        } else {
            "VIOLATED"
        }
    );
    println!("  devices       : {}", net.device_count());
    println!("  pruned        : {} crossbar entries", ft.pruned_entries);
    if let Some(last) = fidelity_checks.last() {
        println!(
            "  fidelity      : {} SPICE check(s), last rel err {:.3e}",
            fidelity_checks.len(),
            last.rel_err
        );
    }
    if let Some(d) = &drift {
        println!("  warning       : {}", d.describe());
    }
    println!(
        "  λ trajectory  : {:?}",
        report
            .outer
            .iter()
            .map(|o| format!("{:.2}", o.lambda))
            .collect::<Vec<_>>()
    );
    if report.rescued {
        println!("  note          : feasibility-restoration phase was needed");
    }

    if let Some(netlist_path) = args.get("netlist") {
        let exported = export_network(&net).map_err(|e| e.to_string())?;
        std::fs::write(netlist_path, exported.to_spice_string()).map_err(|e| e.to_string())?;
        let stats = exported.stats();
        println!(
            "  netlist       : {} ({} R, {} EGT)",
            netlist_path, stats.resistors, stats.transistors
        );
    }
    Ok(())
}
