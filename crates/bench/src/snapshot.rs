//! Perf snapshots: machine-readable per-dataset timing for regression
//! tracking (`BENCH_3.json`).
//!
//! A snapshot records, per dataset, the wall clock of the standard
//! constrained pipeline, a flame-style phase breakdown taken from a
//! [`pnc_telemetry::Profiler`] report, and a rollup of the process-wide
//! SPICE solver statistics (including the per-solve Newton iteration
//! distribution). [`compare`] diffs two snapshots and flags wall-clock
//! or phase-level regressions beyond a relative threshold, so CI can
//! gate on "did this change make training slower".

use pnc_telemetry::json::{parse, write_escaped, Json};
use pnc_telemetry::trend::{Direction, TrendPoint, TrendSeries};
use pnc_telemetry::{HistogramSummary, ProfileReport};
use std::io;
use std::path::Path;

/// One aggregated profiling phase (mirrors [`pnc_telemetry::PhaseStat`]
/// but owns its name and carries only what the snapshot serializes).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Span name (`epoch`, `tape_backward`, `dc_solve`, …).
    pub name: String,
    /// Number of spans recorded under this name.
    pub calls: u64,
    /// Total inclusive time, milliseconds.
    pub total_ms: f64,
    /// Self time (children subtracted), milliseconds.
    pub self_ms: f64,
}

/// Rollup of the SPICE solver counters for one dataset run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverRollup {
    /// DC solves attempted.
    pub solves: u64,
    /// Total Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Solves that engaged the supply-ramp homotopy.
    pub ramp_fallbacks: u64,
    /// Solves that returned an error.
    pub failures: u64,
    /// Mean Newton iterations per solve.
    pub iters_mean: f64,
    /// Median Newton iterations per solve.
    pub iters_p50: f64,
    /// 95th-percentile Newton iterations per solve.
    pub iters_p95: f64,
    /// Worst observed Newton iterations per solve.
    pub iters_max: f64,
    /// Largest Jacobian `cond1` estimate observed (0.0 when the solver
    /// observatory was not enabled — snapshots written before the
    /// observatory existed parse back as 0.0).
    pub max_cond1_estimate: f64,
    /// Distinct MNA sparsity-pattern fingerprints seen (0 when not
    /// observed).
    pub fingerprint_cardinality: u64,
    /// Nearest-neighbor-distance ↔ iterations correlation from the
    /// hardness atlas (0.0 when not observed or undefined).
    pub distance_iters_correlation: f64,
    /// Solves seeded from a warm state instead of a cold zero guess
    /// (0 on snapshots predating warm starting).
    pub warm_started_solves: u64,
}

impl SolverRollup {
    /// Builds a rollup from the aggregate counters plus the per-solve
    /// iteration distribution.
    pub fn from_stats(
        stats: pnc_spice::stats::SolverStatsSnapshot,
        iters: &HistogramSummary,
    ) -> Self {
        SolverRollup {
            solves: stats.solves,
            newton_iterations: stats.newton_iterations,
            ramp_fallbacks: stats.ramp_fallbacks,
            failures: stats.failures,
            iters_mean: iters.mean,
            iters_p50: iters.p50,
            iters_p95: iters.p95,
            iters_max: iters.max,
            max_cond1_estimate: 0.0,
            fingerprint_cardinality: 0,
            distance_iters_correlation: 0.0,
            warm_started_solves: stats.warm_started_solves,
        }
    }

    /// Attaches the solver observatory's per-run aggregates (condition
    /// high-water, sparsity-fingerprint cardinality, hardness-atlas
    /// locality correlation) to a rollup built from the plain counters.
    #[must_use]
    pub fn with_observatory(
        mut self,
        max_cond1_estimate: f64,
        fingerprint_cardinality: u64,
        distance_iters_correlation: f64,
    ) -> Self {
        self.max_cond1_estimate = max_cond1_estimate;
        self.fingerprint_cardinality = fingerprint_cardinality;
        self.distance_iters_correlation = distance_iters_correlation;
        self
    }
}

/// Timing record for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetPerf {
    /// Dataset name.
    pub dataset: String,
    /// End-to-end wall clock for the dataset's pipeline, milliseconds.
    pub wall_ms: f64,
    /// Phase breakdown sorted by self time (descending).
    pub phases: Vec<PhaseBreakdown>,
    /// Solver counters attributed to this dataset.
    pub solver: SolverRollup,
}

impl DatasetPerf {
    /// Builds a record from a profiler report plus the solver stats
    /// isolated for this dataset.
    pub fn from_report(
        dataset: impl Into<String>,
        wall_ms: f64,
        report: &ProfileReport,
        solver: SolverRollup,
    ) -> Self {
        DatasetPerf {
            dataset: dataset.into(),
            wall_ms,
            phases: report
                .phases
                .iter()
                .map(|p| PhaseBreakdown {
                    name: p.name.clone(),
                    calls: p.calls,
                    total_ms: p.total_ms,
                    self_ms: p.self_ms,
                })
                .collect(),
            solver,
        }
    }
}

/// Executor utilization over the whole snapshot run, taken from the
/// process-wide [`pnc_parallel::stats`] counters. Mirrors
/// [`pnc_parallel::ExecutorStatsSnapshot`] but owns only what the
/// snapshot serializes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutorUtilization {
    /// Parallel entry-point invocations.
    pub calls: u64,
    /// Work items processed.
    pub items: u64,
    /// Σ worker-busy nanoseconds.
    pub busy_ns: u64,
    /// Σ offered-but-unused capacity nanoseconds.
    pub idle_ns: u64,
    /// Largest single-call fan-out (queue-depth high-water).
    pub max_fanout: u64,
    /// busy / (busy + idle), in [0, 1].
    pub utilization: f64,
    /// Items per wall-clock second inside parallel calls.
    pub items_per_sec: f64,
}

impl From<pnc_parallel::ExecutorStatsSnapshot> for ExecutorUtilization {
    fn from(s: pnc_parallel::ExecutorStatsSnapshot) -> Self {
        ExecutorUtilization {
            calls: s.calls,
            items: s.items,
            busy_ns: s.busy_ns,
            idle_ns: s.idle_ns(),
            max_fanout: s.max_fanout,
            utilization: s.utilization(),
            items_per_sec: s.items_per_sec(),
        }
    }
}

/// A full perf snapshot: one record per dataset at a given scale.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSnapshot {
    /// Experiment scale the snapshot was taken at (`smoke`/`ci`/`full`).
    pub scale: String,
    /// Run-registry id this snapshot was taken under (`--run-id`),
    /// linking the timing file back to its `runs/<id>/` directory.
    pub run_id: Option<String>,
    /// Executor thread count the snapshot was measured with. Wall
    /// clocks taken at different thread counts are not comparable, so
    /// [`comparable_thread_counts`] gates [`compare`] on this.
    pub threads: Option<usize>,
    /// Relative regression tolerance the snapshot was gated with
    /// (`--rel-tol`; `None` on snapshots written before the field
    /// existed — readers fall back to [`REGRESSION_THRESHOLD`]).
    pub rel_tol: Option<f64>,
    /// Absolute noise floor, milliseconds (`--noise-floor-ms`; `None`
    /// on older snapshots — readers fall back to
    /// [`MIN_COMPARABLE_MS`]).
    pub noise_floor_ms: Option<f64>,
    /// Executor utilization over the whole run (`None` on snapshots
    /// written before the executor exported counters).
    pub executor: Option<ExecutorUtilization>,
    /// Per-dataset records, in run order.
    pub datasets: Vec<DatasetPerf>,
}

/// Snapshot file format version (bumped on incompatible changes).
const FORMAT_VERSION: u64 = 1;

fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.3}"));
    } else {
        out.push_str("null");
    }
}

impl PerfSnapshot {
    /// Serializes the snapshot as pretty-stable JSON (sorted keys,
    /// fixed decimal places) so diffs of the committed file stay small.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"bench\": \"perf_snapshot\",\n  \"version\": ");
        out.push_str(&FORMAT_VERSION.to_string());
        out.push_str(",\n  \"scale\": ");
        write_escaped(&mut out, &self.scale);
        if let Some(run_id) = &self.run_id {
            out.push_str(",\n  \"run_id\": ");
            write_escaped(&mut out, run_id);
        }
        if let Some(threads) = self.threads {
            out.push_str(&format!(",\n  \"threads\": {threads}"));
        }
        if let Some(rel_tol) = self.rel_tol {
            out.push_str(&format!(",\n  \"rel_tol\": {rel_tol:.4}"));
        }
        if let Some(floor) = self.noise_floor_ms {
            out.push_str(&format!(",\n  \"noise_floor_ms\": {floor:.3}"));
        }
        if let Some(ex) = &self.executor {
            out.push_str(&format!(
                ",\n  \"executor\": {{\"calls\": {}, \"items\": {}, \"busy_ns\": {}, \
                 \"idle_ns\": {}, \"max_fanout\": {}, \"utilization\": ",
                ex.calls, ex.items, ex.busy_ns, ex.idle_ns, ex.max_fanout
            ));
            push_num(&mut out, ex.utilization);
            out.push_str(", \"items_per_sec\": ");
            push_num(&mut out, ex.items_per_sec);
            out.push('}');
        }
        out.push_str(",\n  \"datasets\": [");
        for (i, d) in self.datasets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"dataset\": ");
            write_escaped(&mut out, &d.dataset);
            out.push_str(", \"wall_ms\": ");
            push_num(&mut out, d.wall_ms);
            out.push_str(", \"phases\": [");
            for (j, p) in d.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"name\": ");
                write_escaped(&mut out, &p.name);
                out.push_str(&format!(", \"calls\": {}", p.calls));
                out.push_str(", \"total_ms\": ");
                push_num(&mut out, p.total_ms);
                out.push_str(", \"self_ms\": ");
                push_num(&mut out, p.self_ms);
                out.push('}');
            }
            if !d.phases.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("], \"solver\": {");
            let s = &d.solver;
            out.push_str(&format!(
                "\"solves\": {}, \"newton_iterations\": {}, \"ramp_fallbacks\": {}, \"failures\": {}",
                s.solves, s.newton_iterations, s.ramp_fallbacks, s.failures
            ));
            out.push_str(", \"iters_mean\": ");
            push_num(&mut out, s.iters_mean);
            out.push_str(", \"iters_p50\": ");
            push_num(&mut out, s.iters_p50);
            out.push_str(", \"iters_p95\": ");
            push_num(&mut out, s.iters_p95);
            out.push_str(", \"iters_max\": ");
            push_num(&mut out, s.iters_max);
            // Observatory aggregates (0 on runs without --solver-traces
            // style observation; absent fields parse back as 0 too, so
            // older checked-in snapshots stay readable).
            out.push_str(&format!(
                ", \"max_cond1_estimate\": {:.6e}, \"fingerprint_cardinality\": {}, \
                 \"distance_iters_correlation\": ",
                s.max_cond1_estimate, s.fingerprint_cardinality
            ));
            push_num(&mut out, s.distance_iters_correlation);
            out.push_str(&format!(
                ", \"warm_started_solves\": {}",
                s.warm_started_solves
            ));
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a snapshot document written by [`PerfSnapshot::to_json`].
    /// Returns `None` when the text is not valid JSON or lacks the
    /// expected shape.
    pub fn from_json(text: &str) -> Option<PerfSnapshot> {
        let doc = parse(text)?;
        if doc.get("bench")?.as_str()? != "perf_snapshot" {
            return None;
        }
        let scale = doc.get("scale")?.as_str()?.to_string();
        let run_id = doc.get("run_id").and_then(Json::as_str).map(str::to_string);
        let threads = doc
            .get("threads")
            .and_then(Json::as_f64)
            .map(|v| v as usize);
        let rel_tol = doc.get("rel_tol").and_then(Json::as_f64);
        let noise_floor_ms = doc.get("noise_floor_ms").and_then(Json::as_f64);
        let executor = doc.get("executor").map(|ex| {
            let num = |key: &str| ex.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            ExecutorUtilization {
                calls: num("calls") as u64,
                items: num("items") as u64,
                busy_ns: num("busy_ns") as u64,
                idle_ns: num("idle_ns") as u64,
                max_fanout: num("max_fanout") as u64,
                utilization: num("utilization"),
                items_per_sec: num("items_per_sec"),
            }
        });
        let Json::Arr(ds) = doc.get("datasets")? else {
            return None;
        };
        let mut datasets = Vec::with_capacity(ds.len());
        for d in ds {
            let mut phases = Vec::new();
            if let Some(Json::Arr(ps)) = d.get("phases") {
                for p in ps {
                    phases.push(PhaseBreakdown {
                        name: p.get("name")?.as_str()?.to_string(),
                        calls: p.get("calls")?.as_f64()? as u64,
                        total_ms: p.get("total_ms")?.as_f64()?,
                        self_ms: p.get("self_ms")?.as_f64()?,
                    });
                }
            }
            let sv = d.get("solver")?;
            let num = |key: &str| sv.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            datasets.push(DatasetPerf {
                dataset: d.get("dataset")?.as_str()?.to_string(),
                wall_ms: d.get("wall_ms")?.as_f64()?,
                phases,
                solver: SolverRollup {
                    solves: num("solves") as u64,
                    newton_iterations: num("newton_iterations") as u64,
                    ramp_fallbacks: num("ramp_fallbacks") as u64,
                    failures: num("failures") as u64,
                    iters_mean: num("iters_mean"),
                    iters_p50: num("iters_p50"),
                    iters_p95: num("iters_p95"),
                    iters_max: num("iters_max"),
                    max_cond1_estimate: num("max_cond1_estimate"),
                    fingerprint_cardinality: num("fingerprint_cardinality") as u64,
                    distance_iters_correlation: num("distance_iters_correlation"),
                    warm_started_solves: num("warm_started_solves") as u64,
                },
            });
        }
        Some(PerfSnapshot {
            scale,
            run_id,
            threads,
            rel_tol,
            noise_floor_ms,
            executor,
            datasets,
        })
    }

    /// Writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on I/O or parse failure.
    pub fn read(path: impl AsRef<Path>) -> Result<PerfSnapshot, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        PerfSnapshot::from_json(&text)
            .ok_or_else(|| format!("{}: not a perf_snapshot document", path.display()))
    }
}

/// One flagged slowdown from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Dataset the regression was observed on.
    pub dataset: String,
    /// What regressed: `wall_ms` or `phase:<name>`.
    pub metric: String,
    /// Baseline value, milliseconds.
    pub old_ms: f64,
    /// Current value, milliseconds.
    pub new_ms: f64,
    /// `new / old` ratio (> 1 means slower).
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.1} ms -> {:.1} ms ({:+.1} %)",
            self.dataset,
            self.metric,
            self.old_ms,
            self.new_ms,
            (self.ratio - 1.0) * 100.0
        )
    }
}

/// `true` when two snapshots were measured at compatible executor
/// thread counts and may be regression-compared. Snapshots that both
/// record a thread count must agree; a snapshot without one (written
/// before the field existed) is accepted against anything.
pub fn comparable_thread_counts(old: &PerfSnapshot, new: &PerfSnapshot) -> bool {
    match (old.threads, new.threads) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    }
}

/// Relative slowdown beyond which [`compare`] flags a regression.
pub const REGRESSION_THRESHOLD: f64 = 0.10;

/// Phases or wall clocks faster than this are ignored by [`compare`]:
/// sub-10 ms timings are dominated by scheduler noise.
pub const MIN_COMPARABLE_MS: f64 = 10.0;

/// Thresholds for [`compare_with`]. The defaults are the historical
/// hard-coded constants ([`REGRESSION_THRESHOLD`] /
/// [`MIN_COMPARABLE_MS`]); `perf_snapshot --compare` overrides them
/// from `--rel-tol` / `--noise-floor-ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Minimum relative slowdown to flag (0.10 = 10 %).
    pub rel_tol: f64,
    /// Timings below this many milliseconds are never compared.
    pub noise_floor_ms: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            rel_tol: REGRESSION_THRESHOLD,
            noise_floor_ms: MIN_COMPARABLE_MS,
        }
    }
}

/// [`compare_with`] at the default thresholds.
pub fn compare(old: &PerfSnapshot, new: &PerfSnapshot) -> Vec<Regression> {
    compare_with(old, new, CompareConfig::default())
}

/// Diffs `new` against the `old` baseline and returns every dataset
/// whose wall clock — or any phase's total time — grew by more than
/// `cfg.rel_tol`. Datasets or phases present on only one side are
/// skipped (they are adds/removes, not regressions), as are timings
/// below `cfg.noise_floor_ms`.
pub fn compare_with(old: &PerfSnapshot, new: &PerfSnapshot, cfg: CompareConfig) -> Vec<Regression> {
    let mut out = Vec::new();
    for nd in &new.datasets {
        let Some(od) = old.datasets.iter().find(|d| d.dataset == nd.dataset) else {
            continue;
        };
        if od.wall_ms >= cfg.noise_floor_ms && nd.wall_ms > od.wall_ms * (1.0 + cfg.rel_tol) {
            out.push(Regression {
                dataset: nd.dataset.clone(),
                metric: "wall_ms".to_string(),
                old_ms: od.wall_ms,
                new_ms: nd.wall_ms,
                ratio: nd.wall_ms / od.wall_ms,
            });
        }
        for np in &nd.phases {
            let Some(op) = od.phases.iter().find(|p| p.name == np.name) else {
                continue;
            };
            if op.total_ms >= cfg.noise_floor_ms && np.total_ms > op.total_ms * (1.0 + cfg.rel_tol)
            {
                out.push(Regression {
                    dataset: nd.dataset.clone(),
                    metric: format!("phase:{}", np.name),
                    old_ms: op.total_ms,
                    new_ms: np.total_ms,
                    ratio: np.total_ms / op.total_ms,
                });
            }
        }
    }
    out
}

/// Builds per-dataset trend series from a chronological sequence of
/// `(label, snapshot)` pairs (oldest first): one `"<dataset>: wall_ms"`
/// series per dataset, plus one `"<dataset>: phase:<name>"` series for
/// each phase present in *every* snapshot that carries the dataset
/// (phases that come and go are adds/removes, not trends). Datasets
/// appear in first-seen order; a dataset missing from some snapshot
/// simply contributes no point there.
pub fn trend_series(snapshots: &[(String, PerfSnapshot)]) -> Vec<TrendSeries> {
    let mut dataset_order: Vec<String> = Vec::new();
    for (_, snap) in snapshots {
        for d in &snap.datasets {
            if !dataset_order.contains(&d.dataset) {
                dataset_order.push(d.dataset.clone());
            }
        }
    }
    let mut out = Vec::new();
    for name in &dataset_order {
        let carriers: Vec<(&String, &DatasetPerf)> = snapshots
            .iter()
            .filter_map(|(label, snap)| {
                snap.datasets
                    .iter()
                    .find(|d| &d.dataset == name)
                    .map(|d| (label, d))
            })
            .collect();
        out.push(TrendSeries {
            metric: format!("{name}: wall_ms"),
            direction: Direction::UpIsBad,
            points: carriers
                .iter()
                .map(|(label, d)| TrendPoint {
                    label: (*label).clone(),
                    value: d.wall_ms,
                })
                .collect(),
        });
        let Some((_, first)) = carriers.first() else {
            continue;
        };
        for phase in &first.phases {
            let totals: Vec<Option<(&String, f64)>> = carriers
                .iter()
                .map(|(label, d)| {
                    d.phases
                        .iter()
                        .find(|p| p.name == phase.name)
                        .map(|p| (*label, p.total_ms))
                })
                .collect();
            if totals.iter().any(Option::is_none) {
                continue;
            }
            out.push(TrendSeries {
                metric: format!("{name}: phase:{}", phase.name),
                direction: Direction::UpIsBad,
                points: totals
                    .into_iter()
                    .flatten()
                    .map(|(label, v)| TrendPoint {
                        label: label.clone(),
                        value: v,
                    })
                    .collect(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfSnapshot {
        PerfSnapshot {
            scale: "smoke".to_string(),
            run_id: Some("1722-train".to_string()),
            threads: Some(2),
            rel_tol: Some(0.10),
            noise_floor_ms: Some(10.0),
            executor: Some(ExecutorUtilization {
                calls: 12,
                items: 480,
                busy_ns: 3_000_000,
                idle_ns: 1_000_000,
                max_fanout: 64,
                utilization: 0.75,
                items_per_sec: 120.5,
            }),
            datasets: vec![DatasetPerf {
                dataset: "Iris".to_string(),
                wall_ms: 1500.0,
                phases: vec![
                    PhaseBreakdown {
                        name: "epoch".to_string(),
                        calls: 75,
                        total_ms: 900.5,
                        self_ms: 12.25,
                    },
                    PhaseBreakdown {
                        name: "dc_solve".to_string(),
                        calls: 976,
                        total_ms: 57.0,
                        self_ms: 57.0,
                    },
                ],
                solver: SolverRollup {
                    solves: 976,
                    newton_iterations: 8000,
                    ramp_fallbacks: 3,
                    failures: 0,
                    iters_mean: 8.2,
                    iters_p50: 7.0,
                    iters_p95: 14.0,
                    iters_max: 42.0,
                    max_cond1_estimate: 3.25e6,
                    fingerprint_cardinality: 1,
                    distance_iters_correlation: -0.125,
                    warm_started_solves: 944,
                },
            }],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample();
        let parsed = PerfSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed.scale, "smoke");
        assert_eq!(parsed.run_id.as_deref(), Some("1722-train"));
        assert_eq!(parsed.threads, Some(2));
        assert_eq!(parsed.datasets.len(), 1);
        assert_eq!(parsed.rel_tol, Some(0.10));
        assert_eq!(parsed.noise_floor_ms, Some(10.0));
        let ex = parsed.executor.expect("executor block round-trips");
        assert_eq!(ex.calls, 12);
        assert_eq!(ex.items, 480);
        assert_eq!(ex.max_fanout, 64);
        assert!((ex.utilization - 0.75).abs() < 1e-9);
        // A snapshot without the optional fields (as BENCH_3/BENCH_4
        // were written) round-trips as None for each.
        let anon = PerfSnapshot {
            run_id: None,
            threads: None,
            rel_tol: None,
            noise_floor_ms: None,
            executor: None,
            ..sample()
        };
        let anon_parsed = PerfSnapshot::from_json(&anon.to_json()).unwrap();
        assert_eq!(anon_parsed.run_id, None);
        assert_eq!(anon_parsed.threads, None);
        assert_eq!(anon_parsed.rel_tol, None);
        assert_eq!(anon_parsed.noise_floor_ms, None);
        assert_eq!(anon_parsed.executor, None);
        let d = &parsed.datasets[0];
        assert_eq!(d.dataset, "Iris");
        assert!((d.wall_ms - 1500.0).abs() < 1e-6);
        assert_eq!(d.phases.len(), 2);
        assert_eq!(d.phases[0].name, "epoch");
        assert_eq!(d.phases[0].calls, 75);
        assert!((d.phases[0].self_ms - 12.25).abs() < 1e-6);
        assert_eq!(d.solver.solves, 976);
        assert!((d.solver.iters_p95 - 14.0).abs() < 1e-6);
        assert!((d.solver.max_cond1_estimate - 3.25e6).abs() < 1.0);
        assert_eq!(d.solver.fingerprint_cardinality, 1);
        assert!((d.solver.distance_iters_correlation - -0.125).abs() < 1e-3);
        assert_eq!(d.solver.warm_started_solves, 944);
    }

    #[test]
    fn snapshots_without_observatory_fields_parse_as_zero() {
        // A pre-observatory solver block (as BENCH_3 was written).
        let text = r#"{
  "bench": "perf_snapshot",
  "version": 1,
  "scale": "smoke",
  "datasets": [
    {"dataset": "Iris", "wall_ms": 100.0, "phases": [], "solver": {
      "solves": 10, "newton_iterations": 80, "ramp_fallbacks": 0,
      "failures": 0, "iters_mean": 8.0, "iters_p50": 8.0,
      "iters_p95": 9.0, "iters_max": 9.0}}
  ]
}"#;
        let snap = PerfSnapshot::from_json(text).expect("legacy snapshot parses");
        let s = &snap.datasets[0].solver;
        assert_eq!(s.max_cond1_estimate, 0.0);
        assert_eq!(s.fingerprint_cardinality, 0);
        assert_eq!(s.distance_iters_correlation, 0.0);
        assert_eq!(s.warm_started_solves, 0);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(PerfSnapshot::from_json("").is_none());
        assert!(PerfSnapshot::from_json("{}").is_none());
        assert!(PerfSnapshot::from_json("{\"bench\": \"other\"}").is_none());
        assert!(PerfSnapshot::from_json("{\"bench\": \"perf_snapshot\", \"scale\": 3}").is_none());
    }

    #[test]
    fn compare_flags_slowdowns_over_threshold() {
        let old = sample();
        let mut new = sample();
        new.datasets[0].wall_ms = 1700.0; // +13 % — flagged
        new.datasets[0].phases[1].total_ms = 75.0; // +32 % — flagged
        new.datasets[0].phases[0].total_ms = 950.0; // +5.5 % — within noise
        let regs = compare(&old, &new);
        assert_eq!(regs.len(), 2);
        assert_eq!(regs[0].metric, "wall_ms");
        assert_eq!(regs[1].metric, "phase:dc_solve");
        assert!(regs[1].ratio > 1.3);
    }

    #[test]
    fn compare_ignores_new_datasets_and_noise() {
        let old = sample();
        let mut new = sample();
        new.datasets.push(DatasetPerf {
            dataset: "Seeds".to_string(),
            wall_ms: 9000.0,
            phases: vec![],
            solver: SolverRollup::default(),
        });
        // Tiny phases never flag, however large the ratio.
        new.datasets[0].phases[0].total_ms = 900.5;
        assert!(compare(&old, &new).is_empty());
    }

    #[test]
    fn compare_with_honors_custom_thresholds() {
        let old = sample();
        let mut new = sample();
        new.datasets[0].wall_ms = 1700.0; // +13 %
                                          // Looser tolerance: nothing flags.
        let loose = CompareConfig {
            rel_tol: 0.25,
            noise_floor_ms: 10.0,
        };
        assert!(compare_with(&old, &new, loose).is_empty());
        // Tighter tolerance flags the +5.5 % phase drift too.
        new.datasets[0].phases[0].total_ms = 950.0;
        let tight = CompareConfig {
            rel_tol: 0.02,
            noise_floor_ms: 10.0,
        };
        let regs = compare_with(&old, &new, tight);
        assert!(regs.iter().any(|r| r.metric == "phase:epoch"), "{regs:?}");
        // A sky-high noise floor silences everything.
        let deaf = CompareConfig {
            rel_tol: 0.02,
            noise_floor_ms: 1e9,
        };
        assert!(compare_with(&old, &new, deaf).is_empty());
    }

    #[test]
    fn thread_counts_gate_comparison() {
        let old = sample();
        let mut new = sample();
        assert!(comparable_thread_counts(&old, &new));
        new.threads = Some(4);
        assert!(!comparable_thread_counts(&old, &new));
        // Legacy snapshots without the field compare against anything.
        new.threads = None;
        assert!(comparable_thread_counts(&old, &new));
        assert!(comparable_thread_counts(&new, &old));
    }

    #[test]
    fn trend_series_tracks_datasets_and_stable_phases() {
        let mut a = sample();
        let mut b = sample();
        b.datasets[0].wall_ms = 1600.0;
        // Drop one phase from b so it is excluded as an add/remove.
        b.datasets[0].phases.retain(|p| p.name == "epoch");
        // b gains a dataset a lacks: its series has a single point.
        b.datasets.push(DatasetPerf {
            dataset: "Seeds".to_string(),
            wall_ms: 2000.0,
            phases: vec![],
            solver: SolverRollup::default(),
        });
        a.datasets[0].phases[0].total_ms = 900.5;
        let series = trend_series(&[("old".to_string(), a), ("new".to_string(), b)]);
        let names: Vec<&str> = series.iter().map(|s| s.metric.as_str()).collect();
        assert_eq!(
            names,
            ["Iris: wall_ms", "Iris: phase:epoch", "Seeds: wall_ms"],
            "{names:?}"
        );
        let wall = &series[0];
        assert_eq!(wall.points.len(), 2);
        assert_eq!(wall.points[0].label, "old");
        assert_eq!(wall.points[1].value, 1600.0);
        assert_eq!(series[2].points.len(), 1);
    }

    #[test]
    fn display_formats_percentage() {
        let r = Regression {
            dataset: "Iris".to_string(),
            metric: "wall_ms".to_string(),
            old_ms: 100.0,
            new_ms: 125.0,
            ratio: 1.25,
        };
        assert_eq!(
            r.to_string(),
            "Iris: wall_ms 100.0 ms -> 125.0 ms (+25.0 %)"
        );
    }
}
