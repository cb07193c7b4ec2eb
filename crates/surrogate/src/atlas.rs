//! Characterization hardness atlas: per-Sobol-point solver cost,
//! conditioning and neighborhood structure.
//!
//! ROADMAP item 3 (sparse/batched SPICE) rests on three empirical
//! claims: MNA matrices share one sparsity pattern across Sobol
//! points, neighboring points make good warm-starts, and Newton work
//! concentrates in a hard tail. The atlas measures all three. While
//! enabled, [`sampling`](crate::sampling) records one [`AtlasPoint`]
//! per characterized design — its solver cost (from the observatory's
//! per-thread accounting window), its conditioning high-water, its
//! sparsity-pattern fingerprint, and its distance to the nearest
//! *already-recorded* point (computed in the sequential index-ordered
//! compaction pass, so the value is identical for any `--threads`).
//! [`SolverAtlas::rollup`] then answers the three claims with numbers:
//! fingerprint cardinality, distance-vs-iterations correlation, and
//! the per-point iteration tail.

use pnc_parallel::Executor;
use pnc_spice::observe::PointSolveStats;
use pnc_telemetry::json::{write_escaped, Json};
use pnc_telemetry::{Event, Level};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};

// lint: allow(L003, reason = "process-wide atlas collector switch; flipped once per run by the orchestrator")
static ENABLED: AtomicBool = AtomicBool::new(false);
// lint: allow(L003, reason = "process-wide atlas point collector; appended to only by the sequential compaction pass, or by join in call order")
static POINTS: LazyLock<Mutex<Vec<AtlasPoint>>> = LazyLock::new(|| Mutex::new(Vec::new()));

thread_local! {
    // lint: allow(L003, reason = "holds the points a join branch records until both branches end, so they publish in call order; the sweep that records them is several calls below the join")
    static HELD: RefCell<Option<Vec<AtlasPoint>>> = const { RefCell::new(None) };
}

/// Starts collecting atlas points (clears any previous collection).
pub fn enable() {
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    POINTS.lock().unwrap().clear();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops collecting (collected points survive until [`take`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether characterization should record atlas points.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains the collected points (collection order — sequential per
/// dataset, datasets in call order).
pub fn take() -> Vec<AtlasPoint> {
    // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
    std::mem::take(&mut *POINTS.lock().unwrap())
}

/// Appends one point (called from the compaction pass of the Sobol
/// characterization driver in [`crate::sampling`]), or holds it when
/// the current thread runs a branch of [`join`].
pub(crate) fn record(point: AtlasPoint) {
    HELD.with_borrow_mut(|held| match held {
        Some(points) => points.push(point),
        // lint: allow(L001, reason = "mutex poisoning only follows a recorder panic; nothing to recover")
        None => POINTS.lock().unwrap().push(point),
    });
}

/// Runs `a` and `b` side by side through [`Executor::join`] and
/// records the atlas points of each in call order: all of `a`'s, then
/// all of `b`'s, as if they had run one after the other. The
/// collection therefore does not depend on which branch finished
/// first, and is the same for any `--threads`.
pub fn join<RA, RB>(
    ex: &Executor,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let ((ra, held_a), (rb, held_b)) = ex.join(|| holding(a), || holding(b));
    for point in held_a.into_iter().chain(held_b) {
        record(point);
    }
    (ra, rb)
}

/// Runs `f` with this thread's recorded points held back, and returns
/// them with its result. A drop guard restores the outer state, so a
/// panic cannot leave points held.
fn holding<R>(f: impl FnOnce() -> R) -> (R, Vec<AtlasPoint>) {
    struct Restore(Option<Vec<AtlasPoint>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            HELD.set(self.0.take());
        }
    }
    let _restore = Restore(HELD.replace(Some(Vec::new())));
    let out = f();
    (out, HELD.take().unwrap_or_default())
}

/// One characterized Sobol design point.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasPoint {
    /// Sobol index within its sweep.
    pub index: u64,
    /// Characterization target (`power` or `transfer`).
    pub target: String,
    /// Activation-kind name.
    pub kind: String,
    /// Design vector `q` (linear space).
    pub q: Vec<f64>,
    /// DC solves spent on this point (a full input-grid sweep).
    pub solves: u64,
    /// Newton iterations spent across those solves.
    pub newton_iterations: u64,
    /// Solves that engaged the supply-ramp fallback.
    pub ramp_fallbacks: u64,
    /// Solves that returned an error.
    pub failures: u64,
    /// Largest Jacobian `cond1_estimate` seen (0.0 when the
    /// observatory was not tracing).
    pub max_cond1_estimate: f64, // lint: dimensionless
    /// Sparsity-pattern fingerprint of the point's circuit.
    pub fingerprint: u64,
    /// Whether the point's solves spanned more than one pattern.
    pub multi_fingerprint: bool,
    /// Log-space distance to the nearest already-recorded point of the
    /// same sweep (`-1.0` for the sweep's first point).
    pub nn_distance: f64, // lint: dimensionless
    /// Whether the point's simulation failed (dropped from the
    /// dataset).
    pub failed: bool,
}

impl AtlasPoint {
    /// Builds a point from a solver accounting window.
    pub fn from_window(
        index: u64,
        target: &str,
        kind: &str,
        q: Vec<f64>,
        window: &PointSolveStats,
        nn_distance: f64, // lint: dimensionless
        failed: bool,
    ) -> Self {
        AtlasPoint {
            index,
            target: target.to_string(),
            kind: kind.to_string(),
            q,
            solves: window.solves,
            newton_iterations: window.newton_iterations,
            ramp_fallbacks: window.ramp_fallbacks,
            failures: window.failures,
            max_cond1_estimate: window.max_cond1_estimate,
            fingerprint: window.fingerprint,
            multi_fingerprint: window.multi_fingerprint,
            nn_distance,
            failed,
        }
    }
}

/// Aggregate answers over a set of atlas points.
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasRollup {
    /// Points recorded.
    pub points: u64,
    /// Points whose simulation failed.
    pub failed_points: u64,
    /// Total DC solves.
    pub solves: u64,
    /// Total Newton iterations.
    pub newton_iterations: u64,
    /// Total ramp fallbacks.
    pub ramp_fallbacks: u64,
    /// Total failed solves.
    pub failures: u64,
    /// Median per-point Newton iteration count.
    pub iters_p50: f64, // lint: dimensionless
    /// 95th-percentile per-point Newton iteration count — the hard
    /// tail ROADMAP item 3 asks about.
    pub iters_p95: f64, // lint: dimensionless
    /// Largest per-point Newton iteration count.
    pub iters_max: f64, // lint: dimensionless
    /// Largest `cond1_estimate` across all points.
    pub max_cond1_estimate: f64, // lint: dimensionless
    /// Distinct sparsity-pattern fingerprints (claim: this is 1 per
    /// activation circuit).
    pub fingerprint_cardinality: u64,
    /// Pearson correlation between nearest-neighbor distance and
    /// per-point iterations (claim: positive — closer points are
    /// easier, so neighbors make good warm-starts). 0.0 when
    /// undefined (fewer than two eligible points or zero variance).
    pub distance_iters_correlation: f64, // lint: dimensionless
}

/// Exact nearest-rank percentile of a pre-sorted slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A collection of atlas points with deterministic aggregation and
/// rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverAtlas {
    /// Recorded points, in collection order.
    pub points: Vec<AtlasPoint>,
}

impl SolverAtlas {
    /// Wraps a drained point collection.
    pub fn new(points: Vec<AtlasPoint>) -> Self {
        SolverAtlas { points }
    }

    /// Computes the aggregate rollup. Pure function of the points, so
    /// byte-stable renders follow from point-order determinism.
    pub fn rollup(&self) -> AtlasRollup {
        let mut r = AtlasRollup {
            points: self.points.len() as u64,
            failed_points: 0,
            solves: 0,
            newton_iterations: 0,
            ramp_fallbacks: 0,
            failures: 0,
            iters_p50: 0.0,
            iters_p95: 0.0,
            iters_max: 0.0,
            max_cond1_estimate: 0.0,
            fingerprint_cardinality: 0,
            distance_iters_correlation: 0.0,
        };
        let mut iters: Vec<f64> = Vec::with_capacity(self.points.len());
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for p in &self.points {
            r.failed_points += u64::from(p.failed);
            r.solves += p.solves;
            r.newton_iterations += p.newton_iterations;
            r.ramp_fallbacks += p.ramp_fallbacks;
            r.failures += p.failures;
            r.max_cond1_estimate = r.max_cond1_estimate.max(p.max_cond1_estimate);
            iters.push(p.newton_iterations as f64);
            if p.fingerprint != 0 {
                fingerprints.push(p.fingerprint);
                if p.multi_fingerprint {
                    // A point that saw several patterns contributes at
                    // least one beyond the one it reports.
                    fingerprints.push(p.fingerprint.wrapping_add(1));
                }
            }
            if p.nn_distance >= 0.0 {
                pairs.push((p.nn_distance, p.newton_iterations as f64));
            }
        }
        iters.sort_by(f64::total_cmp);
        r.iters_p50 = percentile_sorted(&iters, 0.50);
        r.iters_p95 = percentile_sorted(&iters, 0.95);
        r.iters_max = iters.last().copied().unwrap_or(0.0);
        fingerprints.sort_unstable();
        fingerprints.dedup();
        r.fingerprint_cardinality = fingerprints.len() as u64;
        r.distance_iters_correlation = pearson(&pairs);
        r
    }

    /// Serializes the atlas (points + rollup) as a JSON document.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.points.len());
        out.push_str("{\"schema\":\"solver_atlas\",\"version\":1,\"rollup\":");
        let r = self.rollup();
        out.push_str(&format!(
            "{{\"points\":{},\"failed_points\":{},\"solves\":{},\"newton_iterations\":{},\"ramp_fallbacks\":{},\"failures\":{},\"iters_p50\":{:?},\"iters_p95\":{:?},\"iters_max\":{:?},\"max_cond1_estimate\":{:?},\"fingerprint_cardinality\":{},\"distance_iters_correlation\":{:?}}}",
            r.points,
            r.failed_points,
            r.solves,
            r.newton_iterations,
            r.ramp_fallbacks,
            r.failures,
            r.iters_p50,
            r.iters_p95,
            r.iters_max,
            r.max_cond1_estimate,
            r.fingerprint_cardinality,
            r.distance_iters_correlation,
        ));
        out.push_str(",\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"index\":{},\"target\":", p.index));
            write_escaped(&mut out, &p.target);
            out.push_str(",\"kind\":");
            write_escaped(&mut out, &p.kind);
            out.push_str(",\"q\":[");
            for (k, v) in p.q.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v:?}"));
            }
            out.push_str(&format!(
                "],\"solves\":{},\"newton_iterations\":{},\"ramp_fallbacks\":{},\"failures\":{},\"max_cond1_estimate\":{:?},\"fingerprint\":\"{:016x}\",\"multi_fingerprint\":{},\"nn_distance\":{:?},\"failed\":{}}}",
                p.solves,
                p.newton_iterations,
                p.ramp_fallbacks,
                p.failures,
                p.max_cond1_estimate,
                p.fingerprint,
                p.multi_fingerprint,
                p.nn_distance,
                p.failed,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses an atlas from the JSON produced by
    /// [`SolverAtlas::to_json_string`]. The rollup is recomputed from
    /// the points (the stored copy is for human readers), so a loaded
    /// atlas renders identically to the one that was saved.
    pub fn from_json(j: &Json) -> Option<SolverAtlas> {
        if j.get("schema").and_then(Json::as_str) != Some("solver_atlas") {
            return None;
        }
        let Json::Arr(items) = j.get("points")? else {
            return None;
        };
        let mut points = Vec::with_capacity(items.len());
        for item in items {
            let f = |k: &str| item.get(k).and_then(Json::as_f64);
            let u = |k: &str| f(k).map(|v| v as u64);
            let q = match item.get("q")? {
                Json::Arr(vs) => vs.iter().map(Json::as_f64).collect::<Option<Vec<_>>>()?,
                _ => return None,
            };
            points.push(AtlasPoint {
                index: u("index")?,
                target: item.get("target")?.as_str()?.to_string(),
                kind: item.get("kind")?.as_str()?.to_string(),
                q,
                solves: u("solves")?,
                newton_iterations: u("newton_iterations")?,
                ramp_fallbacks: u("ramp_fallbacks")?,
                failures: u("failures")?,
                max_cond1_estimate: f("max_cond1_estimate")?,
                fingerprint: u64::from_str_radix(item.get("fingerprint")?.as_str()?, 16).ok()?,
                multi_fingerprint: item.get("multi_fingerprint").and_then(Json::as_bool)?,
                nn_distance: f("nn_distance")?,
                failed: item.get("failed").and_then(Json::as_bool)?,
            });
        }
        Some(SolverAtlas { points })
    }

    /// The `top_k` hardest points: most Newton iterations first, index
    /// (then target/kind) as the deterministic tie-break.
    pub fn hardest(&self, top_k: usize) -> Vec<&AtlasPoint> {
        let mut ranked: Vec<&AtlasPoint> = self.points.iter().collect();
        ranked.sort_by(|a, b| {
            b.newton_iterations
                .cmp(&a.newton_iterations)
                .then(a.index.cmp(&b.index))
                .then(a.target.cmp(&b.target))
                .then(a.kind.cmp(&b.kind))
        });
        ranked.truncate(top_k);
        ranked
    }

    /// Renders the hardness map as a fixed-width text report. Every
    /// number is formatted deterministically, so the output is
    /// byte-identical for any thread count.
    pub fn render(&self, top_k: usize) -> String {
        let r = self.rollup();
        let mut out = String::new();
        out.push_str(&format!(
            "solver atlas · {} points ({} failed)\n",
            r.points, r.failed_points
        ));
        out.push_str(&format!(
            "  work        : {} solves · {} iters (per-point p50 {:.0}, p95 {:.0}, max {:.0})\n",
            r.solves, r.newton_iterations, r.iters_p50, r.iters_p95, r.iters_max
        ));
        out.push_str(&format!(
            "  fallbacks   : {} ramp · {} failed solves\n",
            r.ramp_fallbacks, r.failures
        ));
        out.push_str(&format!(
            "  conditioning: max cond1 {:.3e}\n",
            r.max_cond1_estimate
        ));
        out.push_str(&format!(
            "  patterns    : {} distinct sparsity fingerprint(s)\n",
            r.fingerprint_cardinality
        ));
        out.push_str(&format!(
            "  locality    : distance↔iters correlation {:+.4}\n",
            r.distance_iters_correlation
        ));
        let hardest = self.hardest(top_k);
        if !hardest.is_empty() {
            out.push_str("  hardest points:\n");
            out.push_str(
                "    rank  index  target    kind        iters  solves  max_cond1   nn_dist\n",
            );
            for (rank, p) in hardest.iter().enumerate() {
                out.push_str(&format!(
                    "    {:<4}  {:<5}  {:<8}  {:<10}  {:<5}  {:<6}  {:<9.3e}  {:.4}\n",
                    rank + 1,
                    p.index,
                    p.target,
                    p.kind,
                    p.newton_iterations,
                    p.solves,
                    p.max_cond1_estimate,
                    p.nn_distance,
                ));
            }
        }
        out
    }

    /// Renders the rollup as a `solver_atlas` telemetry event.
    pub fn to_event(&self) -> Event {
        let r = self.rollup();
        Event::new("solver_atlas", Level::Info)
            .with_u64("points", r.points)
            .with_u64("failed_points", r.failed_points)
            .with_u64("solves", r.solves)
            .with_u64("newton_iterations", r.newton_iterations)
            .with_u64("ramp_fallbacks", r.ramp_fallbacks)
            .with_u64("failures", r.failures)
            .with_f64("iters_p50", r.iters_p50)
            .with_f64("iters_p95", r.iters_p95)
            .with_f64("iters_max", r.iters_max)
            .with_f64("max_cond1_estimate", r.max_cond1_estimate)
            .with_u64("fingerprint_cardinality", r.fingerprint_cardinality)
            .with_f64("distance_iters_correlation", r.distance_iters_correlation)
    }
}

/// Pearson correlation coefficient; 0.0 when undefined.
fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    if pairs.len() < 2 {
        return 0.0;
    }
    let mean_x = pairs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = pairs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: u64, iters: u64, nn: f64, fp: u64) -> AtlasPoint {
        AtlasPoint {
            index,
            target: "power".to_string(),
            kind: "p-tanh".to_string(),
            q: vec![1.0e4, 2.0e-4, 4.0e-5],
            solves: 7,
            newton_iterations: iters,
            ramp_fallbacks: 0,
            failures: 0,
            max_cond1_estimate: 1.5e4,
            fingerprint: fp,
            multi_fingerprint: false,
            nn_distance: nn,
            failed: false,
        }
    }

    #[test]
    fn join_records_each_branch_in_call_order() {
        // An outer hold on this thread catches what `join` records, so
        // the test never touches the process-wide collection.
        let mark = |target: &str, index: u64| {
            let mut p = point(index, 1, 0.0, 0);
            p.target = target.to_string();
            record(p);
        };
        for threads in [1, 2] {
            let ((), held) = holding(|| {
                join(
                    &Executor::new(threads),
                    || (0..3).for_each(|i| mark("transfer", i)),
                    || (0..2).for_each(|i| mark("power", i)),
                );
            });
            let order: Vec<(&str, u64)> =
                held.iter().map(|p| (p.target.as_str(), p.index)).collect();
            assert_eq!(
                order,
                [
                    ("transfer", 0),
                    ("transfer", 1),
                    ("transfer", 2),
                    ("power", 0),
                    ("power", 1)
                ],
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn rollup_counts_and_percentiles() {
        let atlas = SolverAtlas::new(vec![
            point(0, 10, -1.0, 0xaa),
            point(1, 20, 0.5, 0xaa),
            point(2, 30, 0.25, 0xaa),
            point(3, 80, 1.5, 0xbb),
        ]);
        let r = atlas.rollup();
        assert_eq!(r.points, 4);
        assert_eq!(r.solves, 28);
        assert_eq!(r.newton_iterations, 140);
        assert_eq!(r.iters_p50, 20.0);
        assert_eq!(r.iters_max, 80.0);
        assert_eq!(r.fingerprint_cardinality, 2);
        // Larger nn_distance ↔ more iterations in this fixture.
        assert!(r.distance_iters_correlation > 0.5);
    }

    #[test]
    fn json_round_trip_preserves_points_and_render() {
        let atlas = SolverAtlas::new(vec![point(0, 10, -1.0, 0xaa), point(1, 25, 0.75, 0xaa)]);
        let text = atlas.to_json_string();
        let parsed = pnc_telemetry::json::parse(&text).expect("atlas JSON parses");
        let back = SolverAtlas::from_json(&parsed).expect("atlas round-trips");
        assert_eq!(back, atlas);
        assert_eq!(back.render(5), atlas.render(5));
    }

    #[test]
    fn hardest_ranks_by_iterations_with_stable_ties() {
        let atlas = SolverAtlas::new(vec![
            point(0, 10, -1.0, 0xaa),
            point(1, 40, 0.5, 0xaa),
            point(2, 40, 0.5, 0xaa),
            point(3, 5, 0.1, 0xaa),
        ]);
        let top: Vec<u64> = atlas.hardest(3).iter().map(|p| p.index).collect();
        assert_eq!(top, vec![1, 2, 0]);
    }

    #[test]
    fn render_is_stable_bytes() {
        let atlas = SolverAtlas::new(vec![point(0, 12, -1.0, 0xaa), point(1, 9, 0.33, 0xaa)]);
        let a = atlas.render(2);
        let b = SolverAtlas::new(atlas.points.clone()).render(2);
        assert_eq!(a, b);
        assert!(a.contains("solver atlas · 2 points"));
        assert!(a.contains("patterns    : 1 distinct"));
    }

    #[test]
    fn collector_round_trip() {
        enable();
        assert!(is_enabled());
        record(point(0, 3, -1.0, 0x1));
        record(point(1, 4, 0.2, 0x1));
        disable();
        let points = take();
        assert_eq!(points.len(), 2);
        assert!(take().is_empty());
    }

    #[test]
    fn pearson_handles_degenerate_inputs() {
        assert_eq!(pearson(&[]), 0.0);
        assert_eq!(pearson(&[(1.0, 2.0)]), 0.0);
        assert_eq!(pearson(&[(1.0, 5.0), (1.0, 7.0)]), 0.0);
        let corr = pearson(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert!((corr - 1.0).abs() < 1e-12);
    }
}
