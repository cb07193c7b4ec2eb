//! Per-layer measurement from outside the program: benchmark spans
//! around public calls, the counters the crates expose, and (on a
//! traced pass) the program's own profiler spans.

use pnc_telemetry::{ProfileReport, Profiler, Stopwatch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Layer values of one pass (or one set-up), keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to the layer `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` as the layer `name`: its wall time in milliseconds is
    /// added to `name`, and on a traced pass it is also a span of
    /// `prof` under the same name.
    pub fn time<T>(&mut self, prof: &Profiler, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = prof.scope(name);
        let sw = Stopwatch::start();
        let out = f();
        self.add(name, sw.elapsed_ms());
        out
    }
}

/// Zeroes the process-wide solver, executor and atlas counters so the
/// next [`read_counters`] covers exactly what ran in between.
pub fn reset_counters() {
    pnc_spice::stats::reset();
    pnc_parallel::stats::reset();
    pnc_surrogate::atlas::take();
}

/// Reads (and zeroes) the process-wide counters into `layers`.
pub fn read_counters(layers: &mut Layers) {
    let solve_time = pnc_spice::stats::solve_time_summary();
    let s = pnc_spice::stats::take();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    layers.add("spice.solves", s.solves as f64);
    layers.add("spice.newton_iters", s.newton_iterations as f64);
    layers.add(
        "spice.iters_per_solve",
        ratio(s.newton_iterations, s.solves),
    );
    layers.add("spice.solve_ms", solve_time.mean * solve_time.count as f64);
    layers.add("spice.warm_share", ratio(s.warm_started_solves, s.solves));
    layers.add("spice.failures", s.failures as f64);
    layers.add("spice.ramp_fallbacks", s.ramp_fallbacks as f64);
    layers.add("spice.factorizations", s.factorizations as f64);
    layers.add("spice.refactorizations", s.refactorizations as f64);
    layers.add(
        "spice.refactor_share",
        ratio(s.refactorizations, s.factorizations + s.refactorizations),
    );
    layers.add("spice.pattern_hits", s.pattern_hits as f64);
    layers.add("spice.pattern_misses", s.pattern_misses as f64);

    let e = pnc_parallel::stats::take();
    layers.add("parallel.calls", e.calls as f64);
    layers.add("parallel.items", e.items as f64);
    layers.add("parallel.utilization", e.utilization());
    layers.add("parallel.idle_ms", e.idle_ns() as f64 / 1e6);

    layers.add("atlas.points", pnc_surrogate::atlas::take().len() as f64);
}

/// The program's profiler span names and the layer each belongs to.
/// Benchmark spans already carry their layer name.
const SPAN_LAYERS: [(&str, &str); 13] = [
    ("sobol_characterization", "surrogate.sobol"),
    ("characterize_point", "surrogate.characterize_point"),
    ("mlp_fit", "surrogate.mlp_fit"),
    ("mlp_eval", "surrogate.mlp_eval"),
    ("dc_solve", "spice.dc_solve"),
    ("outer_iter", "train.outer_iter"),
    ("rescue", "train.rescue"),
    ("epoch", "train.epoch"),
    ("tape_forward", "autodiff.tape_forward"),
    ("tape_backward", "autodiff.tape_backward"),
    ("optimizer_step", "autodiff.optimizer_step"),
    ("measure", "core.measure"),
    ("validate", "core.validate"),
];

/// The layer name of a profiler span.
pub fn layer_of(span: &str) -> &str {
    SPAN_LAYERS
        .iter()
        .find(|(s, _)| *s == span)
        .map_or(span, |(_, layer)| layer)
}

/// Adds the profiler-derived layer values of a traced pass.
pub fn read_profile(report: &ProfileReport, span_count: usize, layers: &mut Layers) {
    let stat = |name: &str| report.phases.iter().find(|p| p.name == name);
    let total = |name: &str| stat(name).map_or(0.0, |p| p.total_ms);
    layers.add(
        "surrogate.sobol_self_ms",
        stat("sobol_characterization").map_or(0.0, |p| p.self_ms),
    );
    layers.add("surrogate.mlp_fit_ms", total("mlp_fit"));
    layers.add("autodiff.tape_forward_ms", total("tape_forward"));
    layers.add("autodiff.tape_backward_ms", total("tape_backward"));
    layers.add("autodiff.optimizer_step_ms", total("optimizer_step"));
    layers.add("core.measure_ms", total("measure"));
    layers.add("core.validate_ms", total("validate"));
    layers.add("telemetry.spans", span_count as f64);
}

/// Renders a traced pass's profile as a self-time table keyed by layer.
pub fn self_time_table(report: &ProfileReport) -> String {
    let mut out = format!(
        "{:<32} {:>9} {:>12} {:>12} {:>7}\n",
        "layer", "calls", "total_ms", "self_ms", "%wall"
    );
    for p in &report.phases {
        let _ = writeln!(
            out,
            "{:<32} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            layer_of(&p.name),
            p.calls,
            p.total_ms,
            p.self_ms,
            p.pct_of_wall
        );
    }
    let _ = writeln!(out, "wall clock {:.3} ms", report.wall_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_map_to_layers_and_benchmark_spans_keep_their_name() {
        assert_eq!(layer_of("tape_forward"), "autodiff.tape_forward");
        assert_eq!(layer_of("train.auglag_ms"), "train.auglag_ms");
    }

    #[test]
    fn timed_layers_accumulate() {
        let mut layers = Layers::default();
        let prof = Profiler::enabled();
        let v = layers.time(&prof, "core.export_ms", || 7);
        layers.time(&prof, "core.export_ms", || ());
        assert_eq!(v, 7);
        assert!(layers.get("core.export_ms") >= 0.0);
        assert_eq!(prof.span_count(), 2);
        assert_eq!(layers.get("never"), 0.0);
    }
}
