//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; `tests/contract.rs` keeps the two in step.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, work counts).
    Lower,
    /// Larger values are better (throughput, accuracy, useful shares).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, unique across both tables.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, emitted by every workload on an untraced run.
///
/// `pass_s` is `characterize_s` / `train_s` / `certify_s` of the
/// workload it is measured on, and `work_per_s` and `quality` likewise
/// take the workload's own unit of work and output score (see
/// `perfbench/README.md`).
pub const END_TO_END: [MetricSpec; 5] = [
    m("setup_s", "s", Lower),
    m("pass_s", "s", Lower),
    m("work_per_s", "1/s", Higher),
    m("quality", "fraction", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, emitted by every workload on a traced run (zero
/// where the workload does not reach the layer).
pub const PER_LAYER: [MetricSpec; 41] = [
    m("surrogate.fit_ms.p-relu", "ms", Lower),
    m("surrogate.fit_ms.p-tanh", "ms", Lower),
    m("surrogate.sobol_self_ms", "ms", Lower),
    m("surrogate.mlp_fit_ms", "ms", Lower),
    m("atlas.points", "count", Lower),
    m("spice.solves", "count", Lower),
    m("spice.newton_iters", "count", Lower),
    m("spice.iters_per_solve", "count", Lower),
    m("spice.solve_ms", "ms", Lower),
    m("spice.warm_share", "fraction", Higher),
    m("spice.failures", "count", Lower),
    m("spice.ramp_fallbacks", "count", Lower),
    m("spice.factorizations", "count", Lower),
    m("spice.refactorizations", "count", Higher),
    m("spice.refactor_share", "fraction", Higher),
    m("spice.pattern_hits", "count", Higher),
    m("spice.pattern_misses", "count", Lower),
    m("autodiff.tape_forward_ms", "ms", Lower),
    m("autodiff.tape_backward_ms", "ms", Lower),
    m("autodiff.optimizer_step_ms", "ms", Lower),
    m("core.measure_ms", "ms", Lower),
    m("core.validate_ms", "ms", Lower),
    m("core.export_ms", "ms", Lower),
    m("core.predict_ms", "ms", Lower),
    m("core.simulate_ms", "ms", Lower),
    m("core.monte_carlo_ms", "ms", Lower),
    m("core.spice_agreement", "fraction", Higher),
    m("train.reference_ms", "ms", Lower),
    m("train.auglag_ms", "ms", Lower),
    m("train.finetune_ms", "ms", Lower),
    m("train.epochs", "count", Lower),
    m("train.outer_iters", "count", Lower),
    m("train.rescues", "count", Lower),
    m("train.power_ratio", "fraction", Lower),
    m("parallel.calls", "count", Lower),
    m("parallel.items", "count", Lower),
    m("parallel.utilization", "fraction", Higher),
    m("parallel.idle_ms", "ms", Lower),
    m("datasets.prepare_ms", "ms", Lower),
    m("telemetry.trace_overhead", "ratio", Lower),
    m("telemetry.spans", "count", Lower),
];

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count; 0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one benchmark invocation: the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted, by the workload's op definition.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of the first pass's outputs.
    pub digest: u64,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Renders the result line. Every metric of `specs` is written with
    /// its unit; a missing one is written as 0.
    pub fn to_json(&self, specs: &[MetricSpec]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, spec) in specs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.metrics.get(spec.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            out.push_str(&format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            ));
        }
        out.push_str("}}");
        out
    }

    /// Share of attempted operations that failed.
    pub fn failure_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_and_units_are_unique_and_valid() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(is_valid_name(s.name), "{}", s.name);
            assert!(is_valid_unit(s.unit), "{}", s.unit);
            assert!(
                all[..i].iter().all(|o| o.name != s.name),
                "{} twice",
                s.name
            );
        }
        assert!(!is_valid_name("-lead"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_unit("way-too-long-unit-name"));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 1.25);
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            digest: 0,
            metrics,
        }
        .to_json(&END_TO_END);
        let json = pnc_telemetry::json::parse(&line).expect("valid JSON");
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            m.get("pass_s")
                .and_then(|v| v.get("unit"))
                .and_then(|v| v.as_str()),
            Some("s")
        );
    }
}
