//! Streaming metrics: lock-free log-bucketed mergeable histograms and
//! a process-wide metrics registry with Prometheus-text exposition.
//!
//! [`StreamHistogram`] serves the hot paths (per-solve timing, tape
//! forward/backward, epoch durations):
//!
//! * **Bounded memory**: values are quantized to integer ticks and
//!   counted in HDR-style log buckets — 64 linear buckets below 64
//!   ticks, then 64 sub-buckets per power of two, ~30 KB total,
//!   independent of how many samples are recorded.
//! * **Lock-free**: the record path is a handful of relaxed atomic
//!   adds; no mutex, no allocation.
//! * **Exact to the bucket**: p50/p95/p99 are exact up to the bucket
//!   width (≤ 1/64 ≈ 1.6 % relative); `count`, `min`, `max` and the
//!   tick-quantized mean are exact.
//! * **Deterministic merge**: bucket counts and the tick sum are
//!   integers, so accumulation is associative and commutative —
//!   merged summaries are bit-identical regardless of thread count or
//!   recording interleaving. This is what lets the `--threads 1` vs
//!   `--threads 4` determinism gate cover metrics too.
//!
//! [`MetricsRegistry`] names histograms/counters/gauges, snapshots
//! them in one pass, and renders the Prometheus text exposition format
//! (histograms as `summary` metrics) — the CLI drops this as
//! `metrics.prom` into each run directory.
//!
//! # Example
//!
//! ```
//! use pnc_telemetry::stream::StreamHistogram;
//!
//! // Unit resolution: integer-valued streams below 64 are exact.
//! let h = StreamHistogram::with_ticks_per_unit(1.0);
//! for v in [1.0, 2.0, 3.0] {
//!     h.record(v);
//! }
//! let s = h.summary();
//! assert_eq!(s.count, 3);
//! assert_eq!(s.p50, 2.0);
//!
//! let off = StreamHistogram::disabled();
//! off.record(5.0); // one branch, records nothing
//! assert_eq!(off.count(), 0);
//! ```

use crate::metrics::{Counter, Gauge, HistogramSummary, PercentileError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per octave, bounding
/// the relative quantization error at 1/64.
const SUB_BITS: u32 = 6;
/// Number of linear buckets (also sub-buckets per octave).
const BASE: u64 = 1 << SUB_BITS;
/// Total bucket count: the linear region plus 64 sub-buckets for each
/// of the 58 octaves a u64 tick can fall in above it.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * BASE as usize;
/// Default ticks per recorded unit. Values are conventionally
/// milliseconds, so one tick is a nanosecond; anything up to ~2.9
/// million hours fits in a u64 tick.
const DEFAULT_TICKS_PER_UNIT: f64 = 1e6;

/// Maps a tick value to its bucket index. The first [`BASE`] ticks map
/// linearly (exact); above that each power of two splits into
/// [`BASE`] equal sub-buckets.
fn bucket_index(tick: u64) -> usize {
    if tick < BASE {
        return tick as usize;
    }
    let msb = 63 - tick.leading_zeros();
    let shift = msb - SUB_BITS;
    // (tick >> shift) is in [BASE, 2*BASE): the leading 1 plus the
    // next SUB_BITS bits.
    ((shift as usize + 1) * BASE as usize) + ((tick >> shift) as usize - BASE as usize)
}

/// The smallest tick value mapping to bucket `idx` — the canonical
/// representative used for percentiles, making every derived statistic
/// a pure function of the integer bucket counts.
fn bucket_floor(idx: usize) -> u64 {
    if idx < BASE as usize {
        return idx as u64;
    }
    let shift = (idx / BASE as usize - 1) as u32;
    let sub = (idx % BASE as usize) as u64;
    (BASE + sub) << shift
}

#[derive(Debug)]
struct HistCore {
    /// Quantization scale: recorded value × this = integer ticks.
    ticks_per_unit: f64,
    count: AtomicU64,
    /// Sum of quantized ticks. Integer so that accumulation is exactly
    /// associative; wraps only after ~1.8e19 summed ticks.
    sum_ticks: AtomicU64,
    /// Smallest recorded tick (`u64::MAX` while empty).
    min_ticks: AtomicU64,
    /// Largest recorded tick.
    max_ticks: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// A cheap, cloneable handle to a lock-free log-bucketed histogram.
/// Clones share the underlying buckets. [`StreamHistogram::disabled`]
/// makes every record a single branch that touches nothing.
#[derive(Clone, Default)]
pub struct StreamHistogram {
    core: Option<Arc<HistCore>>,
}

impl std::fmt::Debug for StreamHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHistogram")
            .field("enabled", &self.is_enabled())
            .field("count", &self.count())
            .finish()
    }
}

impl StreamHistogram {
    /// An enabled histogram at the default resolution (10⁻⁶ of a
    /// unit per tick — nanoseconds when recording milliseconds): all
    /// buckets allocated up front, so the record path never allocates.
    pub fn new() -> Self {
        Self::with_ticks_per_unit(DEFAULT_TICKS_PER_UNIT)
    }

    /// An enabled histogram with an explicit quantization scale.
    /// Integer-valued streams (iteration counts) want
    /// `ticks_per_unit = 1.0`: every value below 64 then lands in the
    /// exact linear region. Non-finite or non-positive scales fall
    /// back to the default.
    pub fn with_ticks_per_unit(ticks_per_unit: f64) -> Self {
        let scale = if ticks_per_unit.is_finite() && ticks_per_unit > 0.0 {
            ticks_per_unit
        } else {
            DEFAULT_TICKS_PER_UNIT
        };
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        StreamHistogram {
            core: Some(Arc::new(HistCore {
                ticks_per_unit: scale,
                count: AtomicU64::new(0),
                sum_ticks: AtomicU64::new(0),
                min_ticks: AtomicU64::new(u64::MAX),
                max_ticks: AtomicU64::new(0),
                buckets: buckets.into_boxed_slice(),
            })),
        }
    }

    /// A handle that records nothing; every operation is inert.
    pub fn disabled() -> Self {
        StreamHistogram { core: None }
    }

    /// Whether this handle records samples.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one sample. Non-finite and negative values are dropped
    /// (the streams this serves — durations, iteration counts — are
    /// non-negative by construction). Lock-free and allocation-free.
    pub fn record(&self, v: f64) {
        let Some(core) = &self.core else {
            return;
        };
        if !v.is_finite() || v < 0.0 {
            return;
        }
        // f64→u64 `as` saturates, so oversized values land in the top
        // bucket instead of wrapping.
        let tick = (v * core.ticks_per_unit).round() as u64;
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_ticks.fetch_add(tick, Ordering::Relaxed);
        core.min_ticks.fetch_min(tick, Ordering::Relaxed);
        core.max_ticks.fetch_max(tick, Ordering::Relaxed);
        core.buckets[bucket_index(tick)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a timer that records its elapsed milliseconds here when
    /// dropped. Disabled handles return an inert timer without reading
    /// the clock.
    pub fn start_sample(&self) -> SampleTimer {
        SampleTimer {
            state: self.core.as_ref().map(|_| (self.clone(), Instant::now())),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Adds every sample of `other` into `self`, bucket by bucket.
    /// Integer addition makes this associative and commutative: any
    /// merge tree over any recording interleaving yields bit-identical
    /// summaries. Inert if either side is disabled or the two
    /// histograms quantize at different resolutions (their tick spaces
    /// are incompatible).
    pub fn merge_from(&self, other: &StreamHistogram) {
        let (Some(a), Some(b)) = (&self.core, &other.core) else {
            return;
        };
        if a.ticks_per_unit != b.ticks_per_unit {
            return;
        }
        a.count
            .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum_ticks
            .fetch_add(b.sum_ticks.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min_ticks
            .fetch_min(b.min_ticks.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max_ticks
            .fetch_max(b.max_ticks.load(Ordering::Relaxed), Ordering::Relaxed);
        for (dst, src) in a.buckets.iter().zip(b.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Resets all counts; the histogram is ready for a fresh window.
    /// (Not atomic with respect to concurrent recorders: clear while
    /// quiescent, exactly like taking a summary window.)
    pub fn clear(&self) {
        let Some(core) = &self.core else {
            return;
        };
        core.count.store(0, Ordering::Relaxed);
        core.sum_ticks.store(0, Ordering::Relaxed);
        core.min_ticks.store(u64::MAX, Ordering::Relaxed);
        core.max_ticks.store(0, Ordering::Relaxed);
        for b in core.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Bucket-exact nearest-rank percentile (`q` in `[0, 1]`): the
    /// floor value of the bucket holding the ⌈q·n⌉-th sample.
    ///
    /// # Errors
    ///
    /// [`PercentileError::Empty`] when no samples have been recorded
    /// (or the handle is disabled); [`PercentileError::InvalidQuantile`]
    /// when `q` is outside `[0, 1]` or non-finite.
    pub fn percentile(&self, q: f64) -> Result<f64, PercentileError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(PercentileError::InvalidQuantile(q));
        }
        let Some(core) = &self.core else {
            return Err(PercentileError::Empty);
        };
        let n = core.count.load(Ordering::Relaxed);
        if n == 0 {
            return Err(PercentileError::Empty);
        }
        Ok(percentile_ticks(core, n, q) as f64 / core.ticks_per_unit)
    }

    /// The full summary. All fields derive from integer accumulators,
    /// so two histograms holding the same multiset of samples — in any
    /// recording or merge order — summarize bit-identically. Empty
    /// histograms summarize as all zeros.
    pub fn summary(&self) -> HistogramSummary {
        let zero = HistogramSummary {
            count: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        };
        let Some(core) = &self.core else {
            return zero;
        };
        let n = core.count.load(Ordering::Relaxed);
        if n == 0 {
            return zero;
        }
        let sum = core.sum_ticks.load(Ordering::Relaxed);
        let scale = core.ticks_per_unit;
        HistogramSummary {
            count: n,
            min: core.min_ticks.load(Ordering::Relaxed) as f64 / scale,
            max: core.max_ticks.load(Ordering::Relaxed) as f64 / scale,
            mean: (sum as f64 / n as f64) / scale,
            p50: percentile_ticks(core, n, 0.50) as f64 / scale,
            p95: percentile_ticks(core, n, 0.95) as f64 / scale,
            p99: percentile_ticks(core, n, 0.99) as f64 / scale,
        }
    }
}

/// Nearest-rank bucket walk: returns the floor tick of the bucket
/// containing the ⌈q·n⌉-th sample (1-based, clamped to [1, n]).
fn percentile_ticks(core: &HistCore, n: u64, q: f64) -> u64 {
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (idx, b) in core.buckets.iter().enumerate() {
        seen += b.load(Ordering::Relaxed);
        if seen >= rank {
            return bucket_floor(idx);
        }
    }
    // Racy concurrent record between reading count and the buckets can
    // leave `seen` short; fall back to the recorded max.
    core.max_ticks.load(Ordering::Relaxed)
}

/// RAII timer from [`StreamHistogram::start_sample`]: records elapsed
/// milliseconds on drop.
#[derive(Debug)]
pub struct SampleTimer {
    state: Option<(StreamHistogram, Instant)>,
}

impl SampleTimer {
    /// Stops the timer and records now (equivalent to dropping).
    pub fn finish(self) {}
}

impl Drop for SampleTimer {
    fn drop(&mut self) {
        if let Some((hist, started)) = self.state.take() {
            hist.record(started.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// One named metric captured by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins value.
    Gauge(f64),
    /// A streamed histogram summary.
    Histogram(HistogramSummary),
}

/// A named registry of streaming metrics. Handles returned by
/// [`MetricsRegistry::counter`] / [`gauge`](MetricsRegistry::gauge) /
/// [`histogram`](MetricsRegistry::histogram) are shared: asking for
/// the same name twice returns the same underlying metric, so distant
/// subsystems accumulate into one place. Registration takes a lock;
/// recording through the returned handles is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, StreamHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.lock()
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.lock()
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The streamed histogram registered under `name`, created on
    /// first use. The returned handle shares buckets with every other
    /// handle for the same name.
    pub fn histogram(&self, name: &str) -> StreamHistogram {
        self.histogram_scaled(name, DEFAULT_TICKS_PER_UNIT)
    }

    /// Like [`MetricsRegistry::histogram`] but with an explicit tick
    /// resolution used if the histogram does not exist yet (an
    /// existing histogram keeps its original resolution).
    pub fn histogram_scaled(&self, name: &str, ticks_per_unit: f64) -> StreamHistogram {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| StreamHistogram::with_ticks_per_unit(ticks_per_unit))
            .clone()
    }

    /// One consistent pass over every registered metric, name-sorted.
    /// Empty histograms are included (count 0) so dashboards see the
    /// full schema.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let inner = self.lock();
        let mut out: Vec<(String, MetricValue)> = Vec::new();
        for (name, c) in &inner.counters {
            out.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in &inner.gauges {
            out.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        for (name, h) in &inner.histograms {
            out.push((name.clone(), MetricValue::Histogram(h.summary())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Counters expose as `counter`, gauges as `gauge`, histograms as
    /// `summary` (quantile series plus `_sum`/`_count`/`_min`/`_max`).
    /// Metric names are prefixed `pnc_` and sanitized to the
    /// `[a-zA-Z0-9_]` charset; output order is name-sorted, so the
    /// rendering is byte-deterministic for a given set of values.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, value) in self.snapshot() {
            let metric = sanitize_metric_name(&name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {metric} counter\n{metric} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {metric} gauge\n{metric} "));
                    push_prom_f64(&mut out, v);
                    out.push('\n');
                }
                MetricValue::Histogram(s) => {
                    out.push_str(&format!("# TYPE {metric} summary\n"));
                    for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                        out.push_str(&format!("{metric}{{quantile=\"{q}\"}} "));
                        push_prom_f64(&mut out, v);
                        out.push('\n');
                    }
                    out.push_str(&format!("{metric}_sum "));
                    push_prom_f64(&mut out, s.mean * s.count as f64);
                    out.push_str(&format!("\n{metric}_count {}\n", s.count));
                    for (suffix, v) in [("min", s.min), ("max", s.max)] {
                        out.push_str(&format!(
                            "# TYPE {metric}_{suffix} gauge\n{metric}_{suffix} "
                        ));
                        push_prom_f64(&mut out, v);
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

/// Prefixes `pnc_` and maps characters outside `[a-zA-Z0-9_]` to `_`.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("pnc_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Prometheus sample values: finite floats print via Rust's shortest
/// round-trip formatting; non-finite map to the spec's spellings.
fn push_prom_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        out.push_str(&format!("{v}"));
    }
}

/// Validates Prometheus text exposition output: every non-blank line
/// is either a `# TYPE`/`# HELP` comment or a `name[{labels}] value`
/// sample with a well-formed metric name and a parseable value.
/// Returns the number of samples.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err(format!("line {}: unknown comment form", lineno + 1));
            }
            continue;
        }
        // Split the sample into "name[{labels}]" and "value".
        let (name_part, value_part) = match line.find('}') {
            Some(close) => {
                let (head, tail) = line.split_at(close + 1);
                (head, tail.trim())
            }
            None => line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: sample missing value", lineno + 1))?,
        };
        let bare_name = name_part.split('{').next().unwrap_or("");
        if bare_name.is_empty()
            || !bare_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || bare_name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            return Err(format!(
                "line {}: bad metric name '{bare_name}'",
                lineno + 1
            ));
        }
        let value = value_part.trim();
        let parses = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !parses {
            return Err(format!("line {}: bad sample value '{value}'", lineno + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".to_string());
    }
    Ok(samples)
}

/// A cheap, cloneable handle to an optional [`MetricsRegistry`] —
/// the streaming-metrics analogue of [`crate::Telemetry`]. Disabled
/// handles hand out [`StreamHistogram::disabled`], so instrumented
/// paths stay unconditionally wired at one branch per record.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    registry: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsHandle {
    /// A handle that hands out inert metrics.
    pub fn disabled() -> Self {
        MetricsHandle { registry: None }
    }

    /// A handle backed by a shared registry.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        MetricsHandle {
            registry: Some(registry),
        }
    }

    /// Whether a registry is attached.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// The named histogram from the registry, or an inert handle when
    /// disabled.
    pub fn histogram(&self, name: &str) -> StreamHistogram {
        self.registry
            .as_ref()
            .map_or_else(StreamHistogram::disabled, |r| r.histogram(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_continuous() {
        // The linear region is exact and the first log bucket follows
        // it without a gap.
        for tick in 0..BASE {
            assert_eq!(bucket_index(tick), tick as usize);
            assert_eq!(bucket_floor(tick as usize), tick);
        }
        let mut last = 0usize;
        for tick in [
            64u64,
            65,
            127,
            128,
            1000,
            4096,
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(tick);
            assert!(idx >= last, "index not monotonic at tick {tick}");
            assert!(idx < NUM_BUCKETS, "index {idx} out of range");
            let floor = bucket_floor(idx);
            assert!(floor <= tick, "floor {floor} above tick {tick}");
            // The floor maps back to the same bucket.
            assert_eq!(bucket_index(floor), idx);
            last = idx;
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Every tick's bucket floor is within 1/64 of the tick.
        for tick in [100u64, 1_000, 12_345, 1 << 30, (1 << 40) + 999] {
            let floor = bucket_floor(bucket_index(tick));
            let rel = (tick - floor) as f64 / tick as f64;
            assert!(rel <= 1.0 / 64.0 + 1e-12, "tick {tick}: rel err {rel}");
        }
    }

    #[test]
    fn small_integer_samples_are_exact_at_unit_resolution() {
        // ticks_per_unit = 1: integers below 64 live in the linear
        // region, so every statistic is exact.
        let h = StreamHistogram::with_ticks_per_unit(1.0);
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 3.0);
        assert_eq!(h.percentile(0.5), Ok(2.0));
    }

    #[test]
    fn default_resolution_is_bucket_exact() {
        // At the default ns-per-ms resolution, min/max/mean are exact
        // and percentiles are exact to the bucket floor (≤ 1/64 low).
        let h = StreamHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.min, s.max, s.mean), (1.0, 4.0, 2.5));
        assert_eq!(s.p50, 1.998848); // floor of the bucket holding 2e6 ticks
        assert_eq!(s.p99, 3.997696);
        assert!(s.p50 <= 2.0 && s.p50 >= 2.0 * (1.0 - 1.0 / 64.0));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = StreamHistogram::disabled();
        assert!(!h.is_enabled());
        h.record(1.0);
        h.clear();
        h.merge_from(&StreamHistogram::new());
        let t = h.start_sample();
        t.finish();
        assert_eq!(h.count(), 0);
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.percentile(0.5), Err(PercentileError::Empty));
    }

    #[test]
    fn invalid_samples_are_dropped() {
        let h = StreamHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        h.record(0.5);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn percentile_errors_are_typed() {
        let h = StreamHistogram::with_ticks_per_unit(1.0);
        assert_eq!(h.percentile(0.5), Err(PercentileError::Empty));
        h.record(2.0);
        assert_eq!(
            h.percentile(1.5),
            Err(PercentileError::InvalidQuantile(1.5))
        );
        assert_eq!(
            h.percentile(-0.1),
            Err(PercentileError::InvalidQuantile(-0.1))
        );
        assert!(h.percentile(f64::NAN).is_err());
        assert_eq!(h.percentile(1.0), Ok(2.0));
    }

    #[test]
    fn mismatched_resolutions_refuse_to_merge() {
        let a = StreamHistogram::with_ticks_per_unit(1.0);
        let b = StreamHistogram::new();
        b.record(1.0);
        a.merge_from(&b);
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn merge_matches_single_recorder_bitwise() {
        let all = StreamHistogram::new();
        let a = StreamHistogram::new();
        let b = StreamHistogram::new();
        for i in 0..1000 {
            let v = (i as f64) * 0.37 + 0.01;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let merged = StreamHistogram::new();
        merged.merge_from(&b); // reversed order on purpose
        merged.merge_from(&a);
        let (s1, s2) = (all.summary(), merged.summary());
        assert_eq!(s1, s2, "merge must be bit-identical to direct recording");
        assert_eq!(s1.p50.to_bits(), s2.p50.to_bits());
        assert_eq!(s1.mean.to_bits(), s2.mean.to_bits());
    }

    #[test]
    fn clear_resets_to_empty() {
        let h = StreamHistogram::new();
        h.record(5.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.summary().count, 0);
        h.record(7.0);
        assert_eq!(h.summary().max, 7.0);
    }

    #[test]
    fn clones_share_buckets() {
        let h = StreamHistogram::new();
        let h2 = h.clone();
        h2.record(3.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn sample_timer_records_a_duration() {
        let h = StreamHistogram::new();
        {
            let _t = h.start_sample();
        }
        h.start_sample().finish();
        assert_eq!(h.count(), 2);
        assert!(h.summary().max >= 0.0);
    }

    #[test]
    fn large_values_land_in_bounded_buckets() {
        let h = StreamHistogram::new();
        h.record(1e300); // saturates to the top tick
        assert_eq!(h.count(), 1);
        let s = h.summary();
        assert!(s.p99 > 0.0 && s.p99.is_finite());
    }

    #[test]
    fn registry_shares_metrics_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("solves").add(2);
        reg.counter("solves").incr();
        assert_eq!(reg.counter("solves").get(), 3);
        reg.gauge("power_watts").set(0.25);
        reg.histogram("epoch_time_ms").record(4.0);
        reg.histogram("epoch_time_ms").record(6.0);
        assert_eq!(reg.histogram("epoch_time_ms").count(), 2);

        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["epoch_time_ms", "power_watts", "solves"]);
        assert_eq!(snap[2].1, MetricValue::Counter(3));
    }

    #[test]
    fn prometheus_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.counter("spice_solves").add(42);
        reg.gauge("power_watts").set(0.25);
        let h = reg.histogram("epoch_time_ms");
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let expected = "\
# TYPE pnc_epoch_time_ms summary
pnc_epoch_time_ms{quantile=\"0.5\"} 1.998848
pnc_epoch_time_ms{quantile=\"0.95\"} 3.997696
pnc_epoch_time_ms{quantile=\"0.99\"} 3.997696
pnc_epoch_time_ms_sum 10
pnc_epoch_time_ms_count 4
# TYPE pnc_epoch_time_ms_min gauge
pnc_epoch_time_ms_min 1
# TYPE pnc_epoch_time_ms_max gauge
pnc_epoch_time_ms_max 4
# TYPE pnc_power_watts gauge
pnc_power_watts 0.25
# TYPE pnc_spice_solves counter
pnc_spice_solves 42
";
        assert_eq!(reg.render_prometheus(), expected);
        assert_eq!(validate_prometheus(expected), Ok(9));
    }

    #[test]
    fn prometheus_validation_rejects_malformed_output() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("# FOO bar\n").is_err());
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("name notanumber\n").is_err());
        assert!(validate_prometheus("lonely_name\n").is_err());
        assert_eq!(validate_prometheus("x NaN\ny{a=\"b\"} +Inf\n"), Ok(2));
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(sanitize_metric_name("phase:dc solve"), "pnc_phase_dc_solve");
    }

    #[test]
    fn metrics_handle_threads_through() {
        let off = MetricsHandle::disabled();
        assert!(!off.is_enabled());
        assert!(!off.histogram("x").is_enabled());

        let reg = Arc::new(MetricsRegistry::new());
        let on = MetricsHandle::new(Arc::clone(&reg));
        on.histogram("x").record(1.0);
        assert_eq!(reg.histogram("x").count(), 1);
    }
}
