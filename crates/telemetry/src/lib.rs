//! # pnc-telemetry
//!
//! Structured instrumentation for the pNC training/simulation stack —
//! std-only, no external dependencies.
//!
//! The crate is organized around four ideas:
//!
//! * **Events** ([`Event`]): named, leveled records with typed
//!   key/value fields — one epoch, one augmented-Lagrangian outer
//!   iteration, one DC solve.
//! * **Sinks** ([`Sink`]): pluggable event consumers.
//!   [`ConsoleSink`] renders level-filtered human-readable lines,
//!   [`JsonlSink`] writes one self-describing JSON object per line for
//!   machine analysis (`jq`-able), [`MemorySink`] buffers events for
//!   tests, and [`MultiSink`] fans out to several sinks at once.
//! * **A cheap handle** ([`Telemetry`]): the object that gets threaded
//!   through the stack. A disabled handle is a `None` — emitting
//!   through it costs one branch and never constructs the event, so
//!   instrumented hot paths run at full speed when nobody listens.
//! * **Metrics** ([`Counter`], [`Gauge`], [`StreamHistogram`], [`Span`]):
//!   aggregation primitives for quantities too hot to emit one event
//!   each — Newton iterations, epoch durations — with percentile
//!   summaries (p50/p95/p99) that can be flushed as a single event.
//! * **Profiling** ([`Profiler`], [`ScopedSpan`]): hierarchical
//!   wall-clock span trees with per-name call/total/self aggregation
//!   ([`ProfileReport`]) and Chrome trace-event export ([`trace`]),
//!   attachable to a [`Telemetry`] handle so one opt-in at the top of
//!   a run profiles the whole stack.
//! * **Run registry** ([`registry`]): crash-safe per-run directories
//!   (`manifest.json` + `metrics.jsonl` + `summary.json`) and
//!   field-by-field cross-run diffs with a noise floor
//!   ([`diff_runs`]).
//!
//! # Example
//!
//! ```
//! use pnc_telemetry::{Event, Level, MemorySink, Telemetry};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tel = Telemetry::with_sink(sink.clone());
//! tel.emit(|| {
//!     Event::new("epoch", Level::Info)
//!         .with_u64("epoch", 1)
//!         .with_f64("loss", 0.73)
//! });
//! assert_eq!(sink.events().len(), 1);
//!
//! let off = Telemetry::disabled();
//! off.emit(|| unreachable!("disabled handles never build events"));
//! ```

// `deny` rather than `forbid`: the allocation-accounting module needs
// exactly one scoped `#[allow(unsafe_code)]` for its `GlobalAlloc`
// impl (the trait is unsafe by signature); everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod event;
pub mod json;
mod metrics;
pub mod profile;
pub mod registry;
mod sink;
pub mod stream;
pub mod trace;
pub mod trend;

pub use alloc::{AllocSnapshot, CountingAllocator};
pub use event::{Event, Level, Value};
pub use metrics::{Counter, Gauge, HistogramSummary, PercentileError};
pub use profile::{PhaseStat, ProfileReport, Profiler, ScopedSpan, SpanRecord};
pub use registry::{
    diff_runs, ExitStatus, RunDiff, RunHandle, RunManifest, RunRecord, RunRegistry, RunSummary,
};
pub use sink::{ConsoleSink, JsonlSink, MemorySink, MultiSink, NullSink, Sink};
pub use stream::{MetricsHandle, MetricsRegistry, StreamHistogram};
pub use trend::{TrendConfig, TrendReport, TrendSeries};

use std::sync::Arc;
use std::time::Instant;

/// A cheap, cloneable handle to an optional sink. This is the type to
/// thread through APIs: `Telemetry::disabled()` makes every emit a
/// single branch, so instrumentation can stay unconditionally wired.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn Sink>>,
    profiler: Profiler,
    metrics: MetricsHandle,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle that drops everything without constructing it.
    pub fn disabled() -> Self {
        Telemetry {
            sink: None,
            profiler: Profiler::disabled(),
            metrics: MetricsHandle::disabled(),
        }
    }

    /// A handle that forwards every event to `sink`.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Telemetry {
            sink: Some(sink),
            profiler: Profiler::disabled(),
            metrics: MetricsHandle::disabled(),
        }
    }

    /// Attaches a profiling session to this handle. Code that already
    /// receives a `Telemetry` (the SPICE solver, surrogate fits) opens
    /// scopes through [`Telemetry::profiler`], so one attachment at
    /// the top of a run profiles the whole stack.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The attached profiler (disabled by default: scopes are inert).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Attaches a streaming-metrics registry to this handle; code that
    /// already receives a `Telemetry` reaches named histograms through
    /// [`Telemetry::metrics`], so one attachment at the top of a run
    /// collects metrics from the whole stack.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = MetricsHandle::new(registry);
        self
    }

    /// The attached metrics handle (disabled by default: its
    /// histograms are inert).
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `build` — the closure runs only when a
    /// sink is attached, so field formatting is free when disabled.
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&build());
        }
    }

    /// Emits an already-built event.
    pub fn emit_event(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Starts a wall-clock span; [`Span::finish`] (or drop) emits a
    /// `"span"` event with the duration in milliseconds.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            tel: self.clone(),
            name,
            started: Instant::now(),
            finished: false,
        }
    }

    /// Asks the attached sink (if any) to flush buffered output.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

/// A plain monotonic wall-clock timer. This is the *only* sanctioned
/// way to read elapsed time outside `pnc-telemetry` (lint rule L007
/// bans raw `std::time::Instant::now()` elsewhere), so every timing
/// measurement flows through a type the observability layer owns and
/// can account for.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start (or the last [`Stopwatch::lap_ms`]).
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Elapsed milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed whole nanoseconds, saturating.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Returns the elapsed milliseconds and restarts the timer — the
    /// between-ticks pattern (per-epoch durations).
    pub fn lap_ms(&mut self) -> f64 {
        let now = Instant::now();
        let ms = now.duration_since(self.started).as_secs_f64() * 1e3;
        self.started = now;
        ms
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// A wall-clock timer that reports its duration as an event. Created
/// by [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    tel: Telemetry,
    name: &'static str,
    started: Instant,
    finished: bool,
}

impl Span {
    /// Elapsed time so far, in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Ends the span now and emits the timing event.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let ms = self.elapsed_ms();
        let name = self.name;
        self.tel.emit(|| {
            Event::new("span", Level::Debug)
                .with_str("span", name)
                .with_f64("duration_ms", ms)
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_builds_events() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.emit(|| panic!("must not be called"));
    }

    #[test]
    fn enabled_handle_forwards_events() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        assert!(tel.enabled());
        tel.emit(|| Event::new("x", Level::Info).with_u64("k", 3));
        tel.emit_event(Event::new("y", Level::Warn));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "x");
        assert_eq!(events[1].level, Level::Warn);
    }

    #[test]
    fn spans_emit_durations() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        {
            let _span = tel.span("work");
        }
        tel.span("explicit").finish();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        for e in &events {
            assert_eq!(e.name, "span");
            let ms = e.get_f64("duration_ms").expect("duration field");
            assert!(ms >= 0.0);
        }
        assert_eq!(events[0].get_str("span"), Some("work"));
        assert_eq!(events[1].get_str("span"), Some("explicit"));
    }

    #[test]
    fn profiler_attaches_to_telemetry() {
        let tel = Telemetry::disabled();
        assert!(!tel.profiler().is_enabled());
        let prof = Profiler::enabled();
        let tel = tel.with_profiler(prof.clone());
        {
            let _scope = tel.profiler().scope("attached");
        }
        assert_eq!(prof.span_count(), 1);
        assert_eq!(prof.spans()[0].name, "attached");
    }

    #[test]
    fn stopwatch_measures_and_laps() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_ms() >= 1.0);
        assert!(sw.elapsed_ns() >= 1_000_000);
        let lap = sw.lap_ms();
        assert!(lap >= 1.0);
        // After a lap, the clock restarted.
        assert!(sw.elapsed_ms() <= lap + 1000.0);
    }

    #[test]
    fn metrics_registry_attaches_to_telemetry() {
        let tel = Telemetry::disabled();
        assert!(!tel.metrics().is_enabled());
        assert!(!tel.metrics().histogram("x").is_enabled());
        let reg = Arc::new(MetricsRegistry::new());
        let tel = tel.with_metrics(Arc::clone(&reg));
        tel.metrics().histogram("x").record(1.0);
        assert_eq!(reg.histogram("x").count(), 1);
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let tel2 = tel.clone();
        tel2.emit(|| Event::new("from_clone", Level::Info));
        assert_eq!(sink.events().len(), 1);
    }
}
