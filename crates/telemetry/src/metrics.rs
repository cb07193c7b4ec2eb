//! Aggregation primitives: thread-safe counters and gauges for hot
//! paths, plus the summary and error types of the streamed histogram
//! ([`crate::StreamHistogram`]) that holds latency / iteration-count
//! distributions.

use crate::event::{Event, Level};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// A last-write-wins gauge storing an `f64` (as bits, atomically).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicI64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// Creates a gauge holding 0.0.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits() as i64, Ordering::Relaxed);
    }

    /// Reads the gauge.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed) as u64)
    }
}

/// Why a percentile query could not be answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PercentileError {
    /// The histogram holds no samples — there is no distribution to
    /// query. (Earlier versions silently returned 0.0 here, which is
    /// indistinguishable from a real all-zero latency.)
    Empty,
    /// The requested quantile is outside `[0, 1]` (or non-finite);
    /// the payload is the offending value.
    InvalidQuantile(f64),
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "percentile of an empty histogram"),
            PercentileError::InvalidQuantile(q) => {
                write!(f, "quantile {q} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for PercentileError {}

/// Summary statistics of a [`crate::StreamHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// 50th percentile (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl HistogramSummary {
    /// Renders the summary as an event named `name` with one field per
    /// statistic, ready to hand to a sink.
    pub fn to_event(&self, name: &'static str, level: Level) -> Event {
        Event::new(name, level)
            .with_u64("count", self.count)
            .with_f64("min", self.min)
            .with_f64("max", self.max)
            .with_f64("mean", self.mean)
            .with_f64("p50", self.p50)
            .with_f64("p95", self.p95)
            .with_f64("p99", self.p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn summary_event_rendering() {
        let h = crate::StreamHistogram::with_ticks_per_unit(1.0);
        h.record(2.0);
        h.record(4.0);
        let e = h.summary().to_event("epoch_ms", Level::Info);
        assert_eq!(e.name, "epoch_ms");
        assert_eq!(e.get_u64("count"), Some(2));
        assert_eq!(e.get_f64("mean"), Some(3.0));
        assert_eq!(e.get_f64("p50"), Some(2.0));
    }
}
