//! # pnc-train
//!
//! Power-constrained training of printed neuromorphic circuits — the
//! paper's core contribution (Sec. III-C, IV).
//!
//! The crate implements:
//!
//! * [`trainer`] — the shared training loop: full-batch Adam at an
//!   initial learning rate of 0.1, plateau-halving after 100 epochs
//!   without validation improvement, best-feasible model tracking.
//! * [`auglag`] — the **augmented Lagrangian** method of Eq. (1)/(3)/(4):
//!   a sequence of unconstrained minimizations of
//!   `ℒ + (1/2μ)·(max(0, λ' + μ·c)² − λ'²)` with multiplier updates
//!   `λ' ← max(0, λ' + μ·c)`, warm-started between outer iterations.
//! * [`penalty`] — the penalty-based baseline (Zhao et al., ICCAD'23):
//!   `ℒ + α · P/P_ref`, swept over `α` and seeds to trace a Pareto
//!   front the expensive way.
//! * [`finetune`] — the paper's mask-based fine-tuning phase: prune
//!   inactive components (`m^C`, `m^N`), retrain with cross-entropy
//!   only, and stop if the power constraint is violated.
//! * [`pareto`] — non-dominated front extraction and
//!   accuracy-per-power utilities for the headline comparisons.
//! * [`tune`] — validation-based selection of `μ` (the paper uses
//!   RayTune; we use a seeded search over a log-uniform grid).
//! * [`experiment`] — end-to-end drivers that produce the rows of
//!   Table I and the series of Figs. 4 and 5.
//! * [`multi`] — the paper's future-work extension: several
//!   simultaneous constraints (power + device count), each with its own
//!   multiplier, run through the same outer loop as [`auglag`].
//! * [`observer`] — non-global instrumentation: a [`TrainObserver`]
//!   trait threaded through the trainers, with a telemetry bridge that
//!   turns epochs, outer iterations and rescue phases into structured
//!   events.
//! * [`error`] — typed training failures: numerical collapse
//!   ([`TrainError::NonFinite`]) is a first-class outcome, not a
//!   silently-propagated NaN.
//! * [`watchdog`] — a [`HealthWatchdog`] observer decorator that
//!   diagnoses numerically sick runs (NaN/Inf, gradient explosions,
//!   multiplier blow-ups, solver-divergence streaks, constraint
//!   stalls) and renders post-mortems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auglag;
pub mod error;
pub mod experiment;
pub mod fidelity;
pub mod finetune;
pub mod multi;
pub mod observer;
pub mod pareto;
pub mod penalty;
pub mod trainer;
pub mod tune;
pub mod watchdog;

pub use auglag::{train_auglag_observed, AugLagConfig, AugLagReport};
pub use error::{NonFiniteKind, TrainError};
pub use experiment::{ExperimentFidelity, RunResult};
pub use fidelity::{fidelity_sample, FidelityConfig, FidelityMonitor, FidelitySample};
pub use observer::{
    NoopObserver, RecordingObserver, RescueEvent, TelemetryObserver, TrainObserver,
};
pub use pareto::{pareto_front, ParetoPoint};
pub use penalty::{train_penalty_observed, PenaltyConfig};
pub use trainer::{
    fit_instrumented, DataRefs, EpochMeasure, EpochRecord, FitContext, FitReport, Iterate,
    TrainConfig,
};
pub use watchdog::{Diagnosis, HealthWatchdog, WatchdogConfig};
