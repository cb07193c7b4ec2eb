//! # pnc — Power-Constrained Printed Neuromorphic Hardware Training
//!
//! Facade crate of the reproduction workspace. Re-exports every
//! subsystem so applications (and the `examples/` binaries) can depend
//! on a single crate:
//!
//! * [`linalg`] — dense matrices, LU/QR, Sobol sequences.
//! * [`autodiff`] — reverse-mode automatic differentiation + Adam.
//! * [`spice`] — nonlinear DC circuit simulation (nEGT compact model).
//! * [`surrogate`] — MLP surrogate power models fit on simulated data.
//! * [`circuit`] — printed neuromorphic circuits: crossbars, learnable
//!   activation circuits, power estimation, device counting.
//! * [`datasets`] — the 13 benchmark dataset generators.
//! * [`train`] — augmented Lagrangian constrained training, the
//!   penalty-based baseline, pruning/fine-tuning, and Pareto tooling.
//! * [`telemetry`] — structured events, spans and metrics; every
//!   characterization and training step takes a `&Telemetry` handle
//!   (`Telemetry::disabled()` when nothing listens).
//!
//! See `README.md` for a walkthrough and `DESIGN.md` for the
//! paper-to-module map.

#![forbid(unsafe_code)]

pub use pnc_autodiff as autodiff;
pub use pnc_core as circuit;
pub use pnc_datasets as datasets;
pub use pnc_linalg as linalg;
pub use pnc_spice as spice;
pub use pnc_surrogate as surrogate;
pub use pnc_telemetry as telemetry;
pub use pnc_train as train;

/// Compiles the Rust examples in `README.md` as doctests, so the
/// README's API walkthrough cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
