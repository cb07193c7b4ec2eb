//! # pnc-surrogate
//!
//! Data-driven surrogate models of printed-circuit behaviour, built the
//! way the paper builds them (Sec. III-A):
//!
//! 1. sample activation-circuit design points `q = [R, W, L]` from the
//!    feasible space `ℚ^AF` with a **Sobol sequence**,
//! 2. simulate each with the SPICE-level solver (`pnc-spice`),
//! 3. normalize and fit an **MLP regressor** (the paper's "15-layer
//!    ANN") mapping `q → 𝒫^AF` — the mean power of the circuit.
//!
//! Two surrogate families are provided:
//!
//! * [`PowerSurrogate`] — the differentiable power model `𝒫^AF(q)` used
//!   inside the power-constrained training objective. It can be
//!   evaluated both on plain data ([`PowerSurrogate::predict`]) and on
//!   an autodiff tape ([`PowerSurrogate::predict_on_tape`]) so that
//!   gradients flow into the learnable design vector `q`.
//! * [`TransferModel`] — a physics-shaped transfer surrogate
//!   `V_out = o(q) + s(q) · h(g(q) · (V − c(q)))` with per-kind base
//!   nonlinearity `h` and coefficients linear in log-features of `q`,
//!   fitted to SPICE sweeps. This is what the printed neuron uses as its
//!   differentiable activation function.
//!
//! The crate also fits the standard-cell negation circuit
//! ([`fit_negation`]) and exposes its mean power ([`NegationModel`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod error;
pub mod mlp;
pub mod negation;
pub mod persist;
pub mod power_model;
pub mod sampling;
pub mod transfer;

pub use atlas::{AtlasPoint, AtlasRollup, SolverAtlas};
pub use error::SurrogateError;
pub use mlp::{Mlp, MlpConfig, TrainReport};
pub use negation::{fit_negation, NegationModel};
pub use power_model::{PowerSurrogate, PowerSurrogateConfig};
pub use sampling::{AfPowerDataset, AfTransferDataset};
pub use transfer::{fit_transfer, BaseShape, TransferModel};
