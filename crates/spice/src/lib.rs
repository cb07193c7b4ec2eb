//! # pnc-spice
//!
//! A compact, self-contained nonlinear DC circuit simulator — the
//! workspace's substitute for the printed process design kit (pPDK) and
//! the commercial SPICE runs the paper uses to characterize printed
//! activation circuits (Sec. III-A: "we run 10,000 SPICE simulations"
//! per activation function).
//!
//! The simulator implements:
//!
//! * **Modified nodal analysis (MNA)** over resistors, independent
//!   voltage sources, and inorganic N-type electrolyte-gated transistors
//!   (nEGTs) — the sub-1V device family the paper targets (Sec. II-A).
//! * An **EKV-style smooth compact model** for the nEGT ([`device`]):
//!   one C¹ expression covering sub-threshold, triode and saturation,
//!   chosen so Newton iterations converge from cold starts and power is
//!   smooth in the design variables `(W, L)` — the same property that
//!   motivates the paper's differentiable surrogate models.
//! * **Newton–Raphson** DC operating-point solving with step damping
//!   and supply ramping as a fallback ([`dc`]); large block-triangular
//!   circuits are solved block by block ([`block`]).
//! * **Element-wise power accounting** ([`power`]).
//! * Netlist builders for the paper's four printed activation circuits
//!   and the negation (inverter) circuit ([`af`]), each parameterized by
//!   the learnable design vector `q = [R, W, L]` from Fig. 3(c)–(f).
//!
//! # Example: a resistive divider
//!
//! ```
//! use pnc_spice::netlist::Circuit;
//! use pnc_spice::dc::solve_dc;
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let out = c.node("out");
//! c.vsource(vin, Circuit::GROUND, 1.0);
//! c.resistor(vin, out, 10_000.0);
//! c.resistor(out, Circuit::GROUND, 10_000.0);
//! let op = solve_dc(&c).unwrap();
//! assert!((op.voltage(out) - 0.5).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod af;
pub mod block;
pub mod dc;
pub mod device;
pub mod error;
pub mod mna;
pub mod netlist;
pub mod observe;
pub mod power;
pub mod stats;
pub mod transient;
pub mod variation;

pub use af::{AfDesign, AfKind};
pub use block::BlockPlan;
pub use dc::{solve_dc, solve_dc_captured, solve_dc_planned, solve_dc_with, OperatingPoint};
pub use device::EgtModel;
pub use error::SpiceError;
pub use netlist::{Circuit, NodeId};
pub use observe::SolveTrace;
pub use variation::VariationModel;
