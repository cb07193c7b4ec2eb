//! # pnc-linalg
//!
//! Dense linear algebra foundation for the printed-neuromorphic-circuit
//! (pNC) reproduction workspace.
//!
//! The crate provides exactly what the rest of the workspace needs and
//! nothing more:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the arithmetic,
//!   broadcasting and reduction operations required by the autodiff
//!   engine (`pnc-autodiff`).
//! * [`decomp`] — LU factorization with partial pivoting (used by the
//!   Newton–Raphson loop of the SPICE-level circuit simulator) and a
//!   QR-based least-squares solver (used when fitting closed-form
//!   activation-transfer approximations).
//! * [`cond`] — Hager/Higham 1-norm condition estimation reusing
//!   existing LU factors (the solver observatory's per-solve
//!   `cond1_estimate`).
//! * [`qmc`] — a Sobol low-discrepancy sequence generator used to sample
//!   activation-circuit design spaces exactly as the paper does
//!   ("We sample 10,000 circuit configurations using a Sobol sequence").
//! * [`stats`] — normalization and summary statistics for surrogate-model
//!   training data.
//! * [`rng`] — seeded random matrix/vector constructors (normal and
//!   uniform) so every experiment in the workspace is reproducible.
//!
//! # Example
//!
//! ```
//! use pnc_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cond;
pub mod decomp;
pub mod error;
mod kernel;
pub mod matrix;
pub mod qmc;
pub mod rng;
pub mod stats;

pub use error::LinalgError;
pub use matrix::{argmax, Matrix};
pub use qmc::SobolSequence;
