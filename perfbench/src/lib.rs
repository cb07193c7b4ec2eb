//! End-to-end and per-layer benchmark of the pNC pipeline:
//! characterization, constrained training and SPICE certification.
//!
//! The binary is run as
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! and prints one JSON result line last; see `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and the layer map.

pub mod certify;
pub mod characterize;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod train;
