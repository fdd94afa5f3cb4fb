//! `lsds` — Large Scale Distributed Systems Simulation.
//!
//! Umbrella crate re-exporting the full framework. See the workspace
//! README for the architecture overview and DESIGN.md for the mapping to
//! the reproduced paper (Dobre, Pop, Cristea — "New Trends in Large Scale
//! Distributed Systems Simulation", ICPP 2009).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use lsds_core as core;
pub use lsds_grid as grid;
pub use lsds_net as net;
pub use lsds_obs as obs;
pub use lsds_parallel as parallel;
pub use lsds_queueing as queueing;
pub use lsds_simulators as simulators;
pub use lsds_stats as stats;
pub use lsds_trace as trace;

#[cfg(test)]
mod lexer;
#[cfg(test)]
mod rules;
