//! `lsds-simulators` — the taxonomy and the six surveyed simulator models.
//!
//! Two halves:
//!
//! 1. [`taxonomy`] encodes every category of the paper's §3 as Rust types,
//!    and [`table1::table1`] regenerates the paper's **Table 1** ("Design
//!    comparison of surveyed Grid simulation projects") from the
//!    self-classifications of the six models.
//! 2. One module per surveyed simulator — [`bricks`], [`optorsim`],
//!    [`simgrid`], [`gridsim`], [`chicagosim`], [`monarc`] — each a
//!    faithful configuration of the `lsds-grid`/`lsds-net` substrates
//!    reproducing that design's published behavior: Bricks' central model,
//!    OptorSim's pull replication strategies, SimGrid's compile-time vs
//!    runtime scheduling, GridSim's deadline-and-budget economy,
//!    ChicagoSim's data-aware schedulers with push replication, and
//!    MONARC 2's tiered LHC production with a replication agent (the
//!    T0/T1 study of experiment E6).
//!
//! The paper compares *designs*, not binaries; implementing the designs on
//! one engine isolates exactly the axes Table 1 tabulates (see DESIGN.md).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// exact float equality in order-sensitive code must say why it is exact
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod bricks;
pub mod chicagosim;
pub mod gridsim;
pub mod monarc;
pub mod optorsim;
pub mod simgrid;
pub mod table1;
pub mod taxonomy;

pub use table1::table1;
pub use taxonomy::{Classification, Classified};
