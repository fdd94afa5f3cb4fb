//! `lsds-bench` — experiment harnesses regenerating every exhibit.
//!
//! One binary per experiment (see DESIGN.md §3 and EXPERIMENTS.md):
//!
//! | binary | experiment |
//! |---|---|
//! | `table1` | E1 — the paper's Table 1 |
//! | `exp_queues` | E2 — event-list structures |
//! | `exp_advance` | E3 — event- vs time-driven advance |
//! | `exp_parallel` | E4 — centralized vs distributed execution |
//! | `exp_simgrid` | E5 — SimGrid analytic validation |
//! | `exp_lhc` | E6 — MONARC T0/T1 replication study |
//! | `exp_replication` | E7 — OptorSim pull strategies |
//! | `exp_pushpull` | E8 — push vs pull replication |
//! | `exp_economy` | E9 — GridSim deadline/budget economy |
//! | `exp_models` | E10 — central vs tier organization |
//! | `exp_queueing` | E11 — queueing-theory validation |
//! | `exp_mapping` | E12 — job→context mapping schemes |
//! | `exp_granularity` | E13 — packet- vs flow-level networks |
//!
//! The binaries print the paper's tables; the wall-clock columns some of
//! them carry are exhibits, not performance claims. How fast the
//! simulator is, and whether a change made it slower, is answered only by
//! the `benchmark/` package at the repository root (metric names in
//! `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the exhibits' wall-clock columns time the simulator from outside; no simulated state reads the clock"
)]

pub mod workloads;

pub use workloads::*;
