//! `lsds-parallel` — distributed simulation execution.
//!
//! The taxonomy (§3) classifies engines by *execution* into **centralized**
//! (one execution unit, regardless of available cores — `lsds-core`'s
//! engines) and **distributed** (multiple cooperating processors). The
//! paper traces distributed simulation to Misra's 1986 survey and notes
//! that "despite over two decades of research, the technology of
//! distributed simulations has not significantly impressed the general
//! simulation community" (Fujimoto 1993) — because "considerable efforts
//! and expertise are still required to develop efficient simulation
//! programs". The per-LP step is therefore written once, and not in this
//! crate: an LP runs on `lsds-core`'s delivery kernel, the one the
//! centralized engines use, plus a port that identifies every event by its
//! `(time, source LP, sequence)` key and routes sends along declared edges.
//! The LP model ([`LogicalProcess`], [`LpCtx`], [`LpId`], [`InitialEvents`])
//! is re-exported here and under [`lp`]. Each engine module adds only a
//! synchronisation policy:
//!
//! | engine | next event is safe when | on a straggler | transport |
//! |---|---|---|---|
//! | [`sequential`] | it heads the one global list | cannot occur | one thread |
//! | [`cmb`] | below every in-edge's channel clock | cannot occur | **null messages** (Chandy–Misra–Bryant), thread per LP |
//! | [`worksteal`] | as CMB | cannot occur | the same packets under the receiver's lock; workers steal runnable LPs |
//! | [`timestep`] | inside the current window `≤` lookahead | cannot occur | one barrier per window, thread per LP |
//! | [`timewarp`] | always (**optimistic**) | rollback, anti-messages, GVT | thread per LP |
//!
//! Lookahead bounds CMB's null-message overhead (experiment E4); Time Warp
//! targets short lookahead, work-stealing the case where LPs outnumber
//! cores (`par.ws.speedup_vs_seq` on the `phold_par` workload of
//! `BENCHMARK.json` measures it), and [`partition`] places LPs on workers.
//!
//! All engines are deterministic: the kernel assigns every event its key
//! in each LP's local delivery order, so each LP sees its events in the
//! same `(time, source, sequence)` order whatever the thread
//! interleaving, and a parallel run reproduces the centralized result —
//! [`sequential`] is the single-threaded reference the equivalence tests
//! compare every engine against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// exact float equality in order-sensitive code must say why it is exact
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod cmb;
pub mod lp;
pub mod partition;
pub mod sequential;
pub mod timestep;
pub mod timewarp;
pub mod worksteal;

pub use cmb::{run_cmb, run_cmb_telemetry, run_cmb_traced, CmbReport, CmbStats, InitialEvents};
pub use lp::{LogicalProcess, LpCtx, LpId};
pub use partition::{block_partition, owners, profiled, round_robin_partition};
pub use sequential::{run_sequential, run_sequential_telemetry, SequentialReport};
pub use timestep::{run_timestep, run_timestep_telemetry, run_timestep_traced, TimestepReport};
pub use timewarp::{
    run_timewarp, run_timewarp_cfg, run_timewarp_telemetry, run_timewarp_traced, SaveState,
    TwConfig, TwReport, TwStats,
};
pub use worksteal::{
    run_worksteal, run_worksteal_cfg, run_worksteal_telemetry, WsConfig, WsReport, WsSchedStats,
    WsStats,
};
