//! `lsds-core` — the discrete-event simulation engine.
//!
//! This crate implements the *simulation engine* axes of the paper's
//! taxonomy (§3, "implementation"):
//!
//! * **Mechanics** — state changes can advance as pure discrete events
//!   ([`engine::EventDriven`]), by fixed time increments
//!   ([`engine::TimeDriven`]), from an externally collected event trace
//!   ([`engine::TraceDriven`]), or as a hybrid of continuous integration and
//!   discrete events ([`engine::Hybrid`]). The paper: "an event-driven DES
//!   is more efficient than a time-driven DES since it does not step through
//!   regular time intervals when no event occurs" — measured in experiment E3.
//! * **Event-list structures** — the pending-event set sits behind the
//!   [`queue::EventQueue`] trait with four interchangeable implementations:
//!   an `O(log n)` binary heap, an `O(n)` sorted list, and two amortized
//!   `O(1)` structures (calendar queue, ladder queue). The paper: "a system
//!   using an O(1) structure for the event list will behave better than
//!   another one using an O(log n) queuing structure … they all tend to
//!   behave different depending on various parameters" — experiment E2.
//! * **Entity scheduling / job→context mapping** — the process-oriented
//!   layer ([`process`]) models MONARC 2-style "active objects" and lets the
//!   simulation of many jobs share execution contexts under several mapping
//!   schemes ("reusing threads, using advanced mapping schemes in which
//!   multiple jobs can be simulated running in the same thread context …
//!   yield higher simulation performances") — experiment E12.
//!
//! Determinism: every engine processes events in strict `(time, sequence)`
//! order, so a model with no stochastic components is deterministic in the
//! taxonomy's sense, and a stochastic model re-run with the same seed
//! reproduces its results exactly (experiment E14).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// exact float equality in order-sensitive code must say why it is exact
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod arena;
pub mod engine;
pub mod event;
pub mod pool;
pub mod process;
pub mod queue;
pub mod time;

pub use arena::{IdMap, Slab};
pub use engine::{
    Ctx, EventDriven, Hybrid, InitialEvents, LogicalProcess, LpCtx, LpId, MappedCtx, Model,
    RunStats, Schedule, TimeDriven, TraceDriven, TraceSource,
};
#[doc(hidden)]
pub use engine::{LpCore, LpPort};
pub use event::{EventSeq, ScheduledEvent, NO_PARENT};
pub use pool::{EventPool, PooledQueue};
pub use queue::{
    BinaryHeapQueue, CalendarQueue, EventQueue, LadderQueue, QueueKind, SortedListQueue,
};
pub use time::SimTime;
