//! `lsds-grid` — the Grid substrate: hosts, middleware, and applications.
//!
//! Implements the remaining three component layers of the taxonomy's
//! four-layer decomposition (§3): hosts, middleware, and user applications
//! (the network layer is `lsds-net`):
//!
//! * **Hosts** — [`cpu::CpuFarm`] (time-shared and space-shared processing,
//!   as GridSim distinguishes), [`storage::StorageElement`] disks,
//!   [`storage::MassStorage`] tape silos and [`storage::DbServer`] database
//!   servers, grouped into [`site::Site`] regional centers — "the largest
//!   one is the regional center, which contains a farm of processing nodes
//!   (CPU units), database servers and mass storage units" (§4, MONARC 2).
//!   Sites are organized per [`organization`]: the Bricks "central model"
//!   or the MONARC "tier model".
//! * **Middleware** — [`scheduler`] policies (FIFO/least-loaded brokers,
//!   SJF, fair-share, GridSim-style deadline-and-budget economy,
//!   ChicagoSim-style data-aware placement) and [`replication`] strategies
//!   (OptorSim-style pull with LRU/LFU/economic eviction, ChicagoSim-style
//!   push, and a MONARC-style T0→T1 replication agent).
//! * **Applications** — [`activity::Activity`] generators: "'Users' or
//!   'Activity' objects which are used to generate data processing jobs
//!   based on different scenarios" (§4).
//!
//! [`model::GridModel`] wires all of it over a fluid network into one
//! engine-runnable model; the six simulator facades in `lsds-simulators`
//! are configurations of it.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// exact float equality in order-sensitive code must say why it is exact
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod activity;
pub mod cpu;
pub mod fault;
pub mod job;
pub mod model;
pub mod organization;
pub mod replication;
pub mod scheduler;
pub mod site;
pub mod storage;

pub use activity::Activity;
pub use cpu::{CpuEvent, CpuFarm, Sharing};
pub use fault::{FaultEvent, FaultKind, FaultSchedule};
pub use job::{JobId, JobRecord, JobRecords, JobSpec};
pub use model::{GridConfig, GridEvent, GridModel, GridReport};
pub use organization::Organization;
pub use replication::{FileCatalog, FileId, ReplicationPolicy};
pub use scheduler::{Placement, SchedulerPolicy};
pub use site::{Site, SiteId};
