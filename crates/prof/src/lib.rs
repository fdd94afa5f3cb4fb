//! Causal event tracing and handler profiling for LSDS engines.
//!
//! The paper's scalability argument (Section 5) is that engine work must be
//! guided by visibility into where simulation time goes. PR 1's metrics
//! (`lsds-obs`) count *how much* happened; this crate records *why*: every
//! handled event becomes a [`Span`] carrying its causal parent, so the
//! collected trace is the event-causality DAG of the run. From it we derive
//! per-handler wall-time profiles and the virtual-time critical path — the
//! causal chain that bounds the makespan.
//!
//! The design rides the same zero-cost pattern as `lsds_obs`'s `Recorder`:
//! engines are generic over a [`Tracer`], the default [`NoopTracer`]
//! monomorphizes to nothing, and an enabled [`RingTracer`] only observes —
//! simulation results stay bit-identical with tracing on or off.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod analysis;
mod span;
mod tracer;

pub use analysis::{CriticalPath, CriticalStep, HandlerProfile, KindProfile, SpanTrace};
pub use span::{Span, SpanKind, NO_PARENT, NO_TAG};
pub use tracer::{NoopTracer, RingTracer, TraceConfig, Tracer};
