//! Simulation executors ("engine mechanics" in the taxonomy).
//!
//! One model, four ways to advance it:
//!
//! * [`EventDriven`] — advances by irregular increments to the next pending
//!   event ("useful for modeling events that may occur at any time").
//! * [`TimeDriven`] — advances by fixed increments ("useful for modeling
//!   events that occur at regular time intervals"), paying per-tick cost
//!   even when nothing happens.
//! * [`TraceDriven`] — "proceeds by reading in a set of events that are
//!   collected independently from another environment", interleaved with
//!   any internally scheduled events.
//! * [`Hybrid`] — "comprises both continuous and discrete-event
//!   simulations": a continuous state vector is integrated (RK4) between
//!   discrete events.
//!
//! All four deliver events in `(time, seq)` order and share the [`Model`]
//! callback interface and [`Ctx`] scheduling handle. They also share one
//! delivery step: the crate-private `kernel` module owns the event list,
//! clock, observers and tie batch, and implements scheduling, batched
//! popping, clock advance and handler dispatch once. Each engine file keeps
//! only its advance policy — which instant comes next, and what the model
//! sees as `now` there.
//!
//! The same kernel delivers the logical processes of `lsds-parallel`:
//! [`LogicalProcess`] and [`LpCtx`] live here, and the distributed engines
//! add only their synchronisation policy.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod event_driven;
mod hybrid;
mod kernel;
mod lp;
mod time_driven;
mod trace_driven;

pub use event_driven::EventDriven;
pub use hybrid::{Hybrid, HybridModel};
pub use lp::{InitialEvents, LogicalProcess, LpCtx, LpId};
#[doc(hidden)]
pub use lp::{LpCore, LpPort};
pub use time_driven::TimeDriven;
pub use trace_driven::{TraceDriven, TraceSource};

use crate::event::{EventSeq, ScheduledEvent};
use crate::time::SimTime;
use kernel::EventSink;
use lsds_obs::SpanKind;

/// A discrete-event simulation model: application state plus an event
/// handler. The engine owns the clock and the event list; the model reacts
/// to delivered events and schedules new ones through [`Ctx`].
pub trait Model {
    /// The event payload type.
    type Event;

    /// Handles one delivered event at `ctx.now()`.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);

    /// Classifies an event for the tracing layer (`lsds_obs::prof`): the
    /// kind name becomes the span/profile label, the tag an optional
    /// domain id (flow, job, site). Only called when tracing is enabled;
    /// the default lumps everything under `"event"`.
    fn trace_kind(&self, _event: &Self::Event) -> SpanKind {
        SpanKind::DEFAULT
    }

    /// Track (entity lane) exported spans for this event appear on. Only
    /// called when tracing is enabled; defaults to a single track.
    fn trace_track(&self, _event: &Self::Event) -> u32 {
        0
    }
}

/// Anything that can schedule events of type `E` at simulated times.
///
/// Substrate components (network models, grid middleware, …) are written
/// against this trait rather than a concrete engine, so a component with
/// its own event sub-type can be embedded in any larger model: the owner
/// wraps its [`Ctx`] with [`Ctx::map`] to translate the component's events
/// into its own event enum.
pub trait Schedule<E> {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedules `event` at absolute time `t ≥ now`.
    fn schedule_at(&mut self, t: SimTime, event: E);
    /// Schedules `event` after non-negative delay `dt`.
    fn schedule_in(&mut self, dt: f64, event: E) {
        let t = self.now().after(dt);
        self.schedule_at(t, event);
    }
}

/// Adapter translating a component's events into the owner's event type.
///
/// Created by [`Ctx::map`].
pub struct MappedCtx<'c, 'a, E, F> {
    inner: &'c mut Ctx<'a, E>,
    wrap: F,
}

impl<'c, 'a, E, E2, F: Fn(E2) -> E> Schedule<E2> for MappedCtx<'c, 'a, E, F> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn schedule_at(&mut self, t: SimTime, event: E2) {
        self.inner.schedule_at(t, (self.wrap)(event));
    }
}

/// Scheduling handle passed to [`Model::handle`].
///
/// New events flow into the engine through an `EventSink` — a staging
/// buffer drained after the handler returns, or the event list directly —
/// which keeps the borrow of the model and the engine's other state
/// disjoint without interior mutability.
pub struct Ctx<'a, E> {
    now: SimTime,
    cause: EventSeq,
    staged: &'a mut dyn EventSink<E>,
    seq: &'a mut EventSeq,
    stop: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    pub(crate) fn new(
        now: SimTime,
        cause: EventSeq,
        staged: &'a mut dyn EventSink<E>,
        seq: &'a mut EventSeq,
        stop: &'a mut bool,
    ) -> Self {
        Ctx {
            now,
            cause,
            staged,
            seq,
            stop,
        }
    }

    /// The same handle for a shorter borrow, so a wrapper such as
    /// [`LpCtx`] can own one.
    pub(crate) fn reborrow(&mut self) -> Ctx<'_, E> {
        Ctx {
            now: self.now,
            cause: self.cause,
            staged: &mut *self.staged,
            seq: &mut *self.seq,
            stop: &mut *self.stop,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Seq of the event being handled (stamped as the causal parent of
    /// everything scheduled from this context), or
    /// [`crate::event::NO_PARENT`] outside an event handler.
    #[inline]
    pub fn cause(&self) -> EventSeq {
        self.cause
    }

    /// Schedules `event` at absolute time `t` (must not be in the past).
    pub fn schedule_at(&mut self, t: SimTime, event: E) {
        assert!(
            t >= self.now,
            "cannot schedule into the past: {t} < {}",
            self.now
        );
        let seq = *self.seq;
        *self.seq += 1;
        self.staged
            .accept(ScheduledEvent::with_parent(t, seq, self.cause, event));
    }

    /// Schedules `event` after a non-negative delay `dt`.
    pub fn schedule_in(&mut self, dt: f64, event: E) {
        let t = self.now.after(dt);
        let seq = *self.seq;
        *self.seq += 1;
        self.staged
            .accept(ScheduledEvent::with_parent(t, seq, self.cause, event));
    }

    /// Requests that the run stop after this handler returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Wraps this context for a component whose events embed into the
    /// model's event type via `wrap`.
    pub fn map<E2, F: Fn(E2) -> E>(&mut self, wrap: F) -> MappedCtx<'_, 'a, E, F> {
        MappedCtx { inner: self, wrap }
    }
}

impl<'a, E> Schedule<E> for Ctx<'a, E> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn schedule_at(&mut self, t: SimTime, event: E) {
        Ctx::schedule_at(self, t, event)
    }
}

/// Outcome of a run: how much simulated and how much real work was done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Events delivered to the model.
    pub events: u64,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
    /// Fixed time steps taken (0 for purely event-driven engines) — the
    /// cost the paper attributes to time-driven advancement.
    pub ticks: u64,
}

impl RunStats {
    pub(crate) fn new(events: u64, end_time: SimTime, ticks: u64) -> Self {
        RunStats {
            events,
            end_time,
            ticks,
        }
    }
}
