//! The delivery step every `lsds-core` engine shares.
//!
//! [`Kernel`] owns what an engine does to deliver an event — the event
//! list, recorder, tracer, clock, sequence counter, staging buffer, tie
//! batch, stop flag and delivered count — and does each step exactly once:
//! [`Kernel::schedule`], the batch-aware [`Kernel::next_time`] /
//! [`Kernel::pop`], [`Kernel::advance`], and [`Kernel::handle`] (build the
//! [`Ctx`], run the handler, route what it scheduled), which
//! [`Kernel::deliver`] wraps in the event count, `on_event` hook and tracer
//! bracket. The engine files keep only their advance policy: which instant
//! comes next and what the model sees as `now` there.

use super::{Ctx, Model};
use crate::event::{EventSeq, ScheduledEvent};
use crate::queue::EventQueue;
use crate::time::SimTime;
use lsds_obs::{NoopTracer, QueueOp, Recorder, SpanKind, Tracer};

/// Destination for events scheduled through a [`Ctx`]: the kernel's
/// staging buffer (monitored runs, where the kernel emits a queue-op hook
/// per insert), or the event list itself (unmonitored runs, which skip the
/// staging round-trip). Either way events arrive in the queue in the same
/// `(time, seq)`-stamped order, so the choice is invisible to the
/// trajectory.
pub(crate) trait EventSink<E> {
    fn accept(&mut self, ev: ScheduledEvent<E>);
}

impl<E> EventSink<E> for Vec<ScheduledEvent<E>> {
    #[inline]
    fn accept(&mut self, ev: ScheduledEvent<E>) {
        self.push(ev);
    }
}

/// Sink that inserts straight into an event list.
pub(crate) struct QueueSink<'q, Q>(pub &'q mut Q);

impl<E, Q: EventQueue<E>> EventSink<E> for QueueSink<'_, Q> {
    #[inline]
    fn accept(&mut self, ev: ScheduledEvent<E>) {
        self.0.insert(ev);
    }
}

/// Engine state shared by the four executors, and the one implementation
/// of each delivery step. Every pending count it reports — to
/// [`Kernel::pending`] and to the recorder's queue-op hooks — is the
/// logical `queue + batch`, so batched delivery is observationally
/// identical to popping one event at a time.
pub(crate) struct Kernel<E, Q, R, T> {
    pub(crate) queue: Q,
    pub(crate) recorder: R,
    pub(crate) tracer: T,
    pub(crate) clock: SimTime,
    pub(crate) seq: EventSeq,
    staged: Vec<ScheduledEvent<E>>,
    /// Same-timestamp run drained from the queue by one `pop_next` call,
    /// held in *reverse* `(time, seq)` order so [`Kernel::pop`] takes the
    /// next event by value with an `O(1)` `Vec::pop`. Events a handler
    /// schedules at the batch's own timestamp go to the queue: their seqs
    /// exceed every seq in the batch, so `(time, seq)` order holds.
    batch: Vec<ScheduledEvent<E>>,
    pub(crate) stopped: bool,
    pub(crate) processed: u64,
}

impl<E, Q: EventQueue<E>, R: Recorder> Kernel<E, Q, R, NoopTracer> {
    pub(crate) fn new(queue: Q, recorder: R) -> Self {
        Kernel {
            queue,
            recorder,
            tracer: NoopTracer,
            clock: SimTime::ZERO,
            seq: 0,
            staged: Vec::new(),
            batch: Vec::new(),
            stopped: false,
            processed: 0,
        }
    }
}

impl<E, Q: EventQueue<E>, R: Recorder, T: Tracer> Kernel<E, Q, R, T> {
    /// Swaps the tracer, preserving every other piece of state.
    pub(crate) fn with_tracer<T2: Tracer>(self, tracer: T2) -> Kernel<E, Q, R, T2> {
        Kernel {
            queue: self.queue,
            recorder: self.recorder,
            tracer,
            clock: self.clock,
            seq: self.seq,
            staged: self.staged,
            batch: self.batch,
            stopped: self.stopped,
            processed: self.processed,
        }
    }

    /// Pending events, including any batched but not yet delivered.
    #[inline]
    pub(crate) fn pending(&self) -> usize {
        self.queue.len() + self.batch.len()
    }

    /// Schedules an event from outside any handler.
    pub(crate) fn schedule(&mut self, t: SimTime, event: E) {
        assert!(t >= self.clock, "cannot schedule into the past");
        self.queue.insert(ScheduledEvent::new(t, self.seq, event));
        self.seq += 1;
        if R::ENABLED {
            let len = self.pending();
            self.recorder
                .on_queue_op(self.clock.seconds(), QueueOp::Insert, len);
        }
    }

    /// Due time of the next event [`Kernel::pop`] returns — the batch head
    /// when a same-timestamp run is in flight, the queue minimum otherwise.
    #[inline]
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        match self.batch.last() {
            Some(ev) => Some(ev.time),
            None => self.queue.peek_time(),
        }
    }

    /// Removes the next event in `(time, seq)` order and fires the `Pop`
    /// hook, stamped `at` or, when `None`, at the event's own time.
    ///
    /// The queue head is returned directly; only its timestamp *ties* —
    /// drained in the same `pop_next` call, so structures with contiguous
    /// ties pay a single bucket search — go through the batch. Singleton
    /// runs, the common case under continuous-time models, skip it.
    #[inline]
    pub(crate) fn pop(&mut self, at: Option<SimTime>) -> Option<ScheduledEvent<E>> {
        let ev = match self.batch.pop() {
            Some(ev) => ev,
            None => {
                let ev = self.queue.pop_next(&mut self.batch)?;
                self.batch.reverse();
                ev
            }
        };
        if R::ENABLED {
            let t = at.unwrap_or(ev.time);
            let len = self.pending();
            self.recorder.on_queue_op(t.seconds(), QueueOp::Pop, len);
        }
        Some(ev)
    }

    /// Moves the clock to `to`.
    #[inline]
    pub(crate) fn advance(&mut self, to: SimTime) {
        self.recorder.on_advance(self.clock.seconds(), to.seconds());
        self.clock = to;
    }

    /// The span label of an event, computed by `f` only when tracing.
    #[inline]
    pub(crate) fn label(&self, f: impl FnOnce() -> (SpanKind, u32)) -> (SpanKind, u32) {
        if T::ENABLED {
            f()
        } else {
            (SpanKind::DEFAULT, 0)
        }
    }

    /// Delivers `ev` at the current clock: counts it, fires `on_event`,
    /// and runs `f` — the model's handler — through [`Kernel::handle`]
    /// inside the tracer's `begin`/`record` bracket.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        ev: ScheduledEvent<E>,
        (kind, track): (SpanKind, u32),
        f: impl FnOnce(E, &mut Ctx<'_, E>),
    ) {
        let ScheduledEvent {
            seq, parent, event, ..
        } = ev;
        self.processed += 1;
        if R::ENABLED {
            self.recorder.on_event(self.clock.seconds());
        }
        let token = self.tracer.begin(seq);
        self.handle(seq, |ctx| f(event, ctx));
        let vt = self.clock.seconds();
        self.tracer.record(seq, parent, kind, track, vt, token);
    }

    /// [`Kernel::deliver`] to a [`Model`]'s handler, labelled by its
    /// `trace_kind` and `trace_track`.
    #[inline]
    pub(crate) fn deliver_to<M: Model<Event = E>>(&mut self, model: &mut M, ev: ScheduledEvent<E>) {
        let label = self.label(|| (model.trace_kind(&ev.event), model.trace_track(&ev.event)));
        self.deliver(ev, label, |event, ctx| model.handle(event, ctx));
    }

    /// Runs `f` with a [`Ctx`] at the current clock whose output carries
    /// `cause` as its parent. Unmonitored, scheduled events go straight
    /// into the event list; monitored, they are staged and inserted after
    /// `f` returns with one `Insert` hook each — same insert order, same
    /// `(time, seq)` stamps, so the trajectory is identical.
    #[inline]
    pub(crate) fn handle(&mut self, cause: EventSeq, f: impl FnOnce(&mut Ctx<'_, E>)) {
        let now = self.clock;
        let mut direct = QueueSink(&mut self.queue);
        let sink: &mut dyn EventSink<E> = if R::ENABLED {
            &mut self.staged
        } else {
            &mut direct
        };
        f(&mut Ctx::new(
            now,
            cause,
            sink,
            &mut self.seq,
            &mut self.stopped,
        ));
        if R::ENABLED {
            for ev in self.staged.drain(..) {
                self.queue.insert(ev);
                let len = self.queue.len() + self.batch.len();
                self.recorder
                    .on_queue_op(now.seconds(), QueueOp::Insert, len);
            }
        }
    }
}
