//! Logical processes — the unit of distribution — and the per-LP kernel
//! the distributed engines of `lsds-parallel` run them on.
//!
//! An LP delivers through the same `Kernel` as the centralized engines:
//! [`LpCore`] is a kernel plus an [`LpPort`]. The kernel owns the LP's
//! pooled event list, clock, delivered count, tracer and sequence counter;
//! the port holds the LP's id, lookahead, declared out-edges and the sends
//! its last handler staged. The counter starts at the LP's first tie key
//! `(me << 48) | 0`, so every output — a local event inserted straight
//! into the list, or a send staged on the port — carries the next
//! `(source LP, sequence)` key in staging order. Engines that keep their
//! own event store (the sequential oracle, Time Warp) run handlers through
//! [`LpPort::handle`] over a `Vec` sink and a counter they own.
//!
//! An LP pops one event at a time, never the kernel's tie batch: the batch
//! assumes that everything a handler schedules at the batch's timestamp
//! sorts after the batch, which cross-LP tie keys break — a zero-delay
//! local event of LP 0 sorts before a message from LP 3 at the same time.

use super::kernel::Kernel;
use super::Ctx;
use crate::event::{ScheduledEvent, NO_PARENT};
use crate::pool::PooledQueue;
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::SimTime;
use lsds_obs::{NoopRecorder, SpanKind, Tracer};

/// Identifier of a logical process within a parallel run.
pub type LpId = usize;

/// One partition of a distributed simulation.
///
/// A logical process (LP) owns part of the model state; it handles locally
/// scheduled events and messages arriving from other LPs, in timestamp
/// order, and communicates only through [`LpCtx`]. The conservative
/// engines guarantee that `handle` observes a non-decreasing clock and
/// never sees a message "from the past".
pub trait LogicalProcess: Send {
    /// Message/event payload. One type covers both local events and
    /// inter-LP messages, mirroring how the surveyed simulators route
    /// everything through their event systems.
    type Msg: Send;

    /// Handles one event at time `now`.
    fn handle(&mut self, now: SimTime, msg: Self::Msg, ctx: &mut LpCtx<'_, Self::Msg>);

    /// Minimum simulated delay on any message this LP sends to another LP.
    ///
    /// This is the *lookahead* that makes conservative synchronization
    /// live; it must be strictly positive. Larger lookahead means fewer
    /// null messages (E4 sweeps this).
    fn lookahead(&self) -> f64;

    /// Classifies a message for the tracing layer (`lsds_obs::prof`).
    /// Only called when tracing is enabled; the exported track is always
    /// the handling LP's id.
    fn trace_kind(&self, _msg: &Self::Msg) -> SpanKind {
        SpanKind::DEFAULT
    }
}

/// Initial-events hook: called once per LP at time zero, before the run.
pub trait InitialEvents: LogicalProcess {
    /// Schedules the LP's initial events (local or remote).
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, Self::Msg>);
}

/// Scheduling/communication handle passed to [`LogicalProcess::handle`]:
/// a core [`Ctx`] for local events plus the LP's port for sends.
pub struct LpCtx<'a, M> {
    ctx: Ctx<'a, M>,
    port: &'a mut LpPort<M>,
}

impl<M> LpCtx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// This LP's id.
    pub fn me(&self) -> LpId {
        self.port.me
    }

    /// Schedules a local event after `dt ≥ 0`.
    ///
    /// Panics on a negative or non-finite `dt`: a buggy LP scheduling into
    /// the past would silently violate the conservative engines' clock
    /// invariant (events delivered in non-decreasing time order), so it is
    /// rejected here at the scheduling point rather than detected
    /// downstream.
    pub fn schedule_in(&mut self, dt: f64, msg: M) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "LP {} scheduled a local event with invalid delay {dt} at {}",
            self.port.me,
            self.ctx.now
        );
        self.ctx.schedule_in(dt, msg);
    }

    /// Sends a message to LP `dst`, arriving after `delay`.
    ///
    /// `dst` must be the far end of a declared `(me, dst)` edge: the
    /// kernel panics on any other destination, in every engine that takes
    /// an edge list and in every build profile.
    ///
    /// Under the conservative engines `delay` may be any value at least
    /// the LP's declared lookahead, and sends along one edge need not be
    /// in timestamp order: the engine promises receivers only the bound
    /// `now + lookahead`, never a send's own timestamp. A delay below the
    /// lookahead panics, because it would break bounds already promised.
    /// The optimistic engine instead runs handlers with an effective
    /// lookahead of the smallest positive double: it tolerates any
    /// *strictly positive* delay, however far below the declared
    /// lookahead, repairing mis-speculation with rollback.
    pub fn send(&mut self, dst: LpId, delay: f64, msg: M) {
        let port = &mut *self.port;
        let (me, la) = (port.me, port.lookahead);
        assert!(delay >= la, "send delay {delay} below lookahead {la}");
        assert!(dst != me, "use schedule_in for local events");
        #[expect(
            clippy::panic,
            reason = "designed behaviour: a send outside the declared topology is a model bug and must fail the same way in every engine and build profile, not be dropped"
        )]
        let Some(k) = port.outs.iter().position(|&d| d == dst) else {
            panic!("LP {me} sent to LP {dst}: no declared edge");
        };
        let at = self.ctx.now.after(delay);
        let tie = *self.ctx.seq;
        *self.ctx.seq += 1;
        let ev = ScheduledEvent::with_parent(at, tie, self.ctx.cause, msg);
        port.sent.push((k, ev));
    }
}

/// One LP's attachment to an event store: its id, the lookahead its
/// handlers run under, its declared out-edges, and the sends its last
/// handler staged, each with the index `k` of its edge in `outs`.
#[doc(hidden)]
pub struct LpPort<M> {
    me: LpId,
    lookahead: f64,
    outs: Vec<LpId>,
    sent: Vec<(usize, ScheduledEvent<M>)>,
}

impl<M> LpPort<M> {
    /// LPs one run may hold: the tie key keeps the source in 16 bits.
    pub const MAX_LPS: usize = 1 << 16;

    /// A port for LP `me` whose handlers may `send` with any delay
    /// `≥ lookahead`, along the edges `(me, outs[k])` only.
    pub fn new(me: LpId, lookahead: f64, outs: Vec<LpId>) -> Self {
        debug_assert!(me < Self::MAX_LPS, "LP id too large for tie key");
        LpPort {
            me,
            lookahead,
            outs,
            sent: Vec::new(),
        }
    }

    /// The LP's first tie key, `(me << 48) | 0`: where its sequence
    /// counter starts. Equal-time events order by `(source LP, sequence)`.
    pub fn first_seq(&self) -> u64 {
        (self.me as u64) << 48
    }

    /// Runs `lp`'s handler on `ev` (its `seq` is the tie key, the causal
    /// parent of the output), stamping from `seq`: local events go to
    /// `local`, sends stay staged for [`LpPort::drain`].
    pub fn handle<L: LogicalProcess<Msg = M>>(
        &mut self,
        lp: &mut L,
        ev: ScheduledEvent<M>,
        seq: &mut u64,
        local: &mut Vec<ScheduledEvent<M>>,
    ) {
        let mut stop = false;
        let ctx = Ctx::new(ev.time, ev.seq, local, seq, &mut stop);
        lp.handle(ev.time, ev.event, &mut self.ctx(ctx));
    }

    /// [`LpPort::handle`] for `lp`'s initial-events hook at time zero.
    pub fn initial<L: InitialEvents<Msg = M>>(
        &mut self,
        lp: &mut L,
        seq: &mut u64,
        local: &mut Vec<ScheduledEvent<M>>,
    ) {
        let mut stop = false;
        let ctx = Ctx::new(SimTime::ZERO, NO_PARENT, local, seq, &mut stop);
        lp.initial_events(&mut self.ctx(ctx));
    }

    /// Hands the staged sends, in staging order, to `remote(k, dst, ev)`
    /// with `dst == outs[k]`.
    #[inline]
    pub fn drain(&mut self, mut remote: impl FnMut(usize, LpId, ScheduledEvent<M>)) {
        for (k, ev) in self.sent.drain(..) {
            remote(k, self.outs[k], ev);
        }
    }

    /// The one [`LpCtx`] constructor.
    fn ctx<'a>(&'a mut self, ctx: Ctx<'a, M>) -> LpCtx<'a, M> {
        LpCtx { ctx, port: self }
    }
}

/// An LP's event list: payloads parked in a pool, a binary heap ordering
/// the fixed-size slot records.
type LpQueue<M> = PooledQueue<M, BinaryHeapQueue<u32>>;

/// One LP on the shared delivery kernel: the LP, its [`LpPort`], and a kernel
/// over a pooled binary heap whose sequence counter starts at the LP's
/// first tie key. The engine decides *when* to [`LpCore::step`]; the core
/// decides what a step is.
#[doc(hidden)]
pub struct LpCore<L: LogicalProcess, T> {
    lp: L,
    port: LpPort<L::Msg>,
    kernel: Kernel<L::Msg, LpQueue<L::Msg>, NoopRecorder, T>,
}

impl<L: LogicalProcess, T: Tracer> LpCore<L, T> {
    /// Wraps LP `me`, which runs under its own declared lookahead, may
    /// send along `(me, outs[k])` and records its spans into `tracer`.
    pub fn new(me: LpId, lp: L, outs: Vec<LpId>, tracer: T) -> Self {
        let port = LpPort::new(me, lp.lookahead(), outs);
        let queue = PooledQueue::new(BinaryHeapQueue::new());
        let mut kernel = Kernel::new(queue, NoopRecorder).with_tracer(tracer);
        kernel.seq = port.first_seq();
        LpCore { lp, port, kernel }
    }

    /// Runs the LP's initial-events hook at time zero: local events enter
    /// the list, sends go to `remote` as in [`LpCore::step`].
    pub fn init(&mut self, remote: impl FnMut(usize, LpId, ScheduledEvent<L::Msg>))
    where
        L: InitialEvents,
    {
        let LpCore { lp, port, kernel } = self;
        kernel.handle(NO_PARENT, |ctx| {
            lp.initial_events(&mut port.ctx(ctx.reborrow()));
        });
        port.drain(remote);
    }

    /// Delivers the earliest pending event — the caller has established
    /// that it is safe — through the kernel's `deliver`, then hands what
    /// the handler sent to `remote(k, dst, event)`.
    #[inline]
    pub fn step(&mut self, remote: impl FnMut(usize, LpId, ScheduledEvent<L::Msg>)) {
        let LpCore { lp, port, kernel } = self;
        let Some(ev) = kernel.queue.pop_min() else {
            debug_assert!(false, "step on an empty event list");
            return;
        };
        let at = ev.time;
        debug_assert!(
            at >= kernel.clock,
            "causality: delivery before t={}",
            kernel.clock
        );
        kernel.advance(at);
        let label = kernel.label(|| (lp.trace_kind(&ev.event), port.me as u32));
        kernel.deliver(ev, label, |msg, ctx| {
            lp.handle(at, msg, &mut port.ctx(ctx.reborrow()));
        });
        port.drain(remote);
    }
}

impl<L: LogicalProcess, T> LpCore<L, T> {
    /// Files an event another LP sent here.
    pub fn accept(&mut self, ev: ScheduledEvent<L::Msg>) {
        self.kernel.queue.insert(ev);
    }

    /// Timestamp of the earliest pending event. (`&mut` only because the
    /// pooled queue's peek is `&mut`.)
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.kernel.queue.peek_time()
    }

    /// Pending events in the list.
    pub fn queue_len(&self) -> usize {
        self.kernel.queue.len()
    }

    /// The LP in its final state, the events delivered to it, and its
    /// tracer.
    pub fn finish(self) -> (L, u64, T) {
        (self.lp, self.kernel.processed, self.kernel.tracer)
    }
}
