//! Logical processes — the unit of distribution — and the one LP kernel
//! every engine of this crate runs them on.
//!
//! How an LP event is identified, dispatched and routed is decided here
//! and nowhere else. The crate-private `Port` builds the handler context,
//! stamps every staged output with the `(source LP << 48) | sequence` tie
//! key in staging order, checks it against the declared out-edges and
//! hands it to the engine as a finished `ScheduledEvent`; `LpCore` adds
//! the private event list and clock the conservative engines share. What
//! is left in an engine file is its synchronisation policy: when is the
//! next event safe, and what happens on a straggler.

use crate::cmb::InitialEvents;
use lsds_core::{BinaryHeapQueue, EventQueue, PooledQueue, ScheduledEvent, SimTime, NO_PARENT};
use lsds_obs::{SpanKind, Tracer};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::ScopedJoinHandle;

/// Identifier of a logical process within a parallel run.
pub type LpId = usize;

/// The tie key packs the source LP into its top 16 bits, so one run holds
/// at most this many LPs; [`validate_run`] rejects more at setup.
const MAX_LPS: usize = 1 << 16;

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

/// Outgoing traffic staged by an LP handler. `parent` is the tie key of
/// the event whose handler staged it (the causal edge of the trace DAG).
#[derive(Debug)]
enum Outgoing<M> {
    Local {
        at: SimTime,
        parent: u64,
        msg: M,
    },
    Remote {
        dst: LpId,
        at: SimTime,
        parent: u64,
        msg: M,
    },
}

/// Scheduling/communication handle passed to [`LogicalProcess::handle`].
pub struct LpCtx<'a, M> {
    now: SimTime,
    me: LpId,
    lookahead: f64,
    /// Tie key of the event being handled ([`lsds_core::NO_PARENT`] for
    /// initial-event staging).
    cause: u64,
    staged: &'a mut Vec<Outgoing<M>>,
}

impl<'a, M> LpCtx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This LP's id.
    pub fn me(&self) -> LpId {
        self.me
    }

    /// Schedules a local event after `dt ≥ 0`.
    ///
    /// Panics on a negative or non-finite `dt`: a buggy LP scheduling into
    /// the past would silently violate the conservative engines' clock
    /// invariant (events delivered in non-decreasing time order), so it is
    /// rejected here at the staging point rather than detected downstream.
    pub fn schedule_in(&mut self, dt: f64, msg: M) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "LP {} scheduled a local event with invalid delay {dt} at {}",
            self.me,
            self.now
        );
        let at = self.now.after(dt);
        self.staged.push(Outgoing::Local {
            at,
            parent: self.cause,
            msg,
        });
    }

    /// Sends a message to LP `dst`, arriving after `delay`.
    ///
    /// `dst` must be the far end of a declared `(me, dst)` edge: the
    /// kernel panics on any other destination, in every engine that takes
    /// an edge list and in every build profile.
    ///
    /// Under the conservative engines `delay` must be at least the LP's
    /// declared lookahead — the engine asserts this, because a shorter
    /// delay would invalidate the null-message guarantees already given
    /// to `dst`. The optimistic engine ([`crate::run_timewarp`]) instead
    /// runs handlers with an effective lookahead of the smallest positive
    /// double: it tolerates any *strictly positive* delay, however far
    /// below the declared lookahead, repairing mis-speculation with
    /// rollback where CMB would have tripped this assertion.
    pub fn send(&mut self, dst: LpId, delay: f64, msg: M) {
        assert!(
            delay >= self.lookahead,
            "send delay {delay} below lookahead {}",
            self.lookahead
        );
        assert!(dst != self.me, "use schedule_in for local events");
        let at = self.now.after(delay);
        self.staged.push(Outgoing::Remote {
            dst,
            at,
            parent: self.cause,
            msg,
        });
    }
}

/// Composite tie-break key making cross-LP delivery deterministic: events
/// at equal times are ordered by `(source LP, per-source sequence)`.
#[inline]
fn tie_key(src: LpId, seq: u64) -> u64 {
    debug_assert!(src < MAX_LPS, "LP id too large for tie key");
    debug_assert!(seq < (1 << 48), "sequence overflow in tie key");
    ((src as u64) << 48) | seq
}

/// Total order on `(time, tie)` as one integer: IEEE-754 bit patterns of
/// non-negative finite doubles compare like the doubles themselves.
#[inline]
pub(crate) fn pack(at: SimTime, tie: u64) -> u128 {
    let s = at.seconds();
    debug_assert!(s >= 0.0, "negative sim time in tie pack");
    ((s.to_bits() as u128) << 64) | tie as u128
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::new(f64::from_bits((key >> 64) as u64)), key as u64)
}

/// One LP's attachment to the kernel: its identity, the lookahead its
/// handlers run under, its declared out-edges, its sequence counter and
/// the buffer its handlers stage output in. The sequential oracle and
/// Time Warp drive a `Port` over their own event stores; the conservative
/// engines use it through [`LpCore`].
pub(crate) struct Port<M> {
    me: LpId,
    lookahead: f64,
    /// Declared out-neighbors; a remote output's index in this list is the
    /// `k` handed to the engine's `remote` closure.
    outs: Vec<LpId>,
    seq: u64,
    staged: Vec<Outgoing<M>>,
}

impl<M> Port<M> {
    /// A port for LP `me` whose handlers may `send` with any delay
    /// `≥ lookahead`, along the edges `(me, outs[k])` only.
    pub(crate) fn new(me: LpId, lookahead: f64, outs: Vec<LpId>) -> Self {
        Port {
            me,
            lookahead,
            outs,
            seq: 0,
            staged: Vec::new(),
        }
    }

    /// The sequence number the next routed output will carry.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Resets the sequence counter to an earlier [`Port::seq`] reading, so
    /// re-execution after a rollback regenerates identical tie keys.
    pub(crate) fn rewind(&mut self, seq: u64) {
        debug_assert!(seq <= self.seq, "rewind to a future sequence number");
        self.seq = seq;
    }

    /// The handle a handler running at `now` stages its output through;
    /// `cause` is the tie key of the event it handles.
    fn ctx(&mut self, now: SimTime, cause: u64) -> LpCtx<'_, M> {
        LpCtx {
            now,
            me: self.me,
            lookahead: self.lookahead,
            cause,
            staged: &mut self.staged,
        }
    }

    /// Stages `lp`'s initial events at time zero.
    pub(crate) fn dispatch_initial<L: InitialEvents<Msg = M>>(&mut self, lp: &mut L) {
        lp.initial_events(&mut self.ctx(SimTime::ZERO, NO_PARENT));
    }

    /// Runs `lp`'s handler on `ev` inside the tracer's `begin`/`record`
    /// bracket, leaving the handler's output staged for [`Port::route`].
    #[inline]
    pub(crate) fn dispatch<L, T>(&mut self, lp: &mut L, ev: ScheduledEvent<M>, tracer: &mut T)
    where
        L: LogicalProcess<Msg = M>,
        T: Tracer,
    {
        let kind = if T::ENABLED {
            lp.trace_kind(&ev.event)
        } else {
            SpanKind::DEFAULT
        };
        let token = tracer.begin(ev.seq);
        lp.handle(ev.time, ev.event, &mut self.ctx(ev.time, ev.seq));
        let (track, vt) = (self.me as u32, ev.time.seconds());
        tracer.record(ev.seq, ev.parent, kind, track, vt, token);
    }

    /// Drains the staged output in staging order, stamping consecutive tie
    /// keys: local events go to `local`, sends to `remote(k, dst, event)`
    /// with `dst == outs[k]`. A send along an undeclared edge is a model
    /// bug and panics, whichever engine and build profile runs it.
    #[inline]
    pub(crate) fn route(
        &mut self,
        mut local: impl FnMut(ScheduledEvent<M>),
        mut remote: impl FnMut(usize, LpId, ScheduledEvent<M>),
    ) {
        for out in self.staged.drain(..) {
            let tie = tie_key(self.me, self.seq);
            self.seq += 1;
            match out {
                Outgoing::Local { at, parent, msg } => {
                    local(ScheduledEvent::with_parent(at, tie, parent, msg));
                }
                Outgoing::Remote {
                    dst,
                    at,
                    parent,
                    msg,
                } => {
                    let Some(k) = self.outs.iter().position(|&d| d == dst) else {
                        // lsds-lint: allow(hot-path-panic) reason="designed behaviour: a send outside the declared topology is a model bug and must fail the same way in every engine and build profile, not be dropped"
                        panic!("LP {} sent to LP {dst}: no declared edge", self.me);
                    };
                    remote(k, dst, ScheduledEvent::with_parent(at, tie, parent, msg));
                }
            }
        }
    }
}

/// The per-LP state every conservative engine keeps: the LP, its [`Port`],
/// a private pooled event list (payloads park in a slab, the heap orders
/// fixed 32-byte records — no per-event boxing), the local clock and the
/// delivered-event count. The engine decides *when* to [`LpCore::step`];
/// the core decides what a step is.
pub(crate) struct LpCore<L: LogicalProcess> {
    lp: L,
    port: Port<L::Msg>,
    queue: PooledQueue<L::Msg, BinaryHeapQueue<u32>>,
    clock: SimTime,
    events: u64,
}

impl<L: LogicalProcess> LpCore<L> {
    /// Wraps LP `me`, which runs under its own declared lookahead and may
    /// send along `(me, outs[k])`.
    pub(crate) fn new(me: LpId, lp: L, outs: Vec<LpId>) -> Self {
        let port = Port::new(me, lp.lookahead(), outs);
        LpCore {
            lp,
            port,
            queue: PooledQueue::new(BinaryHeapQueue::new()),
            clock: SimTime::ZERO,
            events: 0,
        }
    }

    /// Runs the LP's initial-events hook at time zero: local events enter
    /// the private list, sends go to `remote` as in [`LpCore::step`].
    pub(crate) fn init(&mut self, remote: impl FnMut(usize, LpId, ScheduledEvent<L::Msg>))
    where
        L: InitialEvents,
    {
        self.port.dispatch_initial(&mut self.lp);
        self.port.route(|ev| self.queue.insert(ev), remote);
    }

    /// Files an event another LP sent here.
    pub(crate) fn accept(&mut self, ev: ScheduledEvent<L::Msg>) {
        self.queue.insert(ev);
    }

    /// Timestamp of the earliest pending event. (`&mut` only because the
    /// pooled queue's peek is `&mut`.)
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Delivers the earliest pending event — the caller has established
    /// that it is safe — and routes what its handler staged: local events
    /// back into the private list, sends to `remote(k, dst, event)`.
    /// Returns the delivery time (`None`, and a debug assertion, if the
    /// list was empty after all).
    #[inline]
    pub(crate) fn step<T: Tracer>(
        &mut self,
        tracer: &mut T,
        remote: impl FnMut(usize, LpId, ScheduledEvent<L::Msg>),
    ) -> Option<SimTime> {
        let Some(ev) = self.queue.pop_min() else {
            debug_assert!(false, "step on an empty event list");
            return None;
        };
        let at = ev.time;
        debug_assert!(
            at >= self.clock,
            "causality: delivery before t={}",
            self.clock
        );
        self.clock = at;
        self.events += 1;
        self.port.dispatch(&mut self.lp, ev, tracer);
        self.port.route(|ev| self.queue.insert(ev), remote);
        Some(at)
    }

    /// The LP's declared lookahead.
    pub(crate) fn lookahead(&self) -> f64 {
        self.port.lookahead
    }

    /// Pending events in the private list.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The LP in its final state, and the events delivered to it.
    pub(crate) fn finish(self) -> (L, u64) {
        (self.lp, self.events)
    }
}

/// Setup validation shared by all five engines, run before any LP or
/// thread starts so a bad run fails identically whichever executor was
/// asked: at most [`MAX_LPS`] LPs (more would alias tie keys), every
/// declared edge in range and loop-free, and — for the engines whose
/// liveness rests on it — a positive finite lookahead of at least
/// `min_lookahead` on every LP.
pub(crate) fn validate_run<L: LogicalProcess>(
    lps: &[L],
    edges: &[(LpId, LpId)],
    min_lookahead: Option<f64>,
) {
    let n = lps.len();
    assert!(
        n <= MAX_LPS,
        "{n} LPs in one run, but the event tie key addresses at most {MAX_LPS}"
    );
    validate_edges(n, edges);
    if let Some(floor) = min_lookahead {
        for (i, lp) in lps.iter().enumerate() {
            let la = lp.lookahead();
            assert!(
                la > 0.0 && la.is_finite() && la >= floor,
                "LP {i} must declare positive finite lookahead of at least {floor}, got {la}"
            );
        }
    }
}

/// Validates a declared topology: every edge in range, no self-loops.
fn validate_edges(n: usize, edges: &[(LpId, LpId)]) {
    for &(s, d) in edges {
        assert!(s < n && d < n && s != d, "bad edge ({s},{d})");
    }
}

/// Out-neighbors of `me` under a declared edge list, in declaration order.
pub(crate) fn out_neighbors(edges: &[(LpId, LpId)], me: LpId) -> Vec<LpId> {
    edges
        .iter()
        .filter(|(s, _)| *s == me)
        .map(|(_, d)| *d)
        .collect()
}

/// Joins a scoped thread, re-raising its panic with the original payload
/// so the caller sees the model's or the kernel's own message.
pub(crate) fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The thread-per-LP scaffold of CMB, the time-stepped engine and Time
/// Warp: one mpsc inbox of `P` packets per LP, one scoped thread per LP
/// running `body(me, seat, tracer, telemetry, inbox, every LP's sender)`
/// on its seat (the LP plus whatever per-LP state the engine prepared),
/// joined in id order and unzipped into per-LP columns.
///
/// `mpsc::Receiver` is `!Sync`, so each thread owns its inbox; the senders
/// stay with the caller and are shared by reference.
pub(crate) fn run_lp_threads<I, P, L, S, T, Y>(
    seats: Vec<I>,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
    body: impl Fn(LpId, I, T, Y, Receiver<P>, &[Sender<P>]) -> (L, S, T, Y) + Sync,
) -> (Vec<L>, Vec<S>, Vec<T>, Vec<Y>)
where
    I: Send,
    P: Send,
    L: Send,
    S: Send,
    T: Send,
    Y: Send,
{
    let (txs, rxs): (Vec<Sender<P>>, Vec<Receiver<P>>) = seats.iter().map(|_| channel()).unzip();
    let (txs, body) = (&txs[..], &body);
    let ((lps, stats), (tracers, tels)) = std::thread::scope(|scope| {
        let handles: Vec<_> = seats
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(me, (seat, rx))| {
                let (tracer, tel) = (mk_tracer(me), mk_tel(me));
                scope.spawn(move || body(me, seat, tracer, tel, rx, txs))
            })
            .collect();
        let columns = handles.into_iter().map(|handle| {
            let (lp, stat, tracer, tel) = join(handle);
            ((lp, stat), (tracer, tel))
        });
        columns.unzip()
    });
    (lps, stats, tracers, tels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::NO_PARENT;

    #[test]
    fn pack_orders_by_time_then_tie() {
        assert!(pack(SimTime::new(1.0), 7) < pack(SimTime::new(2.0), 0));
        assert!(pack(SimTime::new(3.0), 1) < pack(SimTime::new(3.0), 2));
        assert!(pack(SimTime::ZERO, u64::MAX) < pack(SimTime::new(1e-300), 0));
    }

    #[test]
    fn neighbor_lists_follow_declaration_order() {
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 1)];
        assert_eq!(out_neighbors(&edges, 0), vec![2, 1]);
        assert_eq!(out_neighbors(&edges, 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "bad edge")]
    fn validate_edges_rejects_self_loop() {
        validate_edges(3, &[(1, 1)]);
    }

    #[test]
    fn tie_key_orders_by_src_then_seq() {
        assert!(tie_key(0, 5) < tie_key(0, 6));
        assert!(tie_key(0, u32::MAX as u64) < tie_key(1, 0));
        assert!(tie_key(1, 7) < tie_key(2, 0));
    }

    /// One handler mixing `schedule_in` and `send`: every output gets the
    /// next tie key of its source LP in staging order, whichever sink it
    /// goes to, and carries the handled event's key as its parent.
    #[test]
    fn route_stamps_consecutive_ties_in_staging_order() {
        struct Mixer;
        impl LogicalProcess for Mixer {
            type Msg = u32;
            fn handle(&mut self, _now: SimTime, base: u32, ctx: &mut LpCtx<'_, u32>) {
                ctx.schedule_in(1.0, base);
                ctx.send(7, 2.0, base + 1);
                ctx.schedule_in(0.5, base + 2);
                ctx.send(5, 1.0, base + 3);
            }
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        let mut port: Port<u32> = Port::new(3, 1.0, vec![5, 7]);
        let (mut locals, mut remotes) = (Vec::new(), Vec::new());
        for (cause, base) in [(77u64, 10u32), (78, 20)] {
            let ev = ScheduledEvent::with_parent(SimTime::new(4.0), cause, NO_PARENT, base);
            port.dispatch(&mut Mixer, ev, &mut lsds_obs::NoopTracer);
            port.route(
                |ev| locals.push((ev.seq, ev.parent, ev.time.seconds(), ev.event)),
                |k, dst, ev| remotes.push((ev.seq, ev.parent, k, dst, ev.event)),
            );
        }
        let tie = |seq: u64| (3u64 << 48) | seq;
        assert_eq!(
            locals,
            vec![
                (tie(0), 77, 5.0, 10),
                (tie(2), 77, 4.5, 12),
                (tie(4), 78, 5.0, 20),
                (tie(6), 78, 4.5, 22),
            ]
        );
        assert_eq!(
            remotes,
            vec![
                (tie(1), 77, 1, 7, 11),
                (tie(3), 77, 0, 5, 13),
                (tie(5), 78, 1, 7, 21),
                (tie(7), 78, 0, 5, 23),
            ]
        );
        assert_eq!(port.seq(), 8);
    }

    #[test]
    fn ctx_stages_local_and_remote() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(0.0, 1);
        ctx.send(1, 1.0, 2);
        assert_eq!(staged.len(), 2);
        match &staged[1] {
            Outgoing::Remote { dst, at, msg, .. } => {
                assert_eq!(*dst, 1);
                assert_eq!(*at, SimTime::new(11.0));
                assert_eq!(*msg, 2);
            }
            _ => panic!("expected remote"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_negative_dt_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(-0.5, 1);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_nan_dt_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.schedule_in(f64::NAN, 1);
    }

    /// The conservative contract: `send` rejects delays below the
    /// declared lookahead. Time Warp runs handlers with `lookahead =
    /// f64::MIN_POSITIVE`, so the same model code is accepted there for
    /// any strictly positive delay — only zero-delay cross-LP sends stay
    /// forbidden (they would make equal-time ordering race-dependent).
    #[test]
    #[should_panic]
    fn send_below_lookahead_panics() {
        let mut staged = Vec::new();
        let mut ctx: LpCtx<'_, u32> = LpCtx {
            now: SimTime::new(10.0),
            me: 0,
            lookahead: 1.0,
            cause: NO_PARENT,
            staged: &mut staged,
        };
        ctx.send(1, 0.5, 2);
    }
}
