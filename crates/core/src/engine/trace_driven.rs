//! Trace-driven executor: external, pre-collected events drive the model.
//!
//! "A trace-driven DES proceeds by reading in a set of events that are
//! collected independently from another environment and are suitable for
//! modeling a system that has executed before in another environment." (§3)
//! The paper's input-data axis distinguishes simulators that accept
//! monitored data sets (MONARC 2 via MonALISA) from pure generators
//! (ChicagoSim); this engine is the replay half of that axis —
//! `lsds-trace` supplies [`TraceSource`]s from recorded files or synthetic
//! generators.

use super::kernel::Kernel;
use super::{Model, RunStats};
use crate::event::{ScheduledEvent, NO_PARENT};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::SimTime;
use lsds_obs::{NoopRecorder, NoopTracer, Recorder, Tracer};

/// A time-ordered stream of externally collected events.
///
/// Implementations must yield records with non-decreasing timestamps; the
/// engine validates this and panics on a disordered trace, because a
/// disordered monitored-data file is a corrupt input, not a model state.
pub trait TraceSource {
    /// The replayed event payload.
    type Record;
    /// Returns the next record, or `None` at end of trace.
    fn next_record(&mut self) -> Option<(SimTime, Self::Record)>;
}

impl<R, I: Iterator<Item = (SimTime, R)>> TraceSource for I {
    type Record = R;
    fn next_record(&mut self) -> Option<(SimTime, R)> {
        self.next()
    }
}

/// Replays a [`TraceSource`] into a [`Model`], merging the external stream
/// with any events the model schedules internally.
///
/// External records and internal events are delivered in global `(time,
/// arrival)` order; ties go to the internal event scheduled first, then the
/// trace record, matching the convention that replayed inputs are causes
/// and internal events are their consequences.
pub struct TraceDriven<
    M: Model,
    S: TraceSource<Record = M::Event>,
    Q = BinaryHeapQueue<<M as Model>::Event>,
    R: Recorder = NoopRecorder,
    T: Tracer = NoopTracer,
> where
    Q: EventQueue<M::Event>,
{
    model: M,
    kernel: Kernel<M::Event, Q, R, T>,
    source: S,
    lookahead: Option<(SimTime, M::Event)>,
    last_trace_time: SimTime,
    replayed: u64,
}

impl<M: Model, S: TraceSource<Record = M::Event>>
    TraceDriven<M, S, BinaryHeapQueue<M::Event>, NoopRecorder, NoopTracer>
{
    /// Creates a trace-driven engine with the default internal queue.
    pub fn new(model: M, source: S) -> Self {
        Self::with_queue(model, source, BinaryHeapQueue::new())
    }
}

impl<M: Model, S: TraceSource<Record = M::Event>, Q: EventQueue<M::Event>>
    TraceDriven<M, S, Q, NoopRecorder, NoopTracer>
{
    /// Creates a trace-driven engine over a specific internal queue.
    pub fn with_queue(model: M, source: S, queue: Q) -> Self {
        Self::with_parts(model, source, queue, NoopRecorder)
    }
}

impl<M: Model, S: TraceSource<Record = M::Event>, R: Recorder>
    TraceDriven<M, S, BinaryHeapQueue<M::Event>, R, NoopTracer>
{
    /// Creates a monitored trace-driven engine with the default queue.
    pub fn with_recorder(model: M, source: S, recorder: R) -> Self {
        Self::with_parts(model, source, BinaryHeapQueue::new(), recorder)
    }
}

impl<M: Model, S: TraceSource<Record = M::Event>, Q: EventQueue<M::Event>, R: Recorder>
    TraceDriven<M, S, Q, R, NoopTracer>
{
    /// Creates a trace-driven engine from explicit parts.
    pub fn with_parts(model: M, source: S, queue: Q, recorder: R) -> Self {
        TraceDriven {
            model,
            kernel: Kernel::new(queue, recorder),
            source,
            lookahead: None,
            last_trace_time: SimTime::ZERO,
            replayed: 0,
        }
    }
}

impl<
        M: Model,
        S: TraceSource<Record = M::Event>,
        Q: EventQueue<M::Event>,
        R: Recorder,
        T: Tracer,
    > TraceDriven<M, S, Q, R, T>
{
    /// Swaps the tracer, preserving all engine state (see
    /// [`super::EventDriven::with_tracer`]).
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> TraceDriven<M, S, Q, R, T2> {
        TraceDriven {
            model: self.model,
            kernel: self.kernel.with_tracer(tracer),
            source: self.source,
            lookahead: self.lookahead,
            last_trace_time: self.last_trace_time,
            replayed: self.replayed,
        }
    }

    /// Shared view of the tracer.
    pub fn tracer(&self) -> &T {
        &self.kernel.tracer
    }

    /// Consumes the engine, returning the tracer.
    pub fn into_tracer(self) -> T {
        self.kernel.tracer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Records replayed from the trace so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Shared view of the observability recorder.
    pub fn recorder(&self) -> &R {
        &self.kernel.recorder
    }

    /// Consumes the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.kernel.recorder
    }

    /// Time of the next delivery, and whether it is an internal event: the
    /// earlier of the kernel's next event and the trace head, internal
    /// events winning ties.
    fn next(&mut self) -> Option<(SimTime, bool)> {
        if self.lookahead.is_none() {
            if let Some((t, r)) = self.source.next_record() {
                assert!(
                    t >= self.last_trace_time,
                    "trace is not time-ordered: {t} after {}",
                    self.last_trace_time
                );
                self.last_trace_time = t;
                self.lookahead = Some((t, r));
            }
        }
        let trace = self.lookahead.as_ref().map(|(t, _)| *t);
        match (self.kernel.next_time(), trace) {
            (Some(q), Some(t)) if t < q => Some((t, false)),
            (Some(q), _) => Some((q, true)),
            (None, t) => t.map(|t| (t, false)),
        }
    }

    /// Delivers the next event (trace or internal). Returns `false` when
    /// both streams are exhausted or the run was stopped.
    pub fn step(&mut self) -> bool {
        if self.kernel.stopped {
            return false;
        }
        let ev = match self.next() {
            None => return false,
            Some((_, true)) => match self.kernel.pop(None) {
                Some(ev) => ev,
                None => return false,
            },
            Some((_, false)) => {
                let Some((t, r)) = self.lookahead.take() else {
                    return false;
                };
                // Replayed records get a fresh event id; done unconditionally
                // (not only when traced) so the seq stream — and with it every
                // tie-break downstream — is identical with tracing on or off.
                let id = self.kernel.seq;
                self.kernel.seq += 1;
                self.replayed += 1;
                ScheduledEvent::with_parent(t, id, NO_PARENT, r)
            }
        };
        debug_assert!(ev.time >= self.kernel.clock);
        self.kernel.advance(ev.time);
        self.kernel.deliver_to(&mut self.model, ev);
        true
    }

    /// Replays until both streams drain or a handler stops the run.
    pub fn run(&mut self) -> RunStats {
        let start = self.kernel.processed;
        while self.step() {}
        RunStats::new(self.kernel.processed - start, self.kernel.clock, 0)
    }

    /// Replays events up to and including `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        let start = self.kernel.processed;
        while !self.kernel.stopped && self.next().is_some_and(|(t, _)| t <= t_end) {
            self.step();
        }
        if !self.kernel.stopped && self.kernel.clock < t_end {
            self.kernel.clock = t_end;
        }
        RunStats::new(self.kernel.processed - start, self.kernel.clock, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    #[derive(Debug, PartialEq)]
    enum Ev {
        External(u32),
        Internal(u32),
    }

    struct Echo {
        log: Vec<(f64, Ev)>,
    }
    impl Model for Echo {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            if let Ev::External(n) = ev {
                // every external record spawns an internal follow-up
                ctx.schedule_in(0.25, Ev::Internal(n));
            }
            self.log.push((ctx.now().seconds(), ev));
        }
    }

    fn trace(records: Vec<(f64, u32)>) -> impl TraceSource<Record = Ev> {
        records
            .into_iter()
            .map(|(t, n)| (SimTime::new(t), Ev::External(n)))
    }

    #[test]
    fn replays_in_order_with_internal_events() {
        let mut sim = TraceDriven::new(
            Echo { log: vec![] },
            trace(vec![(1.0, 1), (2.0, 2), (3.0, 3)]),
        );
        let stats = sim.run();
        assert_eq!(stats.events, 6);
        assert_eq!(sim.replayed(), 3);
        let log = &sim.model().log;
        let times: Vec<f64> = log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1.0, 1.25, 2.0, 2.25, 3.0, 3.25]);
    }

    #[test]
    fn internal_event_wins_tie() {
        // external at 1.25 ties with the internal follow-up of t=1.0
        let mut sim = TraceDriven::new(Echo { log: vec![] }, trace(vec![(1.0, 1), (1.25, 2)]));
        sim.run();
        let log = &sim.model().log;
        assert_eq!(log[1].1, Ev::Internal(1));
        assert_eq!(log[2].1, Ev::External(2));
    }

    /// Internal events tied with a trace record are delivered as a batch;
    /// every one of them — including one a batch member schedules at the
    /// same instant — still precedes the record, in `seq` order.
    #[test]
    fn internal_batch_wins_tie_with_record() {
        #[derive(Debug, PartialEq)]
        enum Tie {
            Record(u32),
            Internal(u32),
        }
        struct Fan {
            log: Vec<(f64, Tie)>,
        }
        impl Model for Fan {
            type Event = Tie;
            fn handle(&mut self, ev: Tie, ctx: &mut Ctx<'_, Tie>) {
                match ev {
                    Tie::Record(0) => {
                        for n in 0..3 {
                            ctx.schedule_at(SimTime::new(1.0), Tie::Internal(n));
                        }
                    }
                    // the batch's last member extends the run at its instant
                    Tie::Internal(2) => ctx.schedule_in(0.0, Tie::Internal(3)),
                    _ => {}
                }
                self.log.push((ctx.now().seconds(), ev));
            }
        }
        let records = [(0.0, 0), (1.0, 1)]
            .into_iter()
            .map(|(t, n)| (SimTime::new(t), Tie::Record(n)));
        let mut sim = TraceDriven::new(Fan { log: vec![] }, records);
        sim.run();
        let expected = [
            (0.0, Tie::Record(0)),
            (1.0, Tie::Internal(0)),
            (1.0, Tie::Internal(1)),
            (1.0, Tie::Internal(2)),
            (1.0, Tie::Internal(3)),
            (1.0, Tie::Record(1)),
        ];
        assert_eq!(sim.model().log, expected);
    }

    #[test]
    fn run_until_cuts_at_horizon() {
        let mut sim = TraceDriven::new(
            Echo { log: vec![] },
            trace(vec![(1.0, 1), (5.0, 2), (9.0, 3)]),
        );
        let stats = sim.run_until(SimTime::new(4.0));
        assert_eq!(sim.replayed(), 1);
        assert_eq!(stats.events, 2); // external 1 + its internal follow-up
        assert_eq!(sim.now(), SimTime::new(4.0));
        // the rest still replays afterwards
        sim.run();
        assert_eq!(sim.replayed(), 3);
    }

    #[test]
    #[should_panic]
    fn disordered_trace_panics() {
        let mut sim = TraceDriven::new(Echo { log: vec![] }, trace(vec![(2.0, 1), (1.0, 2)]));
        sim.run();
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut sim = TraceDriven::new(Echo { log: vec![] }, trace(vec![]));
        let stats = sim.run();
        assert_eq!(stats.events, 0);
    }
}
