//! Event-driven executor: the clock jumps to the next pending event.

use super::kernel::Kernel;
use super::{Model, RunStats};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::SimTime;
use lsds_obs::{NoopRecorder, NoopTelemetry, NoopTracer, Recorder, Telemetry, Tracer};

/// The canonical discrete-event executor.
///
/// Generic over the event-list structure `Q` so the queue experiments (E2)
/// can swap implementations without touching models, and over the
/// observability recorder `R` (default [`NoopRecorder`], whose empty inline
/// hooks compile away — an unmonitored engine is bit-for-bit the seed
/// engine):
///
/// ```
/// use lsds_core::{EventDriven, Model, Ctx, SimTime, CalendarQueue};
///
/// struct Counter(u64);
/// impl Model for Counter {
///     type Event = ();
///     fn handle(&mut self, _ev: (), ctx: &mut Ctx<'_, ()>) {
///         self.0 += 1;
///         if self.0 < 10 {
///             ctx.schedule_in(1.0, ());
///         }
///     }
/// }
///
/// let mut sim = EventDriven::with_queue(Counter(0), CalendarQueue::new());
/// sim.schedule(SimTime::ZERO, ());
/// let stats = sim.run();
/// assert_eq!(stats.events, 10);
/// assert_eq!(sim.model().0, 10);
/// ```
pub struct EventDriven<
    M: Model,
    Q: EventQueue<M::Event> = BinaryHeapQueue<<M as Model>::Event>,
    R: Recorder = NoopRecorder,
    T: Tracer = NoopTracer,
    Y: Telemetry = NoopTelemetry,
> {
    model: M,
    kernel: Kernel<M::Event, Q, R, T>,
    tel: Y,
}

impl<M: Model> EventDriven<M, BinaryHeapQueue<M::Event>, NoopRecorder, NoopTracer, NoopTelemetry> {
    /// Creates an engine with the default binary-heap event list.
    pub fn new(model: M) -> Self {
        Self::with_queue(model, BinaryHeapQueue::new())
    }
}

impl<M: Model, Q: EventQueue<M::Event>> EventDriven<M, Q, NoopRecorder, NoopTracer, NoopTelemetry> {
    /// Creates an engine over a specific event-list structure.
    pub fn with_queue(model: M, queue: Q) -> Self {
        Self::with_parts(model, queue, NoopRecorder)
    }
}

impl<M: Model, R: Recorder>
    EventDriven<M, BinaryHeapQueue<M::Event>, R, NoopTracer, NoopTelemetry>
{
    /// Creates a monitored engine with the default binary-heap event list.
    pub fn with_recorder(model: M, recorder: R) -> Self {
        Self::with_parts(model, BinaryHeapQueue::new(), recorder)
    }
}

impl<M: Model, Q: EventQueue<M::Event>, R: Recorder>
    EventDriven<M, Q, R, NoopTracer, NoopTelemetry>
{
    /// Creates an engine from an explicit queue and recorder.
    pub fn with_parts(model: M, queue: Q, recorder: R) -> Self {
        EventDriven {
            model,
            kernel: Kernel::new(queue, recorder),
            tel: NoopTelemetry,
        }
    }
}

impl<M: Model, Q: EventQueue<M::Event>, R: Recorder, T: Tracer, Y: Telemetry>
    EventDriven<M, Q, R, T, Y>
{
    /// Swaps the tracer, preserving all engine state (clock, event list,
    /// sequence counter, model). Because a tracer only observes, a run
    /// continued after this conversion is bit-identical to one that never
    /// converted — enabling tracing mid-setup costs nothing in fidelity.
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> EventDriven<M, Q, R, T2, Y> {
        EventDriven {
            model: self.model,
            kernel: self.kernel.with_tracer(tracer),
            tel: self.tel,
        }
    }

    /// Swaps the telemetry sink, preserving all engine state — the same
    /// state-preserving conversion as [`EventDriven::with_tracer`].
    /// Telemetry only observes (queue depth, pool occupancy, event rate),
    /// so a converted run stays bit-identical to an unconverted one.
    pub fn with_telemetry<Y2: Telemetry>(self, tel: Y2) -> EventDriven<M, Q, R, T, Y2> {
        EventDriven {
            model: self.model,
            kernel: self.kernel,
            tel,
        }
    }

    /// Shared view of the telemetry sink.
    pub fn telemetry(&self) -> &Y {
        &self.tel
    }

    /// Consumes the engine, returning the telemetry sink (e.g. to
    /// `finish()` an `EngineTelemetry` into a `TelemetryReport`).
    pub fn into_telemetry(self) -> Y {
        self.tel
    }

    /// Shared view of the tracer.
    pub fn tracer(&self) -> &T {
        &self.kernel.tracer
    }

    /// Consumes the engine, returning the tracer (e.g. to `finish()` a
    /// `RingTracer` into a `SpanTrace`).
    pub fn into_tracer(self) -> T {
        self.kernel.tracer
    }

    /// Consumes the engine, returning both the model and the tracer —
    /// for callers that need the final state *and* the recorded trace.
    pub fn into_model_and_tracer(self) -> (M, T) {
        (self.model, self.kernel.tracer)
    }

    /// Schedules an initial event at absolute time `t`.
    pub fn schedule(&mut self, t: SimTime, event: M::Event) {
        self.kernel.schedule(t, event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// Events delivered so far.
    pub fn processed(&self) -> u64 {
        self.kernel.processed
    }

    /// Pending events (including any batched but not yet delivered).
    pub fn pending(&self) -> usize {
        self.kernel.pending()
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable view of the model (for instrumentation between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Shared view of the observability recorder.
    pub fn recorder(&self) -> &R {
        &self.kernel.recorder
    }

    /// Mutable view of the recorder (e.g. to add model-level metrics).
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.kernel.recorder
    }

    /// Consumes the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.kernel.recorder
    }

    /// Whether a handler has requested a stop.
    pub fn is_stopped(&self) -> bool {
        self.kernel.stopped
    }

    /// Delivers the next event, if any. Returns `false` when the event list
    /// is empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        if self.kernel.stopped {
            return false;
        }
        let Some(ev) = self.kernel.pop(None) else {
            return false;
        };
        debug_assert!(
            ev.time >= self.kernel.clock,
            "event list returned past event"
        );
        self.kernel.advance(ev.time);
        let now = ev.time.seconds();
        if Y::ENABLED && self.tel.tick(now) {
            let pending = self.kernel.pending();
            self.tel.sample("engine.queue_len", 0, now, pending as f64);
            self.tel.peak("engine.queue_high_water", 0, pending as u64);
            if let Some((live, high)) = self.kernel.queue.occupancy() {
                self.tel.sample("engine.pool_live", 0, now, live as f64);
                self.tel.peak("engine.pool_high_water", 0, high as u64);
            }
        }
        self.kernel.deliver_to(&mut self.model, ev);
        true
    }

    /// Runs until the event list drains or a handler stops the run.
    pub fn run(&mut self) -> RunStats {
        let start = self.kernel.processed;
        while self.step() {}
        RunStats::new(self.kernel.processed - start, self.kernel.clock, 0)
    }

    /// Runs until simulated time `t_end` (inclusive of events at `t_end`),
    /// the event list drains, or a handler stops the run. The clock is left
    /// at `t_end` if the horizon was reached with events still pending.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        let start = self.kernel.processed;
        while !self.kernel.stopped && self.kernel.next_time().is_some_and(|t| t <= t_end) {
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
    use crate::queue::{CalendarQueue, LadderQueue, SortedListQueue};
    use lsds_obs::MetricsRecorder;

    /// M/M/1-ish ping-pong used across engine tests.
    struct PingPong {
        hops: u64,
        limit: u64,
        times: Vec<f64>,
    }

    impl Model for PingPong {
        type Event = u8;
        fn handle(&mut self, ev: u8, ctx: &mut Ctx<'_, u8>) {
            self.hops += 1;
            self.times.push(ctx.now().seconds());
            if self.hops >= self.limit {
                ctx.stop();
            } else {
                ctx.schedule_in(0.5, 1 - ev);
            }
        }
    }

    #[test]
    fn runs_to_stop() {
        let mut sim = EventDriven::new(PingPong {
            hops: 0,
            limit: 7,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, 0);
        let stats = sim.run();
        assert_eq!(stats.events, 7);
        assert_eq!(sim.model().hops, 7);
        assert!((stats.end_time.seconds() - 3.0).abs() < 1e-12);
        assert!(sim.is_stopped());
        assert!(!sim.step(), "stopped engine must not step");
    }

    #[test]
    fn run_until_horizon() {
        let mut sim = EventDriven::new(PingPong {
            hops: 0,
            limit: u64::MAX,
            times: vec![],
        });
        sim.schedule(SimTime::ZERO, 0);
        let stats = sim.run_until(SimTime::new(10.0));
        // events at 0.0, 0.5, ..., 10.0 => 21 events
        assert_eq!(stats.events, 21);
        assert_eq!(sim.now(), SimTime::new(10.0));
        assert_eq!(sim.pending(), 1, "next event remains pending");
    }

    #[test]
    fn clock_monotone_and_times_recorded() {
        let mut sim = EventDriven::new(PingPong {
            hops: 0,
            limit: 100,
            times: vec![],
        });
        sim.schedule(SimTime::new(1.0), 0);
        sim.run();
        let times = &sim.model().times;
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times[0], 1.0);
    }

    #[test]
    fn identical_results_across_queue_structures() {
        fn run_with<Q: EventQueue<u8>>(q: Q) -> Vec<f64> {
            let mut sim = EventDriven::with_queue(
                PingPong {
                    hops: 0,
                    limit: 50,
                    times: vec![],
                },
                q,
            );
            sim.schedule(SimTime::ZERO, 0);
            sim.run();
            sim.into_model().times
        }
        let heap = run_with(BinaryHeapQueue::new());
        assert_eq!(heap, run_with(SortedListQueue::new()));
        assert_eq!(heap, run_with(CalendarQueue::new()));
        assert_eq!(heap, run_with(LadderQueue::new()));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut sim = EventDriven::new(Bad);
        sim.schedule(SimTime::new(5.0), ());
        sim.run();
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        struct Recorder(Vec<u32>);
        impl Model for Recorder {
            type Event = u32;
            fn handle(&mut self, ev: u32, _ctx: &mut Ctx<'_, u32>) {
                self.0.push(ev);
            }
        }
        let mut sim = EventDriven::new(Recorder(vec![]));
        for i in 0..10 {
            sim.schedule(SimTime::new(1.0), i);
        }
        sim.run();
        assert_eq!(sim.model().0, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_recorder_observes_run() {
        let mut sim = EventDriven::with_recorder(
            PingPong {
                hops: 0,
                limit: 7,
                times: vec![],
            },
            MetricsRecorder::new(),
        );
        sim.schedule(SimTime::ZERO, 0);
        sim.run();
        let reg = sim.recorder().registry();
        assert_eq!(reg.counter("engine.events"), 7);
        assert_eq!(reg.counter("engine.pops"), 7);
        // initial schedule + 6 follow-ups (the 7th hop stops instead)
        assert_eq!(reg.counter("engine.inserts"), 7);
        assert_eq!(reg.gauge("engine.clock"), Some(3.0));
        assert!(reg.series("engine.queue_len").is_some());
    }

    #[test]
    fn telemetry_run_matches_plain_and_samples_queue() {
        use crate::pool::PooledQueue;
        use lsds_obs::{EngineTelemetry, TelemetryConfig, TelemetryReport};
        let run_plain = || {
            let mut sim = EventDriven::new(PingPong {
                hops: 0,
                limit: 64,
                times: vec![],
            });
            sim.schedule(SimTime::ZERO, 0);
            sim.run();
            sim.into_model().times
        };
        let mut sim = EventDriven::with_queue(
            PingPong {
                hops: 0,
                limit: 64,
                times: vec![],
            },
            PooledQueue::new(BinaryHeapQueue::new()),
        )
        .with_telemetry(EngineTelemetry::new(TelemetryConfig::new().every_events(8)));
        sim.schedule(SimTime::ZERO, 0);
        sim.run();
        let (model, tel) = {
            let times = sim.model().times.clone();
            (times, sim.into_telemetry())
        };
        assert_eq!(model, run_plain(), "telemetry must not perturb the run");
        let report = TelemetryReport::merge(vec![tel]);
        assert_eq!(report.events(), 64);
        assert!(report.series_on("engine.queue_len", 0).is_some());
        // Hold model: exactly one event in flight at a time, and the
        // pooled queue reports its slab occupancy through the engine.
        assert_eq!(report.peak("engine.pool_high_water"), 1);
    }

    #[test]
    fn monitored_run_matches_unmonitored() {
        let run = |monitored: bool| {
            let model = PingPong {
                hops: 0,
                limit: 64,
                times: vec![],
            };
            if monitored {
                let mut sim = EventDriven::with_recorder(model, MetricsRecorder::new());
                sim.schedule(SimTime::ZERO, 0);
                sim.run();
                sim.into_model().times
            } else {
                let mut sim = EventDriven::new(model);
                sim.schedule(SimTime::ZERO, 0);
                sim.run();
                sim.into_model().times
            }
        };
        assert_eq!(run(true), run(false));
    }
}
