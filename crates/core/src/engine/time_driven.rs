//! Time-driven executor: the clock advances by fixed increments.
//!
//! "A time-driven DES advances by fixed time increments and is useful for
//! modeling events that occur at regular time intervals. An event-driven
//! DES is more efficient than a time-driven DES since it does not step
//! through regular time intervals when no event occurs." (§3) — this engine
//! exists to make that trade-off measurable (experiment E3): it performs a
//! tick of bookkeeping at every step whether or not events are due, and it
//! quantizes delivery times to step boundaries (the fidelity cost of coarse
//! steps).

use super::kernel::Kernel;
use super::{Model, RunStats};
use crate::queue::{BinaryHeapQueue, EventQueue};
use crate::time::SimTime;
use lsds_obs::{NoopRecorder, NoopTracer, Recorder, Tracer};

/// Fixed-increment executor over the same [`Model`] interface as
/// [`super::EventDriven`].
///
/// Events scheduled for any time within a step `(k·dt, (k+1)·dt]` are
/// delivered at the step boundary `(k+1)·dt`, in `(time, seq)` order.
pub struct TimeDriven<
    M: Model,
    Q: EventQueue<M::Event> = BinaryHeapQueue<<M as Model>::Event>,
    R: Recorder = NoopRecorder,
    T: Tracer = NoopTracer,
> {
    model: M,
    kernel: Kernel<M::Event, Q, R, T>,
    dt: f64,
    ticks: u64,
}

impl<M: Model> TimeDriven<M, BinaryHeapQueue<M::Event>, NoopRecorder, NoopTracer> {
    /// Creates a time-driven engine with step `dt` and the default queue.
    pub fn new(model: M, dt: f64) -> Self {
        Self::with_queue(model, dt, BinaryHeapQueue::new())
    }
}

impl<M: Model, Q: EventQueue<M::Event>> TimeDriven<M, Q, NoopRecorder, NoopTracer> {
    /// Creates a time-driven engine with step `dt` over a specific queue.
    pub fn with_queue(model: M, dt: f64, queue: Q) -> Self {
        Self::with_parts(model, dt, queue, NoopRecorder)
    }
}

impl<M: Model, R: Recorder> TimeDriven<M, BinaryHeapQueue<M::Event>, R, NoopTracer> {
    /// Creates a monitored time-driven engine with the default queue.
    pub fn with_recorder(model: M, dt: f64, recorder: R) -> Self {
        Self::with_parts(model, dt, BinaryHeapQueue::new(), recorder)
    }
}

impl<M: Model, Q: EventQueue<M::Event>, R: Recorder> TimeDriven<M, Q, R, NoopTracer> {
    /// Creates a time-driven engine from an explicit queue and recorder.
    pub fn with_parts(model: M, dt: f64, queue: Q, recorder: R) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "step must be positive");
        TimeDriven {
            model,
            kernel: Kernel::new(queue, recorder),
            dt,
            ticks: 0,
        }
    }
}

impl<M: Model, Q: EventQueue<M::Event>, R: Recorder, T: Tracer> TimeDriven<M, Q, R, T> {
    /// Swaps the tracer, preserving all engine state (see
    /// [`super::EventDriven::with_tracer`]).
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> TimeDriven<M, Q, R, T2> {
        TimeDriven {
            model: self.model,
            kernel: self.kernel.with_tracer(tracer),
            dt: self.dt,
            ticks: self.ticks,
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

    /// Schedules an initial event at absolute time `t ≥ now()`.
    pub fn schedule(&mut self, t: SimTime, event: M::Event) {
        self.kernel.schedule(t, event);
    }

    /// Current simulated time (always a step boundary after a run).
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

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Shared view of the observability recorder.
    pub fn recorder(&self) -> &R {
        &self.kernel.recorder
    }

    /// Consumes the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.kernel.recorder
    }

    /// Advances one fixed step, delivering every event due by the new
    /// clock. Returns `false` once stopped.
    pub fn tick(&mut self) -> bool {
        if self.kernel.stopped {
            return false;
        }
        self.ticks += 1;
        let next = self.kernel.clock.after(self.dt);
        self.kernel.advance(next);
        // Quantized delivery: the model (and the `Pop` hook) observes the
        // step boundary, which is now the kernel's clock.
        while !self.kernel.stopped && self.kernel.next_time().is_some_and(|t| t <= next) {
            let Some(ev) = self.kernel.pop(Some(next)) else {
                break;
            };
            self.kernel.deliver_to(&mut self.model, ev);
        }
        !self.kernel.stopped
    }

    /// Runs steps until `t_end` or until a handler stops the run.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        let start_events = self.kernel.processed;
        let start_ticks = self.ticks;
        while !self.kernel.stopped && self.kernel.clock < t_end {
            self.tick();
        }
        RunStats::new(
            self.kernel.processed - start_events,
            self.kernel.clock,
            self.ticks - start_ticks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    struct Accumulator {
        seen: Vec<f64>,
    }
    impl Model for Accumulator {
        type Event = f64;
        fn handle(&mut self, original_time: f64, ctx: &mut Ctx<'_, f64>) {
            // record the quantization error between true and delivered time
            self.seen.push(ctx.now().seconds() - original_time);
        }
    }

    #[test]
    fn events_are_quantized_to_step_boundaries() {
        let mut sim = TimeDriven::new(Accumulator { seen: vec![] }, 1.0);
        for &t in &[0.2, 0.9, 1.0, 1.1, 2.5] {
            sim.schedule(SimTime::new(t), t);
        }
        let stats = sim.run_until(SimTime::new(5.0));
        assert_eq!(stats.events, 5);
        assert_eq!(stats.ticks, 5);
        // errors are in [0, dt)
        for &e in &sim.model().seen {
            assert!((0.0..1.0).contains(&e), "quantization error {e}");
        }
    }

    #[test]
    fn ticks_accrue_even_without_events() {
        let mut sim = TimeDriven::new(Accumulator { seen: vec![] }, 0.1);
        sim.schedule(SimTime::new(0.05), 0.05);
        let stats = sim.run_until(SimTime::new(100.0));
        assert_eq!(stats.events, 1);
        // 1000 steps of 0.1 (±1 for floating-point accumulation)
        assert!(
            (1000..=1001).contains(&stats.ticks),
            "pays for every empty step: {} ticks",
            stats.ticks
        );
    }

    #[test]
    fn finer_steps_reduce_quantization_error() {
        fn max_err(dt: f64) -> f64 {
            let mut sim = TimeDriven::new(Accumulator { seen: vec![] }, dt);
            for i in 0..50 {
                let t = 0.137 * (i as f64 + 1.0);
                sim.schedule(SimTime::new(t), t);
            }
            sim.run_until(SimTime::new(10.0));
            sim.model().seen.iter().cloned().fold(0.0, f64::max)
        }
        assert!(max_err(0.01) < max_err(1.0));
    }

    #[test]
    fn stop_from_handler() {
        struct StopAt3 {
            n: u32,
        }
        impl Model for StopAt3 {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
                self.n += 1;
                ctx.schedule_in(1.0, ());
                if self.n == 3 {
                    ctx.stop();
                }
            }
        }
        let mut sim = TimeDriven::new(StopAt3 { n: 0 }, 0.5);
        sim.schedule(SimTime::ZERO, ());
        sim.run_until(SimTime::new(1000.0));
        assert_eq!(sim.model().n, 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = TimeDriven::new(Accumulator { seen: vec![] }, 1.0);
        sim.run_until(SimTime::new(3.0));
        // Without the check this would be delivered late, at t = 4.
        sim.schedule(SimTime::new(2.5), 2.5);
    }
}
