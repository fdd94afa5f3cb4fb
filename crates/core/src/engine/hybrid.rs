//! Hybrid executor: continuous dynamics between discrete events.
//!
//! "A hybrid simulation comprises both continuous and discrete-event
//! simulations." (§3) The continuous part — e.g. fluid approximations of
//! link backlogs or thermal/load averages — is advanced with a classical
//! fixed-step RK4 integrator between event instants; discrete events
//! interrupt the integration exactly at their timestamps and may read and
//! rewrite the continuous state.

use super::kernel::Kernel;
use super::{Ctx, RunStats};
use crate::event::NO_PARENT;
use crate::queue::BinaryHeapQueue;
use crate::time::SimTime;
use lsds_obs::{NoopRecorder, NoopTracer, Recorder, SpanKind, Tracer};

/// A model with both a continuous state vector and discrete events.
pub trait HybridModel {
    /// Discrete event payload.
    type Event;

    /// Writes `dy/dt` at time `t` into `dydt` (same length as `y`).
    fn derivatives(&self, t: SimTime, y: &[f64], dydt: &mut [f64]);

    /// Handles a discrete event; may inspect and mutate the continuous
    /// state `y` and schedule further events.
    fn handle(&mut self, event: Self::Event, y: &mut [f64], ctx: &mut Ctx<'_, Self::Event>);

    /// Called after each integration step (threshold detection, logging).
    fn on_step(&mut self, _t: SimTime, _y: &mut [f64], _ctx: &mut Ctx<'_, Self::Event>) {}

    /// Classifies a discrete event for the tracing layer (see
    /// [`super::Model::trace_kind`]).
    fn trace_kind(&self, _event: &Self::Event) -> SpanKind {
        SpanKind::DEFAULT
    }

    /// Track exported spans for this event appear on (see
    /// [`super::Model::trace_track`]).
    fn trace_track(&self, _event: &Self::Event) -> u32 {
        0
    }
}

/// Hybrid continuous + discrete-event engine.
pub struct Hybrid<M: HybridModel, R: Recorder = NoopRecorder, T: Tracer = NoopTracer> {
    model: M,
    kernel: Kernel<M::Event, BinaryHeapQueue<M::Event>, R, T>,
    y: Vec<f64>,
    dt_max: f64,
    integration_steps: u64,
    // scratch buffers for RK4
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl<M: HybridModel> Hybrid<M, NoopRecorder, NoopTracer> {
    /// Creates a hybrid engine with initial continuous state `y0` and
    /// maximum integration step `dt_max`.
    pub fn new(model: M, y0: Vec<f64>, dt_max: f64) -> Self {
        Self::with_recorder(model, y0, dt_max, NoopRecorder)
    }
}

impl<M: HybridModel, R: Recorder> Hybrid<M, R, NoopTracer> {
    /// Creates a monitored hybrid engine.
    pub fn with_recorder(model: M, y0: Vec<f64>, dt_max: f64, recorder: R) -> Self {
        assert!(
            dt_max.is_finite() && dt_max > 0.0,
            "dt_max must be positive"
        );
        let n = y0.len();
        Hybrid {
            model,
            kernel: Kernel::new(BinaryHeapQueue::new(), recorder),
            y: y0,
            dt_max,
            integration_steps: 0,
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
            tmp: vec![0.0; n],
        }
    }
}

impl<M: HybridModel, R: Recorder, T: Tracer> Hybrid<M, R, T> {
    /// Swaps the tracer, preserving all engine state (see
    /// [`super::EventDriven::with_tracer`]).
    pub fn with_tracer<T2: Tracer>(self, tracer: T2) -> Hybrid<M, R, T2> {
        Hybrid {
            model: self.model,
            kernel: self.kernel.with_tracer(tracer),
            y: self.y,
            dt_max: self.dt_max,
            integration_steps: self.integration_steps,
            k1: self.k1,
            k2: self.k2,
            k3: self.k3,
            k4: self.k4,
            tmp: self.tmp,
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
    /// Schedules a discrete event.
    pub fn schedule(&mut self, t: SimTime, event: M::Event) {
        self.kernel.schedule(t, event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// Continuous state.
    pub fn state(&self) -> &[f64] {
        &self.y
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the engine, returning the model and final state.
    pub fn into_parts(self) -> (M, Vec<f64>) {
        (self.model, self.y)
    }

    /// RK4 integration steps taken so far.
    pub fn integration_steps(&self) -> u64 {
        self.integration_steps
    }

    /// Shared view of the observability recorder.
    pub fn recorder(&self) -> &R {
        &self.kernel.recorder
    }

    /// Consumes the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.kernel.recorder
    }

    fn rk4_step(&mut self, h: f64) {
        let t = self.kernel.clock;
        let n = self.y.len();
        self.model.derivatives(t, &self.y, &mut self.k1);
        for i in 0..n {
            self.tmp[i] = self.y[i] + 0.5 * h * self.k1[i];
        }
        self.model
            .derivatives(t.after(0.5 * h), &self.tmp, &mut self.k2);
        for i in 0..n {
            self.tmp[i] = self.y[i] + 0.5 * h * self.k2[i];
        }
        self.model
            .derivatives(t.after(0.5 * h), &self.tmp, &mut self.k3);
        for i in 0..n {
            self.tmp[i] = self.y[i] + h * self.k3[i];
        }
        self.model.derivatives(t.after(h), &self.tmp, &mut self.k4);
        for i in 0..n {
            self.y[i] += h / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
        self.integration_steps += 1;
    }

    /// Integrates the continuous state up to `t_target` in steps of at most
    /// `dt_max`, invoking `on_step` after each step.
    fn integrate_to(&mut self, t_target: SimTime) {
        while self.kernel.clock < t_target && !self.kernel.stopped {
            let h = (t_target - self.kernel.clock).min(self.dt_max);
            self.rk4_step(h);
            self.kernel.advance(self.kernel.clock + h);
            // integration steps are not events: anything scheduled from
            // on_step is externally caused as far as the trace DAG goes
            let (model, y, now) = (&mut self.model, &mut self.y, self.kernel.clock);
            self.kernel
                .handle(NO_PARENT, |ctx| model.on_step(now, y, ctx));
        }
    }

    /// Runs until `t_end`, alternating integration and event delivery.
    pub fn run_until(&mut self, t_end: SimTime) -> RunStats {
        let start = self.kernel.processed;
        let start_steps = self.integration_steps;
        while !self.kernel.stopped {
            let Some(t) = self.kernel.next_time().filter(|&t| t <= t_end) else {
                self.integrate_to(t_end);
                break;
            };
            self.integrate_to(t);
            if self.kernel.stopped {
                break;
            }
            let Some(ev) = self.kernel.pop(None) else {
                break;
            };
            // Events on_step scheduled during the integration may precede
            // the one peeked; they are delivered in order, at the clock.
            debug_assert!(ev.time <= self.kernel.clock, "clock behind event");
            let (model, y) = (&mut self.model, &mut self.y);
            let label = self
                .kernel
                .label(|| (model.trace_kind(&ev.event), model.trace_track(&ev.event)));
            self.kernel
                .deliver(ev, label, |event, ctx| model.handle(event, y, ctx));
        }
        RunStats::new(
            self.kernel.processed - start,
            self.kernel.clock,
            self.integration_steps - start_steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dy/dt = -y, with a discrete event that doubles y.
    struct Decay {
        doubled_at: Vec<f64>,
    }
    impl HybridModel for Decay {
        type Event = &'static str;
        fn derivatives(&self, _t: SimTime, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -y[0];
        }
        fn handle(&mut self, ev: &'static str, y: &mut [f64], ctx: &mut Ctx<'_, &'static str>) {
            assert_eq!(ev, "double");
            y[0] *= 2.0;
            self.doubled_at.push(ctx.now().seconds());
        }
    }

    #[test]
    fn pure_decay_matches_closed_form() {
        let mut sim = Hybrid::new(Decay { doubled_at: vec![] }, vec![1.0], 0.01);
        sim.run_until(SimTime::new(2.0));
        let expected = (-2.0f64).exp();
        assert!(
            (sim.state()[0] - expected).abs() < 1e-6,
            "{} vs {expected}",
            sim.state()[0]
        );
    }

    #[test]
    fn event_interrupts_integration_exactly() {
        let mut sim = Hybrid::new(Decay { doubled_at: vec![] }, vec![1.0], 0.01);
        sim.schedule(SimTime::new(1.0), "double");
        sim.run_until(SimTime::new(2.0));
        // y(2) = e^{-1} * 2 * e^{-1} = 2 e^{-2}
        let expected = 2.0 * (-2.0f64).exp();
        assert!((sim.state()[0] - expected).abs() < 1e-6);
        assert_eq!(sim.model().doubled_at, vec![1.0]);
    }

    #[test]
    fn step_count_scales_with_dt() {
        let mut coarse = Hybrid::new(Decay { doubled_at: vec![] }, vec![1.0], 0.1);
        coarse.run_until(SimTime::new(1.0));
        let mut fine = Hybrid::new(Decay { doubled_at: vec![] }, vec![1.0], 0.001);
        fine.run_until(SimTime::new(1.0));
        assert!(fine.integration_steps() > 50 * coarse.integration_steps());
    }

    /// Threshold detection via on_step: stop when y crosses 0.5.
    struct Threshold {
        crossed: Option<f64>,
    }
    impl HybridModel for Threshold {
        type Event = ();
        fn derivatives(&self, _t: SimTime, y: &[f64], dydt: &mut [f64]) {
            dydt[0] = -y[0];
        }
        fn handle(&mut self, _: (), _y: &mut [f64], _ctx: &mut Ctx<'_, ()>) {}
        fn on_step(&mut self, t: SimTime, y: &mut [f64], ctx: &mut Ctx<'_, ()>) {
            if self.crossed.is_none() && y[0] <= 0.5 {
                self.crossed = Some(t.seconds());
                ctx.stop();
            }
        }
    }

    #[test]
    fn threshold_detected_near_ln2() {
        let mut sim = Hybrid::new(Threshold { crossed: None }, vec![1.0], 0.001);
        sim.run_until(SimTime::new(5.0));
        let t = sim.model().crossed.expect("threshold not crossed");
        assert!((t - std::f64::consts::LN_2).abs() < 0.002, "crossed at {t}");
    }
}
