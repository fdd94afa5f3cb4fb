//! Synchronous (barrier) parallel execution in fixed time windows.
//!
//! The simpler of the two distributed designs: all logical processes
//! advance in lockstep through windows of width `delta ≤ lookahead`.
//! Because every inter-LP message carries at least `lookahead` of delay, a
//! message sent during window `k` is always due in window `k+1` or later,
//! so one barrier per window is the only synchronization needed. The
//! trade-off against [`crate::cmb`] is classic: no null messages, but every
//! LP pays for every window — idle partitions wait at the barrier
//! (measured in experiment E4).

use crate::lp::{run_lp_threads, validate_run, LpId};
use lsds_core::{LpCore, ScheduledEvent, SimTime};
use lsds_obs::{
    EngineTelemetry, NoopTelemetry, NoopTracer, Registry, RingTracer, SpanTrace, Telemetry,
    TelemetryConfig, TelemetryReport, TraceConfig, Tracer,
};
use std::sync::Barrier;

/// Result of a time-stepped parallel run.
#[derive(Debug)]
pub struct TimestepReport<L> {
    /// The logical processes, in id order, with final state.
    pub lps: Vec<L>,
    /// Events processed per LP.
    pub events: Vec<u64>,
    /// Number of synchronization windows executed.
    pub windows: u64,
}

impl<L> TimestepReport<L> {
    /// Total events across LPs.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Exports the run's synchronization counters into a metrics registry.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("timestep.events", self.total_events());
        reg.inc("timestep.windows", self.windows);
        reg.set_gauge("timestep.lps", self.lps.len() as f64);
        for (i, ev) in self.events.iter().enumerate() {
            reg.inc(&format!("timestep.lp.{i}.events"), *ev);
        }
    }
}

/// Runs logical processes to `t_end` in synchronized windows of `delta`.
///
/// `delta` must not exceed any LP's lookahead: the window invariant
/// requires every remote message to land in a strictly later window.
pub fn run_timestep<L>(lps: Vec<L>, delta: f64, t_end: SimTime) -> TimestepReport<L>
where
    L: crate::cmb::InitialEvents,
{
    let (report, _tracers, _tels) =
        run_timestep_with(lps, delta, t_end, |_| NoopTracer, |_| NoopTelemetry);
    report
}

/// Like [`run_timestep`], but records scheduler telemetry — per-LP barrier
/// waits, barrier wall time, and sampled queue lengths — into one
/// [`EngineTelemetry`] sink per LP, merged after the run.
///
/// Telemetry only observes: the returned [`TimestepReport`] is
/// bit-identical to a plain [`run_timestep`] run's.
pub fn run_timestep_telemetry<L>(
    lps: Vec<L>,
    delta: f64,
    t_end: SimTime,
    tcfg: TelemetryConfig,
) -> (TimestepReport<L>, TelemetryReport)
where
    L: crate::cmb::InitialEvents,
{
    let (report, _tracers, tels) = run_timestep_with(
        lps,
        delta,
        t_end,
        |_| NoopTracer,
        |lp| EngineTelemetry::for_track(tcfg.clone(), lp as u32),
    );
    (report, TelemetryReport::merge(tels))
}

/// Like [`run_timestep`], but records a causal span per handled event into
/// a per-LP [`RingTracer`], then merges the per-LP traces deterministically
/// by `(virtual time, event id)`.
///
/// The tracer only observes — event ids, tie-breaks, and delivery order
/// are computed identically with tracing on or off, so the returned
/// [`TimestepReport`] is bit-identical to an untraced run's.
pub fn run_timestep_traced<L>(
    lps: Vec<L>,
    delta: f64,
    t_end: SimTime,
    cfg: TraceConfig,
) -> (TimestepReport<L>, SpanTrace)
where
    L: crate::cmb::InitialEvents,
{
    let (report, tracers, _tels) = run_timestep_with(
        lps,
        delta,
        t_end,
        |_| RingTracer::new(cfg),
        |_| NoopTelemetry,
    );
    let trace = SpanTrace::merge(tracers.into_iter().map(RingTracer::finish).collect());
    (report, trace)
}

fn run_timestep_with<L, T, Y>(
    lps: Vec<L>,
    delta: f64,
    t_end: SimTime,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
) -> (TimestepReport<L>, Vec<T>, Vec<Y>)
where
    L: crate::cmb::InitialEvents,
    T: Tracer + Send,
    Y: Telemetry + Send,
{
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
    // No edge list: any LP may send to any other. The window invariant
    // needs every remote message to land in a strictly later window.
    validate_run(&lps, &[], Some(delta));
    let n = lps.len();
    let windows = (t_end.seconds() / delta).ceil() as u64;
    let barrier = Barrier::new(n);
    let (lps, events, tracers, tels) = run_lp_threads(
        lps,
        mk_tracer,
        mk_tel,
        |me, lp, tracer, mut tel, rx, txs| {
            let outs = (0..n).filter(|&d| d != me).collect();
            let mut core = LpCore::new(me, lp, outs, tracer);
            // A peer that already returned (closing pass, after the last
            // barrier) only drops mail due past t_end — the window
            // invariant (delay ≥ δ) makes such mail unprocessable anyway,
            // so ignore the disconnect.
            let mail = |_, dst: LpId, ev: ScheduledEvent<L::Msg>| {
                txs[dst].send(ev).ok();
            };
            core.init(mail);
            // Window w < windows processes events with t ∈ [wδ, (w+1)δ).
            // delay ≥ δ guarantees a message sent in window w is due at
            // or after (w+1)δ, so one barrier per window is the only
            // synchronization needed (see module docs). The closing pass
            // (w == windows) takes the events landing exactly on t_end,
            // which the half-open windows exclude; window 0 needs no
            // barrier before it.
            for w in 0..=windows {
                if w > 0 {
                    if Y::ENABLED {
                        tel.inc("ts.barrier_waits", me as u32, 1);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "telemetry measures host time waiting at the window barrier; never feeds back into simulated time or delivery order"
                        )]
                        let from = std::time::Instant::now();
                        barrier.wait();
                        tel.inc("ts.barrier_ns", me as u32, from.elapsed().as_nanos() as u64);
                    } else {
                        barrier.wait();
                    }
                }
                // mail sent in earlier windows is fully delivered (the
                // barrier above is the happens-before edge)
                while let Ok(ev) = rx.try_recv() {
                    core.accept(ev);
                }
                let open = |t: SimTime| w == windows || t.seconds() < (w + 1) as f64 * delta;
                // A message landing in an already-processed window would
                // mean the window invariant was violated; the core's
                // clock check catches that regression in debug builds.
                while let Some(at) = core.next_time().filter(|&t| open(t) && t <= t_end) {
                    core.step(mail);
                    if Y::ENABLED && tel.tick(at.seconds()) {
                        let len = core.queue_len() as f64;
                        tel.sample("ts.queue_len", me as u32, at.seconds(), len);
                    }
                }
            }
            let (lp, events, tracer) = core.finish();
            (lp, events, tracer, tel)
        },
    );
    (
        TimestepReport {
            lps,
            events,
            windows,
        },
        tracers,
        tels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmb::InitialEvents;
    use crate::lp::{LogicalProcess, LpCtx};

    struct Hopper {
        n: usize,
        seen: u64,
        delay: f64,
    }
    impl LogicalProcess for Hopper {
        type Msg = u64;
        fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
            self.seen += 1;
            ctx.send((ctx.me() + 1) % self.n, self.delay, hop + 1);
        }
        fn lookahead(&self) -> f64 {
            self.delay
        }
    }
    impl InitialEvents for Hopper {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.schedule_in(0.0, 0);
            }
        }
    }

    fn hoppers(n: usize, delay: f64) -> Vec<Hopper> {
        (0..n).map(|_| Hopper { n, seen: 0, delay }).collect()
    }

    #[test]
    fn matches_cmb_result() {
        let ts = run_timestep(hoppers(4, 1.0), 1.0, SimTime::new(100.0));
        // same analytic count as the CMB ring test: events at t=0..=100
        assert_eq!(ts.total_events(), 101);
        assert_eq!(ts.lps[0].seen, 26);
    }

    #[test]
    fn deterministic() {
        let a = run_timestep(hoppers(5, 0.5), 0.5, SimTime::new(30.0));
        let b = run_timestep(hoppers(5, 0.5), 0.5, SimTime::new(30.0));
        let sa: Vec<u64> = a.lps.iter().map(|l| l.seen).collect();
        let sb: Vec<u64> = b.lps.iter().map(|l| l.seen).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn window_count() {
        let ts = run_timestep(hoppers(2, 1.0), 0.25, SimTime::new(10.0));
        assert_eq!(ts.windows, 40);
    }

    #[test]
    #[should_panic]
    fn window_wider_than_lookahead_rejected() {
        run_timestep(hoppers(2, 0.5), 1.0, SimTime::new(10.0));
    }

    #[test]
    fn telemetry_run_matches_plain_and_counts_barriers() {
        let plain = run_timestep(hoppers(4, 1.0), 1.0, SimTime::new(100.0));
        let (telr, tel) = run_timestep_telemetry(
            hoppers(4, 1.0),
            1.0,
            SimTime::new(100.0),
            TelemetryConfig::new().every_events(4),
        );
        assert_eq!(plain.total_events(), telr.total_events());
        let sa: Vec<u64> = plain.lps.iter().map(|l| l.seen).collect();
        let sb: Vec<u64> = telr.lps.iter().map(|l| l.seen).collect();
        assert_eq!(sa, sb);
        // every LP waits at every window barrier
        assert_eq!(tel.counter("ts.barrier_waits"), 4 * telr.windows);
        assert_eq!(tel.counter_on("ts.barrier_waits", 2), telr.windows);
        assert_eq!(tel.events(), telr.total_events());
    }

    #[test]
    fn traced_run_matches_untraced_and_links_parents() {
        let plain = run_timestep(hoppers(4, 1.0), 1.0, SimTime::new(100.0));
        let (traced, trace) = run_timestep_traced(
            hoppers(4, 1.0),
            1.0,
            SimTime::new(100.0),
            TraceConfig::default(),
        );
        assert_eq!(plain.total_events(), traced.total_events());
        let sa: Vec<u64> = plain.lps.iter().map(|l| l.seen).collect();
        let sb: Vec<u64> = traced.lps.iter().map(|l| l.seen).collect();
        assert_eq!(sa, sb);
        assert_eq!(trace.len() as u64, traced.total_events());
        assert!(trace.spans.windows(2).all(|w| w[0].vt <= w[1].vt));
        // the hop chain is one causal path through all four LP tracks
        let path = trace.critical_path();
        assert!(path.complete);
        assert_eq!(path.steps.len() as u64, traced.total_events());
    }
}
