//! Cross-crate invariant of the tracing layer (`lsds::obs::prof`): a
//! tracer only *observes*. Enabling causal tracing on any engine — the
//! four centralized engines and both conservative parallel engines — must
//! leave event order, final model state, and exported metric values
//! bit-identical to the untraced run, across seeds (the property the
//! `NoopTracer`/`RingTracer` split is designed to guarantee).

use lsds::core::engine::HybridModel;
use lsds::core::{Ctx, EventDriven, Hybrid, Model, SimTime, TimeDriven, TraceDriven};
use lsds::obs::{MetricsRecorder, NoopRecorder, Recorder, RingTracer, SpanKind, TraceConfig};
use lsds::parallel::cmb::InitialEvents;
use lsds::parallel::{
    run_cmb, run_cmb_traced, run_timestep, run_timestep_traced, LogicalProcess, LpCtx,
};
use lsds::stats::SimRng;
use lsds::trace::snapshot_to_json_string;

const SEEDS: [u64; 5] = [1, 7, 42, 1234, 0xDEAD];

/// What a `MetricsRecorder` saw: `engine.events`, `engine.advances`,
/// `engine.inserts`, `engine.pops` and the maximum of `engine.queue_len`.
/// The monitored cases pin these, so a change to the hook order or counts
/// of any engine shows up here.
fn hooks(rec: &MetricsRecorder) -> [u64; 5] {
    let reg = rec.registry();
    let max_len = reg.series("engine.queue_len").map_or(0.0, |s| s.max());
    [
        reg.counter("engine.events"),
        reg.counter("engine.advances"),
        reg.counter("engine.inserts"),
        reg.counter("engine.pops"),
        max_len as u64,
    ]
}

/// A branching cascade: each event spawns 0–2 children at random offsets,
/// and the model fingerprints every delivery `(time bits, payload)`.
struct Cascade {
    rng: SimRng,
    fingerprint: Vec<(u64, u64)>,
    budget: u64,
}

impl Cascade {
    fn new(seed: u64) -> Self {
        Cascade {
            rng: SimRng::new(seed),
            fingerprint: Vec::new(),
            budget: 2000,
        }
    }
}

impl Model for Cascade {
    type Event = u64;

    fn trace_kind(&self, ev: &u64) -> SpanKind {
        if ev.is_multiple_of(2) {
            SpanKind::tagged("cascade.even", *ev)
        } else {
            SpanKind::tagged("cascade.odd", *ev)
        }
    }

    fn trace_track(&self, ev: &u64) -> u32 {
        (*ev % 4) as u32
    }

    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        self.fingerprint.push((ctx.now().seconds().to_bits(), ev));
        if self.budget == 0 {
            return;
        }
        let children = self.rng.range_u64(0, 3);
        for c in 0..children {
            self.budget = self.budget.saturating_sub(1);
            let dt = self.rng.range_f64(0.1, 5.0);
            ctx.schedule_in(dt, ev.wrapping_mul(31).wrapping_add(c));
        }
    }
}

/// Runs `sim` body under both tracer variants and returns
/// `(fingerprint, metrics JSON, trace length)` — the traced side.
fn event_driven_run(seed: u64, traced: bool) -> (Vec<(u64, u64)>, String, usize) {
    let sim = EventDriven::with_recorder(Cascade::new(seed), MetricsRecorder::new());
    if traced {
        let mut sim = sim.with_tracer(RingTracer::new(TraceConfig::default()));
        for k in 0..4 {
            sim.schedule(SimTime::new(k as f64), k);
        }
        sim.run_until(SimTime::new(500.0));
        let metrics = snapshot_to_json_string(&sim.recorder().registry().snapshot(500.0));
        let (model, tracer) = sim.into_model_and_tracer();
        (model.fingerprint, metrics, tracer.finish().len())
    } else {
        let mut sim = sim;
        for k in 0..4 {
            sim.schedule(SimTime::new(k as f64), k);
        }
        sim.run_until(SimTime::new(500.0));
        let metrics = snapshot_to_json_string(&sim.recorder().registry().snapshot(500.0));
        (sim.into_model().fingerprint, metrics, 0)
    }
}

#[test]
fn event_driven_traced_is_bit_identical() {
    for seed in SEEDS {
        let (plain, plain_metrics, _) = event_driven_run(seed, false);
        let (traced, traced_metrics, spans) = event_driven_run(seed, true);
        assert_eq!(plain, traced, "seed {seed}: event order/state diverged");
        assert_eq!(
            plain_metrics, traced_metrics,
            "seed {seed}: metrics diverged"
        );
        assert_eq!(spans, plain.len(), "seed {seed}: one span per event");
    }
    // Monitored against unmonitored: the recorder only observes.
    fn run<R: Recorder>(seed: u64, recorder: R) -> (Vec<(u64, u64)>, R) {
        let mut sim = EventDriven::with_recorder(Cascade::new(seed), recorder);
        for k in 0..4 {
            sim.schedule(SimTime::new(k as f64), k);
        }
        sim.run_until(SimTime::new(500.0));
        let fingerprint = std::mem::take(&mut sim.model_mut().fingerprint);
        (fingerprint, sim.into_recorder())
    }
    for (seed, expected) in SEEDS.into_iter().zip(EVENT_DRIVEN_HOOKS) {
        let (plain, _) = run(seed, NoopRecorder);
        let (monitored, recorder) = run(seed, MetricsRecorder::new());
        assert_eq!(plain, monitored, "seed {seed}: monitoring changed the run");
        assert_eq!(hooks(&recorder), expected, "seed {seed}: hooks");
    }
}

/// `hooks` of the monitored event-driven runs, one row per seed.
const EVENT_DRIVEN_HOOKS: [[u64; 5]; 5] = [
    [2004, 2004, 2004, 2004, 676],
    [8, 8, 8, 8, 4],
    [2006, 2006, 2006, 2006, 642],
    [2004, 2004, 2004, 2004, 694],
    [2005, 2005, 2005, 2005, 685],
];

/// `hooks` of the monitored time-driven runs, one row per seed.
const TIME_DRIVEN_HOOKS: [[u64; 5]; 5] = [
    [2001, 600, 2001, 2001, 673],
    [1, 600, 1, 1, 1],
    [2003, 600, 2003, 2003, 639],
    [2001, 600, 2001, 2001, 691],
    [2002, 600, 2002, 2002, 682],
];

#[test]
fn time_driven_traced_is_bit_identical() {
    for (seed, expected) in SEEDS.into_iter().zip(TIME_DRIVEN_HOOKS) {
        let run = |traced: bool| {
            let sim = TimeDriven::new(Cascade::new(seed), 0.5);
            if traced {
                let mut sim = sim.with_tracer(RingTracer::new(TraceConfig::default()));
                sim.schedule(SimTime::ZERO, 1);
                sim.run_until(SimTime::new(300.0));
                let len = sim.tracer().len();
                (sim.into_model().fingerprint, len)
            } else {
                let mut sim = sim;
                sim.schedule(SimTime::ZERO, 1);
                sim.run_until(SimTime::new(300.0));
                (sim.into_model().fingerprint, 0)
            }
        };
        let (plain, _) = run(false);
        let (traced, spans) = run(true);
        assert_eq!(plain, traced, "seed {seed}: trajectories diverged");
        assert_eq!(spans, plain.len(), "seed {seed}: one span per event");
        let mut sim = TimeDriven::with_recorder(Cascade::new(seed), 0.5, MetricsRecorder::new());
        sim.schedule(SimTime::ZERO, 1);
        sim.run_until(SimTime::new(300.0));
        assert_eq!(hooks(sim.recorder()), expected, "seed {seed}: hooks");
        assert_eq!(
            sim.into_model().fingerprint,
            plain,
            "seed {seed}: monitored"
        );
    }
}

/// Trace-driven replay that also schedules internal follow-ups, so the
/// identity check covers the mixed replayed/internal event stream.
struct Replayer {
    fingerprint: Vec<(u64, u64)>,
}

impl Model for Replayer {
    type Event = u64;

    fn trace_kind(&self, _ev: &u64) -> SpanKind {
        SpanKind::new("replay")
    }

    fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
        self.fingerprint.push((ctx.now().seconds().to_bits(), ev));
        if ev.is_multiple_of(3) && ev < 1000 {
            ctx.schedule_in(0.25, ev + 1000);
        }
    }
}

#[test]
fn trace_driven_traced_is_bit_identical() {
    let records: Vec<(SimTime, u64)> = (0..200)
        .map(|i| (SimTime::new(i as f64 * 0.7), i))
        .collect();
    let run = |traced: bool| {
        let sim = TraceDriven::new(
            Replayer {
                fingerprint: Vec::new(),
            },
            records.clone().into_iter(),
        );
        if traced {
            let mut sim = sim.with_tracer(RingTracer::new(TraceConfig::default()));
            sim.run();
            let len = sim.tracer().len();
            (sim.into_model().fingerprint, len)
        } else {
            let mut sim = sim;
            sim.run();
            (sim.into_model().fingerprint, 0)
        }
    };
    let (plain, _) = run(false);
    let (traced, spans) = run(true);
    assert_eq!(plain, traced, "replayed+internal stream diverged");
    assert_eq!(spans, plain.len());
    let mut sim = TraceDriven::with_recorder(
        Replayer {
            fingerprint: Vec::new(),
        },
        records.into_iter(),
        MetricsRecorder::new(),
    );
    sim.run();
    assert_eq!(hooks(sim.recorder()), [267, 267, 67, 67, 1], "hooks");
    assert_eq!(
        sim.into_model().fingerprint,
        plain,
        "monitored stream diverged"
    );
}

/// Hybrid: exponential decay doubled by discrete events; fingerprints the
/// continuous state at each event.
struct Decay {
    log: Vec<(u64, u64)>,
}

impl HybridModel for Decay {
    type Event = u32;

    fn trace_kind(&self, _ev: &u32) -> SpanKind {
        SpanKind::new("decay.double")
    }

    fn derivatives(&self, _t: SimTime, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = -0.3 * y[0];
    }

    fn handle(&mut self, ev: u32, y: &mut [f64], ctx: &mut Ctx<'_, u32>) {
        y[0] *= 1.5;
        self.log
            .push((ctx.now().seconds().to_bits(), y[0].to_bits()));
        if ev < 20 {
            ctx.schedule_in(1.3, ev + 1);
        }
    }
}

#[test]
fn hybrid_traced_is_bit_identical() {
    let run = |traced: bool| {
        let sim = Hybrid::new(Decay { log: Vec::new() }, vec![1.0], 0.1);
        if traced {
            let mut sim = sim.with_tracer(RingTracer::new(TraceConfig::default()));
            sim.schedule(SimTime::new(0.5), 0);
            sim.run_until(SimTime::new(40.0));
            let state = sim.state().to_vec();
            let len = sim.tracer().len();
            (sim.into_parts().0.log, state, len)
        } else {
            let mut sim = sim;
            sim.schedule(SimTime::new(0.5), 0);
            sim.run_until(SimTime::new(40.0));
            let state = sim.state().to_vec();
            (sim.into_parts().0.log, state, 0)
        }
    };
    let (plain_log, plain_y, _) = run(false);
    let (traced_log, traced_y, spans) = run(true);
    assert_eq!(plain_log, traced_log, "event/state log diverged");
    assert_eq!(plain_y, traced_y, "final continuous state diverged");
    assert_eq!(spans, plain_log.len());
    let mut sim = Hybrid::with_recorder(
        Decay { log: Vec::new() },
        vec![1.0],
        0.1,
        MetricsRecorder::new(),
    );
    sim.schedule(SimTime::new(0.5), 0);
    sim.run_until(SimTime::new(40.0));
    assert_eq!(hooks(sim.recorder()), [21, 410, 21, 21, 1], "hooks");
    assert_eq!(sim.state(), plain_y, "monitored continuous state diverged");
    assert_eq!(sim.into_parts().0.log, plain_log, "monitored log diverged");
}

/// Ring of LPs passing a token, for both parallel engines.
struct Ring {
    n: usize,
    seen: Vec<(u64, u64)>,
    delay: f64,
}

impl LogicalProcess for Ring {
    type Msg = u64;

    fn trace_kind(&self, _msg: &u64) -> SpanKind {
        SpanKind::new("ring.hop")
    }

    fn handle(&mut self, now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        self.seen.push((now.seconds().to_bits(), hop));
        ctx.send((ctx.me() + 1) % self.n, self.delay, hop + 1);
    }

    fn lookahead(&self) -> f64 {
        self.delay
    }
}

impl InitialEvents for Ring {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, 0);
        }
    }
}

fn ring_lps(n: usize, delay: f64) -> Vec<Ring> {
    (0..n)
        .map(|_| Ring {
            n,
            seen: Vec::new(),
            delay,
        })
        .collect()
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

#[test]
fn cmb_traced_is_bit_identical() {
    let n = 4;
    let plain = run_cmb(ring_lps(n, 0.7), &ring_edges(n), SimTime::new(80.0));
    let (traced, trace) = run_cmb_traced(
        ring_lps(n, 0.7),
        &ring_edges(n),
        SimTime::new(80.0),
        TraceConfig::default(),
    );
    for i in 0..n {
        assert_eq!(plain.lps[i].seen, traced.lps[i].seen, "LP {i} diverged");
    }
    // `blocks` and `nulls_sent` are scheduler-dependent: nulls go out
    // only when an LP blocks, and a drain that picks up two arrivals at
    // once skips the intermediate bound — so under host load two runs
    // can legitimately differ by a few nulls. The deterministic fields
    // (events processed, model-driven messages sent) must match exactly.
    for (p, t) in plain.stats.iter().zip(&traced.stats) {
        assert_eq!(p.events, t.events, "event counts diverged");
        assert_eq!(p.remote_sent, t.remote_sent, "remote-send counts diverged");
    }
    assert_eq!(trace.len() as u64, traced.total_events());
    // merged deterministically: non-decreasing (vt, id)
    assert!(trace
        .spans
        .windows(2)
        .all(|w| (w[0].vt, w[0].id) <= (w[1].vt, w[1].id)));
}

#[test]
fn timestep_traced_is_bit_identical() {
    let n = 4;
    let plain = run_timestep(ring_lps(n, 1.0), 1.0, SimTime::new(80.0));
    let (traced, trace) = run_timestep_traced(
        ring_lps(n, 1.0),
        1.0,
        SimTime::new(80.0),
        TraceConfig::default(),
    );
    for i in 0..n {
        assert_eq!(plain.lps[i].seen, traced.lps[i].seen, "LP {i} diverged");
    }
    assert_eq!(plain.events, traced.events);
    assert_eq!(trace.len() as u64, traced.total_events());
    assert!(trace
        .spans
        .windows(2)
        .all(|w| (w[0].vt, w[0].id) <= (w[1].vt, w[1].id)));
}

#[test]
fn ring_buffer_overflow_evicts_oldest_without_touching_results() {
    let (plain, _, _) = event_driven_run(3, false);
    // capacity far below the event count: eviction must kick in
    let sim = EventDriven::new(Cascade::new(3))
        .with_tracer(RingTracer::new(TraceConfig::with_capacity(16)));
    let mut sim = sim;
    for k in 0..4 {
        sim.schedule(SimTime::new(k as f64), k);
    }
    sim.run_until(SimTime::new(500.0));
    let (model, tracer) = sim.into_model_and_tracer();
    assert_eq!(plain, model.fingerprint, "eviction changed the trajectory");
    assert!(plain.len() > 16);
    let dropped = tracer.dropped();
    let trace = tracer.finish();
    assert_eq!(trace.len(), 16, "ring keeps exactly its capacity");
    assert_eq!(dropped as usize, plain.len() - 16);
    // the survivors are the newest spans: the capped ring's contents equal
    // the tail of a full-capacity trace of the same (deterministic) run
    let mut full =
        EventDriven::new(Cascade::new(3)).with_tracer(RingTracer::new(TraceConfig::default()));
    for k in 0..4 {
        full.schedule(SimTime::new(k as f64), k);
    }
    full.run_until(SimTime::new(500.0));
    let full_trace = full.into_tracer().finish();
    let tail: Vec<u64> = full_trace.spans[full_trace.len() - 16..]
        .iter()
        .map(|s| s.id)
        .collect();
    let kept: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
    assert_eq!(kept, tail, "ring must evict oldest-first");
}

#[test]
fn sampling_thins_spans_without_touching_results() {
    let (plain, _, _) = event_driven_run(9, false);
    let sim = EventDriven::new(Cascade::new(9))
        .with_tracer(RingTracer::new(TraceConfig::default().sampled(4)));
    let mut sim = sim;
    for k in 0..4 {
        sim.schedule(SimTime::new(k as f64), k);
    }
    sim.run_until(SimTime::new(500.0));
    let (model, tracer) = sim.into_model_and_tracer();
    assert_eq!(plain, model.fingerprint, "sampling changed the trajectory");
    let trace = tracer.finish();
    assert!(trace.len() < plain.len() / 2, "1-in-4 sampling must thin");
    assert!(trace.spans.iter().all(|s| s.id.is_multiple_of(4)));
}
