//! The benchmark's whole view of the product. Every name the benchmark
//! uses from the `lsds-*` crates is imported here and nowhere else, and
//! every call whose *shape* a refactor is likely to change (engine
//! construction with observers, the `run_*` family of the parallel crate)
//! goes through a function of this file. A later change that renames or
//! reshapes that surface re-points the benchmark with a one-file diff;
//! README.md lists the surface.

pub use lsds_core::{
    BinaryHeapQueue, CalendarQueue, Ctx, EventDriven, EventQueue, LadderQueue, Model, PooledQueue,
    Schedule, ScheduledEvent, SimTime, SortedListQueue, TimeDriven, TraceDriven, TraceSource,
};
pub use lsds_grid::cpu::{CpuFarm, Discipline, Sharing};
pub use lsds_grid::model::{GridConfig, GridEvent, GridModel, Production};
pub use lsds_grid::organization::{BuiltGrid, Organization};
pub use lsds_grid::replication::{FileCatalog, FileId};
pub use lsds_grid::scheduler::{LeastLoaded, PlacementView, SchedulerPolicy, SiteSnapshot};
pub use lsds_grid::site::{Site, SiteId};
pub use lsds_grid::storage::{DbServer, MassStorage, StorageElement};
pub use lsds_grid::{CpuEvent, FaultSchedule, JobId, JobSpec, ReplicationPolicy};
pub use lsds_net::{
    gbps, FlowDone, FlowEvent, FlowNet, LinkFault, LinkId, NodeId, NodeKind, RouteCache, Routing,
    Topology,
};
pub use lsds_obs::{SpanKind, SpanTrace};
pub use lsds_parallel::cmb::InitialEvents;
pub use lsds_parallel::profiled as partition_profiled;
pub use lsds_parallel::{LogicalProcess, LpCtx, SaveState};
pub use lsds_queueing::markov::MM1;
pub use lsds_simulators::{
    bricks::Bricks, chicagosim::ChicagoSim, gridsim::GridSim, monarc::Monarc, optorsim::OptorSim,
    simgrid::SchedulingMode, simgrid::SimGrid,
};
pub use lsds_stats::{Dist, SimRng, Summary};
pub use lsds_trace::{chrome_trace_to_string, read_trace, Json};

use lsds_obs::{
    EngineTelemetry, MetricsRecorder, Recorder, RingTracer, Telemetry, TelemetryConfig,
    TraceConfig, Tracer,
};
use lsds_parallel::{
    run_cmb, run_cmb_telemetry, run_sequential, run_timestep, run_timestep_telemetry,
    run_timewarp_cfg, run_worksteal_cfg, run_worksteal_telemetry, TwConfig, WsConfig,
};

/// The unobserved default engine: `EventDriven::new`.
pub fn engine_plain<M: Model>(model: M) -> EventDriven<M> {
    EventDriven::new(model)
}

/// The engine with every observer the repository ships switched on.
pub type ObservedEngine<M> = EventDriven<
    M,
    BinaryHeapQueue<<M as Model>::Event>,
    MetricsRecorder,
    RingTracer,
    EngineTelemetry,
>;

/// `EventDriven` with `MetricsRecorder`, a 1-in-16 `RingTracer` and
/// `EngineTelemetry` attached — what a user debugging a slow run turns on.
pub fn engine_observed<M: Model>(model: M) -> ObservedEngine<M> {
    EventDriven::with_recorder(model, MetricsRecorder::new())
        .with_tracer(RingTracer::new(TraceConfig::default().sampled(16)))
        .with_telemetry(EngineTelemetry::new(TelemetryConfig::new()))
}

/// The default engine over an explicit model and event list (the traced
/// pass hands in shimmed ones).
pub fn engine_shimmed<M: Model, Q: EventQueue<M::Event>>(model: M, queue: Q) -> EventDriven<M, Q> {
    EventDriven::with_queue(model, queue)
}

/// Runs an engine to `horizon` (or until its event list drains, or its
/// model stops it) and returns the events delivered.
pub fn run_engine<M, Q, R, T, Y>(
    sim: &mut EventDriven<M, Q, R, T, Y>,
    horizon: Option<SimTime>,
) -> u64
where
    M: Model,
    Q: EventQueue<M::Event>,
    R: Recorder,
    T: Tracer,
    Y: Telemetry,
{
    match horizon {
        Some(t) => sim.run_until(t).events,
        None => sim.run().events,
    }
}

/// What the observers of an [`ObservedEngine`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedDigest {
    /// `engine.events` of the metrics recorder.
    pub recorder_events: u64,
    /// Spans the ring tracer kept or evicted.
    pub spans: u64,
    /// Events ticked through the telemetry sink (`None`: the engine takes
    /// no telemetry).
    pub telemetry_events: Option<u64>,
}

/// Consumes an observed engine and reports what its observers recorded.
pub fn observed_digest<M: Model>(sim: ObservedEngine<M>) -> ObservedDigest {
    let recorder_events = sim.recorder().registry().counter("engine.events");
    let spans = sim.tracer().len() as u64 + sim.tracer().dropped();
    let telemetry_events = Some(sim.into_telemetry().finish().events());
    ObservedDigest {
        recorder_events,
        spans,
        telemetry_events,
    }
}

/// The unobserved trace-replay engine: `TraceDriven::new`.
pub fn replay_plain<M: Model, S: TraceSource<Record = M::Event>>(
    model: M,
    source: S,
) -> TraceDriven<M, S> {
    TraceDriven::new(model, source)
}

/// The trace-replay engine with the observers it accepts switched on.
pub type ObservedReplay<M, S> =
    TraceDriven<M, S, BinaryHeapQueue<<M as Model>::Event>, MetricsRecorder, RingTracer>;

/// `TraceDriven` with `MetricsRecorder` and a 1-in-16 `RingTracer`
/// attached. It has no `with_telemetry`, so `EngineTelemetry` is missing
/// from what [`engine_observed`] turns on.
pub fn replay_observed<M: Model, S: TraceSource<Record = M::Event>>(
    model: M,
    source: S,
) -> ObservedReplay<M, S> {
    TraceDriven::with_recorder(model, source, MetricsRecorder::new())
        .with_tracer(RingTracer::new(TraceConfig::default().sampled(16)))
}

/// The trace-replay engine over an explicit model and event list (the
/// traced pass hands in shimmed ones).
pub fn replay_shimmed<M: Model, S: TraceSource<Record = M::Event>, Q: EventQueue<M::Event>>(
    model: M,
    source: S,
    queue: Q,
) -> TraceDriven<M, S, Q> {
    TraceDriven::with_queue(model, source, queue)
}

/// Replays until the trace and the event list drain; returns the events
/// delivered.
pub fn run_replay<M, S, Q, R, T>(sim: &mut TraceDriven<M, S, Q, R, T>) -> u64
where
    M: Model,
    S: TraceSource<Record = M::Event>,
    Q: EventQueue<M::Event>,
    R: Recorder,
    T: Tracer,
{
    sim.run().events
}

/// Consumes an observed replay engine and reports what its observers
/// recorded.
pub fn replay_digest<M: Model, S: TraceSource<Record = M::Event>>(
    sim: ObservedReplay<M, S>,
) -> ObservedDigest {
    ObservedDigest {
        recorder_events: sim.recorder().registry().counter("engine.events"),
        spans: sim.tracer().len() as u64 + sim.tracer().dropped(),
        telemetry_events: None,
    }
}

/// One observer alone on the default engine (the overhead probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// `MetricsRecorder`.
    Recorder,
    /// `EngineTelemetry`.
    Telemetry,
    /// `RingTracer` keeping every span.
    TracerFull,
    /// `RingTracer` keeping one span in sixteen.
    TracerSampled,
}

/// Builds the default engine with one observer, schedules through `prime`,
/// runs it to the end and hands the engine's model to `done`.
pub fn run_with_observer<M: Model, T>(
    model: M,
    observer: Observer,
    prime: impl FnOnce(&mut dyn FnMut(SimTime, M::Event)),
    done: impl FnOnce(&M, u64) -> T,
) -> T {
    fn go<M: Model, R: Recorder, Tr: Tracer, Y: Telemetry, T>(
        mut sim: EventDriven<M, BinaryHeapQueue<M::Event>, R, Tr, Y>,
        prime: impl FnOnce(&mut dyn FnMut(SimTime, M::Event)),
        done: impl FnOnce(&M, u64) -> T,
    ) -> T {
        prime(&mut |t, ev| sim.schedule(t, ev));
        let events = sim.run().events;
        done(sim.model(), events)
    }
    match observer {
        Observer::Recorder => go(
            EventDriven::with_recorder(model, MetricsRecorder::new()),
            prime,
            done,
        ),
        Observer::Telemetry => go(
            EventDriven::new(model).with_telemetry(EngineTelemetry::new(TelemetryConfig::new())),
            prime,
            done,
        ),
        Observer::TracerFull => go(
            EventDriven::new(model).with_tracer(RingTracer::new(TraceConfig::default())),
            prime,
            done,
        ),
        Observer::TracerSampled => go(
            EventDriven::new(model)
                .with_tracer(RingTracer::new(TraceConfig::default().sampled(16))),
            prime,
            done,
        ),
    }
}

/// Runs `model` on the default engine with a full `RingTracer` and returns
/// the span trace (the `prof` probes analyse it).
pub fn traced_run<M: Model>(
    model: M,
    capacity: usize,
    prime: impl FnOnce(&mut dyn FnMut(SimTime, M::Event)),
) -> SpanTrace {
    let mut sim =
        EventDriven::new(model).with_tracer(RingTracer::new(TraceConfig::with_capacity(capacity)));
    prime(&mut |t, ev| sim.schedule(t, ev));
    sim.run();
    sim.into_tracer().finish()
}

/// Result of the sequential reference run.
pub struct SeqOut<L> {
    /// Final LP states, in id order.
    pub lps: Vec<L>,
    /// Events delivered.
    pub events: u64,
}

/// `run_sequential`: the single-threaded oracle.
pub fn par_sequential<L: InitialEvents>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
) -> SeqOut<L> {
    let r = run_sequential(lps, edges, t_end);
    SeqOut {
        events: r.total_events(),
        lps: r.lps,
    }
}

/// Scheduler counters of a work-stealing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WsSched {
    /// Worker threads used.
    pub workers: usize,
    /// Activations taken from another worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep.
    pub parks: u64,
    /// Channel-clock advances written into neighbour state.
    pub bound_updates: u64,
}

/// Result of a work-stealing run.
pub struct WsOut<L> {
    /// Final LP states, in id order.
    pub lps: Vec<L>,
    /// Events delivered.
    pub events: u64,
    /// Scheduler counters.
    pub sched: WsSched,
}

fn ws_config(workers: usize) -> WsConfig {
    WsConfig {
        workers,
        ..WsConfig::default()
    }
}

fn ws_out<L>(r: lsds_parallel::WsReport<L>) -> WsOut<L> {
    WsOut {
        events: r.total_events(),
        sched: WsSched {
            workers: r.sched.workers,
            steals: r.sched.steals,
            parks: r.sched.parks,
            bound_updates: r.sched.bound_updates,
        },
        lps: r.lps,
    }
}

/// `run_worksteal_cfg` with `workers` threads and default batching.
pub fn par_worksteal<L: InitialEvents>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
    workers: usize,
) -> WsOut<L> {
    ws_out(run_worksteal_cfg(lps, edges, t_end, ws_config(workers)))
}

/// `run_worksteal_telemetry`; also returns the events the telemetry saw.
pub fn par_worksteal_observed<L: InitialEvents>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
    workers: usize,
) -> (WsOut<L>, u64) {
    let (r, tel) = run_worksteal_telemetry(
        lps,
        edges,
        t_end,
        ws_config(workers),
        TelemetryConfig::new(),
    );
    (ws_out(r), tel.events())
}

/// Result of a thread-per-LP conservative run.
pub struct SyncOut<L> {
    /// Final LP states, in id order.
    pub lps: Vec<L>,
    /// Events delivered.
    pub events: u64,
    /// Null messages (CMB) or synchronisation windows (time-stepped).
    pub sync_ops: u64,
}

/// `run_cmb`.
pub fn par_cmb<L: InitialEvents>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
) -> SyncOut<L> {
    let r = run_cmb(lps, edges, t_end);
    SyncOut {
        events: r.total_events(),
        sync_ops: r.total_nulls(),
        lps: r.lps,
    }
}

/// Seconds CMB's LPs spent blocked on input, summed over LPs (from
/// `run_cmb_telemetry`, whose `cmb.blocked_ns` counter is the only place
/// the engine exposes it).
pub fn par_cmb_blocked_seconds<L: InitialEvents>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
) -> f64 {
    let (_, tel) = run_cmb_telemetry(lps, edges, t_end, TelemetryConfig::new());
    tel.counter("cmb.blocked_ns") as f64 * 1e-9
}

/// `run_timestep` with window `delta`.
pub fn par_timestep<L: InitialEvents>(lps: Vec<L>, delta: f64, t_end: SimTime) -> SyncOut<L> {
    let r = run_timestep(lps, delta, t_end);
    SyncOut {
        events: r.total_events(),
        sync_ops: r.windows,
        lps: r.lps,
    }
}

/// Seconds the time-stepped engine's LPs waited at barriers, summed over
/// LPs (`ts.barrier_ns` of `run_timestep_telemetry`).
pub fn par_timestep_barrier_seconds<L: InitialEvents>(
    lps: Vec<L>,
    delta: f64,
    t_end: SimTime,
) -> f64 {
    let (_, tel) = run_timestep_telemetry(lps, delta, t_end, TelemetryConfig::new());
    tel.counter("ts.barrier_ns") as f64 * 1e-9
}

/// Result of a Time Warp run.
pub struct TwOut<L> {
    /// Final LP states, in id order.
    pub lps: Vec<L>,
    /// Events committed.
    pub committed: u64,
    /// Events executed, rolled-back ones included.
    pub processed: u64,
    /// Executions undone.
    pub rolled_back: u64,
    /// Anti-messages sent.
    pub antis: u64,
}

/// `run_timewarp_cfg` with optimism bounded to `window` simulated seconds.
pub fn par_timewarp<L>(
    lps: Vec<L>,
    edges: &[(usize, usize)],
    t_end: SimTime,
    window: f64,
) -> TwOut<L>
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    let cfg = TwConfig {
        window,
        ..TwConfig::default()
    };
    let r = run_timewarp_cfg(lps, edges, t_end, cfg);
    TwOut {
        committed: r.total_events(),
        processed: r.total_processed(),
        rolled_back: r.total_rolled_back(),
        antis: r.total_antis(),
        lps: r.lps,
    }
}

/// Mean waiting time of a simulated M/M/1 station (`lsds-queueing`'s
/// `simulate_station`), to set against the closed form.
pub fn simulate_mm1(lambda: f64, mu: f64, horizon: f64, seed: u64) -> f64 {
    let station = lsds_queueing::validate::Station {
        interarrival: Dist::Exponential { rate: lambda },
        service: Dist::Exponential { rate: mu },
        servers: 1,
        capacity: None,
    };
    lsds_queueing::validate::simulate_station(&station, horizon, seed).mean_wq
}
