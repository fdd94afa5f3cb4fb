//! lsds-lint: allow(wall-clock) reason="a benchmark driver times the product from outside; the clock never reaches simulated state"
//!
//! The five studies and the driver that runs one trial of any of them.
//!
//! A trial is: read the generated input files, parse them, build the
//! model, schedule the initial events (all of that is `setup_s`), then run
//! to the end, summarise, fingerprint the outcome and render the report
//! (`wall_s`). The same trial runs in three modes that must agree on the
//! fingerprint: plain, observed (the repository's own observers on) and
//! traced (benchmark-owned shims around the product's traits).

pub mod flow;
pub mod hold;
pub mod lhc;
pub mod net_scale;
pub mod phold;

use crate::product::{self, Model, SimTime};
use crate::shim::{self, LayerTimes, ShimCounters, Span, TimedModel, TimedQueue};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = [
    "lhc_t0t1",
    "net_scale_100k",
    "flow_contention",
    "queue_hold",
    "phold_par",
];

/// The unit of modelled work behind each workload's `ops_per_s`, in
/// [`NAMES`] order.
pub const OPS_UNIT: [&str; 5] = [
    "shipments+jobs",
    "transfers",
    "flows",
    "holds",
    "committed events",
];

/// The [`OPS_UNIT`] of `workload`.
pub fn ops_unit(workload: &str) -> &'static str {
    NAMES
        .iter()
        .position(|n| *n == workload)
        .map_or("ops", |i| OPS_UNIT[i])
}

/// Why each workload exists, in one line (the `why` of `BENCHMARK.json`).
pub const WHY: [&str; 5] = [
    "the paper's LHC T0/T1 study, input to report, job trace replayed by the trace-driven engine: whole stack, grid dominant, T1 disks append-only then evicting for the last third of the shipments",
    "scale pillar: 60k hosts + 60k links as 30k one-flow components with route-cache hits and a shallow event list; setup and memory matter",
    "3800 concurrent flows in two giant components plus 240 core-link faults: fair-share, reroute and route-cache invalidation dominant",
    "hold model, 1M pending events at spread timestamps, near-empty handler: event list, engine loop and event storage do the work",
    "PHOLD on 16 LPs over min(cores,4) work-stealing workers at grain 2000: synchronisation dominant, LPs outnumber cores",
];

/// Setup is repeated back to back until this much time has been timed,
/// and reported per build, so a 20 µs setup is not one clock reading.
pub const SETUP_MIN_SECONDS: f64 = 0.2;

/// How a trial is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Observers off: what `wall_s` measures.
    Plain,
    /// `MetricsRecorder` + `RingTracer` 1-in-16 + `EngineTelemetry` (on
    /// `phold_par`: `run_worksteal_telemetry`): what `observed_wall_s`
    /// measures.
    Observed,
    /// Benchmark-owned shims around queue, model and LPs: the per-layer
    /// pass.
    Traced,
}

impl Mode {
    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Observed => "observed",
            Mode::Traced => "traced",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Observed, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Problem size: the measured size, or a seconds-scale one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` describes (≈ 2 s per trial).
    Full,
    /// A few milliseconds per trial, same code paths.
    Smoke,
}

/// What a finished trial produced, apart from its timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The workload's fixed unit of modelled work (named per workload).
    pub ops: u64,
    /// Events the engine delivered.
    pub events: u64,
    /// Hash of the simulated outcomes (see `util::outcome`).
    pub fingerprint: u64,
    /// Exact counts from the layers' own counters (`net.reshares`, …).
    pub counts: Vec<(&'static str, f64)>,
    /// An invariant the outcome missed, if any (`None` = all held).
    pub violation: Option<String>,
    /// The rendered report document (part of the timed run).
    pub report: String,
}

/// One trial's measurements.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Seconds per setup (read + parse + build + initial events).
    pub setup_s: f64,
    /// First event to finished report, seconds.
    pub wall_s: f64,
    /// The results.
    pub outcome: Outcome,
    /// Layer self times (traced mode only).
    pub layers: Option<LayerTimes>,
    /// Spans for the trace file (traced mode only).
    pub spans: Vec<Span>,
    /// `calls / sampled` of the handler site (traced mode only).
    pub stands_for: f64,
}

/// A study that runs on the sequential event-driven engine. The driver
/// owns engine construction, so the three modes differ only there.
pub trait Study {
    /// The model (benchmark-owned, or the product's `GridModel`).
    type M: Model;
    /// Parsed input.
    type Input;

    /// Reads and parses the generated files under `dir`.
    fn load(dir: &Path) -> std::io::Result<Self::Input>;
    /// Builds the model.
    fn build(input: &Self::Input) -> Self::M;
    /// Hands every initial event to `schedule`. A study whose events all
    /// come from a replayed trace schedules nothing.
    fn prime(input: &Self::Input, schedule: &mut dyn FnMut(SimTime, <Self::M as Model>::Event));
    /// Simulated horizon (`None` = run until the event list drains or the
    /// model stops the run).
    fn horizon(input: &Self::Input) -> Option<SimTime>;
    /// Summarises the finished model.
    fn outcome(input: &Self::Input, model: &Self::M, events: u64) -> Outcome;
}

/// Repeats `setup` until [`SETUP_MIN_SECONDS`] have been timed (each
/// result is dropped before the next build, so peak memory is one model);
/// returns the last build with the seconds per build.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut builds = 0u32;
    loop {
        let built = setup();
        builds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= SETUP_MIN_SECONDS {
            return (built, elapsed / f64::from(builds));
        }
        drop(built);
    }
}

/// The engine-agnostic part of a trial: `make` builds an engine around a
/// model (it sees the input, for an engine that replays part of it),
/// `schedule`/`run` drive it and `inner` finds the study's model in it
/// again (it may sit inside a shim).
fn drive<S: Study, E>(
    dir: &Path,
    make: impl Fn(&S::Input, S::M) -> E,
    schedule: impl Fn(&mut E, SimTime, <S::M as Model>::Event),
    run: impl Fn(&mut E, Option<SimTime>) -> u64,
    inner: impl for<'a> Fn(&'a E) -> &'a S::M,
) -> (E, Trial) {
    let ((input, mut engine), setup_s) = shim::phase("setup", || {
        timed_setup(|| {
            let input = S::load(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
            let model = S::build(&input);
            let mut engine = make(&input, model);
            S::prime(&input, &mut |t, ev| schedule(&mut engine, t, ev));
            (input, engine)
        })
    });
    let start = Instant::now();
    let events = shim::phase("run", || run(&mut engine, S::horizon(&input)));
    let outcome = shim::phase("report", || {
        std::hint::black_box(S::outcome(&input, inner(&engine), events))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let trial = Trial {
        setup_s,
        wall_s,
        outcome,
        layers: None,
        spans: Vec::new(),
        stands_for: 0.0,
    };
    (engine, trial)
}

/// Flags a trial whose observers did not see the run they were attached to.
fn check_observed(trial: &mut Trial, seen: product::ObservedDigest) {
    let events = trial.outcome.events;
    if seen.recorder_events != events
        || seen.telemetry_events.is_some_and(|t| t != events)
        || seen.spans == 0
    {
        trial.outcome.violation = Some(format!(
            "observers disagree with the engine: {seen:?} vs {events} events"
        ));
    }
}

/// Runs `go` as the traced trial: a recorder is installed on this thread,
/// `go` builds its engine around shims that share the counters it is
/// handed, and the recorder's spans become the trial's layer times.
fn traced(go: impl FnOnce(&Rc<ShimCounters>) -> Trial) -> Trial {
    let counters = Rc::new(ShimCounters::default());
    shim::install(Instant::now());
    let mut trial = shim::phase("trial", || go(&counters));
    let (layers, spans) = shim::finish(&counters);
    trial
        .outcome
        .counts
        .push(("core.queue.max_len", counters.max_len.get() as f64));
    trial.layers = Some(layers);
    trial.spans = spans;
    trial.stands_for = counters.scale();
    trial
}

/// Runs one trial of an event-driven study in `mode`.
pub fn run_study<S: Study>(dir: &Path, mode: Mode) -> Trial {
    match mode {
        Mode::Plain => {
            drive::<S, _>(
                dir,
                |_, model| product::engine_plain(model),
                |e, t, ev| e.schedule(t, ev),
                product::run_engine,
                |e| e.model(),
            )
            .1
        }
        Mode::Observed => {
            let (engine, mut trial) = drive::<S, _>(
                dir,
                |_, model| product::engine_observed(model),
                |e, t, ev| e.schedule(t, ev),
                product::run_engine,
                |e| e.model(),
            );
            check_observed(&mut trial, product::observed_digest(engine));
            trial
        }
        Mode::Traced => traced(|counters| {
            drive::<S, _>(
                dir,
                |_, model| {
                    product::engine_shimmed(
                        TimedModel::new(model, counters.clone()),
                        TimedQueue::new(product::BinaryHeapQueue::new(), counters.clone()),
                    )
                },
                |e, t, ev| e.schedule(t, ev),
                product::run_engine,
                |e| e.model().inner(),
            )
            .1
        }),
    }
}

/// One generated input file: name (inside the workload's input directory)
/// and contents.
pub type InputFile = (&'static str, Vec<u8>);

/// Generates the input files of `workload` from `seed`.
pub fn generate(workload: &str, seed: u64, size: Size) -> Vec<InputFile> {
    match workload {
        "lhc_t0t1" => lhc::generate(seed, size),
        "net_scale_100k" => net_scale::generate(seed, size),
        "flow_contention" => flow::generate(seed, size),
        "queue_hold" => hold::generate(seed, size),
        "phold_par" => phold::generate(seed, size),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs one trial of `workload` on the inputs under `dir`.
pub fn run(workload: &str, dir: &Path, mode: Mode) -> Trial {
    match workload {
        "lhc_t0t1" => lhc::run(dir, mode),
        "net_scale_100k" => run_study::<net_scale::NetScale>(dir, mode),
        "flow_contention" => run_study::<flow::FlowContention>(dir, mode),
        "queue_hold" => run_study::<hold::QueueHold>(dir, mode),
        "phold_par" => phold::run(dir, mode),
        other => panic!("unknown workload {other}"),
    }
}

/// Writes generated input files into `dir` (created if missing).
pub fn write_files(dir: &Path, files: Vec<InputFile>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes)?;
    }
    Ok(())
}

/// The value of the `name value` record called `name`.
pub fn named<T: std::str::FromStr>(recs: &[Vec<&str>], name: &str) -> std::io::Result<T> {
    let rec = recs
        .iter()
        .find(|r| r.first() == Some(&name))
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("no {name}"))
        })?;
    field(rec, 1, name)
}

/// Minimal `key value` reader for the generated text inputs: whitespace-
/// separated fields, one record per line.
pub fn fields(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Parses field `i` of a record, naming the file on failure.
pub fn field<T: std::str::FromStr>(rec: &[&str], i: usize, what: &str) -> std::io::Result<T> {
    rec.get(i)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad {what}")))
}
