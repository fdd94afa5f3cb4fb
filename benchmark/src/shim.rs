//! lsds-lint: allow(wall-clock) reason="the shims exist to read the wall clock around product calls; no simulated state depends on it"
//!
//! Benchmark-owned tracing shims: [`TimedQueue`], [`TimedModel`] and
//! [`TimedLp`] wrap the product's public traits and time the calls that
//! cross them, so layer self times are measured from outside without
//! touching a product file.
//!
//! Spans are `{name, start, end, parent}` and nest as
//! `trial ⊃ {setup, run ⊃ {engine, queue.pop, <handler kind> ⊃
//! {queue.insert, net.handle, …}}, report}`. `queue.insert` sits under the
//! handler that scheduled the event because the unmonitored engine hands
//! the handler a sink that inserts straight into the event list.
//!
//! Sampling is by whole *event cycles*: about one handler return in
//! [`SAMPLE_EVERY`] starts a cycle, which lasts until the next handler
//! returns. Inside a cycle every boundary is timestamped — engine loop up
//! to the pop, the pop, engine loop up to the handler, the handler and
//! everything nested in it — so the sections of a cycle add up to the
//! cycle, and `cycles × calls / sampled` estimates the whole run. That the
//! estimate comes out near the measured run time is the check that the
//! attribution is sound; it is reported as `bench.trace_attributed_ratio`
//! and the self times are reported as estimated, never rescaled to fit.
//! Every handler call is equally likely to be in a cycle, whether it was
//! popped or delivered from a same-timestamp batch.

use crate::product::{
    Ctx, EventQueue, InitialEvents, LogicalProcess, LpCtx, Model, ScheduledEvent, SimTime,
    SpanKind, TraceSource,
};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Mean number of handler calls per sampled cycle.
pub const SAMPLE_EVERY: u32 = 64;

/// Spans kept for the Chrome trace file; aggregates keep counting past it.
const MAX_KEPT_SPANS: usize = 200_000;

thread_local! {
    /// `Some(t)` while a sampled cycle is in engine code since `t`.
    static IN_ENGINE: Cell<Option<Instant>> = const { Cell::new(None) };
    /// True while a sampled handler is on the stack: nested sites time
    /// themselves iff this is set.
    static IN_HANDLER: Cell<bool> = const { Cell::new(false) };
    /// Nesting depth of the timed call in progress inside a sampled cycle.
    static DEPTH: Cell<u8> = const { Cell::new(0) };
    /// Raw timings of the cycle in progress, in closing order (children
    /// before parents). Bookkeeping waits until the cycle is over, so that
    /// inside a cycle a timed call costs two clock reads and one push.
    static PENDING: RefCell<Vec<Raw>> = const { RefCell::new(Vec::new()) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// One timed interval of the cycle in progress.
#[derive(Clone, Copy)]
struct Raw {
    name: &'static str,
    start: Instant,
    end: Instant,
    depth: u8,
}

#[inline]
fn push_raw(name: &'static str, start: Instant, end: Instant, depth: u8) {
    PENDING.with(|p| {
        p.borrow_mut().push(Raw {
            name,
            start,
            end,
            depth,
        })
    });
}

/// Times `f` inside a sampled cycle, one level below the current depth.
#[inline]
fn timed_in_cycle<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let depth = DEPTH.with(Cell::get);
    DEPTH.with(|d| d.set(depth + 1));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    DEPTH.with(|d| d.set(depth));
    push_raw(name, start, end, depth);
    out
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name (`engine`, `queue.pop`, a handler kind, `net.handle`, …).
    pub name: &'static str,
    /// Nanoseconds from the trial's origin.
    pub start_ns: u64,
    /// Nanoseconds from the trial's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for the root.
    pub parent: u32,
    /// Thread lane in the trace file (0 = the engine thread).
    pub lane: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    dur_ns: u64,
    self_ns: u64,
}

/// A phase span (`trial`, `setup`, `run`, `report`) that has not ended.
struct Open {
    index: u32,
    name: &'static str,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    /// What an empty span measures: the part of its two clock reads that
    /// falls between the timestamps. Subtracted from every span.
    read_ns: u64,
    /// What an empty nested span costs its parent beyond what the span
    /// itself measures (bookkeeping, the warming clock read). Charged to
    /// the child, so it does not pass for parent self time.
    nest_extra_ns: u64,
}

impl Recorder {
    fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            agg: BTreeMap::new(),
            read_ns: 0,
            nest_extra_ns: 0,
        }
    }

    fn enter(&mut self, name: &'static str) {
        // the handful of phase spans are kept whatever the cap says
        let parent = self.stack.last().map_or(u32::MAX, |o| o.index);
        self.stack.push(Open {
            index: self.spans.len() as u32,
            name,
        });
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            lane: 0,
        });
    }

    fn leave(&mut self, start: Instant, end: Instant) {
        let Some(o) = self.stack.pop() else {
            return;
        };
        let dur = (end.duration_since(start).as_nanos() as u64).saturating_sub(self.read_ns);
        if let Some(s) = self.spans.get_mut(o.index as usize) {
            s.start_ns = start.duration_since(self.origin).as_nanos() as u64;
            s.end_ns = s.start_ns + dur;
        }
        self.agg.entry(o.name).or_default().dur_ns += dur;
    }

    /// Books a finished cycle. `raws` are in closing order, so a span's
    /// children precede it; `child_ns[d]` collects what the spans at depth
    /// `d` cost the span that encloses them.
    fn absorb(&mut self, raws: &[Raw]) {
        let run_index = self.stack.last().map_or(u32::MAX, |o| o.index);
        let mut child_ns = [0u64; 8];
        let mut orphans: Vec<(u32, u8)> = Vec::new();
        for raw in raws {
            let d = usize::from(raw.depth).min(6);
            let dur =
                (raw.end.duration_since(raw.start).as_nanos() as u64).saturating_sub(self.read_ns);
            let a = self.agg.entry(raw.name).or_default();
            a.dur_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[d + 1]);
            child_ns[d + 1] = 0;
            child_ns[d] += dur + self.read_ns + self.nest_extra_ns;
            if self.spans.len() < MAX_KEPT_SPANS {
                let start_ns = raw.start.duration_since(self.origin).as_nanos() as u64;
                let index = self.spans.len() as u32;
                self.spans.push(Span {
                    name: raw.name,
                    start_ns,
                    end_ns: start_ns + dur,
                    parent: run_index,
                    lane: 0,
                });
                // the spans one level down that closed before this one
                // are its children
                orphans.retain(|&(child, depth)| {
                    if usize::from(depth) == d + 1 {
                        self.spans[child as usize].parent = index;
                        false
                    } else {
                        true
                    }
                });
                orphans.push((index, raw.depth));
            }
        }
    }
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Times `f` as a span named `name`. The clock is read at the call site,
/// immediately around `f` (and once more beforehand, to pull the clock's
/// code and data back into cache), so recorder bookkeeping stays outside
/// the measured interval.
#[inline]
fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    with_recorder(|rec| rec.enter(name));
    std::hint::black_box(Instant::now());
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    with_recorder(|rec| rec.leave(start, end));
    out
}

/// Measures the two biases on empty spans. A clock read costs about as
/// much as a small heap operation, so leaving them in would count the
/// measuring as the measured.
fn calibrate() {
    const ROUNDS: u32 = 64;
    const CYCLES: u32 = 64;
    let (mut measured, mut per_span) = (0u64, 0u64);
    for _ in 0..CYCLES {
        let begin = Instant::now();
        for _ in 0..ROUNDS {
            timed_in_cycle("calibration", || ());
        }
        per_span += begin.elapsed().as_nanos() as u64;
        PENDING.with(|p| {
            for raw in p.borrow_mut().drain(..) {
                measured += raw.end.duration_since(raw.start).as_nanos() as u64;
            }
        });
    }
    let n = u64::from(ROUNDS * CYCLES);
    with_recorder(|rec| {
        rec.read_ns = measured / n;
        rec.nest_extra_ns = (per_span / n).saturating_sub(measured / n);
    });
}

/// Installs a fresh recorder on this thread; `origin` is time zero of the
/// trace.
pub fn install(origin: Instant) {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new(origin)));
    IN_ENGINE.with(|c| c.set(None));
    IN_HANDLER.with(|c| c.set(false));
    DEPTH.with(|c| c.set(0));
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        p.clear();
        p.reserve(256);
    });
    calibrate();
}

/// Times a whole phase (`trial`, `setup`, `run`, `report`) as a span. With
/// no recorder installed it costs three clock reads and records nothing,
/// so plain and observed trials share the driver code.
pub fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span(name, f)
}

/// Times `f` as a child span when — and only when — it runs inside a
/// sampled handler. Benchmark-owned models wrap their calls into a product
/// component with this (`net.handle` around `FlowNet::handle_into`), which
/// splits a handler into model glue and component time. Outside a traced
/// run the cost is one thread-local read.
#[inline]
pub fn child_span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if IN_HANDLER.with(Cell::get) {
        timed_in_cycle(name, f)
    } else {
        f()
    }
}

/// Jittered countdown: intervals are uniform in `[N/2, 3N/2]`, mean `N`,
/// so a workload whose event pattern has a period near `N` is not sampled
/// in phase with it.
#[derive(Debug, Clone)]
struct Countdown {
    left: u32,
    state: u32,
}

impl Countdown {
    fn new(salt: u32) -> Self {
        Countdown {
            left: SAMPLE_EVERY / 2 + salt % SAMPLE_EVERY,
            state: (0x9e37_79b9 ^ salt.wrapping_mul(0x85eb_ca6b)) | 1,
        }
    }

    /// True on the calls to sample.
    #[inline]
    fn fire(&mut self) -> bool {
        self.left -= 1;
        if self.left > 0 {
            return false;
        }
        // xorshift32
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        self.left = SAMPLE_EVERY / 2 + x % (SAMPLE_EVERY + 1);
        true
    }
}

/// Counters a [`TimedQueue`] and a [`TimedModel`] share with the driver
/// (the engine owns both and hands neither back by reference).
#[derive(Debug, Default)]
pub struct ShimCounters {
    /// `Model::handle` calls.
    pub handles: Cell<u64>,
    /// `Model::handle` calls that were inside a sampled cycle.
    pub sampled: Cell<u64>,
    /// Largest `len()` seen after an insert.
    pub max_len: Cell<u64>,
}

impl ShimCounters {
    /// `handles / sampled`: how many cycles one sampled cycle stands for.
    pub fn scale(&self) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            s => self.handles.get() as f64 / s as f64,
        }
    }
}

#[inline]
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Event list shim: delegates every method of the trait — including
/// `pop_run`, `pop_next` and `occupancy`, never the trait's defaults, so
/// the wrapped structure runs the same code paths it runs unwrapped.
pub struct TimedQueue<Q> {
    inner: Q,
    counters: Rc<ShimCounters>,
}

impl<Q> TimedQueue<Q> {
    /// Wraps `inner`.
    pub fn new(inner: Q, counters: Rc<ShimCounters>) -> Self {
        TimedQueue { inner, counters }
    }

    #[inline]
    fn pop_timed<T>(&mut self, f: impl FnOnce(&mut Q) -> T) -> T {
        engine_section("queue.pop", || f(&mut self.inner))
    }
}

/// Times `f` as a section the engine loop calls between two handlers: in a
/// sampled cycle the engine time up to `f` is closed, `f` is timed as
/// `name`, and its closing clock read opens the next engine section.
#[inline]
fn engine_section<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(since) = IN_ENGINE.with(Cell::get) else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    push_raw("engine", since, start, 0);
    push_raw(name, start, end, 0);
    IN_ENGINE.with(|c| c.set(Some(end)));
    out
}

impl<E, Q: EventQueue<E>> EventQueue<E> for TimedQueue<Q> {
    #[inline]
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        if IN_HANDLER.with(Cell::get) {
            timed_in_cycle("queue.insert", || self.inner.insert(ev));
        } else {
            self.inner.insert(ev);
        }
        let len = self.inner.len() as u64;
        if len > self.counters.max_len.get() {
            self.counters.max_len.set(len);
        }
    }

    #[inline]
    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        self.pop_timed(|q| q.pop_min())
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    #[inline]
    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        self.pop_timed(|q| q.pop_run(out))
    }

    #[inline]
    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        self.pop_timed(|q| q.pop_next(ties))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn occupancy(&self) -> Option<(usize, usize)> {
        self.inner.occupancy()
    }
}

/// Trace-source shim for the trace-driven engine: times the benchmark's own
/// record construction as `replay.next`, so it does not pass for engine
/// loop time.
pub struct TimedSource<S> {
    inner: S,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource { inner }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    type Record = S::Record;

    #[inline]
    fn next_record(&mut self) -> Option<(SimTime, S::Record)> {
        engine_section("replay.next", || self.inner.next_record())
    }
}

/// Model shim: times `handle` and labels the span with the product's own
/// `Model::trace_kind`, so a product-owned model's handler time splits by
/// kind (`net.*`, `grid.*`) without the benchmark knowing its event type.
/// It also starts and ends the sampled cycles.
pub struct TimedModel<M> {
    inner: M,
    counters: Rc<ShimCounters>,
    countdown: Countdown,
}

impl<M> TimedModel<M> {
    /// Wraps `inner`.
    pub fn new(inner: M, counters: Rc<ShimCounters>) -> Self {
        TimedModel {
            inner,
            counters,
            countdown: Countdown::new(2),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Model> Model for TimedModel<M> {
    type Event = M::Event;

    #[inline]
    fn handle(&mut self, event: M::Event, ctx: &mut Ctx<'_, M::Event>) {
        bump(&self.counters.handles);
        match IN_ENGINE.with(Cell::take) {
            None => self.inner.handle(event, ctx),
            Some(since) => {
                // this call closes a sampled cycle
                let kind = self.inner.trace_kind(&event).name;
                IN_HANDLER.with(|c| c.set(true));
                DEPTH.with(|d| d.set(1));
                let start = Instant::now();
                self.inner.handle(event, ctx);
                let end = Instant::now();
                DEPTH.with(|d| d.set(0));
                IN_HANDLER.with(|c| c.set(false));
                bump(&self.counters.sampled);
                // the handler first: its children are the raws before it
                push_raw(kind, start, end, 0);
                push_raw("engine", since, start, 0);
                PENDING.with(|p| {
                    let mut p = p.borrow_mut();
                    with_recorder(|rec| rec.absorb(&p));
                    p.clear();
                });
            }
        }
        if self.countdown.fire() {
            // the next cycle starts here, in engine code
            std::hint::black_box(Instant::now());
            IN_ENGINE.with(|c| c.set(Some(Instant::now())));
        }
    }

    fn trace_kind(&self, event: &M::Event) -> SpanKind {
        self.inner.trace_kind(event)
    }

    fn trace_track(&self, event: &M::Event) -> u32 {
        self.inner.trace_track(event)
    }
}

/// Logical-process shim for the parallel engines. LPs run on worker
/// threads, so each keeps its own counters and spans (no shared recorder,
/// no lock) and the driver collects them from the LPs the engine returns.
pub struct TimedLp<L> {
    inner: L,
    origin: Instant,
    countdown: Countdown,
    /// `handle` calls.
    pub calls: u64,
    /// Timed `handle` calls.
    pub sampled: u64,
    /// Nanoseconds inside the timed calls.
    pub sampled_ns: u64,
    /// `(start, end)` of the timed calls, nanoseconds from the origin.
    pub spans: Vec<(u64, u64)>,
}

impl<L> TimedLp<L> {
    /// Wraps `inner`; `lane` decorrelates the LPs' sampling countdowns.
    pub fn new(inner: L, origin: Instant, lane: u32) -> Self {
        TimedLp {
            inner,
            origin,
            countdown: Countdown::new(lane.wrapping_add(3)),
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
            spans: Vec::new(),
        }
    }

    /// The wrapped LP.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Estimated seconds inside `handle`: timed nanoseconds scaled by
    /// `calls / sampled`.
    pub fn handler_seconds(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 * 1e-9 * self.calls as f64 / self.sampled as f64
    }
}

impl<L: LogicalProcess> LogicalProcess for TimedLp<L> {
    type Msg = L::Msg;

    #[inline]
    fn handle(&mut self, now: SimTime, msg: L::Msg, ctx: &mut LpCtx<'_, L::Msg>) {
        self.calls += 1;
        if self.countdown.fire() {
            let start = Instant::now();
            self.inner.handle(now, msg, ctx);
            let end = Instant::now();
            self.sampled += 1;
            self.sampled_ns += end.duration_since(start).as_nanos() as u64;
            if self.spans.len() < MAX_KEPT_SPANS / 16 {
                let at = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
                self.spans.push((at(start), at(end)));
            }
        } else {
            self.inner.handle(now, msg, ctx);
        }
    }

    fn lookahead(&self) -> f64 {
        self.inner.lookahead()
    }

    fn trace_kind(&self, msg: &L::Msg) -> SpanKind {
        self.inner.trace_kind(msg)
    }
}

impl<L: InitialEvents> InitialEvents for TimedLp<L> {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, L::Msg>) {
        self.inner.initial_events(ctx);
    }
}

/// Where a traced trial's run time went, in seconds. The single-threaded
/// self times are estimates — the sampled cycles' self times scaled by
/// `calls / sampled` — and nothing forces them to add up to the measured
/// `run_s`: `attributed_ratio` says how close they came.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// The `run` span: first event to last.
    pub run_s: f64,
    /// Sum of the five single-threaded self times over `run_s`: the error
    /// bar of the attribution. Above 1: reading the clock at every
    /// section boundary stops the processor from overlapping one
    /// section's cache misses with the next section's work, so timed
    /// cycles run slower than untimed ones (worst where events are a few
    /// hundred nanoseconds). Below 1: a rare, long handler kind had fewer
    /// sampled cycles than its share.
    pub attributed_ratio: f64,
    /// `queue.pop` + `queue.insert` self time.
    pub queue_s: f64,
    /// Engine loop self time: between pops and handlers.
    pub engine_s: f64,
    /// Self time of benchmark-owned code in the run: handler kinds outside
    /// `net.*` and `grid.*`, and the replayed trace's source.
    pub handler_core_s: f64,
    /// Self time of `net.*` handler kinds and `net.*` child spans.
    pub net_s: f64,
    /// Self time of `grid.*` handler kinds.
    pub grid_s: f64,
    /// Handler time inside logical processes (parallel engines only; the
    /// LPs run concurrently, so this is CPU time, not a share of `run_s`).
    pub lp_s: f64,
    /// Spans written to the trace file (it is capped; totals keep counting).
    pub spans_kept: u64,
}

/// Removes this thread's recorder and turns it into layer times plus the
/// kept spans. `counters` supplies the scale of the sampled cycles.
pub fn finish(counters: &ShimCounters) -> (LayerTimes, Vec<Span>) {
    IN_ENGINE.with(|c| c.set(None));
    let Some(rec) = RECORDER.with(|r| r.borrow_mut().take()) else {
        return (LayerTimes::default(), Vec::new());
    };
    let scale = counters.scale();
    let secs = |ns: u64| ns as f64 * 1e-9 * scale;
    let mut lt = LayerTimes {
        spans_kept: rec.spans.len() as u64,
        ..LayerTimes::default()
    };
    for (&name, a) in &rec.agg {
        match name {
            "run" => lt.run_s = a.dur_ns as f64 * 1e-9,
            "trial" | "setup" | "report" => {}
            "engine" => lt.engine_s += secs(a.self_ns),
            "queue.pop" | "queue.insert" => lt.queue_s += secs(a.self_ns),
            _ if name.starts_with("net.") => lt.net_s += secs(a.self_ns),
            _ if name.starts_with("grid.") => lt.grid_s += secs(a.self_ns),
            _ => lt.handler_core_s += secs(a.self_ns),
        }
    }
    if lt.run_s > 0.0 {
        let attributed = lt.queue_s + lt.engine_s + lt.handler_core_s + lt.net_s + lt.grid_s;
        lt.attributed_ratio = attributed / lt.run_s;
    }
    (lt, rec.spans)
}

/// Renders spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto). `args.parent` is the index of the enclosing span in this
/// file's event order; `args.stands_for` says how many calls one sampled
/// span represents.
pub fn chrome_trace(spans: &[Span], stands_for: f64) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"parent\":{},\"stands_for\":{:.1}}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            parent,
            stands_for
        ));
    }
    out.push_str("\n]}\n");
    out
}
