//! Deterministic cost contracts: allocation counts, bytes and event counts
//! that wall time on a noisy host cannot resolve, pinned exactly after a
//! warm-up.
//!
//! A counting global allocator lives in this test crate alone, so every
//! product crate keeps `forbid(unsafe_code)`. Its counters are
//! thread-local with `const` initializers (no lazy init, no allocation
//! inside the allocator), so tests running on parallel threads never see
//! each other's allocations.

use lsds::core::{
    BinaryHeapQueue, CalendarQueue, Ctx, EventDriven, EventQueue, LadderQueue, LpCore, Model,
    PooledQueue, Schedule, ScheduledEvent, SimTime, SortedListQueue, TraceDriven,
};
use lsds::grid::organization::{flat_grid, SiteSpec};
use lsds::grid::scheduler::LeastLoaded;
use lsds::grid::{Activity, GridConfig, GridModel, ReplicationPolicy};
use lsds::net::{gbps, mbps, FlowEvent, FlowNet, LinkFault, LinkId, NodeId, NodeKind, Topology};
use lsds::obs::NoopTracer;
use lsds::parallel::cmb::InitialEvents;
use lsds::parallel::{run_sequential, LogicalProcess, LpCtx};
use lsds::stats::{Dist, SimRng};
use lsds::trace::read_trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::thread::LocalKey;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those requested; a reallocation counts its new size.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slots are gone while the thread's locals are torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` on the calling thread, and the bytes each asks for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` contract is passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with how far `counter` rose meanwhile.
fn counted<R>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> R) -> (R, u64) {
    let before = counter.with(Cell::get);
    let r = f();
    (r, counter.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    counted(&ALLOCATIONS, f)
}

/// Runs `f` and returns its result with the bytes it allocated.
fn allocated_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    counted(&BYTES, f)
}

/// A clock that drops what is scheduled on it: the contracts measure the
/// network, not an event list.
struct Discard(SimTime);

impl Schedule<FlowEvent> for Discard {
    fn now(&self) -> SimTime {
        self.0
    }
    fn schedule_at(&mut self, _: SimTime, _: FlowEvent) {}
}

/// A clock that keeps what is scheduled on it, to deliver the `Begin`s.
struct Keep(Vec<FlowEvent>);

impl Schedule<FlowEvent> for Keep {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn schedule_at(&mut self, _: SimTime, ev: FlowEvent) {
        self.0.push(ev);
    }
}

const LEFT: usize = 50;
const RIGHT: usize = 40;

/// Routers `l` and `r` joined by two two-hop cores, via `a` (faster) and
/// via `b`; 50 hosts on `l` and 40 on `r`, each on one duplex access link.
/// Returns the network, the hosts, and the links `l → a` and `l → b`.
fn two_cores() -> (FlowNet, Vec<NodeId>, Vec<NodeId>, [LinkId; 2]) {
    let mut t = Topology::new();
    let [l, r, a, b] = ["l", "r", "a", "b"].map(|name| t.add_node(NodeKind::Router, name));
    let (l_a, _) = t.add_duplex(l, a, gbps(10.0), 0.001);
    t.add_duplex(a, r, gbps(10.0), 0.001);
    let (l_b, _) = t.add_duplex(l, b, gbps(10.0), 0.002);
    t.add_duplex(b, r, gbps(10.0), 0.002);
    let mut hosts = |n: usize, router: NodeId| -> Vec<NodeId> {
        (0..n)
            .map(|_| {
                let h = t.add_node(NodeKind::Host, "h");
                t.add_duplex(h, router, gbps(1.0), 0.0005);
                h
            })
            .collect()
    };
    let (left, right) = (hosts(LEFT, l), hosts(RIGHT, r));
    (FlowNet::new(t), left, right, [l_a, l_b])
}

/// Allocations made by a `LinkFault::Down` that reroutes `flows` active
/// flows, each between its own pair of hosts, once an earlier down/up of
/// the other core has sized every buffer and memo such a reroute uses.
fn down_allocations(flows: usize) -> u64 {
    let (mut net, left, right, [via_a, via_b]) = two_cores();
    let mut begins = Keep(Vec::new());
    for i in 0..flows {
        let (src, dst) = (left[i % LEFT], right[i / LEFT]);
        net.try_start(src, dst, 1e12, i as u64, &mut begins)
            .expect("both cores up");
    }
    let mut sched = Discard(SimTime::ZERO);
    let mut done = Vec::new();
    for ev in begins.0 {
        net.handle_into(ev, &mut sched, &mut done);
    }
    sched.0 = SimTime::new(1.0);
    net.apply_fault(LinkFault::Down(via_a), &mut sched);
    net.apply_fault(LinkFault::Up(via_a), &mut sched);
    sched.0 = SimTime::new(2.0);
    let (outcome, n) = allocations(|| net.apply_fault(LinkFault::Down(via_b), &mut sched));
    assert_eq!(outcome.rerouted, flows as u64);
    assert!(outcome.aborted.is_empty());
    // one miss per pair at the start and at each `Down`: no detour is shared
    assert_eq!(net.route_cache_stats(), (0, 3 * flows as u64));
    n
}

/// DESIGN §6b: a fault's detours come from one route-memo arena, recycled
/// path buffers and scratch lists, so what a `Down` allocates (the new
/// routing tables and the routers' rows) does not depend on how many
/// flows it moves.
#[test]
fn down_fault_allocations_do_not_grow_with_rerouted_flows() {
    assert_eq!(down_allocations(200), down_allocations(2_000));
}

/// DESIGN §6b: in steady state a transfer start whose route is memoized
/// fills a recycled path buffer from the memo and allocates nothing.
#[test]
fn try_start_served_from_route_cache_allocates_nothing() {
    let (mut net, left, right, _) = two_cores();
    let (src, dst) = (left[0], right[0]);
    let mut sched = Discard(SimTime::ZERO);
    // warm-up: the first start fills the memo, each cancel hands its path
    // back to the spare pool, and 17 ids leave the id → slot map (which
    // grows by doubling) with room for ids up to 31
    for tag in 0..17 {
        let id = net
            .try_start(src, dst, 1e9, tag, &mut sched)
            .expect("route");
        net.cancel(id, &mut sched);
    }
    let (hits, misses) = net.route_cache_stats();
    for tag in 17..32 {
        let (id, n) = allocations(|| net.try_start(src, dst, 1e9, tag, &mut sched));
        assert_eq!(n, 0, "start {tag} allocated");
        net.cancel(id.expect("route"), &mut sched);
    }
    assert_eq!(net.route_cache_stats(), (hits + 15, misses));
}

/// Transfers staggered onto one shared link: a start every millisecond,
/// each a megabyte larger than the last, so every arrival and every
/// departure changes the fair share and re-rates every flow in the system.
struct Staggered {
    net: FlowNet,
    ends: (NodeId, NodeId),
    /// `FlowEvent`s delivered so far.
    net_events: u64,
}

enum StaggeredEv {
    Start(u64),
    Net(FlowEvent),
}

impl Model for Staggered {
    type Event = StaggeredEv;
    fn handle(&mut self, ev: StaggeredEv, ctx: &mut Ctx<'_, StaggeredEv>) {
        match ev {
            StaggeredEv::Start(i) => {
                let (src, dst) = self.ends;
                let bytes = 1.0e6 * (i + 1) as f64;
                self.net
                    .start(src, dst, bytes, i, &mut ctx.map(StaggeredEv::Net));
            }
            StaggeredEv::Net(fe) => {
                self.net_events += 1;
                self.net.handle(fe, &mut ctx.map(StaggeredEv::Net));
            }
        }
    }
}

/// `FlowEvent`s delivered by a run of `n` staggered transfers, and the
/// transfers completed.
fn staggered_flow_events(n: u64) -> (u64, u64) {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host, "a");
    let b = t.add_node(NodeKind::Host, "b");
    t.add_link(a, b, mbps(800.0), 0.0);
    let mut sim = EventDriven::new(Staggered {
        net: FlowNet::new(t),
        ends: (a, b),
        net_events: 0,
    });
    for i in 0..n {
        sim.schedule(SimTime::new(i as f64 * 1.0e-3), StaggeredEv::Start(i));
    }
    sim.run();
    let m = sim.into_model();
    (m.net_events, m.net.completed())
}

/// DESIGN §6b: a component keeps one pending completion, for its earliest
/// flow, so a reshare schedules at most one `Complete` however many rates
/// it changes. Per transfer that is its `Begin`, the completion armed by
/// its arrival and the one armed by one departure; the last departure
/// leaves no flow to arm. The count per completed flow does not grow with
/// how many flows share the link.
#[test]
fn flow_events_per_completed_flow_do_not_grow_with_sharers() {
    for n in [50, 500] {
        let (events, completed) = staggered_flow_events(n);
        assert_eq!(completed, n);
        assert_eq!(events, 3 * n - 1, "{n} sharers");
    }
}

/// A ring of LPs passing two tokens each; a token alternates between a
/// local hop (+0.5) and a send to the next LP (+1.0), so every delivery
/// schedules exactly one event and the pending count never changes.
struct Relay {
    n: usize,
}

impl LogicalProcess for Relay {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        if hop.is_multiple_of(2) {
            ctx.schedule_in(0.5, hop + 1);
        } else {
            ctx.send((ctx.me() + 1) % self.n, 1.0, hop + 1);
        }
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

impl InitialEvents for Relay {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, 0);
        ctx.schedule_in(0.25, 1);
    }
}

/// Allocations of one `run_sequential` of the relay ring to `t_end`, and
/// the events it delivered.
fn relay_allocations(t_end: f64) -> (u64, u64) {
    let n = 4;
    let lps: Vec<Relay> = (0..n).map(|_| Relay { n }).collect();
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let (report, allocs) = allocations(|| run_sequential(lps, &edges, SimTime::new(t_end)));
    (report.total_events(), allocs)
}

/// The sequential oracle runs every handler through the LP port over
/// reused buffers: what a run allocates (ports, counters, the global
/// list) does not depend on how many events it delivers.
#[test]
fn sequential_oracle_allocations_do_not_grow_with_events() {
    let (short_events, short) = relay_allocations(100.0);
    let (long_events, long) = relay_allocations(1_000.0);
    assert!((1_000..1_200).contains(&short_events), "{short_events}");
    assert!((10_000..12_000).contains(&long_events), "{long_events}");
    assert_eq!(short, long);
}

/// Allocations of `steps` deliveries by one warmed-up [`LpCore`] running a
/// relay LP: its local hops stay in its own list, and each send to its one
/// out-neighbour comes straight back through `accept` — the receive path
/// of the CMB and work-stealing engines — so two tokens stay pending.
fn lp_step_allocations(steps: usize) -> u64 {
    let mut core = LpCore::new(0, Relay { n: 2 }, vec![1], NoopTracer);
    let mut inbox = Vec::new();
    core.init(|_, _, ev| inbox.push(ev));
    let mut run = |steps: usize| {
        for _ in 0..steps {
            core.step(|_, _, ev| inbox.push(ev));
            for ev in inbox.drain(..) {
                core.accept(ev);
            }
        }
    };
    run(1_000);
    let ((), allocs) = allocations(|| run(steps));
    assert_eq!(core.queue_len(), 2);
    allocs
}

/// DESIGN §6c for the per-LP kernel the CMB, timestep and work-stealing
/// engines run on: once its list and send buffer have their size, a step
/// — handler, local schedule, staged send, drain — and the accept of an
/// incoming event allocate nothing.
#[test]
fn lp_core_step_allocates_nothing_per_event() {
    assert_eq!(lp_step_allocations(2_000), 0);
    assert_eq!(lp_step_allocations(20_000), 0);
}

/// A pseudo-random delay in `[0.5, 1.5)` from a linear congruential step.
fn delay(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    0.5 + (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// The hold model: every event reschedules itself after a pseudo-random
/// delay, so the pending count stays at its initial fill.
struct Hold {
    state: u64,
}

impl Model for Hold {
    type Event = u32;
    fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
        ctx.schedule_in(delay(&mut self.state), ev);
    }
}

/// Answers each replayed record (even payload) with one internal event
/// (odd payload) a pseudo-random delay later, so the pending count stays
/// at the records in flight.
struct Echo {
    state: u64,
}

impl Model for Echo {
    type Event = u32;
    fn handle(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
        if ev.is_multiple_of(2) {
            ctx.schedule_in(delay(&mut self.state), ev + 1);
        }
    }
}

/// Allocations of the hold model on `engine` from t = 10 to t = 30, after
/// 1 000 events scheduled over the first second and a run to t = 10 that
/// gives its event list its size.
fn hold_allocations<Q: EventQueue<u32>>(mut engine: EventDriven<Hold, Q>) -> u64 {
    for ev in 0..1_000 {
        engine.schedule(SimTime::new(ev as f64 / 1_000.0), ev);
    }
    engine.run_until(SimTime::new(10.0));
    let (stats, n) = allocations(|| engine.run_until(SimTime::new(30.0)));
    assert!(stats.events > 10_000);
    n
}

/// DESIGN §6c: once the default event list has reached its size, the
/// default engine delivers and reschedules without allocating.
#[test]
fn event_driven_allocates_nothing_per_event() {
    assert_eq!(hold_allocations(EventDriven::new(Hold { state: 7 })), 0);
}

/// DESIGN §6c: the trace-replay engine merges an allocation-free record
/// stream with the model's own events; once its event list has its size,
/// neither a replayed record nor an internal event allocates.
#[test]
fn trace_driven_allocates_nothing_per_event() {
    let records = (0u32..).map(|i| (SimTime::new(f64::from(i) / 100.0), 2 * i));
    let mut engine = TraceDriven::new(Echo { state: 7 }, records);
    engine.run_until(SimTime::new(10.0));
    let (stats, n) = allocations(|| engine.run_until(SimTime::new(30.0)));
    assert!(stats.events > 3_900, "{}", stats.events);
    assert_eq!(n, 0);
}

/// Bytes the default event list allocates while filling to 2^16 pending
/// `u32` payloads: 16-byte keys and 4-byte payload slots, both doubling
/// from 8 to 2^17 lanes (the root lane and the line lead need a few past
/// 2^16), and the slab's 24-byte `(parent, payload)` entries, doubling
/// from 4 to 2^16; a `realloc` counts its new size.
const HEAP_FILL_BYTES: u64 = 8_388_352;

/// The same fill over 32-byte `(u128 key, u32 slot)` heap nodes beside a
/// slab of whole 40-byte `ScheduledEvent<u32>` records.
const NODE_HEAP_FILL_BYTES: u64 = 9_436_896;

const _: () = assert!(HEAP_FILL_BYTES < NODE_HEAP_FILL_BYTES);

/// DESIGN §6c: the default event list's bytes per pending event are
/// pinned, below a layout of 32-byte nodes and whole records.
#[test]
fn binary_heap_fill_bytes_are_pinned() {
    let mut q = BinaryHeapQueue::new();
    let ((), bytes) = allocated_bytes(|| {
        for i in 0..1u32 << 16 {
            let t = SimTime::new(f64::from(i.wrapping_mul(2_654_435_761) >> 16));
            q.insert(ScheduledEvent::new(t, u64::from(i), i));
        }
    });
    assert_eq!(q.len(), 1 << 16);
    assert_eq!(bytes, HEAP_FILL_BYTES);
}

/// DESIGN §6c: once the pooled event list has reached its size, the
/// engine delivers and reschedules without allocating.
#[test]
fn event_driven_pooled_heap_allocates_nothing_per_event() {
    let queue = PooledQueue::new(BinaryHeapQueue::new());
    let engine = EventDriven::with_queue(Hold { state: 7 }, queue);
    assert_eq!(hold_allocations(engine), 0);
}

/// DESIGN §6c: the sorted list inserts into and pops from one `Vec` that
/// keeps its capacity, so once filled it allocates nothing per event.
#[test]
fn event_driven_sorted_list_allocates_nothing_per_event() {
    let engine = EventDriven::with_queue(Hold { state: 7 }, SortedListQueue::new());
    assert_eq!(hold_allocations(engine), 0);
}

/// DESIGN §6c: the calendar does not resize at a steady 1 000 pending, but
/// a day's sorted `Vec` still grows whenever its length, consumed prefix
/// included, passes that day's earlier high-water mark.
#[test]
fn event_driven_calendar_allocations_are_pinned() {
    let engine = EventDriven::with_queue(Hold { state: 7 }, CalendarQueue::new());
    assert_eq!(hold_allocations(engine), 138);
}

/// DESIGN §6c: every rung the ladder spawns (`Rung::spanning`) allocates a
/// fresh bucket array and one fresh `Vec` per bucket it fills, and the top
/// tier a rung takes over regrows from empty, so its allocations grow with
/// the events delivered.
#[test]
fn event_driven_ladder_allocations_are_pinned() {
    let engine = EventDriven::with_queue(Hold { state: 7 }, LadderQueue::new());
    assert_eq!(hold_allocations(engine), 10_429);
}

/// `n` JSON-lines trace records over 11 nodes and 50 metrics; each name
/// first occurs within the first 50 records.
fn trace_text(n: usize) -> String {
    let mut text = String::new();
    for i in 0..n {
        let (node, metric) = (i % 11, i % 50);
        writeln!(
            text,
            r#"{{"time":{i},"node":"T1-{node}","metric":"job_arrival/{metric}","value":1.5}}"#
        )
        .expect("writing to a String");
    }
    text
}

/// DESIGN §5: `read_trace` interns each `node` and `metric` name, so a
/// record whose names were seen before allocates nothing of its own; ten
/// times the records adds only the record vector's doubling steps.
#[test]
fn read_trace_allocations_do_not_grow_per_record() {
    let read = |n: usize| {
        let text = trace_text(n);
        let (trace, allocs) = allocations(|| read_trace(text.as_bytes()).expect("valid trace"));
        assert_eq!(trace.len(), n);
        allocs
    };
    let (small, large) = (read(1_000), read(10_000));
    assert!(
        large <= small + 8,
        "1 000 records: {small}, 10 000: {large}"
    );
}

/// A compute-only grid of four sites run until all of its `jobs` jobs
/// have finished.
fn finished_grid(jobs: u64) -> EventDriven<GridModel> {
    let seed = 11;
    let mut sim = GridModel::build(GridConfig {
        grid: flat_grid(vec![SiteSpec::default(); 4], mbps(800.0), 0.005),
        policy: Box::new(LeastLoaded),
        replication: ReplicationPolicy::None,
        activities: vec![
            Activity::compute(0, 2.0, Dist::exp_mean(3.0), SimRng::new(seed)).with_limit(jobs),
        ],
        production: None,
        agent: None,
        eligible: None,
        initial_files: vec![],
        seed,
    });
    sim.run_until(SimTime::new(1.0e7));
    assert_eq!(sim.model().records().len() as u64, jobs);
    sim
}

/// DESIGN §5: a `GridReport` shares the model's job records instead of
/// copying them, so what `report()` allocates does not depend on how many
/// jobs have finished.
#[test]
fn grid_report_bytes_do_not_grow_with_finished_jobs() {
    let (few, many) = (finished_grid(50), finished_grid(2_000));
    let (small, few_bytes) = allocated_bytes(|| few.model().report());
    let (large, many_bytes) = allocated_bytes(|| many.model().report());
    assert_eq!((small.records.len(), large.records.len()), (50, 2_000));
    assert_eq!(few_bytes, many_bytes);
}

/// A compute-only job's way through the grid (broker view, placement, CPU
/// start and finish, job record) allocates nothing of its own: the broker
/// view is rebuilt in buffers the model keeps, and a CPU completion comes
/// back as an `Option`. Doubling the jobs adds only the doubling steps of
/// the vectors that grow with the run (2 allocations), not one per job.
#[test]
fn compute_only_jobs_allocate_nothing_per_job() {
    let (_, small) = allocations(|| finished_grid(2_000));
    let (_, large) = allocations(|| finished_grid(4_000));
    assert_eq!(large - small, 2, "2 000 jobs: {small}, 4 000: {large}");
}
