//! lsds-lint: allow(wall-clock) reason="layer probes time calls into the product's public functions from outside"
//!
//! Per-layer probes: each times calls into one layer's public functions
//! (or checks one layer's answer against a closed form) at a fixed size,
//! so a change to that layer shows here even when the workloads bury it.
//! Probe sizes are constants of this file — the same on every commit — and
//! small. Every probe belongs to the one workload whose end-to-end numbers
//! it should move (`metrics.rs` says which) and runs in that workload's
//! `--trace 1` pass, a few seconds per workload. Probes that are one short
//! timed run, not a mean over many calls, are repeated in interleaved
//! rounds and report the median. The numbers have no bound; the workloads
//! carry the bounds.

use crate::product::{
    self, BinaryHeapQueue, Bricks, CalendarQueue, ChicagoSim, CpuEvent, CpuFarm, Ctx, Discipline,
    Dist, EventQueue, FileCatalog, FileId, FlowEvent, FlowNet, GridSim, JobId, JobSpec,
    LadderQueue, LeastLoaded, LinkFault, LinkId, Model, Monarc, NodeId, NodeKind, Observer,
    OptorSim, PlacementView, PooledQueue, RouteCache, Routing, Schedule, ScheduledEvent,
    SchedulerPolicy, SchedulingMode, Sharing, SimGrid, SimRng, SimTime, SiteId, SiteSnapshot,
    SortedListQueue, StorageElement, Summary, Topology,
};
use crate::util::{timed, Rng};
use crate::workloads::{lhc, net_scale, phold, Size, Study};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One probe result: metric name and value (units are in `metrics.rs`).
pub type Reading = (&'static str, f64);

/// Runs `round` `rounds` times and reports, name by name, the median of
/// its readings — the minimum for a 0/1 guard, which must hold every time.
fn median_of_rounds(rounds: usize, mut round: impl FnMut() -> Vec<Reading>) -> Vec<Reading> {
    let all: Vec<Vec<Reading>> = (0..rounds).map(|_| round()).collect();
    all[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = all.iter().map(|r| r[i].1).collect();
            let v = if crate::metrics::GUARDS.contains(&name) {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                crate::util::median(&values)
            };
            (name, v)
        })
        .collect()
}

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A `Schedule` that only collects: lets a probe call a component's
/// methods with no engine underneath.
struct Sink<E> {
    now: SimTime,
    events: Vec<(SimTime, E)>,
}

impl<E> Sink<E> {
    fn new() -> Self {
        Sink {
            now: SimTime::ZERO,
            events: Vec::new(),
        }
    }
}

impl<E> Schedule<E> for Sink<E> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn schedule_at(&mut self, t: SimTime, event: E) {
        self.events.push((t, event));
    }
}

// ---------------------------------------------------------------- stats

fn stats() -> Vec<Reading> {
    let mut rng = SimRng::new(7);
    let dist = Dist::Exponential { rate: 1.0 };
    let mut acc = 0.0;
    let sample = ns_per_call(2_000_000, || acc += dist.sample(&mut rng));
    black_box(acc);
    let mut summary = Summary::new();
    let mut x = 0.0;
    let add = ns_per_call(2_000_000, || {
        x += 1.0;
        summary.add(x);
    });
    black_box(summary.mean());
    vec![
        ("stats.dist_sample_ns", sample),
        ("stats.summary_add_ns", add),
    ]
}

// ----------------------------------------------------------------- core

/// Hold model straight on an event list: `pending` events pre-filled at
/// spread timestamps, then `ops` pop-min/insert pairs with heavy-tailed
/// increments. Nanoseconds per hold.
fn hold_ns<Q: EventQueue<u32>>(q: &mut Q, pending: usize, ops: u64) -> f64 {
    let mut rng = Rng::new(11, pending as u64);
    let mut seq = 0u64;
    for i in 0..pending {
        q.insert(ScheduledEvent::new(
            SimTime::new(rng.lomax2()),
            seq,
            i as u32,
        ));
        seq += 1;
    }
    let ns = ns_per_call(ops, || {
        let ev = q.pop_min().expect("hold model never drains");
        q.insert(ScheduledEvent::new(
            ev.time.after(rng.lomax2()),
            seq,
            ev.event,
        ));
        seq += 1;
    });
    black_box(q.len());
    ns
}

struct Relay {
    left: u64,
}

impl Model for Relay {
    type Event = ();
    fn handle(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
        self.left -= 1;
        if self.left > 0 {
            ctx.schedule_in(1.0, ());
        }
    }
}

struct Count(u64);

impl Model for Count {
    type Event = u32;
    fn handle(&mut self, _: u32, _: &mut Ctx<'_, u32>) {
        self.0 += 1;
    }
}

fn core() -> Vec<Reading> {
    const M: usize = 1_000_000;
    let mut out = vec![
        (
            "core.queue.heap.hold_ns_1k",
            hold_ns(&mut BinaryHeapQueue::new(), 1_000, 1_000_000),
        ),
        (
            "core.queue.heap.hold_ns_1m",
            hold_ns(&mut BinaryHeapQueue::new(), M, 400_000),
        ),
        (
            "core.queue.ladder.hold_ns_1m",
            hold_ns(&mut LadderQueue::new(), M, 400_000),
        ),
        (
            "core.queue.calendar.hold_ns_1m",
            hold_ns(&mut CalendarQueue::new(), M, 400_000),
        ),
        (
            "core.queue.sorted.hold_ns_1k",
            hold_ns(&mut SortedListQueue::new(), 1_000, 200_000),
        ),
    ];
    let mut pooled = PooledQueue::new(BinaryHeapQueue::<u32>::new());
    out.push((
        "core.queue.pooled_heap.hold_ns_1m",
        hold_ns(&mut pooled, M, 400_000),
    ));
    out.push((
        "core.pool.slot_high_water",
        f64::from(pooled.slot_high_water()),
    ));
    drop(pooled);

    // one pending event, a handler that only re-arms it: engine loop cost
    const RELAYS: u64 = 2_000_000;
    let mut sim = product::engine_plain(Relay { left: RELAYS });
    sim.schedule(SimTime::ZERO, ());
    let (_, s) = timed(|| product::run_engine(&mut sim, None));
    out.push(("core.engine.dispatch_ns", s * 1e9 / RELAYS as f64));

    // empty ticks of the time-driven engine (one event parked far ahead)
    let mut td = product::TimeDriven::new(Count(0), 1.0);
    td.schedule(SimTime::new(1.0e12), 0);
    out.push((
        "core.time_driven.tick_ns",
        ns_per_call(2_000_000, || {
            td.tick();
        }),
    ));

    // replay of an external record stream
    const RECORDS: u32 = 2_000_000;
    let source = (0..RECORDS).map(|i| (SimTime::new(f64::from(i) * 0.5), i));
    let mut replay = product::TraceDriven::new(Count(0), source);
    let (_, s) = timed(|| replay.run());
    assert_eq!(replay.model().0, u64::from(RECORDS));
    out.push((
        "core.trace_driven.replay_events_per_s",
        f64::from(RECORDS) / s,
    ));
    out
}

// ------------------------------------------------------------------ net

/// `pairs` disjoint duplex host pairs (the `net_scale_100k` shape).
fn disjoint_pairs(pairs: usize) -> (Topology, Vec<(NodeId, NodeId)>) {
    let mut topo = Topology::new();
    let ends = (0..pairs)
        .map(|p| {
            let a = topo.add_node(NodeKind::Host, format!("a{p}"));
            let b = topo.add_node(NodeKind::Host, format!("b{p}"));
            topo.add_duplex(a, b, 12.5e6, 0.001);
            (a, b)
        })
        .collect();
    (topo, ends)
}

/// A dumbbell whose bottleneck every flow crosses, with `n` flows active.
fn shared_bottleneck(n: usize) -> (FlowNet, Sink<FlowEvent>, Vec<NodeId>, Vec<NodeId>) {
    let (topo, src, dst) = Topology::dumbbell(64, 12.5e6, 50.0e6, 0.001);
    let mut net = FlowNet::new(topo);
    let mut sink = Sink::new();
    for i in 0..n {
        net.try_start(
            src[i % 64],
            dst[(i * 7) % 64],
            1.0e9 + i as f64,
            i as u64,
            &mut sink,
        )
        .expect("dumbbell is connected");
    }
    // deliver the Begin events: the flows become active
    let begins: Vec<(SimTime, FlowEvent)> = std::mem::take(&mut sink.events);
    for (t, ev) in begins {
        sink.now = t;
        net.handle(ev, &mut sink);
    }
    (net, sink, src, dst)
}

fn net() -> Vec<Reading> {
    let mut out = Vec::new();

    // starts on disjoint pairs: route-cache miss once per pair, then hits
    let (topo, ends) = disjoint_pairs(4096);
    let mut net = FlowNet::new(topo);
    let mut sink = Sink::new();
    let mut i = 0usize;
    let start = ns_per_call(4096 * 8, || {
        let (a, b) = ends[i % ends.len()];
        net.try_start(a, b, 1.0e6, i as u64, &mut sink)
            .expect("pair is connected");
        i += 1;
    });
    out.push(("net.start_ns_disjoint", start));

    // one more flow into a component of 1000: start + Begin (the reshare)
    let (mut net, mut sink, src, dst) = shared_bottleneck(1000);
    sink.events.clear();
    let mut k = 0usize;
    let start_shared = ns_per_call(200, || {
        let before = sink.events.len();
        net.try_start(
            src[k % 64],
            dst[(k * 5) % 64],
            1.0e9,
            5000 + k as u64,
            &mut sink,
        )
        .expect("dumbbell is connected");
        let (t, begin) = sink.events[before];
        sink.now = sink.now.max(t);
        net.handle(begin, &mut sink);
        k += 1;
    });
    out.push(("net.start_us_shared1k", start_shared / 1e3));

    // completions out of that component: replay the scheduled events in
    // time order and time the calls that retire a flow
    let mut pending: Vec<(SimTime, FlowEvent)> = std::mem::take(&mut sink.events);
    pending.sort_by(|a, b| b.0.seconds().total_cmp(&a.0.seconds()));
    let (mut completions, mut complete_ns) = (0u32, 0u128);
    while completions < 200 {
        let Some((t, ev)) = pending.pop() else { break };
        sink.now = sink.now.max(t);
        let begin = Instant::now();
        let done = net.handle(ev, &mut sink);
        let spent = begin.elapsed().as_nanos();
        if !done.is_empty() {
            completions += done.len() as u32;
            complete_ns += spent;
        }
        if !sink.events.is_empty() {
            pending.append(&mut sink.events);
            pending.sort_by(|a, b| b.0.seconds().total_cmp(&a.0.seconds()));
        }
    }
    out.push((
        "net.complete_us_shared1k",
        complete_ns as f64 / 1e3 / f64::from(completions.max(1)),
    ));

    // a fault on the bottleneck of 1000 flows and its repair
    let (mut net, mut sink, ..) = shared_bottleneck(1000);
    let bottleneck = LinkId(0);
    let mut down = true;
    let fault = ns_per_call(20, || {
        let f = if down {
            LinkFault::Degrade {
                link: bottleneck,
                factor: 0.5,
            }
        } else {
            LinkFault::Degrade {
                link: bottleneck,
                factor: 1.0,
            }
        };
        down = !down;
        black_box(net.apply_fault(f, &mut sink));
    });
    out.push(("net.apply_fault_us", fault / 1e3));
    out.push(("net.maxmin_rel_err", maxmin_rel_err()));
    out
}

/// Routing at the `net_scale_100k` size.
fn routing() -> Vec<Reading> {
    let mut out = Vec::new();
    // routing over 120 k nodes: tables are lazy, so "compute" is the
    // constructor plus the first query of a thousand pairs
    let (topo, ends) = disjoint_pairs(60_000);
    let ((routing, mut cache), s) = timed(|| {
        let routing = Routing::compute(&topo);
        let mut cache = RouteCache::new();
        for &(a, b) in ends.iter().step_by(60) {
            black_box(cache.path(&routing, &topo, a, b));
        }
        (routing, cache)
    });
    out.push(("net.routing.compute_ms_120k", s * 1e3));
    let mut j = 0usize;
    let hit = ns_per_call(200_000, || {
        let (a, b) = ends[(j * 60) % ends.len()];
        black_box(cache.path(&routing, &topo, a, b));
        j = (j + 1) % 1000;
    });
    let mut j = 1usize;
    let miss = ns_per_call(20_000, || {
        let (a, b) = ends[j % ends.len()];
        black_box(cache.path(&routing, &topo, a, b));
        j += 3;
        if j.is_multiple_of(60) {
            j += 1;
        }
    });
    out.push(("net.route.path_ns_hit", hit));
    out.push(("net.route.path_ns_miss", miss));
    out
}

/// Max-min fairness against its closed form: flow 1 crosses links A
/// (capacity 10) and B (4), flow 2 only A, flow 3 only B. The fair shares
/// are 2, 8 and 2, so A carries 10 and B carries 4; and equal flows over
/// one bottleneck of capacity C finish `n` transfers of `b` bytes at
/// `latency + n·b/C`.
fn maxmin_rel_err() -> f64 {
    let mut topo = Topology::new();
    let n: Vec<NodeId> = (0..3)
        .map(|i| topo.add_node(NodeKind::Router, format!("n{i}")))
        .collect();
    let a = topo.add_link(n[0], n[1], 10.0, 0.0);
    let b = topo.add_link(n[1], n[2], 4.0, 0.0);
    let mut net = FlowNet::new(topo);
    let mut sink = Sink::new();
    for (src, dst) in [(n[0], n[2]), (n[0], n[1]), (n[1], n[2])] {
        net.try_start(src, dst, 1.0e6, 0, &mut sink)
            .expect("connected");
    }
    for (_, ev) in std::mem::take(&mut sink.events) {
        net.handle(ev, &mut sink);
    }
    let mut err = ((net.link_load(a) - 10.0) / 10.0)
        .abs()
        .max(((net.link_load(b) - 4.0) / 4.0).abs());

    let (flows, bytes, capacity, latency) = (40usize, 1.0e6, 50.0e6, 0.003);
    let (topo, src, dst) = Topology::dumbbell(flows, 1.0e9, capacity, 0.001);
    let mut net = FlowNet::new(topo);
    let mut sink = Sink::new();
    for i in 0..flows {
        net.try_start(src[i], dst[i], bytes, i as u64, &mut sink)
            .expect("connected");
    }
    let mut pending: Vec<(SimTime, FlowEvent)> = std::mem::take(&mut sink.events);
    let mut last = 0.0f64;
    while !pending.is_empty() {
        pending.sort_by(|a, b| b.0.seconds().total_cmp(&a.0.seconds()));
        let (t, ev) = pending.pop().expect("non-empty");
        sink.now = t;
        for d in net.handle(ev, &mut sink) {
            last = last.max(d.finished.seconds());
        }
        pending.append(&mut sink.events);
    }
    let expect = latency + flows as f64 * bytes / capacity;
    err = err.max(((last - expect) / expect).abs());
    err
}

// ----------------------------------------------------------------- grid

fn snapshots(n: usize) -> Vec<SiteSnapshot> {
    (0..n)
        .map(|i| SiteSnapshot {
            id: SiteId(i),
            eligible: i > 0,
            cores: 32,
            speed: 1.0,
            running: (i * 7) % 29,
            queued: (i * 3) % 5,
            price: 1.0,
            tier: 1,
        })
        .collect()
}

fn place_ns(sites: usize, iters: u64) -> f64 {
    let snaps = snapshots(sites);
    let missing = vec![0.0; sites];
    let job = JobSpec::compute(1, 0, 100.0, SimTime::ZERO);
    let mut policy = LeastLoaded;
    ns_per_call(iters, || {
        let view = PlacementView {
            sites: &snaps,
            missing_bytes: &missing,
            now: SimTime::ZERO,
        };
        black_box(policy.select(&job, &view));
    })
}

/// Microseconds to evict one file from a disk holding `resident` files and
/// store its replacement.
fn make_room_us(resident: u64) -> f64 {
    let mut disk = StorageElement::new(resident as f64);
    for f in 0..resident {
        disk.store(FileId(f), 1.0, SimTime::new(f as f64));
    }
    let mut next = resident;
    ns_per_call(100, || {
        let evicted = disk
            .make_room(1.0, |m| m.last_access.seconds())
            .expect("unpinned files can be evicted");
        black_box(evicted);
        disk.store(FileId(next), 1.0, SimTime::new(next as f64));
        next += 1;
    }) / 1e3
}

fn grid() -> Vec<Reading> {
    let mut out = vec![
        ("grid.scheduler.place_ns_12", place_ns(12, 1_000_000)),
        ("grid.scheduler.place_ns_1k", place_ns(1000, 20_000)),
    ];

    const FILES: u64 = 200_000;
    let mut disk = StorageElement::new(FILES as f64 * 2.0);
    let mut f = 0u64;
    out.push((
        "grid.storage.store_ns",
        ns_per_call(FILES, || {
            disk.store(FileId(f), 1.0, SimTime::ZERO);
            f += 1;
        }),
    ));
    black_box(disk.file_count());
    out.push(("grid.storage.make_room_us_2k", make_room_us(2_000)));
    out.push(("grid.storage.make_room_us_10k", make_room_us(10_000)));

    // a farm with free cores: submit = start + completion scheduling
    const JOBS: u64 = 20_000;
    let mut farm = CpuFarm::new(JOBS as usize, 1.0, Sharing::Space, Discipline::Fifo);
    let mut sink: Sink<CpuEvent> = Sink::new();
    let mut j = 0u64;
    out.push((
        "grid.cpu.submit_ns",
        ns_per_call(JOBS, || {
            farm.submit(JobId(j), 100.0, 0, &mut sink);
            j += 1;
        }),
    ));

    // replica selection: three holders per file, cost = site distance
    let mut catalog = FileCatalog::new();
    for f in 0..10_000u64 {
        let id = catalog.register(1.0e9, SiteId(0));
        catalog.add_replica(id, SiteId(1 + (f % 11) as usize));
        catalog.add_replica(id, SiteId(1 + ((f + 5) % 11) as usize));
    }
    let mut f = 0u64;
    out.push((
        "grid.catalog.lookup_ns",
        ns_per_call(1_000_000, || {
            let best = catalog.best_source(FileId(f % 10_000), |s| (s.0 as f64 - 6.0).abs());
            black_box(best);
            f += 7;
        }),
    ));
    out
}

// ----------------------------------------------------------- simulators

fn simulators() -> Vec<Reading> {
    median_of_rounds(3, simulators_round)
}

fn simulators_round() -> Vec<Reading> {
    let mut out = Vec::new();
    let monarc = |datasets: u64| Monarc {
        n_t1: 11,
        uplink_gbps: 30.0,
        dataset_gb: 10.0,
        production_interval: 32.0,
        datasets,
        initial_datasets: 64,
        ..Monarc::default()
    };
    let (report, s) = timed(|| monarc(4_000).run(1.0e9));
    out.push(("sim.monarc.wall_ms", s * 1e3));

    // the benchmark's own builder must tell the same story as the facade
    let sc = lhc::Scenario {
        n_t1: 11,
        uplink_gbps: 30.0,
        t1_link_gbps: 10.0,
        dataset_gb: 10.0,
        production_interval: 32.0,
        datasets: 4_000,
        initial_datasets: 64,
        t1_cores: 32,
        t1_disk_datasets: 1.0e15 / 10.0e9,
        datasets_per_job: 1,
        seed: 1,
    };
    let mut sim = product::engine_plain(lhc::build_model(&sc, &[]));
    sim.schedule(SimTime::ZERO, product::GridEvent::Init);
    product::run_engine(&mut sim, Some(SimTime::new(1.0e9)));
    let ours = lhc::shipping(sim.model());
    // the facade averages the lags with a running mean, the benchmark with
    // a sum: equal up to rounding, not bit for bit
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let same = ours.produced == report.produced
        && ours.shipped == report.shipped
        && ours.last_shipment.to_bits() == report.last_shipment.to_bits()
        && close(ours.mean_lag, report.mean_availability_lag)
        && ours.max_lag.to_bits() == report.max_availability_lag.to_bits();
    out.push((
        "sim.monarc.matches_bench_builder",
        f64::from(u8::from(same)),
    ));

    let (r, s) = timed(|| {
        Bricks {
            jobs_per_client: 1_200,
            mean_interarrival: 16.0,
            ..Bricks::default()
        }
        .run(1.0e9)
    });
    black_box(r.records.len());
    out.push(("sim.bricks.wall_ms", s * 1e3));
    let (r, s) = timed(|| {
        OptorSim {
            jobs: 30_000,
            ..OptorSim::default()
        }
        .run(1.0e9)
    });
    black_box(r.records.len());
    out.push(("sim.optorsim.wall_ms", s * 1e3));
    let mut rng = Rng::new(3, 3);
    let hosts: Vec<f64> = (0..64).map(|_| rng.range(0.5, 4.0)).collect();
    let tasks: Vec<f64> = (0..1_000_000).map(|_| rng.range(1.0, 100.0)).collect();
    let (r, s) = timed(|| SimGrid::new(hosts, tasks, SchedulingMode::Runtime).run());
    black_box(r.makespan);
    out.push(("sim.simgrid.wall_ms", s * 1e3));
    let (r, s) = timed(|| {
        GridSim {
            tasks: 160_000,
            mean_interarrival: 6.0,
            ..GridSim::default()
        }
        .run(1.0e9)
    });
    black_box(r.records.len());
    out.push(("sim.gridsim.wall_ms", s * 1e3));
    let (r, s) = timed(|| {
        ChicagoSim {
            jobs_per_user: 24_000,
            mean_interarrival: 30.0,
            ..ChicagoSim::default()
        }
        .run(1.0e9)
    });
    black_box(r.records.len());
    out.push(("sim.chicagosim.wall_ms", s * 1e3));
    out
}

// ------------------------------------------------------------- parallel

fn parallel(scratch: &Path) -> Vec<Reading> {
    let dir = scratch.join("probe_phold");
    write_inputs(&dir, phold::generate(1, Size::Full));
    let base = phold::load(&dir).expect("generated phold input parses");
    let mut out = median_of_rounds(3, || parallel_round(&base));

    let mut rng = Rng::new(5, 5);
    let costs: Vec<f64> = (0..4096).map(|_| rng.lomax2() + 0.1).collect();
    let us = ns_per_call(20, || {
        black_box(product::partition_profiled(&costs, 16));
    }) / 1e3;
    out.push(("par.partition.profiled_us", us));
    out
}

/// One round of the engine comparison: every engine once, one after the
/// other, so a slow spell of the host hits them all.
fn parallel_round(base: &phold::Params) -> Vec<Reading> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = phold::workers();
    let mut out = Vec::new();

    // the workload's model at a quarter of its horizon
    let p = base.resized(base.lps, base.grain, base.t_end / 4.0);
    let (edges, t_end) = (p.edges(), SimTime::new(p.t_end));
    let (seq, seq_s) = timed(|| product::par_sequential(p.build(), &edges, t_end));
    let want = phold::fingerprint(seq.lps.iter());
    out.push(("par.seq.wall_s", seq_s));
    let (w1, w1_s) = timed(|| product::par_worksteal(p.build(), &edges, t_end, 1));
    out.push(("par.ws.wall_s_w1", w1_s));
    let cpu0 = crate::util::process_cpu_seconds();
    let (ws, ws_s) = timed(|| product::par_worksteal(p.build(), &edges, t_end, workers));
    out.push(("par.ws.cpu_s", crate::util::process_cpu_seconds() - cpu0));
    out.push(("par.ws.speedup_vs_seq", seq_s / ws_s));
    out.push(("par.ws.efficiency", seq_s / ws_s / workers as f64));
    let mut agree =
        phold::fingerprint(w1.lps.iter()) == want && phold::fingerprint(ws.lps.iter()) == want;

    // no grain: nothing hides the synchronisation
    let p0 = base.resized(base.lps, 0, base.t_end / 4.0);
    let (s0, s) = timed(|| product::par_sequential(p0.build(), &edges, t_end));
    out.push(("par.seq.wall_s_grain0", s));
    let (w0, s) = timed(|| product::par_worksteal(p0.build(), &edges, t_end, workers));
    out.push(("par.ws.wall_s_grain0", s));
    agree &= phold::fingerprint(s0.lps.iter()) == phold::fingerprint(w0.lps.iter());

    // thread-per-LP engines get one LP per core, so threads never
    // outnumber cores (two at least: one LP has nobody to talk to)
    let pt = base.resized(cores.max(2), base.grain, base.t_end / 4.0);
    let (edges, t_end) = (pt.edges(), SimTime::new(pt.t_end));
    let seq = product::par_sequential(pt.build(), &edges, t_end);
    let oracle = phold::fingerprint(seq.lps.iter());
    let (cmb, s) = timed(|| product::par_cmb(pt.build(), &edges, t_end));
    out.push(("par.cmb.wall_s", s));
    out.push((
        "par.cmb.nulls_per_event",
        cmb.sync_ops as f64 / cmb.events.max(1) as f64,
    ));
    out.push((
        "par.cmb.blocked_s",
        product::par_cmb_blocked_seconds(pt.build(), &edges, t_end),
    ));
    let (ts, s) = timed(|| product::par_timestep(pt.build(), pt.lookahead, t_end));
    out.push(("par.timestep.wall_s", s));
    out.push((
        "par.timestep.barrier_wait_s",
        product::par_timestep_barrier_seconds(pt.build(), pt.lookahead, t_end),
    ));
    let (tw, s) = timed(|| product::par_timewarp(pt.build(), &edges, t_end, 8.0 * pt.lookahead));
    out.push(("par.tw.wall_s", s));
    out.push((
        "par.tw.rolled_back_frac",
        tw.rolled_back as f64 / tw.processed.max(1) as f64,
    ));
    out.push((
        "par.tw.antis_per_event",
        tw.antis as f64 / tw.committed.max(1) as f64,
    ));
    agree &= [
        phold::fingerprint(cmb.lps.iter()),
        phold::fingerprint(ts.lps.iter()),
        phold::fingerprint(tw.lps.iter()),
    ]
    .iter()
    .all(|&fp| fp == oracle);
    out.push(("par.engines_agree", f64::from(u8::from(agree))));
    out
}

// ------------------------------------------------- obs / prof / trace

fn write_inputs(dir: &Path, files: Vec<crate::workloads::InputFile>) {
    crate::workloads::write_files(dir, files)
        .unwrap_or_else(|e| panic!("writing {}: {e}", dir.display()));
}

fn observation(scratch: &Path) -> Vec<Reading> {
    // the net_scale_100k model at a tenth of its pairs
    let dir = scratch.join("probe_net_scale");
    write_inputs(&dir, net_scale::generate_with(1, 3_000, 100, 4096));
    let input = net_scale::NetScale::load(&dir).expect("generated input parses");
    let run = |observer: Option<Observer>| -> f64 {
        let model = net_scale::NetScale::build(&input);
        let prime = |schedule: &mut dyn FnMut(SimTime, net_scale::ScaleEv)| {
            net_scale::NetScale::prime(&input, schedule);
        };
        let begin = Instant::now();
        match observer {
            None => {
                let mut sim = product::engine_plain(model);
                prime(&mut |t, ev| sim.schedule(t, ev));
                black_box(product::run_engine(&mut sim, None));
            }
            Some(o) => {
                black_box(product::run_with_observer(model, o, prime, |_, events| {
                    events
                }));
            }
        }
        begin.elapsed().as_secs_f64()
    };
    // the plain engine and the four observers take turns, and every round
    // starts one place further down the list, so each of the five runs
    // once in every position: neither a slow spell of the host nor what
    // the previous run left in the caches and the allocator favours one
    let variants = [
        None,
        Some(Observer::Recorder),
        Some(Observer::Telemetry),
        Some(Observer::TracerFull),
        Some(Observer::TracerSampled),
    ];
    let mut seconds = vec![Vec::new(); variants.len()];
    for round in 0..variants.len() {
        for turn in 0..variants.len() {
            let v = (round + turn) % variants.len();
            seconds[v].push(run(variants[v]));
        }
    }
    let median: Vec<f64> = seconds.iter().map(|s| crate::util::median(s)).collect();
    let mut out = vec![
        ("obs.recorder.overhead_ratio", median[1] / median[0]),
        ("obs.telemetry.overhead_ratio", median[2] / median[0]),
        ("prof.tracer_full.overhead_ratio", median[3] / median[0]),
        ("prof.tracer_s16.overhead_ratio", median[4] / median[0]),
    ];

    // span analysis and export on a smaller run of the same model: every
    // event becomes a span, and the export writes ~100 bytes per span
    let small = scratch.join("probe_net_scale_small");
    write_inputs(&small, net_scale::generate_with(1, 500, 80, 4096));
    let input = net_scale::NetScale::load(&small).expect("generated input parses");
    let trace = product::traced_run(net_scale::NetScale::build(&input), 1 << 18, |schedule| {
        net_scale::NetScale::prime(&input, schedule)
    });
    out.push(("prof.spans_recorded", trace.len() as f64));
    let (profile, s) = timed(|| trace.profile());
    black_box(profile);
    out.push(("prof.profile_ms", s * 1e3));
    let (path, s) = timed(|| trace.critical_path());
    black_box(path.steps.len());
    out.push(("prof.critical_path_ms", s * 1e3));
    let (text, s) = timed(|| product::chrome_trace_to_string(&trace));
    let mib = text.len() as f64 / (1024.0 * 1024.0);
    out.push(("trace.chrome_export_mib_per_s", mib / s));
    let (parsed, s) = timed(|| product::Json::parse(&text));
    assert!(parsed.is_ok(), "the exported trace must parse");
    out.push(("trace.json_parse_mib_per_s", mib / s));
    out
}

/// `read_trace` on the `lhc_t0t1` job-trace format, 200 k records.
fn trace_read() -> Vec<Reading> {
    let jobs = lhc::job_trace(&lhc::Scenario::for_size(Size::Full, 1), 200_000, 1);
    median_of_rounds(3, || {
        let (trace, s) = timed(|| product::read_trace(jobs.as_bytes()));
        let records = trace.expect("generated trace parses").len();
        vec![("trace.read_trace_records_per_s", records as f64 / s)]
    })
}

// ------------------------------------------------------------- queueing

fn queueing() -> Vec<Reading> {
    // M/M/1 at 80 % load: simulated mean wait against λ / (μ (μ − λ))
    let (lambda, mu) = (0.8, 1.0);
    let analytic = product::MM1::new(lambda, mu).wq();
    let sim = product::simulate_mm1(lambda, mu, 400_000.0, 17);
    vec![(
        "queueing.mm1_wait_rel_err",
        ((sim - analytic) / analytic).abs(),
    )]
}

/// Runs the probes that belong to `workload`. `scratch` is a directory the
/// probes may write their generated inputs to.
pub fn for_workload(workload: &str, scratch: &Path) -> Vec<Reading> {
    let sections: Vec<Vec<Reading>> = match workload {
        "lhc_t0t1" => vec![grid(), simulators(), trace_read()],
        "net_scale_100k" => vec![routing(), observation(scratch)],
        "flow_contention" => vec![net()],
        "queue_hold" => vec![stats(), core(), queueing()],
        "phold_par" => vec![parallel(scratch)],
        other => panic!("unknown workload {other}"),
    };
    sections.into_iter().flatten().collect()
}
