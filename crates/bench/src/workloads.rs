//! Workload drivers: the hold, sparse-source and job-mapping models the
//! E2/E3/E12 binaries print their tables from. The tests below add two
//! `lsds-net` workloads (flow sharing, sliding-window scale) and pin their
//! cross-variant identity — share mode, event-list structure, event
//! storage, advance mechanism, observers on or off.

use lsds_core::process::{Action, MappingScheme, ProcessEngine};
use lsds_core::{Ctx, EventDriven, Model, QueueKind, ScheduledEvent, SimTime, TimeDriven};
use lsds_stats::{Dist, SimRng};
use std::time::Instant;

/// The classic *hold model* for event-list benchmarking: keep `size`
/// events pending; repeatedly pop the minimum and insert a replacement a
/// random increment in the future. Returns wall seconds for `ops`
/// hold operations.
pub fn hold_model(kind: QueueKind, size: usize, ops: u64, increment: &Dist, seed: u64) -> f64 {
    let mut q = kind.build::<u64>();
    let mut rng = SimRng::new(seed);
    let mut seq = 0u64;
    for _ in 0..size {
        let t = increment.sample(&mut rng).abs();
        q.insert(ScheduledEvent::new(SimTime::new(t), seq, seq));
        seq += 1;
    }
    let start = Instant::now();
    for _ in 0..ops {
        let ev = q.pop_min().expect("hold model never drains");
        let dt = increment.sample(&mut rng).abs();
        q.insert(ScheduledEvent::new(ev.time.after(dt), seq, seq));
        seq += 1;
    }
    start.elapsed().as_secs_f64()
}

/// A sparse-event model: `n_sources` periodic sources with period
/// `period`, simulated to `horizon`. Used by E3 to compare advance
/// mechanisms at varying event density.
struct SparseModel {
    /// Sources re-arm themselves with this period.
    period: f64,
    /// Events handled.
    handled: u64,
}

impl Model for SparseModel {
    type Event = u32;
    fn handle(&mut self, src: u32, ctx: &mut Ctx<'_, u32>) {
        self.handled += 1;
        ctx.schedule_in(self.period, src);
    }
}

/// Runs the sparse model on the event-driven engine; returns
/// `(events, ticks = 0, wall seconds)`.
pub fn run_event_driven(n_sources: u32, period: f64, horizon: f64) -> (u64, u64, f64) {
    let mut sim = EventDriven::new(SparseModel { period, handled: 0 });
    for s in 0..n_sources {
        sim.schedule(SimTime::ZERO, s);
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::new(horizon));
    (stats.events, stats.ticks, start.elapsed().as_secs_f64())
}

/// Runs the sparse model on the time-driven engine with step `dt`;
/// returns `(events, ticks, wall seconds)`.
pub fn run_time_driven(n_sources: u32, period: f64, horizon: f64, dt: f64) -> (u64, u64, f64) {
    let mut sim = TimeDriven::new(SparseModel { period, handled: 0 }, dt);
    for s in 0..n_sources {
        sim.schedule(SimTime::ZERO, s);
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::new(horizon));
    (stats.events, stats.ticks, start.elapsed().as_secs_f64())
}

/// E12 job workload: `jobs` multi-phase jobs arriving over `spread`
/// seconds, each holding `phases` times. Returns
/// `(allocations, reuses, peak_live, wall seconds)`.
pub fn mapping_workload(
    scheme: MappingScheme,
    jobs: u64,
    phases: u32,
    spread: f64,
    seed: u64,
) -> (u64, u64, u64, f64) {
    let mut rng = SimRng::new(seed);
    let mut sim = ProcessEngine::new(scheme);
    for _ in 0..jobs {
        let at = rng.range_f64(0.0, spread);
        let mut left = phases;
        let hold = rng.range_f64(0.5, 2.0);
        sim.spawn_at(SimTime::new(at), move |_now: SimTime| {
            if left == 0 {
                Action::Done
            } else {
                left -= 1;
                Action::Hold(hold)
            }
        });
    }
    let start = Instant::now();
    sim.run();
    let wall = start.elapsed().as_secs_f64();
    let cs = sim.context_stats();
    assert_eq!(sim.stats().completed, jobs);
    (cs.allocations, cs.reuses, cs.peak_live, wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::EventQueue;
    use lsds_net::{
        mbps, poisson_link_outages, FlowEvent, FlowNet, LinkFault, LinkId, NodeId, NodeKind,
        ShareMode, Topology,
    };
    use lsds_obs::{NoopTracer, RingTracer, SpanKind, SpanTrace, TraceConfig, Tracer};

    /// Outcome of one [`run_flow_sharing`] run: the completion fingerprint
    /// (for bit-identity checks between share modes) plus the scope counters
    /// that quantify how much work each reshare strategy did.
    struct FlowSharingResult {
        /// `(tag, finished-time bits)` per completed transfer, completion order.
        completions: Vec<(u64, u64)>,
        /// Transfers aborted by link outages.
        aborted: u64,
        /// Fair-share recomputations performed.
        reshare_count: u64,
        /// Cumulative flows visited across reshares.
        flows_touched: u64,
        /// Pairwise route-cache hits.
        route_cache_hits: u64,
    }

    /// `(arrival, src, dst, bytes)` per planned transfer.
    type FlowPlan = Vec<(f64, NodeId, NodeId, f64)>;
    /// `(at, fault)` per scheduled link fault.
    type FaultPlan = Vec<(f64, LinkFault)>;

    struct FlowModel {
        net: FlowNet,
        plan: FlowPlan,
        completions: Vec<(u64, u64)>,
    }

    enum FlowEv {
        Kick(usize),
        Fault(LinkFault),
        Net(FlowEvent),
    }

    impl Model for FlowModel {
        type Event = FlowEv;

        fn trace_kind(&self, ev: &FlowEv) -> SpanKind {
            match ev {
                FlowEv::Kick(i) => SpanKind::tagged("bench.kick", *i as u64),
                FlowEv::Fault(_) => SpanKind::new("net.fault"),
                FlowEv::Net(fe) => fe.span_kind(),
            }
        }

        fn handle(&mut self, ev: FlowEv, ctx: &mut Ctx<'_, FlowEv>) {
            match ev {
                FlowEv::Kick(i) => {
                    let (_, s, d, b) = self.plan[i];
                    // a transfer can race an outage and lose its only route;
                    // dropping it keeps the workload meaningful under faults
                    let _ = self
                        .net
                        .try_start(s, d, b, i as u64, &mut ctx.map(FlowEv::Net));
                }
                FlowEv::Fault(f) => {
                    self.net.apply_fault(f, &mut ctx.map(FlowEv::Net));
                }
                FlowEv::Net(fe) => {
                    for done in self.net.handle(fe, &mut ctx.map(FlowEv::Net)) {
                        self.completions
                            .push((done.tag, done.finished.seconds().to_bits()));
                    }
                }
            }
        }
    }

    /// The flow-sharing workload: `n_flows` bulk transfers over
    /// `pairs` disjoint duplex host pairs, arrivals staggered so the target
    /// concurrency is actually reached, sizes drawn so completions keep
    /// triggering reshares throughout. With `faults`, seeded Poisson outages
    /// knock links down and back up mid-run. Returns the completion
    /// fingerprint and scope counters, so callers can verify that
    /// [`ShareMode::Full`] and [`ShareMode::Incremental`] trajectories are
    /// bit-identical.
    ///
    /// Disjoint pairs are the favourable case for the incremental engine
    /// (many small components); see [`run_flow_sharing_dumbbell`] for the
    /// adversarial single-component case.
    fn run_flow_sharing(
        pairs: usize,
        n_flows: usize,
        mode: ShareMode,
        faults: bool,
        seed: u64,
    ) -> FlowSharingResult {
        let (topo, plan, fault_plan) = flow_sharing_setup(pairs, n_flows, faults, seed);
        run_flow_model(topo, mode, plan, fault_plan)
    }

    /// [`run_flow_sharing`] with causal tracing enabled: same workload, same
    /// trajectory (the tracer only observes), plus the span trace.
    fn run_flow_sharing_traced(
        pairs: usize,
        n_flows: usize,
        mode: ShareMode,
        faults: bool,
        seed: u64,
        cfg: TraceConfig,
    ) -> (FlowSharingResult, SpanTrace) {
        let (topo, plan, fault_plan) = flow_sharing_setup(pairs, n_flows, faults, seed);
        let (result, tracer) =
            run_flow_model_with(topo, mode, plan, fault_plan, RingTracer::new(cfg));
        (result, tracer.finish())
    }

    fn flow_sharing_setup(
        pairs: usize,
        n_flows: usize,
        faults: bool,
        seed: u64,
    ) -> (Topology, FlowPlan, FaultPlan) {
        let mut topo = Topology::new();
        let mut endpoints = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let a = topo.add_node(NodeKind::Host, format!("a{p}"));
            let b = topo.add_node(NodeKind::Host, format!("b{p}"));
            topo.add_duplex(a, b, mbps(100.0), 0.001);
            endpoints.push((a, b));
        }
        let mut rng = SimRng::new(seed);
        // all arrivals land inside [0, 10) while transfers take ~40–100 s, so
        // n_flows genuinely overlap before the first completions arrive
        let plan: FlowPlan = (0..n_flows)
            .map(|i| {
                let (a, b) = endpoints[i % pairs];
                let t = rng.range_f64(0.0, 10.0);
                let bytes =
                    rng.range_f64(2.0e7, 8.0e7) * (n_flows as f64 / pairs as f64).max(1.0) / 16.0;
                (t, a, b, bytes)
            })
            .collect();
        let fault_plan = if faults {
            let links: Vec<LinkId> = (0..topo.link_count()).step_by(5).map(LinkId).collect();
            poisson_link_outages(&mut rng.fork(11), &links, 120.0, 40.0, 5.0)
        } else {
            Vec::new()
        };
        (topo, plan, fault_plan)
    }

    /// Adversarial counterpart of [`run_flow_sharing`]: a dumbbell where
    /// every transfer crosses the one shared middle link, so the link↔flow
    /// graph is a single connected component and the incremental engine
    /// cannot shrink the scope — the case where the optimization does *not*
    /// help.
    fn run_flow_sharing_dumbbell(
        hosts: usize,
        n_flows: usize,
        mode: ShareMode,
        seed: u64,
    ) -> FlowSharingResult {
        let mut topo = Topology::new();
        let h1 = topo.add_node(NodeKind::Router, "h1");
        let h2 = topo.add_node(NodeKind::Router, "h2");
        topo.add_duplex(h1, h2, mbps(400.0), 0.001);
        let mut left = Vec::with_capacity(hosts);
        let mut right = Vec::with_capacity(hosts);
        for i in 0..hosts {
            let a = topo.add_node(NodeKind::Host, format!("a{i}"));
            let b = topo.add_node(NodeKind::Host, format!("b{i}"));
            topo.add_duplex(a, h1, mbps(100.0), 0.001);
            topo.add_duplex(h2, b, mbps(100.0), 0.001);
            left.push(a);
            right.push(b);
        }
        let mut rng = SimRng::new(seed);
        let plan: FlowPlan = (0..n_flows)
            .map(|i| {
                let t = rng.range_f64(0.0, 10.0);
                let bytes = rng.range_f64(2.0e6, 8.0e6) * (n_flows as f64 / hosts as f64).max(1.0);
                (t, left[i % hosts], right[(i + 1) % hosts], bytes)
            })
            .collect();
        run_flow_model(topo, mode, plan, Vec::new())
    }

    fn run_flow_model(
        topo: Topology,
        mode: ShareMode,
        plan: FlowPlan,
        faults: FaultPlan,
    ) -> FlowSharingResult {
        let (result, _tracer) = run_flow_model_with(topo, mode, plan, faults, NoopTracer);
        result
    }

    fn run_flow_model_with<T: Tracer>(
        topo: Topology,
        mode: ShareMode,
        plan: FlowPlan,
        faults: FaultPlan,
        tracer: T,
    ) -> (FlowSharingResult, T) {
        let mut net = FlowNet::new(topo);
        net.set_share_mode(mode);
        let mut sim = EventDriven::new(FlowModel {
            net,
            plan: plan.clone(),
            completions: Vec::new(),
        })
        .with_tracer(tracer);
        for (i, &(t, ..)) in plan.iter().enumerate() {
            sim.schedule(SimTime::new(t), FlowEv::Kick(i));
        }
        for &(t, f) in &faults {
            sim.schedule(SimTime::new(t), FlowEv::Fault(f));
        }
        sim.run();
        let (m, tracer) = sim.into_model_and_tracer();
        assert_eq!(m.net.in_flight(), 0, "flow-sharing workload must drain");
        let (route_cache_hits, _misses) = m.net.route_cache_stats();
        (
            FlowSharingResult {
                completions: m.completions,
                aborted: m.net.aborted(),
                reshare_count: m.net.reshare_count(),
                flows_touched: m.net.flows_touched(),
                route_cache_hits,
            },
            tracer,
        )
    }

    /// Outcome of one [`run_net_scale`] run: enough to check cross-variant
    /// agreement.
    struct ScaleResult {
        /// Transfers completed (must equal `pairs * per_pair`).
        completions: u64,
        /// Order-sensitive rolling hash over `(tag, finished-time bits)` —
        /// identical across queue structures on the same engine.
        fingerprint: u64,
    }

    /// Sliding-window transfer generator over disjoint duplex host pairs.
    ///
    /// Each pair runs `per_pair` sequential transfers; at most `window` pairs
    /// are active at once, and a pair finishing its quota activates the next
    /// inactive pair. This keeps the pending-event set ~`window` (so even the
    /// O(n)-insert sorted list survives a million jobs) while every entity in
    /// the topology eventually participates — the scale profile the paper's
    /// §5 describes: huge modeled system, bounded simulator working set.
    struct ScaleModel {
        net: FlowNet,
        endpoints: Vec<(NodeId, NodeId)>,
        remaining: Vec<u32>,
        next_pair: usize,
        rng: SimRng,
        completions: u64,
        fingerprint: u64,
        /// Reused completion buffer: the per-event `FlowNet` call is
        /// allocation-free in steady state.
        done: Vec<lsds_net::FlowDone>,
    }

    /// Event alphabet of the scale scenario.
    enum ScaleEv {
        /// Start the next transfer for this pair.
        Kick(u32),
        /// Internal FlowNet event.
        Net(FlowEvent),
    }

    fn fold_fingerprint(acc: u64, tag: u64, bits: u64) -> u64 {
        acc.wrapping_mul(0x100000001b3)
            .wrapping_add(tag)
            .wrapping_mul(0x100000001b3)
            .wrapping_add(bits)
    }

    impl ScaleModel {
        fn kick(&mut self, p: u32, ctx: &mut Ctx<'_, ScaleEv>) {
            let (a, b) = self.endpoints[p as usize];
            let bytes = self.rng.range_f64(5.0e5, 2.0e6);
            // disjoint pairs: the only way to lose the route is a fault, and
            // this workload injects none, so the start must succeed
            let started = self
                .net
                .try_start(a, b, bytes, p as u64, &mut ctx.map(ScaleEv::Net));
            assert!(started.is_ok(), "scale workload transfer failed to route");
        }
    }

    impl Model for ScaleModel {
        type Event = ScaleEv;

        fn trace_kind(&self, ev: &ScaleEv) -> SpanKind {
            match ev {
                ScaleEv::Kick(p) => SpanKind::tagged("scale.kick", *p as u64),
                ScaleEv::Net(fe) => fe.span_kind(),
            }
        }

        fn handle(&mut self, ev: ScaleEv, ctx: &mut Ctx<'_, ScaleEv>) {
            match ev {
                ScaleEv::Kick(p) => self.kick(p, ctx),
                ScaleEv::Net(fe) => {
                    let mut done_buf = std::mem::take(&mut self.done);
                    self.net
                        .handle_into(fe, &mut ctx.map(ScaleEv::Net), &mut done_buf);
                    for done in done_buf.drain(..) {
                        self.completions += 1;
                        self.fingerprint = fold_fingerprint(
                            self.fingerprint,
                            done.tag,
                            done.finished.seconds().to_bits(),
                        );
                        let p = done.tag as u32;
                        self.remaining[p as usize] -= 1;
                        if self.remaining[p as usize] > 0 {
                            let gap = self.rng.range_f64(0.01, 0.5);
                            ctx.schedule_in(gap, ScaleEv::Kick(p));
                        } else if self.next_pair < self.endpoints.len() {
                            let np = self.next_pair as u32;
                            self.next_pair += 1;
                            let gap = self.rng.range_f64(0.01, 0.5);
                            ctx.schedule_in(gap, ScaleEv::Kick(np));
                        }
                    }
                    self.done = done_buf;
                }
            }
        }
    }

    fn scale_model(pairs: usize, per_pair: u32, window: usize, seed: u64) -> ScaleModel {
        let mut topo = Topology::new();
        let mut endpoints = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let a = topo.add_node(NodeKind::Host, format!("a{p}"));
            let b = topo.add_node(NodeKind::Host, format!("b{p}"));
            topo.add_duplex(a, b, mbps(100.0), 0.001);
            endpoints.push((a, b));
        }
        let mut net = FlowNet::new(topo);
        net.set_share_mode(ShareMode::Incremental);
        let window = window.min(pairs);
        ScaleModel {
            net,
            endpoints,
            remaining: vec![per_pair; pairs],
            next_pair: window,
            rng: SimRng::new(seed),
            completions: 0,
            fingerprint: 0,
            done: Vec::new(),
        }
    }

    fn scale_result(m: &ScaleModel) -> ScaleResult {
        assert_eq!(m.net.in_flight(), 0, "scale workload must drain");
        ScaleResult {
            completions: m.completions,
            fingerprint: m.fingerprint,
        }
    }

    /// Runs the sliding-window transfer scenario (`pairs * per_pair` jobs over
    /// `2*pairs` hosts and `2*pairs` links) on the event-driven engine with
    /// the given event-list structure. See [`ScaleResult`].
    fn run_net_scale(
        pairs: usize,
        per_pair: u32,
        window: usize,
        queue: impl EventQueue<ScaleEv>,
        seed: u64,
    ) -> ScaleResult {
        let model = scale_model(pairs, per_pair, window, seed);
        let n_endpoints = model.endpoints.len().min(window.max(1));
        let mut sim = EventDriven::with_queue(model, queue);
        for p in 0..n_endpoints {
            sim.schedule(SimTime::new(p as f64 * 1.0e-3), ScaleEv::Kick(p as u32));
        }
        sim.run();
        scale_result(sim.model())
    }

    /// [`run_net_scale`] on the time-driven engine with step `dt` (event
    /// delivery quantized to tick boundaries, so the trajectory legitimately
    /// differs from the event-driven one).
    fn run_net_scale_time_driven(
        pairs: usize,
        per_pair: u32,
        window: usize,
        dt: f64,
        seed: u64,
    ) -> ScaleResult {
        let model = scale_model(pairs, per_pair, window, seed);
        let n_endpoints = model.endpoints.len().min(window.max(1));
        let total = pairs as u64 * per_pair as u64;
        let mut sim = TimeDriven::new(model, dt);
        for p in 0..n_endpoints {
            sim.schedule(SimTime::new(p as f64 * 1.0e-3), ScaleEv::Kick(p as u32));
        }
        while sim.model().completions < total && sim.tick() {
            assert!(
                sim.pending() > 0 || sim.model().completions >= total,
                "time-driven scale run wedged with no pending events"
            );
        }
        scale_result(sim.model())
    }

    /// [`run_net_scale`] with the metrics recorder attached: exercises the
    /// monitored engine path (handler output staged in a side buffer, then
    /// drained with a queue-op hook per insert) rather than the unmonitored
    /// direct-insert path. The trajectory must match the unmonitored run
    /// bit-for-bit — asserted by the bit-identity tests below.
    fn run_net_scale_monitored(
        pairs: usize,
        per_pair: u32,
        window: usize,
        queue: impl EventQueue<ScaleEv>,
        seed: u64,
    ) -> ScaleResult {
        let model = scale_model(pairs, per_pair, window, seed);
        let n_endpoints = model.endpoints.len().min(window.max(1));
        let mut sim = EventDriven::with_parts(model, queue, lsds_obs::MetricsRecorder::new());
        for p in 0..n_endpoints {
            sim.schedule(SimTime::new(p as f64 * 1.0e-3), ScaleEv::Kick(p as u32));
        }
        sim.run();
        scale_result(sim.model())
    }

    /// [`run_net_scale`] with causal tracing; the trajectory must match the
    /// untraced run.
    fn run_net_scale_traced(
        pairs: usize,
        per_pair: u32,
        window: usize,
        queue: impl EventQueue<ScaleEv>,
        seed: u64,
        cfg: TraceConfig,
    ) -> (ScaleResult, SpanTrace) {
        let model = scale_model(pairs, per_pair, window, seed);
        let n_endpoints = model.endpoints.len().min(window.max(1));
        let mut sim = EventDriven::with_queue(model, queue).with_tracer(RingTracer::new(cfg));
        for p in 0..n_endpoints {
            sim.schedule(SimTime::new(p as f64 * 1.0e-3), ScaleEv::Kick(p as u32));
        }
        sim.run();
        let result = scale_result(sim.model());
        let (_, tracer) = sim.into_model_and_tracer();
        (result, tracer.finish())
    }

    #[test]
    fn hold_model_runs_all_kinds() {
        for kind in QueueKind::ALL {
            let wall = hold_model(kind, 100, 1000, &Dist::Exponential { rate: 1.0 }, 1);
            assert!(wall >= 0.0);
        }
    }

    #[test]
    fn advance_mechanisms_agree_on_event_count() {
        let (ev_e, ticks_e, _) = run_event_driven(4, 10.0, 1000.0);
        let (ev_t, ticks_t, _) = run_time_driven(4, 10.0, 1000.0, 0.1);
        // quantization shifts each source's phase by up to one step, so
        // the horizon may cut one event per source
        assert!(
            ev_e.abs_diff(ev_t) <= 4,
            "event-driven {ev_e} vs time-driven {ev_t}"
        );
        assert_eq!(ticks_e, 0);
        assert!(ticks_t >= 10_000, "time-driven pays per tick: {ticks_t}");
    }

    #[test]
    fn mapping_workload_counts() {
        let (alloc_per_job, ..) = mapping_workload(MappingScheme::PerJob, 50, 3, 100.0, 2);
        let (alloc_pooled, reuses, ..) = mapping_workload(MappingScheme::Pooled, 50, 3, 100.0, 2);
        assert_eq!(alloc_per_job, 50);
        assert!(alloc_pooled < 50);
        assert!(reuses > 0);
    }

    #[test]
    fn scale_trajectory_identity_across_storage_and_instrumentation() {
        // one scenario, every storage/instrumentation combination: the
        // trajectory fingerprint must be identical for plain vs pooled
        // event storage (all four structures), traced vs untraced, and
        // monitored vs unmonitored delivery; the time-driven engine
        // quantizes delivery to tick boundaries, so its timestamps differ
        // but every transfer must still complete
        let (pairs, per_pair, window, seed) = (48, 6, 16, 9);
        let base = run_net_scale(pairs, per_pair, window, QueueKind::BinaryHeap.build(), seed);
        assert_eq!(base.completions, pairs as u64 * per_pair as u64);
        for kind in QueueKind::ALL {
            let plain = run_net_scale(pairs, per_pair, window, kind.build(), seed);
            let pooled = run_net_scale(pairs, per_pair, window, kind.build_pooled(), seed);
            assert_eq!(
                plain.fingerprint, base.fingerprint,
                "{kind:?} plain diverged"
            );
            assert_eq!(
                pooled.fingerprint, base.fingerprint,
                "{kind:?} pooled storage diverged"
            );
        }
        let (traced, spans) = run_net_scale_traced(
            pairs,
            per_pair,
            window,
            QueueKind::BinaryHeap.build_pooled(),
            seed,
            TraceConfig::default(),
        );
        assert_eq!(
            traced.fingerprint, base.fingerprint,
            "tracing changed the trajectory"
        );
        assert!(!spans.spans.is_empty(), "traced run must capture spans");
        let mon = run_net_scale_monitored(
            pairs,
            per_pair,
            window,
            QueueKind::BinaryHeap.build_pooled(),
            seed,
        );
        assert_eq!(
            mon.fingerprint, base.fingerprint,
            "monitoring changed the trajectory"
        );
        let td = run_net_scale_time_driven(pairs, per_pair, window, 0.25, seed);
        assert_eq!(
            td.completions, base.completions,
            "time-driven advance lost transfers"
        );
    }

    #[test]
    fn flow_sharing_modes_agree_and_incremental_shrinks_scope() {
        let full = run_flow_sharing(8, 64, ShareMode::Full, false, 42);
        let inc = run_flow_sharing(8, 64, ShareMode::Incremental, false, 42);
        assert_eq!(full.completions, inc.completions, "trajectory diverged");
        assert_eq!(full.reshare_count, inc.reshare_count);
        assert!(inc.flows_touched < full.flows_touched);
        assert!(inc.route_cache_hits > 0);
    }

    #[test]
    fn flow_sharing_faulty_modes_agree() {
        let full = run_flow_sharing(8, 64, ShareMode::Full, true, 7);
        let inc = run_flow_sharing(8, 64, ShareMode::Incremental, true, 7);
        assert_eq!(full.completions, inc.completions);
        assert_eq!(full.aborted, inc.aborted);
    }

    #[test]
    fn flow_sharing_tracing_is_invisible() {
        let (pairs, n, seed) = (6, 100, 0x7ACE);
        let mode = ShareMode::Incremental;
        let plain = run_flow_sharing(pairs, n, mode, false, seed);
        let (full, trace) =
            run_flow_sharing_traced(pairs, n, mode, false, seed, TraceConfig::default());
        let sampling = TraceConfig::default().sampled(16);
        let (sampled, thinned) = run_flow_sharing_traced(pairs, n, mode, false, seed, sampling);
        for (variant, traced) in [("full", &full), ("1-in-16", &sampled)] {
            assert_eq!(
                plain.completions, traced.completions,
                "{variant} tracing changed the trajectory"
            );
            assert_eq!(plain.reshare_count, traced.reshare_count, "{variant}");
        }
        assert!(
            thinned.len() < trace.len(),
            "sampling must record fewer spans"
        );
    }

    /// Export → re-parse: every recorded span becomes one viewer slice.
    #[test]
    fn flow_sharing_trace_exports_one_slice_per_span() {
        let cfg = TraceConfig::default();
        let (_, trace) = run_flow_sharing_traced(6, 100, ShareMode::Incremental, false, 9, cfg);
        let mut doc = Vec::new();
        lsds_trace::write_chrome_trace(&trace, &[], &mut doc).expect("render chrome trace");
        let text = String::from_utf8(doc).expect("chrome trace is UTF-8");
        let (slices, _) =
            lsds_trace::validate_chrome_trace(&text).expect("chrome trace must validate");
        assert!(slices > 0, "full trace recorded no spans");
        assert_eq!(slices, trace.len(), "exported slice count");
    }

    #[test]
    fn flow_sharing_dumbbell_is_one_component() {
        let r = run_flow_sharing_dumbbell(6, 48, ShareMode::Incremental, 5);
        let f = run_flow_sharing_dumbbell(6, 48, ShareMode::Full, 5);
        assert_eq!(r.completions, f.completions);
        // single shared component: the incremental engine touches just as
        // many flows as the full recompute
        assert_eq!(r.flows_touched, f.flows_touched);
    }
}
