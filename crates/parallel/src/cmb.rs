//! Chandy–Misra–Bryant conservative parallel execution with null messages.
//!
//! Each [`LogicalProcess`] runs on its own OS thread with a private event
//! list and clock. An LP may only process an event at time `t` once every
//! input channel guarantees no earlier message can arrive; the guarantee is
//! propagated with **null messages** carrying lower bounds equal to the
//! sender's earliest possible future send time (its next event or safe
//! time, plus its lookahead). Positive lookahead makes the lower bounds
//! strictly increase around any channel cycle, which is the classical
//! deadlock-avoidance argument of Misra (1986) — reference \[5\] of the
//! paper.
//!
//! The cost of conservatism is null-message traffic inversely proportional
//! to lookahead; [`CmbStats::nulls_sent`] exposes it and experiment E4
//! sweeps it.

pub use lsds_core::InitialEvents;

use crate::lp::{out_neighbors, run_lp_threads, validate_run, LogicalProcess, LpId};
use lsds_core::{LpCore, ScheduledEvent, SimTime};
use lsds_obs::{
    EngineTelemetry, NoopTelemetry, NoopTracer, Registry, RingTracer, SpanTrace, Telemetry,
    TelemetryConfig, TelemetryReport, TraceConfig, Tracer,
};
use std::sync::mpsc::Sender;

/// Per-LP execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmbStats {
    /// Events (local + remote) processed by this LP.
    pub events: u64,
    /// Null messages sent by this LP.
    pub nulls_sent: u64,
    /// Real messages sent to other LPs.
    pub remote_sent: u64,
    /// Blocking waits for input.
    pub blocks: u64,
}

/// Result of a conservative parallel run.
#[derive(Debug)]
pub struct CmbReport<L> {
    /// The logical processes, in id order, with their final state.
    pub lps: Vec<L>,
    /// Per-LP counters, in id order.
    pub stats: Vec<CmbStats>,
}

impl<L> CmbReport<L> {
    /// Total events processed across all LPs.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }

    /// Total null messages — the conservative-synchronization overhead.
    pub fn total_nulls(&self) -> u64 {
        self.stats.iter().map(|s| s.nulls_sent).sum()
    }

    /// Total real inter-LP messages.
    pub fn total_remote(&self) -> u64 {
        self.stats.iter().map(|s| s.remote_sent).sum()
    }

    /// Exports the run's synchronization counters into a metrics registry:
    /// aggregate `cmb.*` counters plus per-LP event counts.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("cmb.events", self.total_events());
        reg.inc("cmb.nulls_sent", self.total_nulls());
        reg.inc("cmb.remote_sent", self.total_remote());
        reg.inc("cmb.blocks", self.stats.iter().map(|s| s.blocks).sum());
        reg.set_gauge("cmb.lps", self.lps.len() as f64);
        for (i, st) in self.stats.iter().enumerate() {
            reg.inc(&format!("cmb.lp.{i}.events"), st.events);
        }
    }
}

/// What travels along an edge under conservative synchronisation.
enum Packet<M> {
    /// Promise: no message with timestamp `< ts` will follow on this edge
    /// (`+∞`: the sender has finished the run).
    Null { ts: f64 },
    /// A real message, carrying its deterministic tie-break key and the
    /// tie key of the event that caused it (for the trace DAG), and the
    /// sender's bound when it left: its handler time plus its lookahead.
    /// The message's own timestamp may lie above the bound, and a later
    /// message on the edge may lie below this one's.
    Event { bound: f64, ev: ScheduledEvent<M> },
}

/// A packet and the receiver's in-edge it travels on.
pub(crate) struct Tagged<M> {
    edge: usize,
    packet: Packet<M>,
}

impl<M> Tagged<M> {
    /// Whether this carries a bound rather than an event.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self.packet, Packet::Null { .. })
    }
}

/// The conservative safety rule, shared by this engine and
/// [`crate::worksteal`]: per in-edge a **channel clock** (a lower bound on
/// anything still to arrive on that edge), per out-edge the bound already
/// promised to the receiver. An LP may run an event strictly below the
/// minimum of its channel clocks, and may promise its earliest possible
/// next handler time plus its lookahead. A real message raises both ends
/// to its sender's handler time plus lookahead, never to its own
/// timestamp: a later send may land earlier. The transports differ — packets
/// are mailed here, applied under the receiver's lock there — the rule and
/// its causality checks do not.
pub(crate) struct ChannelClocks {
    me: LpId,
    /// The LP's declared lookahead.
    la: f64,
    /// `(in-neighbor, channel clock)`, in edge-declaration order.
    ins: Vec<(LpId, f64)>,
    /// Per out-edge, in edge-declaration order (index `k` of the LP's
    /// out-neighbor list): the receiver, the index of this edge among the
    /// receiver's in-edges, and the last bound promised on it.
    outs: Vec<(LpId, usize, f64)>,
}

impl ChannelClocks {
    /// The clocks of every LP of `lps`, all bounds at zero.
    pub(crate) fn for_topology<L: LogicalProcess>(
        lps: &[L],
        edges: &[(LpId, LpId)],
    ) -> Vec<ChannelClocks> {
        let mut all: Vec<ChannelClocks> = lps
            .iter()
            .enumerate()
            .map(|(me, lp)| ChannelClocks {
                me,
                la: lp.lookahead(),
                ins: Vec::new(),
                outs: Vec::new(),
            })
            .collect();
        for &(src, dst) in edges {
            let edge = all[dst].ins.len();
            all[dst].ins.push((src, 0.0));
            all[src].outs.push((dst, edge, 0.0));
        }
        all
    }

    /// Lower bound on every future arrival: the minimum channel clock
    /// (`+∞` for a pure source, which is always safe).
    pub(crate) fn safe_time(&self) -> f64 {
        self.ins
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min)
    }

    /// The safe-event rule: the LP's `next` event runs only strictly below
    /// the safe time (a message may still arrive exactly at it), and never
    /// beyond the horizon. Returns its time if it may run.
    pub(crate) fn next_safe(&self, next: Option<SimTime>, t_end: SimTime) -> Option<SimTime> {
        let safe = self.safe_time();
        next.filter(|&t| t.seconds() < safe && t <= t_end)
    }

    /// Nothing is left within the horizon, locally or on any in-edge.
    pub(crate) fn finished(&self, next: Option<SimTime>, t_end: SimTime) -> bool {
        next.is_none_or(|t| t > t_end) && self.safe_time() > t_end.seconds()
    }

    /// Takes a packet off its in-edge: a null raises the channel clock to
    /// its bound, an event goes to `accept` and raises the clock to the
    /// bound it carries. Returns whether the LP may have new work: always
    /// for an event, for a null only if the clock rose.
    pub(crate) fn apply<M>(
        &mut self,
        Tagged { edge, packet }: Tagged<M>,
        accept: impl FnOnce(ScheduledEvent<M>),
    ) -> bool {
        let (src, clock) = &mut self.ins[edge];
        match packet {
            Packet::Null { ts } => {
                let rose = ts > *clock;
                *clock = clock.max(ts);
                rose
            }
            Packet::Event { bound, ev } => {
                // the sender promised (via nulls or earlier events) that
                // nothing below the channel clock would follow
                debug_assert!(
                    bound >= *clock && ev.time.seconds() >= bound,
                    "causality: LP {src} sent t={} at bound {bound} below its promised bound {clock}",
                    ev.time
                );
                *clock = clock.max(bound);
                accept(ev);
                true
            }
        }
    }

    /// Puts an event sent by the handler running at `at` on out-edge `k`;
    /// the edge's promise rises to `at` plus lookahead.
    pub(crate) fn depart<M>(&mut self, k: usize, at: SimTime, ev: ScheduledEvent<M>) -> Tagged<M> {
        let bound = at.seconds() + self.la;
        let (_, edge, promised) = &mut self.outs[k];
        // the bounds already published on this edge promised `promised`;
        // a handler below it would mean our declared lookahead lied
        debug_assert!(
            bound >= *promised,
            "causality: LP {} sending at bound {bound} below its promised bound {promised} (lookahead violated)",
            self.me,
        );
        *promised = promised.max(bound);
        let (edge, packet) = (*edge, Packet::Event { bound, ev });
        Tagged { edge, packet }
    }

    /// Lower bound on this LP's future sends: its earliest possible next
    /// handler time — `next` local event, safe time or horizon — plus its
    /// lookahead. This is the null-message payload.
    fn lower_bound(&self, next: Option<SimTime>, t_end: SimTime) -> f64 {
        let next = next.map_or(f64::INFINITY, SimTime::seconds);
        next.min(self.safe_time()).min(t_end.seconds()) + self.la
    }

    /// Whether [`ChannelClocks::promise`] would publish anything.
    pub(crate) fn can_promise(&self, next: Option<SimTime>, t_end: SimTime) -> bool {
        let ts = self.lower_bound(next, t_end);
        self.outs.iter().any(|&(_, _, promised)| ts > promised)
    }

    /// Raises the promise to the current [lower bound](Self::lower_bound)
    /// on every out-edge still below it, handing `publish` the receiver
    /// and the null packet for each.
    pub(crate) fn promise<M>(
        &mut self,
        next: Option<SimTime>,
        t_end: SimTime,
        publish: impl FnMut(LpId, Tagged<M>),
    ) {
        self.raise(self.lower_bound(next, t_end), publish);
    }

    /// The LP has finished: promises `+∞` on every out-edge.
    pub(crate) fn close<M>(&mut self, publish: impl FnMut(LpId, Tagged<M>)) {
        self.raise(f64::INFINITY, publish);
    }

    fn raise<M>(&mut self, ts: f64, mut publish: impl FnMut(LpId, Tagged<M>)) {
        for (dst, edge, promised) in &mut self.outs {
            if ts > *promised {
                *promised = ts;
                let (edge, packet) = (*edge, Packet::Null { ts });
                publish(*dst, Tagged { edge, packet });
            }
        }
    }
}

/// Mails a packet. A disconnected receiver has already terminated (its
/// safe time passed `t_end`), so anything we would send it now is beyond
/// the horizon or no longer needed — drop, don't panic.
fn post<M>(txs: &[Sender<Tagged<M>>], dst: LpId, tagged: Tagged<M>) {
    txs[dst].send(tagged).ok();
}

/// The kernel's `remote` sink under this engine for the handler running
/// at `at`: mails a real message along out-edge `k`, counting it.
fn mailer<'a, M>(
    txs: &'a [Sender<Tagged<M>>],
    clocks: &'a mut ChannelClocks,
    stats: &'a mut CmbStats,
    at: SimTime,
) -> impl FnMut(usize, LpId, ScheduledEvent<M>) + 'a {
    move |k, dst, ev| {
        post(txs, dst, clocks.depart(k, at, ev));
        stats.remote_sent += 1;
    }
}

/// Runs logical processes to `t_end` under conservative CMB synchronization.
///
/// `edges` lists the directed communication channels `(src, dst)`; an LP
/// may only `send` along a declared edge. Null messages flow on the same
/// edges. Every LP must declare strictly positive [lookahead].
///
/// [lookahead]: LogicalProcess::lookahead
pub fn run_cmb<L>(lps: Vec<L>, edges: &[(LpId, LpId)], t_end: SimTime) -> CmbReport<L>
where
    L: InitialEvents,
{
    let (report, _tracers, _tels) =
        run_cmb_with(lps, edges, t_end, |_| NoopTracer, |_| NoopTelemetry);
    report
}

/// Like [`run_cmb`], but records scheduler telemetry — per-LP null
/// messages, blocked wall time, and sampled queue lengths — into one
/// [`EngineTelemetry`] sink per LP, merged after the run.
///
/// Telemetry only observes: the returned [`CmbReport`] is bit-identical
/// to a plain [`run_cmb`] run's.
pub fn run_cmb_telemetry<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    tcfg: TelemetryConfig,
) -> (CmbReport<L>, TelemetryReport)
where
    L: InitialEvents,
{
    let (report, _tracers, tels) = run_cmb_with(
        lps,
        edges,
        t_end,
        |_| NoopTracer,
        |lp| EngineTelemetry::for_track(tcfg.clone(), lp as u32),
    );
    (report, TelemetryReport::merge(tels))
}

/// Like [`run_cmb`], but records a causal span per handled event into a
/// per-LP [`RingTracer`] (each with its own `cfg`-sized ring), then merges
/// the per-LP traces deterministically by `(virtual time, event id)`.
///
/// The tracer only observes — event ids, tie-breaks, and delivery order
/// are computed identically with tracing on or off, so the returned
/// [`CmbReport`] is bit-identical to an untraced run's.
pub fn run_cmb_traced<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: TraceConfig,
) -> (CmbReport<L>, SpanTrace)
where
    L: InitialEvents,
{
    let (report, tracers, _tels) = run_cmb_with(
        lps,
        edges,
        t_end,
        |_| RingTracer::new(cfg),
        |_| NoopTelemetry,
    );
    let trace = SpanTrace::merge(tracers.into_iter().map(RingTracer::finish).collect());
    (report, trace)
}

fn run_cmb_with<L, T, Y>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
) -> (CmbReport<L>, Vec<T>, Vec<Y>)
where
    L: InitialEvents,
    T: Tracer + Send,
    Y: Telemetry + Send,
{
    validate_run(&lps, edges, Some(0.0));
    let clocks = ChannelClocks::for_topology(&lps, edges);
    let (lps, stats, tracers, tels) = run_lp_threads(
        lps.into_iter().zip(clocks).collect(),
        mk_tracer,
        mk_tel,
        |me, (lp, mut clocks), tracer, mut tel, rx, txs| {
            let mut core = LpCore::new(me, lp, out_neighbors(edges, me), tracer);
            let mut stats = CmbStats::default();
            core.init(mailer(txs, &mut clocks, &mut stats, SimTime::ZERO));
            loop {
                while let Ok(tagged) = rx.try_recv() {
                    clocks.apply(tagged, |ev| core.accept(ev));
                }
                while let Some(at) = clocks.next_safe(core.next_time(), t_end) {
                    core.step(mailer(txs, &mut clocks, &mut stats, at));
                    if Y::ENABLED && tel.tick(at.seconds()) {
                        let len = core.queue_len() as f64;
                        tel.sample("cmb.queue_len", me as u32, at.seconds(), len);
                    }
                }
                if clocks.finished(core.next_time(), t_end) {
                    clocks.close(|dst, done| post(txs, dst, done));
                    break;
                }
                // Blocked: publish our lower bound, then wait for progress.
                clocks.promise(core.next_time(), t_end, |dst, null| {
                    post(txs, dst, null);
                    stats.nulls_sent += 1;
                    if Y::ENABLED {
                        tel.inc("cmb.nulls", me as u32, 1);
                    }
                });
                // With safe = +inf (a pure source, or every in-neighbor
                // done) the LP always drains its queue and finishes above;
                // blocking on input it can never get would hang the run.
                assert!(
                    clocks.safe_time().is_finite(),
                    "LP {me} blocked with no live in-edges"
                );
                stats.blocks += 1;
                if Y::ENABLED {
                    tel.inc("cmb.blocks", me as u32, 1);
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "telemetry measures host time blocked on input; never feeds back into simulated time or delivery order"
                )]
                let blocked_from = Y::ENABLED.then(std::time::Instant::now);
                let received = rx.recv();
                if let Some(from) = blocked_from {
                    tel.inc(
                        "cmb.blocked_ns",
                        me as u32,
                        from.elapsed().as_nanos() as u64,
                    );
                }
                // an error means all senders are done and the inbox drained
                let Ok(tagged) = received else {
                    break;
                };
                clocks.apply(tagged, |ev| core.accept(ev));
            }
            let (lp, events, tracer) = core.finish();
            (lp, CmbStats { events, ..stats }, tracer, tel)
        },
    );
    (CmbReport { lps, stats }, tracers, tels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpCtx;

    /// Ring of LPs passing a token; each hop takes `delay`, while the
    /// declared lookahead `la ≤ delay` can be tightened independently to
    /// study null-message overhead.
    struct RingNode {
        n: usize,
        hops_seen: u64,
        last_time: f64,
        delay: f64,
        la: f64,
    }

    impl LogicalProcess for RingNode {
        type Msg = u64;
        fn handle(&mut self, now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
            self.hops_seen += 1;
            self.last_time = now.seconds();
            let next = (ctx.me() + 1) % self.n;
            ctx.send(next, self.delay, hop + 1);
        }
        fn lookahead(&self) -> f64 {
            self.la
        }
    }

    impl InitialEvents for RingNode {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.schedule_in(0.0, 0);
            }
        }
    }

    fn ring_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    fn ring_nodes(n: usize, delay: f64, la: f64) -> Vec<RingNode> {
        (0..n)
            .map(|_| RingNode {
                n,
                hops_seen: 0,
                last_time: 0.0,
                delay,
                la,
            })
            .collect()
    }

    fn run_ring(n: usize, delay: f64, la: f64, t_end: f64) -> CmbReport<RingNode> {
        run_cmb(
            ring_nodes(n, delay, la),
            &ring_edges(n),
            SimTime::new(t_end),
        )
    }

    /// In- and out-edges are numbered in declaration order, and every
    /// out-edge knows its index among its receiver's in-edges.
    #[test]
    fn channel_clocks_follow_declaration_order() {
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 1)];
        let clocks = ChannelClocks::for_topology(&ring_nodes(3, 1.0, 1.0), &edges);
        let ins = |lp: usize| -> Vec<LpId> { clocks[lp].ins.iter().map(|e| e.0).collect() };
        assert_eq!(ins(2), vec![0, 1]);
        assert_eq!(ins(0), vec![2]);
        assert_eq!(clocks[0].outs, vec![(2, 0, 0.0), (1, 0, 0.0)]);
        assert_eq!(clocks[1].outs, vec![(2, 1, 0.0)]);
    }

    #[test]
    fn ring_token_count_matches_analytic() {
        // token starts at LP0 t=0, hops every 1.0s; by t=100 inclusive the
        // ring processes events at t=0,1,...,100 → 101 events total
        let report = run_ring(4, 1.0, 1.0, 100.0);
        assert_eq!(report.total_events(), 101);
        // LP0 sees t=0,4,8,...,100 → 26 events
        assert_eq!(report.lps[0].hops_seen, 26);
        assert_eq!(report.lps[1].hops_seen, 25);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_ring(5, 0.7, 0.7, 50.0);
        let b = run_ring(5, 0.7, 0.7, 50.0);
        for i in 0..5 {
            assert_eq!(a.lps[i].hops_seen, b.lps[i].hops_seen);
            assert_eq!(a.lps[i].last_time, b.lps[i].last_time);
        }
        assert_eq!(a.total_events(), b.total_events());
    }

    #[test]
    fn smaller_lookahead_more_nulls() {
        // identical workload (hop delay 2.0), only the promise horizon
        // differs — the fine lookahead must generate more null traffic
        let coarse = run_ring(4, 2.0, 2.0, 200.0);
        let fine = run_ring(4, 2.0, 0.25, 200.0);
        assert_eq!(coarse.total_events(), fine.total_events());
        assert!(
            fine.total_nulls() > coarse.total_nulls(),
            "fine {} vs coarse {}",
            fine.total_nulls(),
            coarse.total_nulls()
        );
    }

    /// Source LP streams to a sink LP; no cycles.
    struct Source {
        sent: u64,
        rate_dt: f64,
        limit: u64,
    }
    impl LogicalProcess for Source {
        type Msg = u64;
        fn handle(&mut self, _now: SimTime, k: u64, ctx: &mut LpCtx<'_, u64>) {
            if k < self.limit {
                self.sent += 1;
                ctx.send(1, self.rate_dt, k);
                ctx.schedule_in(self.rate_dt, k + 1);
            }
        }
        fn lookahead(&self) -> f64 {
            self.rate_dt
        }
    }
    impl InitialEvents for Source {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            ctx.schedule_in(0.0, 0);
        }
    }

    struct Sink {
        received: Vec<u64>,
    }
    impl LogicalProcess for Sink {
        type Msg = u64;
        fn handle(&mut self, _now: SimTime, k: u64, _ctx: &mut LpCtx<'_, u64>) {
            self.received.push(k);
        }
        fn lookahead(&self) -> f64 {
            1.0
        }
    }
    impl InitialEvents for Sink {
        fn initial_events(&mut self, _ctx: &mut LpCtx<'_, u64>) {}
    }

    /// Heterogeneous LPs need a common type; wrap in an enum.
    enum Node {
        Source(Source),
        Sink(Sink),
    }
    impl LogicalProcess for Node {
        type Msg = u64;
        fn handle(&mut self, now: SimTime, msg: u64, ctx: &mut LpCtx<'_, u64>) {
            match self {
                Node::Source(s) => s.handle(now, msg, ctx),
                Node::Sink(s) => s.handle(now, msg, ctx),
            }
        }
        fn lookahead(&self) -> f64 {
            match self {
                Node::Source(s) => s.lookahead(),
                Node::Sink(s) => s.lookahead(),
            }
        }
    }
    impl InitialEvents for Node {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            match self {
                Node::Source(s) => s.initial_events(ctx),
                Node::Sink(s) => s.initial_events(ctx),
            }
        }
    }

    #[test]
    fn source_sink_pipeline_delivers_in_order() {
        let lps = vec![
            Node::Source(Source {
                sent: 0,
                rate_dt: 0.5,
                limit: 40,
            }),
            Node::Sink(Sink { received: vec![] }),
        ];
        let report = run_cmb(lps, &[(0, 1)], SimTime::new(1000.0));
        match &report.lps[1] {
            Node::Sink(s) => {
                assert_eq!(s.received.len(), 40);
                assert!(s.received.windows(2).all(|w| w[0] < w[1]), "in order");
            }
            _ => panic!(),
        }
    }

    /// Sends along one edge need not be in timestamp order: every send
    /// here is at least the lookahead, but each handler's second send lands
    /// before its first. The channel clock may rise only to the sender's
    /// bound (handler time plus lookahead), not to the first send's
    /// timestamp, or the receiver runs past the second send before it
    /// arrives — which once tripped a debug assertion and, in release
    /// builds, gave other final states than the sequential oracle.
    #[test]
    fn out_of_order_sends_match_sequential() {
        struct Liar {
            log: Vec<(u64, u64)>,
        }
        impl LogicalProcess for Liar {
            type Msg = u64;
            fn handle(&mut self, now: SimTime, m: u64, ctx: &mut LpCtx<'_, u64>) {
                self.log.push((now.seconds().to_bits(), m));
                // the first send lands at t + 5.0, the second at t + 0.2
                let peer = (ctx.me() + 1) % 2;
                ctx.send(peer, 5.0, 2 * m + 1);
                ctx.send(peer, 0.2, 2 * m + 2);
            }
            fn lookahead(&self) -> f64 {
                0.1
            }
        }
        impl InitialEvents for Liar {
            fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
                ctx.schedule_in(0.0, 0);
            }
        }
        let mk = || (0..2).map(|_| Liar { log: Vec::new() }).collect::<Vec<_>>();
        let (edges, t_end) = ([(0, 1), (1, 0)], SimTime::new(10.0));
        let seq = crate::sequential::run_sequential(mk(), &edges, t_end);
        let par = run_cmb(mk(), &edges, t_end);
        assert_eq!(par.total_events(), seq.total_events());
        for i in 0..2 {
            assert_eq!(par.lps[i].log, seq.lps[i].log, "LP {i} log diverged");
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_links_parents() {
        let plain = run_ring(4, 1.0, 1.0, 100.0);
        let lps: Vec<RingNode> = (0..4)
            .map(|_| RingNode {
                n: 4,
                hops_seen: 0,
                last_time: 0.0,
                delay: 1.0,
                la: 1.0,
            })
            .collect();
        let (traced, trace) = run_cmb_traced(
            lps,
            &ring_edges(4),
            SimTime::new(100.0),
            TraceConfig::default(),
        );
        assert_eq!(plain.total_events(), traced.total_events());
        for i in 0..4 {
            assert_eq!(plain.lps[i].hops_seen, traced.lps[i].hops_seen);
            assert_eq!(plain.lps[i].last_time, traced.lps[i].last_time);
        }
        // one span per event, merged in (vt, id) order, on per-LP tracks
        assert_eq!(trace.len() as u64, traced.total_events());
        assert!(trace.spans.windows(2).all(|w| w[0].vt <= w[1].vt));
        assert!(trace.spans.iter().any(|s| s.track == 3));
        // the token chain: every span but the initial one has its parent
        // in the trace, and the critical path covers the whole run
        let path = trace.critical_path();
        assert!(path.complete);
        assert_eq!(path.steps.len() as u64, traced.total_events());
        assert!((path.makespan - 100.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_run_matches_plain_and_counts_sync() {
        let plain = run_ring(4, 1.0, 1.0, 100.0);
        let lps: Vec<RingNode> = (0..4)
            .map(|_| RingNode {
                n: 4,
                hops_seen: 0,
                last_time: 0.0,
                delay: 1.0,
                la: 1.0,
            })
            .collect();
        let (telr, tel) = run_cmb_telemetry(
            lps,
            &ring_edges(4),
            SimTime::new(100.0),
            TelemetryConfig::new().every_events(8),
        );
        assert_eq!(plain.total_events(), telr.total_events());
        for i in 0..4 {
            assert_eq!(plain.lps[i].hops_seen, telr.lps[i].hops_seen);
            assert_eq!(plain.lps[i].last_time, telr.lps[i].last_time);
        }
        // telemetry counters agree with the engine's own stats
        assert_eq!(tel.counter("cmb.nulls"), telr.total_nulls());
        assert_eq!(tel.events(), telr.total_events());
        assert_eq!(
            tel.counter("cmb.blocks"),
            telr.stats.iter().map(|s| s.blocks).sum::<u64>()
        );
        // queue-length samples landed on per-LP lanes
        assert!(tel.series_on("cmb.queue_len", 0).is_some());
    }

    // ---- S1 bug sweep: the t_end fold in the null-message bound ----
    //
    // `send_nulls` computes `lb = min(next_local, safe, t_end) + la`. The
    // t_end fold caps promises near the horizon, so these tests pin the
    // boundary behavior: the bound must still exceed t_end (else peers
    // with events exactly AT t_end would never clear `safe > t` and the
    // run would deadlock or drop the final events).

    /// Logs every delivery as `(time bits, payload)` so runs can be
    /// compared bit-exactly across engines.
    struct Recorder {
        n: usize,
        log: Vec<(u64, u64)>,
        limit: f64,
    }
    impl LogicalProcess for Recorder {
        type Msg = u64;
        fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
            self.log.push((now.seconds().to_bits(), v));
            if now.seconds() + 1.0 <= self.limit {
                ctx.send((ctx.me() + 1) % self.n, 1.0, v + 1);
            }
        }
        fn lookahead(&self) -> f64 {
            1.0
        }
    }
    impl InitialEvents for Recorder {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.schedule_in(0.0, 0);
            }
        }
    }

    fn recorders(n: usize, limit: f64) -> Vec<Recorder> {
        (0..n)
            .map(|_| Recorder {
                n,
                log: Vec::new(),
                limit,
            })
            .collect()
    }

    /// The last hop of the chain lands exactly on t_end; it must be
    /// delivered (horizon is inclusive), once, and the run must terminate.
    #[test]
    fn event_exactly_at_t_end_is_delivered() {
        let t_end = SimTime::new(7.0);
        let seq = crate::sequential::run_sequential(recorders(3, 7.0), &ring_edges(3), t_end);
        let par = run_cmb(recorders(3, 7.0), &ring_edges(3), t_end);
        assert_eq!(par.total_events(), 8, "events at t=0..=7 inclusive");
        for i in 0..3 {
            assert_eq!(seq.lps[i].log, par.lps[i].log, "LP {i} log diverged");
        }
        // the t=7.0 delivery exists exactly once
        let at_end: usize = par
            .lps
            .iter()
            .flat_map(|l| &l.log)
            .filter(|(tb, _)| *tb == 7.0f64.to_bits())
            .count();
        assert_eq!(at_end, 1);
    }

    /// Two senders' messages arrive at a third LP at exactly t_end, at the
    /// same timestamp — the equal-time cross-LP tie must break by
    /// `(source LP, sequence)` and match the sequential reference.
    #[test]
    fn equal_time_cross_lp_ties_at_the_bound() {
        struct FanIn {
            log: Vec<(u64, u64)>,
            horizon: f64,
        }
        impl LogicalProcess for FanIn {
            type Msg = u64;
            fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
                self.log.push((now.seconds().to_bits(), v));
                if ctx.me() < 2 && now.seconds() == 0.0 {
                    // both senders stage two messages each, all landing on
                    // LP2 exactly at the horizon
                    ctx.send(2, self.horizon, 10 * ctx.me() as u64);
                    ctx.send(2, self.horizon, 10 * ctx.me() as u64 + 1);
                }
            }
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        impl InitialEvents for FanIn {
            fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
                if ctx.me() < 2 {
                    ctx.schedule_in(0.0, 99);
                }
            }
        }
        let mk = || {
            (0..3)
                .map(|_| FanIn {
                    log: Vec::new(),
                    horizon: 5.0,
                })
                .collect::<Vec<_>>()
        };
        let edges = [(0usize, 2usize), (1, 2)];
        let t_end = SimTime::new(5.0);
        let seq = crate::sequential::run_sequential(mk(), &edges, t_end);
        let par = run_cmb(mk(), &edges, t_end);
        // all four arrive at t=5.0 == t_end, ordered by (src, seq)
        assert_eq!(
            par.lps[2].log,
            vec![
                (5.0f64.to_bits(), 0),
                (5.0f64.to_bits(), 1),
                (5.0f64.to_bits(), 10),
                (5.0f64.to_bits(), 11),
            ]
        );
        assert_eq!(seq.lps[2].log, par.lps[2].log);
    }

    /// Degenerate horizon: only the t = 0 initial events run; cross-LP
    /// messages (delay ≥ lookahead > 0) are all beyond the horizon and the
    /// run must still terminate cleanly.
    #[test]
    fn t_end_zero_runs_initial_events_only() {
        let t_end = SimTime::ZERO;
        let par = run_cmb(recorders(3, 10.0), &ring_edges(3), t_end);
        assert_eq!(par.total_events(), 1, "only LP0's t=0 event");
        assert_eq!(par.lps[0].log, vec![(0.0f64.to_bits(), 0)]);
    }

    /// A send whose arrival equals the sender's promised null bound
    /// exactly (at == lb after a null was sent) must be accepted by the
    /// receiver-side causality assert (bounds are promises about strictly
    /// earlier messages).
    #[test]
    fn arrival_exactly_at_promised_bound_accepted() {
        // LP0's first null promises lb = min(∞, safe, t_end) + 1.0; its
        // later event arrives exactly at an integer bound repeatedly as
        // the chain advances in lookahead-sized steps.
        let t_end = SimTime::new(4.0);
        let seq = crate::sequential::run_sequential(recorders(2, 4.0), &ring_edges(2), t_end);
        let par = run_cmb(recorders(2, 4.0), &ring_edges(2), t_end);
        assert_eq!(par.total_events(), 5);
        for i in 0..2 {
            assert_eq!(seq.lps[i].log, par.lps[i].log);
        }
    }

    #[test]
    #[should_panic]
    fn zero_lookahead_rejected() {
        struct Zero;
        impl LogicalProcess for Zero {
            type Msg = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut LpCtx<'_, ()>) {}
            fn lookahead(&self) -> f64 {
                0.0
            }
        }
        impl InitialEvents for Zero {
            fn initial_events(&mut self, _: &mut LpCtx<'_, ()>) {}
        }
        run_cmb(vec![Zero, Zero], &[(0, 1), (1, 0)], SimTime::new(1.0));
    }
}
