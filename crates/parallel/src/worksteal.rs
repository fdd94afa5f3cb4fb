//! Work-stealing execution: logical processes decoupled from OS threads.
//!
//! The thread-per-LP engines ([`crate::cmb`], [`crate::timewarp`]) hand
//! scheduling to the OS the moment LPs outnumber cores — the common case
//! for fine-grained partitions (the `phold_par` workload of
//! `BENCHMARK.json` runs 16 LPs on at most 4 workers, reported as
//! `par.ws.speedup_vs_seq`), where a single slow LP stalls every
//! null-message round while its peers burn context switches. This engine inverts the mapping: a
//! fixed pool of **worker threads** pulls *runnable LPs* from per-worker
//! deques, stealing from the tail of a peer's deque when idle, and an LP
//! that cannot progress simply is not queued — blocked-on-neighbor waits
//! become yields instead of parked OS threads.
//!
//! Synchronization is conservative, but shared memory replaces the null
//! message: each LP keeps per-in-edge **channel clocks** exactly as CMB
//! does (the same `ChannelClocks`, the same packets), and a sender
//! *applies its new lower bound directly to the receiver's state* (under
//! the receiver's lock) instead of mailing a null. The classical liveness argument is unchanged — positive
//! lookahead makes bounds strictly increase around any cycle — but a
//! bound update costs one mutex acquisition instead of a channel
//! round-trip plus an OS thread wake-up. (The optimistic analog — an LP
//! is runnable when it holds unprocessed events above GVT — drops into
//! the same scheduler skeleton; [`crate::timewarp`] keeps thread-per-LP
//! for now and runs its handlers through the same LP port instead.)
//!
//! Determinism is inherited wholesale: events carry the same `(time,
//! source LP, sequence)` tie keys, each LP delivers in ascending
//! `(time, tie)` order gated by its safe time, and neither worker count,
//! steal order nor batch size can reorder a delivery — so a run
//! reproduces [`crate::run_sequential`] bit-for-bit (property-tested under
//! adversarial imbalance in `tests/worksteal_properties.rs`).
//!
//! **Placement** is round-robin and fixed: LP `i` is always queued on
//! worker `i mod workers`. Load balance comes from stealing alone — an
//! idle worker takes runnable LPs from its peers' deques, so a hot LP
//! never holds back work that another worker could run.
//!
//! ## Why per-LP activations are serialized
//!
//! The `queued` flag is cleared only *after* an activation has delivered
//! its staged events and published its channel bounds. This makes the
//! whole activation (process → deliver → promise) atomic per LP: if a
//! second worker could start the next batch while staged events from the
//! previous one were still in flight, it would publish a bound computed
//! from the drained queue — above the in-flight events' timestamps — and
//! the receiver could run past a message that had not landed yet.

use crate::cmb::{ChannelClocks, InitialEvents, Tagged};
use crate::lp::{join, out_neighbors, validate_run, LogicalProcess, LpId};
use lsds_core::{LpCore, SimTime};
use lsds_obs::{
    EngineTelemetry, NoopTelemetry, NoopTracer, Registry, Telemetry, TelemetryConfig,
    TelemetryReport,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};

/// Tuning knobs for the work-stealing engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsConfig {
    /// Worker threads. `0` (the default) uses the host's available
    /// parallelism; any value is clamped to the LP count. On an
    /// oversubscribed host *fewer* workers than LPs is the whole point —
    /// see the "choosing worker count" note in the README.
    pub workers: usize,
    /// Maximum events one activation processes before the LP is
    /// re-queued at the back of its deque (≥ 1). Small batches improve
    /// fairness under skew; large batches amortize locking.
    pub batch: u32,
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            workers: 0,
            batch: 64,
        }
    }
}

/// Per-LP execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WsStats {
    /// Events (local + remote) processed by this LP.
    pub events: u64,
    /// Batches run for this LP, including spurious activations that
    /// found nothing safe to process.
    pub activations: u64,
    /// Real messages sent to other LPs.
    pub remote_sent: u64,
}

/// Scheduler-wide counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WsSchedStats {
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Activations taken from another worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep with no runnable LP anywhere.
    pub parks: u64,
    /// Channel-clock advances written into neighbor state — the
    /// shared-memory analog of CMB null messages.
    pub bound_updates: u64,
}

/// Result of a work-stealing run.
#[derive(Debug)]
pub struct WsReport<L> {
    /// The logical processes, in id order, with their final state.
    pub lps: Vec<L>,
    /// Per-LP counters, in id order.
    pub stats: Vec<WsStats>,
    /// Scheduler-wide counters.
    pub sched: WsSchedStats,
}

impl<L> WsReport<L> {
    /// Total events processed across all LPs.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.events).sum()
    }

    /// Total real inter-LP messages.
    pub fn total_remote(&self) -> u64 {
        self.stats.iter().map(|s| s.remote_sent).sum()
    }

    /// Exports the run's scheduling counters into a metrics registry:
    /// aggregate `ws.*` counters plus per-LP event counts.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("ws.events", self.total_events());
        reg.inc("ws.remote_sent", self.total_remote());
        reg.inc(
            "ws.activations",
            self.stats.iter().map(|s| s.activations).sum(),
        );
        reg.inc("ws.steals", self.sched.steals);
        reg.inc("ws.parks", self.sched.parks);
        reg.inc("ws.bound_updates", self.sched.bound_updates);
        reg.set_gauge("ws.lps", self.lps.len() as f64);
        reg.set_gauge("ws.workers", self.sched.workers as f64);
        for (i, st) in self.stats.iter().enumerate() {
            reg.inc(&format!("ws.lp.{i}.events"), st.events);
        }
    }
}

/// Mutable state of one LP; every access goes through the slot's mutex.
struct LpState<L: LogicalProcess> {
    core: LpCore<L, NoopTracer>,
    /// Channel clocks as in CMB — but the in-clocks are written directly
    /// by the sending LP's activation, and the out-bounds skip redundant
    /// neighbor locking when the promise has not moved.
    clocks: ChannelClocks,
    done: bool,
    /// `events` stays zero until teardown copies the core's count in.
    stats: WsStats,
}

/// One LP's scheduling shell. The flag lives outside the mutex so
/// senders never block on a running LP.
struct LpSlot<L: LogicalProcess> {
    state: Mutex<LpState<L>>,
    /// Set while the LP sits in a deque *or* is being activated; cleared
    /// only at the end of an activation (see module docs). Guarantees at
    /// most one worker activates the LP at a time.
    queued: AtomicBool,
}

/// A packet staged for `LpId`: carried from the producing activation
/// (computed under the sender's lock) to the delivery phase (applied
/// under the receiver's lock) — the two locks are never held at once.
type Outbox<M> = Vec<(LpId, Tagged<M>)>;

struct Scheduler<L: LogicalProcess> {
    slots: Vec<LpSlot<L>>,
    deques: Vec<Mutex<VecDeque<LpId>>>,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// LPs currently sitting in some deque.
    pending: AtomicUsize,
    /// LPs that have not finished yet; 0 terminates the workers.
    live: AtomicUsize,
    /// Set when a worker panics (e.g. a model handler), so its peers shut
    /// down instead of parking forever on work the dead worker owned; the
    /// panic itself propagates through the thread scope.
    failed: AtomicBool,
    steals: AtomicU64,
    parks: AtomicU64,
    bound_updates: AtomicU64,
    t_end: SimTime,
    cfg: WsConfig,
}

impl<L: LogicalProcess> Scheduler<L> {
    fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Queues `lp` on its home deque (`lp mod workers`) unless it is
    /// already queued or mid-activation (the activation's closing re-check
    /// covers it).
    fn enqueue(&self, lp: LpId) {
        if self.slots[lp]
            .queued
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_err()
        {
            return;
        }
        if let Ok(mut dq) = self.deques[lp % self.workers()].lock() {
            dq.push_back(lp);
        }
        self.pending.fetch_add(1, SeqCst);
        // Notify under the park lock: a worker re-checks `pending` under
        // the same lock before waiting, so this wake-up cannot be lost.
        let _g = self.park_lock.lock();
        self.park_cv.notify_one();
    }

    /// Next LP for worker `me`: own deque first (FIFO for fairness),
    /// then steal from the tail of each peer's deque.
    fn next_lp<Y: Telemetry>(&self, me: usize, tel: &mut Y) -> Option<LpId> {
        if let Ok(mut dq) = self.deques[me].lock() {
            if let Some(lp) = dq.pop_front() {
                self.pending.fetch_sub(1, SeqCst);
                return Some(lp);
            }
        }
        let n = self.workers();
        for off in 1..n {
            let w = (me + off) % n;
            if let Ok(mut dq) = self.deques[w].lock() {
                if let Some(lp) = dq.pop_back() {
                    self.pending.fetch_sub(1, SeqCst);
                    self.steals.fetch_add(1, SeqCst);
                    if Y::ENABLED {
                        tel.inc("ws.steals", me as u32, 1);
                    }
                    return Some(lp);
                }
            }
        }
        None
    }

    /// One activation of `lp`: a bounded batch of safe events under the
    /// LP's own lock, then event delivery and bound publication into
    /// neighbor state lock-by-lock, then the closing re-check.
    ///
    /// `outbox`/`wake` are worker-local scratch, reused across
    /// activations to avoid reallocating. `me` is the *executing* worker
    /// (possibly a thief), which is the telemetry track the activation's
    /// counters land on.
    fn activate<Y: Telemetry>(
        &self,
        me: usize,
        lp: LpId,
        tel: &mut Y,
        outbox: &mut Outbox<L::Msg>,
        wake: &mut Vec<LpId>,
    ) {
        let slot = &self.slots[lp];
        let mut became_done = false;
        let mut did = 0u64;
        {
            let Ok(mut guard) = slot.state.lock() else {
                return;
            };
            // Reborrow through the guard once so disjoint-field borrows
            // (core vs. clocks vs. counters) work inside the loop.
            let st = &mut *guard;
            if st.done {
                slot.queued.store(false, SeqCst);
                return;
            }
            st.stats.activations += 1;
            if Y::ENABLED {
                tel.inc("ws.activations", me as u32, 1);
            }
            while did < self.cfg.batch as u64 {
                let Some(at) = st.clocks.next_safe(st.core.next_time(), self.t_end) else {
                    break;
                };
                // Ties are assigned in staging order; locals go back into
                // our queue, remotes into the outbox.
                st.core.step(|k, dst, ev| {
                    st.stats.remote_sent += 1;
                    outbox.push((dst, st.clocks.depart(k, at, ev)));
                });
                did += 1;
                if Y::ENABLED && tel.tick(at.seconds()) {
                    // Deque depth of the executing worker at the sample
                    // point. Lock order state → deque is acyclic: no
                    // path takes an LP state lock while holding a deque
                    // lock.
                    let depth = self.deques[me].lock().map_or(0, |d| d.len());
                    tel.sample("ws.deque_len", me as u32, at.seconds(), depth as f64);
                }
            }
            // New promises go out BEHIND the staged events: a bound
            // computed from the drained queue may exceed a staged event's
            // timestamp, so the event must land first.
            let next = st.core.next_time();
            st.clocks
                .promise(next, self.t_end, |dst, null| outbox.push((dst, null)));
            if st.clocks.finished(next, self.t_end) {
                st.done = true;
                became_done = true;
            }
        }
        for (dst, tagged) in outbox.drain(..) {
            let is_bound = tagged.is_null();
            if self.deliver(dst, tagged) {
                wake.push(dst);
                if is_bound {
                    self.bound_updates.fetch_add(1, SeqCst);
                }
            }
        }
        for dst in wake.drain(..) {
            self.enqueue(dst);
        }
        if became_done && self.live.fetch_sub(1, SeqCst) == 1 {
            // Last LP finished: release every parked worker.
            let _g = self.park_lock.lock();
            self.park_cv.notify_all();
        }
        // End of activation: allow re-queueing, then re-check our own
        // state. Senders that delivered to us mid-activation failed the
        // enqueue CAS, so any work they left — or work this activation
        // left (batch limit, unpublished future bound) — is picked up
        // here; their deliveries happened under our lock before the
        // `queued` clear, so this re-check cannot miss them.
        slot.queued.store(false, SeqCst);
        if became_done {
            return;
        }
        let rerun = slot.state.lock().is_ok_and(|mut guard| {
            let LpState {
                core, clocks, done, ..
            } = &mut *guard;
            // A higher in-clock can raise our own promise even with
            // nothing runnable; neighbors may need it.
            let next = core.next_time();
            !*done
                && (clocks.next_safe(next, self.t_end).is_some()
                    || clocks.finished(next, self.t_end)
                    || clocks.can_promise(next, self.t_end))
        });
        if rerun {
            self.enqueue(lp);
        }
    }

    /// Applies a packet to `dst` under its lock, reporting whether `dst`
    /// may have new work. Per-edge deliveries are in send order
    /// (activations are serialized), so the edge is FIFO as a CMB channel.
    fn deliver(&self, dst: LpId, tagged: Tagged<L::Msg>) -> bool {
        self.slots[dst].state.lock().is_ok_and(|mut guard| {
            let LpState { core, clocks, .. } = &mut *guard;
            clocks.apply(tagged, |ev| core.accept(ev))
        })
    }

    fn worker<Y: Telemetry>(&self, me: usize, mut tel: Y) -> Y {
        /// Unwinding out of the loop (a panicking model handler or a
        /// tripped causality assertion) must not strand peers parked on
        /// work this worker owned: flag the failure and wake everyone,
        /// then let the panic propagate through the thread scope.
        struct AbortOnPanic<'a, L: LogicalProcess>(&'a Scheduler<L>);
        impl<L: LogicalProcess> Drop for AbortOnPanic<'_, L> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.failed.store(true, SeqCst);
                    let _g = self.0.park_lock.lock();
                    self.0.park_cv.notify_all();
                }
            }
        }
        let _abort = AbortOnPanic(self);
        let mut outbox = Vec::new();
        let mut wake = Vec::new();
        loop {
            if self.live.load(SeqCst) == 0 || self.failed.load(SeqCst) {
                return tel;
            }
            if let Some(lp) = self.next_lp(me, &mut tel) {
                self.activate(me, lp, &mut tel, &mut outbox, &mut wake);
                continue;
            }
            let Ok(g) = self.park_lock.lock() else {
                return tel;
            };
            if self.live.load(SeqCst) == 0 || self.failed.load(SeqCst) {
                return tel;
            }
            if self.pending.load(SeqCst) > 0 {
                continue;
            }
            self.parks.fetch_add(1, SeqCst);
            if Y::ENABLED {
                tel.inc("ws.parks", me as u32, 1);
            }
            // Spurious wake-ups are fine: the loop re-checks everything.
            drop(self.park_cv.wait(g));
        }
    }
}

/// Runs logical processes to `t_end` on a work-stealing worker pool with
/// the default [`WsConfig`] (workers = available parallelism, batch 64).
///
/// `edges` lists the directed channels `(src, dst)` exactly as for
/// [`crate::run_cmb`]; the synchronization contract is the same (every
/// LP must declare strictly positive lookahead) and the result is
/// bit-identical to [`crate::run_cmb`] and [`crate::run_sequential`].
pub fn run_worksteal<L>(lps: Vec<L>, edges: &[(LpId, LpId)], t_end: SimTime) -> WsReport<L>
where
    L: InitialEvents,
{
    run_worksteal_cfg(lps, edges, t_end, WsConfig::default())
}

/// Like [`run_worksteal`], with explicit scheduler configuration.
pub fn run_worksteal_cfg<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: WsConfig,
) -> WsReport<L>
where
    L: InitialEvents,
{
    run_worksteal_with(lps, edges, t_end, cfg, |_| NoopTelemetry).0
}

/// Like [`run_worksteal_cfg`], with a per-worker [`Telemetry`] sink
/// capturing scheduler internals — steals, parks, activations, deque
/// depths — as counter and sample series keyed by worker track. The
/// merged [`TelemetryReport`] aggregates every worker's sink; results
/// are bit-identical to the plain run (telemetry observes placement and
/// timing, never event order).
pub fn run_worksteal_telemetry<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: WsConfig,
    tcfg: TelemetryConfig,
) -> (WsReport<L>, TelemetryReport)
where
    L: InitialEvents,
{
    let (report, tels) = run_worksteal_with(lps, edges, t_end, cfg, |w| {
        EngineTelemetry::for_track(tcfg.clone(), w as u32)
    });
    (report, TelemetryReport::merge(tels))
}

/// Shared driver: builds the scheduler, runs the worker pool with one
/// telemetry sink per worker, and returns the sinks (in worker order)
/// alongside the report.
fn run_worksteal_with<L, Y>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: WsConfig,
    mk_tel: impl Fn(usize) -> Y,
) -> (WsReport<L>, Vec<Y>)
where
    L: InitialEvents,
    Y: Telemetry + Send,
{
    assert!(cfg.batch >= 1, "batch must be at least 1");
    validate_run(&lps, edges, Some(0.0));
    let n = lps.len();
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |c| c.get())
    } else {
        cfg.workers
    }
    .clamp(1, n.max(1));

    // Initial events at t = 0 are staged single-threaded, before any
    // worker starts: locals go straight into each queue, remotes are
    // delivered below (no promise can be violated — every channel clock is
    // still at its initial 0.0 and sends respect lookahead > 0). Every LP
    // starts queued on its home deque (round-robin) so each publishes its
    // first bound even if it holds no events.
    let mut initial_remote: Outbox<L::Msg> = Vec::new();
    let clocks = ChannelClocks::for_topology(&lps, edges);
    let slots: Vec<LpSlot<L>> = lps
        .into_iter()
        .zip(clocks)
        .enumerate()
        .map(|(me, (lp, mut clocks))| {
            let mut core = LpCore::new(me, lp, out_neighbors(edges, me), NoopTracer);
            let mut stats = WsStats::default();
            core.init(|k, dst, ev| {
                stats.remote_sent += 1;
                initial_remote.push((dst, clocks.depart(k, SimTime::ZERO, ev)));
            });
            LpSlot {
                state: Mutex::new(LpState {
                    core,
                    clocks,
                    done: false,
                    stats,
                }),
                queued: AtomicBool::new(true),
            }
        })
        .collect();
    let sched = Scheduler {
        slots,
        deques: (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect(),
        park_lock: Mutex::new(()),
        park_cv: Condvar::new(),
        pending: AtomicUsize::new(n),
        live: AtomicUsize::new(n),
        failed: AtomicBool::new(false),
        steals: AtomicU64::new(0),
        parks: AtomicU64::new(0),
        bound_updates: AtomicU64::new(0),
        t_end,
        cfg,
    };

    for (dst, tagged) in initial_remote {
        sched.deliver(dst, tagged);
    }

    // A panicking worker never returns a sink: joining re-raises its
    // panic (with the original message) once its peers have shut down.
    let tels: Vec<Y> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (sched, tel) = (&sched, mk_tel(w));
                scope.spawn(move || sched.worker(w, tel))
            })
            .collect();
        handles.into_iter().map(join).collect()
    });

    let mut lps_out = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    for slot in sched.slots {
        #[expect(
            clippy::expect_used,
            reason = "post-run teardown: a panicked worker has already propagated through the thread scope"
        )]
        let st = slot.state.into_inner().expect("worker panicked");
        debug_assert!(st.done, "scheduler terminated with an unfinished LP");
        let (lp, events, _) = st.core.finish();
        lps_out.push(lp);
        stats.push(WsStats { events, ..st.stats });
    }
    (
        WsReport {
            lps: lps_out,
            stats,
            sched: WsSchedStats {
                workers,
                steals: sched.steals.load(SeqCst),
                parks: sched.parks.load(SeqCst),
                bound_updates: sched.bound_updates.load(SeqCst),
            },
        },
        tels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpCtx;
    use crate::sequential::run_sequential;

    /// Ring of LPs passing a token every `delay`.
    struct RingNode {
        n: usize,
        hops_seen: u64,
        last_time: f64,
        delay: f64,
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
            self.delay
        }
    }

    impl InitialEvents for RingNode {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.schedule_in(0.0, 0);
            }
        }
    }

    fn ring(n: usize) -> (Vec<RingNode>, Vec<(LpId, LpId)>) {
        let lps = (0..n)
            .map(|_| RingNode {
                n,
                hops_seen: 0,
                last_time: 0.0,
                delay: 1.0,
            })
            .collect();
        let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
        (lps, edges)
    }

    #[test]
    fn ring_matches_sequential() {
        let (lps, edges) = ring(4);
        let seq = run_sequential(lps, &edges, SimTime::new(100.0));
        let (lps, edges) = ring(4);
        let ws = run_worksteal(lps, &edges, SimTime::new(100.0));
        assert_eq!(ws.total_events(), seq.total_events());
        for (a, b) in ws.lps.iter().zip(seq.lps.iter()) {
            assert_eq!(a.hops_seen, b.hops_seen);
            assert_eq!(a.last_time.to_bits(), b.last_time.to_bits());
        }
        assert!(ws.sched.workers >= 1);
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let mut runs = Vec::new();
        for batch in [1u32, 3, 64] {
            let (lps, edges) = ring(5);
            let ws = run_worksteal_cfg(
                lps,
                &edges,
                SimTime::new(50.0),
                WsConfig { workers: 2, batch },
            );
            runs.push(
                ws.lps
                    .iter()
                    .map(|l| (l.hops_seen, l.last_time.to_bits()))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn lp_with_no_events_terminates() {
        // LP 1 never receives a real event; it must still finish once
        // LP 0's published bounds pass the horizon.
        struct Quiet;
        impl LogicalProcess for Quiet {
            type Msg = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut LpCtx<'_, ()>) {}
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        impl InitialEvents for Quiet {
            fn initial_events(&mut self, _: &mut LpCtx<'_, ()>) {}
        }
        let ws = run_worksteal(vec![Quiet, Quiet], &[(0, 1)], SimTime::new(5.0));
        assert_eq!(ws.total_events(), 0);
    }

    #[test]
    fn empty_run_returns_empty_report() {
        let ws = run_worksteal(Vec::<RingNode>::new(), &[], SimTime::new(1.0));
        assert_eq!(ws.lps.len(), 0);
        assert_eq!(ws.total_events(), 0);
    }

    #[test]
    fn export_metrics_accepts_report() {
        let (lps, edges) = ring(3);
        let ws = run_worksteal(lps, &edges, SimTime::new(10.0));
        let mut reg = Registry::new();
        ws.export_metrics(&mut reg);
        assert!(ws.total_events() > 0);
        assert_eq!(reg.counter("ws.lp.0.events"), ws.stats[0].events);
        assert_eq!(reg.counter("ws.events"), ws.total_events());
        assert_eq!(reg.counter("ws.steals"), ws.sched.steals);
        assert_eq!(reg.gauge("ws.workers"), Some(ws.sched.workers as f64));
    }

    #[test]
    fn telemetry_run_matches_plain_and_counts_scheduler() {
        let cfg = WsConfig {
            workers: 2,
            batch: 4,
        };
        let (lps, edges) = ring(6);
        let plain = run_worksteal_cfg(lps, &edges, SimTime::new(200.0), cfg);
        let (lps, edges) = ring(6);
        let (ws, tel) = run_worksteal_telemetry(
            lps,
            &edges,
            SimTime::new(200.0),
            cfg,
            TelemetryConfig::new().every_events(8),
        );
        // Bit-identity: telemetry observes scheduling, never alters it.
        for (a, b) in ws.lps.iter().zip(plain.lps.iter()) {
            assert_eq!(a.hops_seen, b.hops_seen);
            assert_eq!(a.last_time.to_bits(), b.last_time.to_bits());
        }
        assert_eq!(ws.total_events(), plain.total_events());
        // Telemetry counters mirror this run's scheduler stats exactly:
        // each increments alongside its atomic. (Steal/park counts are
        // timing-dependent, so compare within the run, not across runs.)
        assert_eq!(tel.events(), ws.total_events());
        assert_eq!(
            tel.counter("ws.activations"),
            ws.stats.iter().map(|s| s.activations).sum::<u64>()
        );
        assert_eq!(tel.counter("ws.steals"), ws.sched.steals);
        assert_eq!(tel.counter("ws.parks"), ws.sched.parks);
    }

    /// LP 0's first handler sends at t = 1.0, its second (at t = 0.1) at
    /// t = 0.3: per-edge send timestamps decrease although every delay is
    /// at least the lookahead. LP 1 holds a local event at t = 0.5, which
    /// it may not run before the t = 0.3 message lands. Bounds rise only to
    /// handler time plus lookahead, so the run matches the sequential
    /// oracle.
    #[derive(Default)]
    struct Shrinking {
        sent_far: bool,
        log: Vec<(u64, u64)>,
    }
    impl LogicalProcess for Shrinking {
        type Msg = u64;
        fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
            self.log.push((now.seconds().to_bits(), v));
            if ctx.me() != 0 {
                return;
            }
            if !self.sent_far {
                self.sent_far = true;
                ctx.send(1, 1.0, 1);
                ctx.schedule_in(0.1, 0);
            } else {
                ctx.send(1, 0.2, 2);
            }
        }
        fn lookahead(&self) -> f64 {
            0.1
        }
    }
    impl InitialEvents for Shrinking {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            match ctx.me() {
                0 => ctx.schedule_in(0.0, 0),
                _ => ctx.schedule_in(0.5, 3),
            }
        }
    }

    const ONE_BY_ONE: WsConfig = WsConfig {
        workers: 2,
        batch: 1,
    };

    #[test]
    fn non_monotone_sends_match_sequential() {
        let mk = || vec![Shrinking::default(), Shrinking::default()];
        let t_end = SimTime::new(5.0);
        let seq = run_sequential(mk(), &[(0, 1)], t_end);
        let (t03, t05, t1) = ((0.1f64 + 0.2).to_bits(), 0.5f64.to_bits(), 1.0f64.to_bits());
        assert_eq!(seq.lps[1].log, vec![(t03, 2), (t05, 3), (t1, 1)]);
        // one worker runs LP 1 right after LP 0's first handler, which is
        // when a clock raised to t = 1.0 would let it run t = 0.5 too soon
        for workers in [1, 2] {
            let cfg = WsConfig {
                workers,
                ..ONE_BY_ONE
            };
            let ws = run_worksteal_cfg(mk(), &[(0, 1)], t_end, cfg);
            for (a, b) in ws.lps.iter().zip(&seq.lps) {
                assert_eq!(a.log, b.log, "{workers} workers");
            }
        }
    }

    /// A panicking handler must abort the whole run — every worker exits
    /// and the panic propagates — rather than strand peer workers parked
    /// forever. `run_worksteal_with` joins every worker and re-raises the
    /// first panic with its original payload, so the caller sees the
    /// handler's own message.
    #[test]
    #[should_panic(expected = "second handler fails")]
    fn panicking_handler_aborts_instead_of_hanging() {
        struct Failing(Shrinking);
        impl LogicalProcess for Failing {
            type Msg = u64;
            fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
                if self.0.sent_far {
                    panic!("second handler fails");
                }
                self.0.handle(now, v, ctx);
            }
            fn lookahead(&self) -> f64 {
                self.0.lookahead()
            }
        }
        impl InitialEvents for Failing {
            fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
                self.0.initial_events(ctx);
            }
        }
        let lps = vec![Failing(Shrinking::default()), Failing(Shrinking::default())];
        run_worksteal_cfg(lps, &[(0, 1)], SimTime::new(5.0), ONE_BY_ONE);
    }

    #[test]
    #[should_panic(expected = "positive finite lookahead")]
    fn zero_lookahead_rejected() {
        struct Bad;
        impl LogicalProcess for Bad {
            type Msg = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut LpCtx<'_, ()>) {}
            fn lookahead(&self) -> f64 {
                0.0
            }
        }
        impl InitialEvents for Bad {
            fn initial_events(&mut self, _: &mut LpCtx<'_, ()>) {}
        }
        run_worksteal(vec![Bad, Bad], &[(0, 1)], SimTime::new(1.0));
    }
}
