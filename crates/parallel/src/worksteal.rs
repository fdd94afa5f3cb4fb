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
//! steal order, batch size, nor migration can reorder a delivery — so a
//! run reproduces [`crate::run_sequential`] bit-for-bit (property-tested
//! under adversarial imbalance in `tests/worksteal_properties.rs`).
//!
//! **Adaptive rebalancing** ([`WsConfig::migration_epoch`]): every epoch
//! (a global budget of processed events) the scheduler re-partitions LP
//! *home workers* by measured per-LP host cost, longest-processing-time
//! first — the Erlang-PDES lever of migrating simulation load between
//! schedulers. Migration happens only at a safe point: an LP is re-homed
//! strictly between activations, when it sits in no deque and no worker
//! holds its lock, so placement changes scheduling and nothing else.
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
    /// Adaptive rebalancing period in globally processed events: at each
    /// epoch boundary the scheduler re-homes LPs onto workers by
    /// measured per-LP cost (longest-processing-time first). `None`
    /// disables migration. Placement only — results are bit-identical
    /// with migration on or off.
    pub migration_epoch: Option<u64>,
}

impl Default for WsConfig {
    fn default() -> Self {
        WsConfig {
            workers: 0,
            batch: 64,
            migration_epoch: None,
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
    /// Rebalancing epochs that ran.
    pub epochs: u64,
    /// LP home-worker changes applied at epoch boundaries.
    pub migrations: u64,
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
    /// Final home worker of each LP, in id order. With
    /// [`WsConfig::migration_epoch`] set this is the placement the epoch
    /// rebalancer converged to from *observed* per-LP cost — the online
    /// analog of a [`crate::partition::profiled`] assignment, available
    /// with no prior profiling run.
    pub homes: Vec<usize>,
    /// Cumulative host nanoseconds of handler work per LP, in id order.
    /// Unlike the epoch-local accumulator that drives rebalancing, this
    /// never resets, so it weights [`WsReport::observed_imbalance`] over
    /// the whole run.
    pub cost_ns: Vec<u64>,
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

    /// Weighted load imbalance of the final placement: max worker load
    /// over mean worker load, where an LP's load is its observed
    /// cumulative host cost. `1.0` is perfect balance; returns `1.0`
    /// for degenerate runs (no workers or no measured cost).
    pub fn observed_imbalance(&self) -> f64 {
        if self.sched.workers == 0 {
            return 1.0;
        }
        let mut load = vec![0u64; self.sched.workers];
        for (lp, &home) in self.homes.iter().enumerate() {
            load[home % self.sched.workers] += self.cost_ns[lp];
        }
        let total: u64 = load.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = load.iter().copied().max().unwrap_or(0) as f64;
        max / (total as f64 / self.sched.workers as f64)
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
        reg.inc("ws.epochs", self.sched.epochs);
        reg.inc("ws.migrations", self.sched.migrations);
        reg.set_gauge("ws.lps", self.lps.len() as f64);
        reg.set_gauge("ws.workers", self.sched.workers as f64);
        for (i, st) in self.stats.iter().enumerate() {
            reg.inc(&format!("ws.lp.{i}.events"), st.events);
        }
        for (i, &c) in self.cost_ns.iter().enumerate() {
            reg.inc(&format!("ws.lp.{i}.cost_ns"), c);
        }
        for (i, &h) in self.homes.iter().enumerate() {
            reg.set_gauge(&format!("ws.lp.{i}.home"), h as f64);
        }
        reg.set_gauge("ws.observed_imbalance", self.observed_imbalance());
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

/// One LP's scheduling shell. The flags live outside the mutex so
/// senders and the rebalancer never block on a running LP.
struct LpSlot<L: LogicalProcess> {
    state: Mutex<LpState<L>>,
    /// Set while the LP sits in a deque *or* is being activated; cleared
    /// only at the end of an activation (see module docs). Guarantees at
    /// most one worker activates the LP at a time.
    queued: AtomicBool,
    /// Home worker; activations are pushed here, thieves may run them
    /// elsewhere. Rewritten by the epoch rebalancer.
    home: AtomicUsize,
    /// Cumulative host nanoseconds of handler work — the live cost
    /// telemetry. Never reset: the rebalancer partitions on the whole
    /// observed history (converging to what a profiled partition would
    /// build from the same costs) instead of one epoch's noisy sample,
    /// and teardown reports it as [`WsReport::cost_ns`].
    cost_total_ns: AtomicU64,
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
    events_total: AtomicU64,
    epoch_idx: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    bound_updates: AtomicU64,
    epochs: AtomicU64,
    migrations: AtomicU64,
    t_end: SimTime,
    cfg: WsConfig,
}

impl<L: LogicalProcess> Scheduler<L> {
    fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Queues `lp` on its home deque unless it is already queued or
    /// mid-activation (the activation's closing re-check covers it).
    fn enqueue(&self, lp: LpId) {
        if self.slots[lp]
            .queued
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_err()
        {
            return;
        }
        let w = self.slots[lp].home.load(SeqCst) % self.workers();
        if let Ok(mut dq) = self.deques[w].lock() {
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

    /// Epoch boundary: re-home LPs by measured cost, heaviest first onto
    /// the least-loaded worker (longest-processing-time greedy, ties by
    /// id). Runs on whichever worker crossed the epoch; touches only the
    /// `home` atomics, so a re-homed LP lands on its new deque at its
    /// *next* enqueue — the safe point, since between activations it is
    /// running nowhere and queued nowhere. Returns the number of LPs
    /// re-homed by this epoch.
    fn rebalance(&self) -> u64 {
        self.epochs.fetch_add(1, SeqCst);
        let mut moved = 0u64;
        for (lp, &best) in self.lpt_homes().iter().enumerate() {
            if self.slots[lp].home.swap(best, SeqCst) != best {
                self.migrations.fetch_add(1, SeqCst);
                moved += 1;
            }
        }
        moved
    }

    /// The LPT placement over the cumulative observed costs: heaviest LP
    /// first, each to the least-loaded worker (ties by id) — the same
    /// greedy `partition::profiled` applies to an offline profile.
    fn lpt_homes(&self) -> Vec<usize> {
        let mut by_cost: Vec<(u64, LpId)> = (0..self.slots.len())
            .map(|i| (self.slots[i].cost_total_ns.load(SeqCst), i))
            .collect();
        by_cost.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut load = vec![0u64; self.workers()];
        let mut homes = vec![0usize; self.slots.len()];
        for (cost, lp) in by_cost {
            let mut best = 0usize;
            for w in 1..load.len() {
                if load[w] < load[best] {
                    best = w;
                }
            }
            load[best] += cost.max(1);
            homes[lp] = best;
        }
        homes
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
            #[expect(
                clippy::disallowed_methods,
                reason = "scheduler load measurement for epoch rebalancing; feeds worker placement only, never simulated time or results"
            )]
            let wall_start = std::time::Instant::now();
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
            let spent = u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            slot.cost_total_ns.fetch_add(spent, SeqCst);
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
        if did > 0 {
            if let Some(epoch) = self.cfg.migration_epoch {
                let total = self.events_total.fetch_add(did, SeqCst) + did;
                let idx = total / epoch;
                let cur = self.epoch_idx.load(SeqCst);
                if idx > cur
                    && self
                        .epoch_idx
                        .compare_exchange(cur, idx, SeqCst, SeqCst)
                        .is_ok()
                {
                    let moved = self.rebalance();
                    if Y::ENABLED && moved > 0 {
                        tel.inc("ws.migrations", me as u32, moved);
                    }
                }
            }
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
/// the default [`WsConfig`] (workers = available parallelism, batch 64,
/// no migration).
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
/// capturing scheduler internals — steals, parks, migrations, deque
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
    if let Some(epoch) = cfg.migration_epoch {
        assert!(epoch >= 1, "migration epoch must be at least 1");
    }
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
                home: AtomicUsize::new(me % workers),
                cost_total_ns: AtomicU64::new(0),
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
        events_total: AtomicU64::new(0),
        epoch_idx: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        parks: AtomicU64::new(0),
        bound_updates: AtomicU64::new(0),
        epochs: AtomicU64::new(0),
        migrations: AtomicU64::new(0),
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
    let mut cost_ns = Vec::with_capacity(n);
    // Settle the learned placement on the complete cost record: the epoch
    // rebalancer last ran at an epoch boundary, but cost kept accruing
    // until the horizon, so the converged placement — what one more epoch
    // would compute — is the LPT greedy over the *final* cumulative
    // costs. Pure bookkeeping on a finished scheduler; no LP runs again.
    let homes = if sched.cfg.migration_epoch.is_some() && sched.epochs.load(SeqCst) > 0 {
        sched.lpt_homes()
    } else {
        sched.slots.iter().map(|s| s.home.load(SeqCst)).collect()
    };
    for slot in sched.slots {
        cost_ns.push(slot.cost_total_ns.load(SeqCst));
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
                epochs: sched.epochs.load(SeqCst),
                migrations: sched.migrations.load(SeqCst),
            },
            homes,
            cost_ns,
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
                WsConfig {
                    workers: 2,
                    batch,
                    migration_epoch: None,
                },
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
    fn migration_epoch_preserves_results_and_counts_epochs() {
        let (lps, edges) = ring(6);
        let plain = run_worksteal_cfg(
            lps,
            &edges,
            SimTime::new(200.0),
            WsConfig {
                workers: 2,
                batch: 4,
                migration_epoch: None,
            },
        );
        let (lps, edges) = ring(6);
        let migr = run_worksteal_cfg(
            lps,
            &edges,
            SimTime::new(200.0),
            WsConfig {
                workers: 2,
                batch: 4,
                migration_epoch: Some(10),
            },
        );
        assert_eq!(plain.total_events(), migr.total_events());
        for (a, b) in plain.lps.iter().zip(migr.lps.iter()) {
            assert_eq!(a.hops_seen, b.hops_seen);
            assert_eq!(a.last_time.to_bits(), b.last_time.to_bits());
        }
        assert!(migr.sched.epochs > 0, "epoch rebalancer never ran");
        assert_eq!(plain.sched.epochs, 0);
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
        assert_eq!(reg.counter("ws.lp.1.cost_ns"), ws.cost_ns[1]);
        assert_eq!(reg.gauge("ws.lp.2.home"), Some(ws.homes[2] as f64));
        assert_eq!(
            reg.gauge("ws.observed_imbalance"),
            Some(ws.observed_imbalance())
        );
    }

    #[test]
    fn telemetry_run_matches_plain_and_counts_scheduler() {
        let cfg = WsConfig {
            workers: 2,
            batch: 4,
            migration_epoch: Some(16),
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
        assert_eq!(tel.counter("ws.migrations"), ws.sched.migrations);
        // Online-placement surface for the repartitioning demo.
        assert_eq!(ws.homes.len(), 6);
        assert_eq!(ws.cost_ns.len(), 6);
        assert!(ws.homes.iter().all(|&h| h < ws.sched.workers));
        let imb = ws.observed_imbalance();
        assert!(imb.is_finite() && imb >= 1.0 - 1e-9, "imbalance {imb}");
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
        migration_epoch: None,
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
