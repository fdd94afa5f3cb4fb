//! Time Warp optimistic parallel execution — rollback, anti-messages, GVT.
//!
//! Where CMB ([`crate::cmb`]) blocks until null messages *prove* an event is
//! safe, Time Warp (Jefferson 1985) executes speculatively and repairs:
//! each [`LogicalProcess`] runs ahead on its local event list, saving state
//! snapshots as it goes. A **straggler** (a message timestamped at or below
//! the LP's clock) triggers a **rollback**: the LP restores the latest
//! snapshot before the straggler, re-enqueues the undone events, and sends
//! an **anti-message** for every optimistic inter-LP send those events
//! made; an anti-message annihilates its positive twin in the receiver's
//! input queue (rolling the receiver back first if it already processed
//! it). A continuously circulating token computes **GVT** (global virtual
//! time — a lower bound on any future rollback) Mattern-style from LP
//! clocks plus in-transit message counts; storage at or below GVT is
//! **fossil-collected** and the spans of committed events are emitted to
//! the tracer exactly once, so traced optimistic runs stay causally
//! consistent with the final (post-rollback) execution.
//!
//! Determinism: events carry the same `(time, source LP, sequence)` tie
//! keys as the conservative engines, rollback restores the per-LP sequence
//! counter, and re-execution replays deliveries in ascending key order —
//! so a Time Warp run commits exactly the event set of [the sequential
//! reference](crate::run_sequential) and ends bit-identical to it (and to
//! CMB where CMB's lookahead contract holds). The one extra requirement on
//! models: inter-LP sends must have *strictly positive* delay (any
//! positive delay, even far below the declared lookahead — that is the
//! point of optimism), because a zero-delay cross-LP send would make the
//! canonical order of equal-time events depend on message arrival timing.

use crate::cmb::InitialEvents;
use crate::lp::{out_neighbors, pack, run_lp_threads, unpack, validate_run, LogicalProcess, LpId};
use lsds_core::{EventPool, LpPort, ScheduledEvent, SimTime};
use lsds_obs::{
    EngineTelemetry, NoopTelemetry, NoopTracer, Registry, RingTracer, SpanKind, SpanTrace,
    Telemetry, TelemetryConfig, TelemetryReport, TraceConfig, Tracer,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};

/// State snapshotting hook for optimistic execution.
///
/// Time Warp cannot un-run a handler, so the engine saves a copy of the
/// LP's state before every event and restores the snapshot taken before
/// the earliest undone event on rollback. `Saved` is
/// typically the LP struct's own fields minus anything the engine already
/// reconstructs (the pending event list, the sequence counter).
pub trait SaveState: LogicalProcess {
    /// Snapshot type; stored in a slab from its event's execution until
    /// fossil collection.
    type Saved: Send;

    /// Captures the LP's current state.
    fn save(&self) -> Self::Saved;

    /// Restores a state captured by [`SaveState::save`].
    fn restore(&mut self, saved: Self::Saved);
}

/// Tuning knobs for the optimistic engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwConfig {
    /// Bounded optimism (Sokol's Moving Time Window): an LP only
    /// executes events with `at ≤ GVT + window`, in simulated seconds.
    /// `INFINITY` (the default) is pure Time Warp. A finite window caps
    /// how much speculative work a straggler can destroy — essential on
    /// oversubscribed hosts, where one LP can otherwise run to the
    /// horizon before its peers are even scheduled. The window changes
    /// scheduling only, never results.
    pub window: f64,
}

impl Default for TwConfig {
    fn default() -> Self {
        TwConfig {
            window: f64::INFINITY,
        }
    }
}

/// Per-LP execution counters, mirroring [`crate::CmbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwStats {
    /// Events committed (irrevocable, at or below final GVT). Across the
    /// run this equals the sequential engine's delivered-event count.
    pub committed: u64,
    /// Events executed, including speculative executions later undone.
    pub processed: u64,
    /// Executions undone by rollbacks (`processed - rolled_back` =
    /// `committed` at termination).
    pub rolled_back: u64,
    /// Rollback episodes (each may undo several executions).
    pub rollbacks: u64,
    /// Anti-messages sent while rolling back.
    pub antis_sent: u64,
    /// Positive messages annihilated in this LP's input queue by antis.
    pub annihilated: u64,
    /// Real inter-LP messages sent (including later-cancelled ones).
    pub remote_sent: u64,
    /// GVT token visits at this LP.
    pub token_visits: u64,
    /// GVT evaluation rounds completed (non-zero only at LP 0).
    pub gvt_rounds: u64,
    /// Blocking waits for input.
    pub blocks: u64,
}

/// Result of an optimistic parallel run.
#[derive(Debug)]
pub struct TwReport<L> {
    /// The logical processes, in id order, with their final state.
    pub lps: Vec<L>,
    /// Per-LP counters, in id order.
    pub stats: Vec<TwStats>,
}

impl<L> TwReport<L> {
    /// Total committed events — comparable to `CmbReport::total_events`.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.committed).sum()
    }

    /// Total speculative executions (committed + rolled back).
    pub fn total_processed(&self) -> u64 {
        self.stats.iter().map(|s| s.processed).sum()
    }

    /// Total executions undone by rollbacks.
    pub fn total_rolled_back(&self) -> u64 {
        self.stats.iter().map(|s| s.rolled_back).sum()
    }

    /// Total rollback episodes.
    pub fn total_rollbacks(&self) -> u64 {
        self.stats.iter().map(|s| s.rollbacks).sum()
    }

    /// Total anti-messages sent.
    pub fn total_antis(&self) -> u64 {
        self.stats.iter().map(|s| s.antis_sent).sum()
    }

    /// Fraction of executed events that committed (1.0 = no wasted work).
    pub fn efficiency(&self) -> f64 {
        let p = self.total_processed();
        if p == 0 {
            1.0
        } else {
            self.total_events() as f64 / p as f64
        }
    }

    /// Exports the run's synchronization counters into a metrics registry:
    /// aggregate `tw.*` counters plus per-LP committed counts.
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("tw.committed", self.total_events());
        reg.inc("tw.processed", self.total_processed());
        reg.inc("tw.rolled_back", self.total_rolled_back());
        reg.inc("tw.rollbacks", self.total_rollbacks());
        reg.inc("tw.antis_sent", self.total_antis());
        reg.inc(
            "tw.annihilated",
            self.stats.iter().map(|s| s.annihilated).sum(),
        );
        reg.inc(
            "tw.remote_sent",
            self.stats.iter().map(|s| s.remote_sent).sum(),
        );
        reg.inc(
            "tw.gvt_rounds",
            self.stats.iter().map(|s| s.gvt_rounds).sum(),
        );
        reg.inc("tw.blocks", self.stats.iter().map(|s| s.blocks).sum());
        reg.inc(
            "tw.token_visits",
            self.stats.iter().map(|s| s.token_visits).sum(),
        );
        reg.set_gauge("tw.lps", self.lps.len() as f64);
        reg.set_gauge("tw.efficiency", self.efficiency());
        for (i, st) in self.stats.iter().enumerate() {
            reg.inc(&format!("tw.lp.{i}.committed"), st.committed);
            reg.inc(&format!("tw.lp.{i}.rollbacks"), st.rollbacks);
        }
    }
}

/// The circulating GVT token (simplified Mattern / global message count).
///
/// Each visit folds the LP's local floor (`min`) and its sent−received
/// message delta since its previous visit (`outstanding`). When the token
/// completes a round at LP 0 with cumulative `outstanding == 0`, no
/// message was in transit across the round's cut, so `min` is a valid GVT.
#[derive(Debug, Clone, Copy)]
struct Token {
    round: u64,
    min: f64,
    outstanding: i64,
    gvt: f64,
}

enum TwPacket<M> {
    /// A positive message, with its deterministic tie-break key and the
    /// tie key of the causing event (for the trace DAG).
    Event(ScheduledEvent<M>),
    /// Cancels the positive message with the same `(at, tie)`. Per-edge
    /// FIFO (one mpsc sender per directed pair) guarantees it arrives
    /// after its positive and before any re-sent message reusing the tie.
    Anti { at: SimTime, tie: u64 },
    /// The GVT token, forwarded around the ring `0 → 1 → … → 0`.
    Token(Token),
    /// GVT passed the horizon: stop. Originated by LP 0, forwarded once
    /// around the ring.
    Stop,
}

/// How many events an LP speculates through between input-queue drains
/// and token forwards.
const BATCH: usize = 32;

/// An unprocessed event: payload parked in the pool, causal parent kept
/// for the trace DAG.
struct PendingEv {
    slot: u32,
    parent: u64,
}

/// One speculative execution, kept until fossil collection so it can be
/// undone. Payload and snapshot stay parked in their slabs; rollback is
/// slot reuse, not allocation.
struct Done {
    at: SimTime,
    tie: u64,
    parent: u64,
    /// Payload slot (still parked — rollback re-delivers it).
    slot: u32,
    /// Snapshot of LP state *before* this event ran.
    state_slot: u32,
    /// Sequence counter before this event ran; restored on rollback so
    /// re-execution regenerates identical tie keys.
    seq_before: u64,
    /// Remote sends made by this event (suffix of `sends`).
    n_sends: u32,
    /// Local events scheduled by this event (suffix of `locals`).
    n_locals: u32,
    kind: SpanKind,
    wall_ns: u64,
}

/// A remote send on record, so rollback can cancel it.
struct SendRec {
    dst: LpId,
    at: SimTime,
    tie: u64,
}

/// A local schedule on record, so rollback can unschedule it (it will be
/// regenerated, with the same tie, when the sender re-executes).
struct LocalRec {
    at: SimTime,
    tie: u64,
}

struct Engine<'a, L: SaveState, T: Tracer, Y: Telemetry> {
    me: LpId,
    lp: L,
    /// Handlers run under the smallest positive lookahead: optimism
    /// tolerates sends far below the declared one, but not zero-delay
    /// cross-LP sends, which would make the canonical order of equal-time
    /// events depend on arrival timing.
    port: LpPort<L::Msg>,
    /// The next tie key; rollback rewinds it, so re-execution regenerates
    /// identical keys.
    seq: u64,
    /// Local events the last handler scheduled, until `flush_staged`.
    local: Vec<ScheduledEvent<L::Msg>>,
    tracer: T,
    tel: Y,
    /// Unprocessed events in `(time, tie)` order.
    pending: BTreeMap<u128, PendingEv>,
    /// Parked payloads of pending *and* processed-but-uncommitted events.
    pool: EventPool<L::Msg>,
    /// Parked state snapshots.
    states: EventPool<L::Saved>,
    /// Speculative executions in execution order (time-monotone).
    processed: VecDeque<Done>,
    sends: VecDeque<SendRec>,
    locals: VecDeque<LocalRec>,
    clock: SimTime,
    gvt: f64,
    token: Option<Token>,
    stop: bool,
    /// Messages sent minus received since the token's last visit.
    sent_delta: i64,
    recv_delta: i64,
    /// Min timestamp sent (positive or anti) since the token's last visit.
    min_sent: f64,
    /// Every LP's inbox, by id; the GVT ring is `me → (me + 1) % len`.
    txs: &'a [Sender<TwPacket<L::Msg>>],
    rx: Receiver<TwPacket<L::Msg>>,
    stats: TwStats,
    cfg: TwConfig,
    t_end: SimTime,
}

impl<L, T, Y> Engine<'_, L, T, Y>
where
    L: SaveState,
    L::Msg: Clone,
    T: Tracer,
    Y: Telemetry,
{
    fn apply(&mut self, packet: TwPacket<L::Msg>) {
        match packet {
            TwPacket::Event(ev) => {
                self.recv_delta += 1;
                self.insert_event(ev);
            }
            TwPacket::Anti { at, tie } => {
                self.recv_delta += 1;
                self.annihilate(at, tie);
            }
            TwPacket::Token(tok) => {
                debug_assert!(self.token.is_none(), "two GVT tokens in flight");
                self.token = Some(tok);
            }
            TwPacket::Stop => {
                self.stop_ring();
            }
        }
    }

    /// Stops this LP and passes `Stop` on, once around the ring from LP 0.
    fn stop_ring(&mut self) {
        let next = (self.me + 1) % self.txs.len();
        if next != 0 {
            self.txs[next].send(TwPacket::Stop).ok();
        }
        self.stop = true;
    }

    /// Files a positive message from another LP; a straggler rolls back.
    fn insert_event(&mut self, ev: ScheduledEvent<L::Msg>) {
        let (at, tie, parent, msg) = (ev.time, ev.seq, ev.parent, ev.event);
        // Straggler: we already executed something at or past `at`. Equal
        // times roll back too — the canonical order within an equal-time
        // group is replayed from the group's start, which keeps ties
        // deterministic without comparing keys across creation chains.
        if self.processed.back().is_some_and(|r| at <= r.at) {
            self.rollback_to(at);
        }
        let slot = self.pool.park(msg);
        let prev = self
            .pending
            .insert(pack(at, tie), PendingEv { slot, parent });
        debug_assert!(prev.is_none(), "duplicate event key in pending queue");
    }

    fn annihilate(&mut self, at: SimTime, tie: u64) {
        let key = pack(at, tie);
        if let Some(pe) = self.pending.remove(&key) {
            self.pool.claim(pe.slot);
            self.stats.annihilated += 1;
            if Y::ENABLED {
                self.tel.inc("tw.annihilated", self.me as u32, 1);
            }
            return;
        }
        // The positive twin was already executed: roll back to its time
        // (which reinstates it as pending), then annihilate it.
        if self.processed.back().is_some_and(|r| at <= r.at) {
            self.rollback_to(at);
            if let Some(pe) = self.pending.remove(&key) {
                self.pool.claim(pe.slot);
                self.stats.annihilated += 1;
                if Y::ENABLED {
                    self.tel.inc("tw.annihilated", self.me as u32, 1);
                }
                return;
            }
        }
        // Per-edge FIFO makes an anti without its positive unreachable.
        debug_assert!(false, "anti-message with no matching positive");
    }

    /// Undoes every speculative execution with time ≥ `t`, restoring the
    /// snapshot taken before the earliest of them and cancelling optimistic
    /// sends. Re-execution regenerates identical tie keys because the
    /// sequence counter is restored along with the state.
    fn rollback_to(&mut self, t: SimTime) {
        let len = self.processed.len();
        let cut = self.processed.partition_point(|r| r.at < t);
        debug_assert!(cut < len, "rollback_to called with nothing to undo");
        self.stats.rollbacks += 1;
        if Y::ENABLED {
            self.tel.inc("tw.rollbacks", self.me as u32, 1);
            self.tel
                .inc("tw.rolled_back", self.me as u32, (len - cut) as u64);
        }
        for i in (cut..len).rev() {
            let Some(rec) = self.processed.pop_back() else {
                debug_assert!(false, "processed record vanished mid-rollback");
                break;
            };
            // Unschedule its local children: either still pending, or
            // re-inserted by a later (already undone) record. They will
            // be regenerated — same ties — when `rec` re-executes.
            for _ in 0..rec.n_locals {
                let Some(lr) = self.locals.pop_back() else {
                    debug_assert!(false, "local-schedule record missing");
                    break;
                };
                if let Some(pe) = self.pending.remove(&pack(lr.at, lr.tie)) {
                    self.pool.claim(pe.slot);
                } else {
                    debug_assert!(false, "rolled-back local child not pending");
                }
            }
            // Cancel its optimistic remote sends.
            for _ in 0..rec.n_sends {
                let Some(sr) = self.sends.pop_back() else {
                    debug_assert!(false, "send record missing");
                    break;
                };
                self.txs[sr.dst]
                    .send(TwPacket::Anti {
                        at: sr.at,
                        tie: sr.tie,
                    })
                    .ok();
                self.stats.antis_sent += 1;
                if Y::ENABLED {
                    self.tel.inc("tw.antis", self.me as u32, 1);
                }
                self.sent_delta += 1;
                self.min_sent = self.min_sent.min(sr.at.seconds());
            }
            // The event itself goes back to pending for re-execution.
            self.pending.insert(
                pack(rec.at, rec.tie),
                PendingEv {
                    slot: rec.slot,
                    parent: rec.parent,
                },
            );
            self.stats.rolled_back += 1;
            let state = self.states.claim(rec.state_slot);
            debug_assert!(state.is_some(), "snapshot slot vacated");
            if i == cut {
                if let Some(state) = state {
                    self.lp.restore(state);
                }
                self.seq = rec.seq_before;
            }
        }
        self.clock = self.processed.back().map_or(SimTime::ZERO, |r| r.at);
    }

    /// Executes the earliest pending event within the horizon, if any.
    fn process_one(&mut self) -> bool {
        let Some((&key, pe)) = self.pending.first_key_value() else {
            return false;
        };
        let (at, tie) = unpack(key);
        if at > self.t_end {
            return false;
        }
        // Bounded optimism: outside the window we wait for GVT to catch
        // up. The globally earliest event is always within any window
        // (GVT lower-bounds it), so the token keeps committing progress.
        if at.seconds() > self.gvt + self.cfg.window {
            return false;
        }
        debug_assert!(at >= self.clock, "optimistic delivery went backwards");
        let slot = pe.slot;
        let parent = pe.parent;
        let Some(msg) = self.pool.get(slot).cloned() else {
            debug_assert!(false, "pending payload slot vacated");
            return false;
        };
        self.pending.pop_first();
        let state_slot = self.states.park(self.lp.save());
        let seq_before = self.seq;
        let kind = if T::ENABLED {
            self.lp.trace_kind(&msg)
        } else {
            SpanKind::DEFAULT
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "profiler measures host handler cost, buffered until commit; never feeds back into simulated time"
        )]
        let wall_start = if T::ENABLED {
            Some(std::time::Instant::now())
        } else {
            None
        };
        // The span is buffered until commit and emitted by `commit_front`.
        let ev = ScheduledEvent::with_parent(at, tie, parent, msg);
        self.port
            .handle(&mut self.lp, ev, &mut self.seq, &mut self.local);
        let wall_ns = wall_start.map_or(0, |s| {
            u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        self.clock = at;
        self.stats.processed += 1;
        // Tick on GVT, not the rollback-prone local clock, so the cadence
        // and series timestamps stay monotone; the lag sample captures how
        // far this LP is speculating ahead of the committed frontier.
        if Y::ENABLED && self.tel.tick(self.gvt.max(0.0)) {
            let lane = self.me as u32;
            let gvt = self.gvt.max(0.0);
            self.tel
                .sample("tw.gvt_lag", lane, gvt, self.clock.seconds() - self.gvt);
            self.tel
                .sample("tw.pending_len", lane, gvt, self.pending.len() as f64);
            self.tel
                .sample("tw.processed_len", lane, gvt, self.processed.len() as f64);
        }
        let (n_sends, n_locals) = self.flush_staged();
        self.processed.push_back(Done {
            at,
            tie,
            parent,
            slot,
            state_slot,
            seq_before,
            n_sends,
            n_locals,
            kind,
            wall_ns,
        });
        true
    }

    /// Routes what the last handler staged: local events into `pending`,
    /// sends onto the wire — both on record, so a rollback can undo them.
    /// Returns `(remote sends, local schedules)`.
    fn flush_staged(&mut self) -> (u32, u32) {
        let n_locals = self.local.len() as u32;
        for ev in self.local.drain(..) {
            let (at, tie) = (ev.time, ev.seq);
            let (slot, parent) = (self.pool.park(ev.event), ev.parent);
            let prev = self
                .pending
                .insert(pack(at, tie), PendingEv { slot, parent });
            debug_assert!(prev.is_none(), "duplicate local event key");
            self.locals.push_back(LocalRec { at, tie });
        }
        let mut n_sends = 0u32;
        self.port.drain(|_, dst, ev| {
            let (at, tie) = (ev.time, ev.seq);
            self.txs[dst].send(TwPacket::Event(ev)).ok();
            self.sends.push_back(SendRec { dst, at, tie });
            self.stats.remote_sent += 1;
            self.sent_delta += 1;
            self.min_sent = self.min_sent.min(at.seconds());
            n_sends += 1;
        });
        (n_sends, n_locals)
    }

    /// This LP's contribution to the GVT floor: its earliest unprocessed
    /// event within the horizon (events past `t_end` never execute, so
    /// they cannot cause rollbacks).
    fn local_floor(&self) -> f64 {
        let next = self
            .pending
            .first_key_value()
            .map(|(&key, _)| unpack(key).0);
        next.filter(|&t| t <= self.t_end)
            .map_or(f64::INFINITY, SimTime::seconds)
    }

    fn token_step(&mut self, mut tok: Token) {
        self.stats.token_visits += 1;
        if self.me == 0 {
            // Round 0 is the seed visit — nothing has been folded yet.
            if tok.round > 0 {
                self.stats.gvt_rounds += 1;
                if tok.outstanding == 0 {
                    // No message was in transit across this round's cut,
                    // so the folded min lower-bounds any future rollback.
                    if tok.min > self.gvt {
                        self.gvt = tok.min;
                        self.fossil_collect();
                    }
                    tok.gvt = self.gvt;
                    if self.gvt > self.t_end.seconds() {
                        self.stop_ring();
                        return;
                    }
                }
            }
            tok.min = f64::INFINITY;
            tok.round += 1;
            // Idle systems circulate the token at channel speed; give
            // working LPs the core before spinning another round.
            std::thread::yield_now();
        }
        if tok.gvt > self.gvt {
            self.gvt = tok.gvt;
            self.fossil_collect();
        }
        tok.min = tok.min.min(self.local_floor()).min(self.min_sent);
        tok.outstanding += self.sent_delta - self.recv_delta;
        self.sent_delta = 0;
        self.recv_delta = 0;
        self.min_sent = f64::INFINITY;
        self.txs[(self.me + 1) % self.txs.len()]
            .send(TwPacket::Token(tok))
            .ok();
    }

    /// Commits every execution strictly below GVT: a straggler at or
    /// after GVT undoes only later records, each carrying its own snapshot.
    fn fossil_collect(&mut self) {
        let floor = self
            .processed
            .partition_point(|r| r.at.seconds() < self.gvt);
        if Y::ENABLED && floor > 0 {
            self.tel.inc("tw.fossil_batches", self.me as u32, 1);
            self.tel
                .inc("tw.fossil_events", self.me as u32, floor as u64);
        }
        for _ in 0..floor {
            self.commit_front();
        }
    }

    /// Commits the oldest speculative execution: frees its payload and
    /// snapshot slots, drops its send/schedule records, emits its span.
    fn commit_front(&mut self) {
        let Some(rec) = self.processed.pop_front() else {
            debug_assert!(false, "commit_front on empty processed list");
            return;
        };
        self.pool.claim(rec.slot);
        self.states.claim(rec.state_slot);
        for _ in 0..rec.n_sends {
            self.sends.pop_front();
        }
        for _ in 0..rec.n_locals {
            self.locals.pop_front();
        }
        self.tracer.commit_span(
            rec.tie,
            rec.parent,
            rec.kind,
            self.me as u32,
            rec.at.seconds(),
            rec.wall_ns,
        );
        self.stats.committed += 1;
    }

    fn run(mut self) -> (L, TwStats, T, Y) {
        loop {
            // Stragglers before speculation: drain everything available.
            while let Ok(packet) = self.rx.try_recv() {
                self.apply(packet);
            }
            if self.stop {
                break;
            }
            if let Some(tok) = self.token.take() {
                self.token_step(tok);
                if self.stop {
                    break;
                }
            }
            let mut did = 0;
            while did < BATCH && self.process_one() {
                did += 1;
            }
            if did == 0 && self.token.is_none() {
                // Nothing executable and no token to forward: sleep until
                // a message (or the token, or Stop) wakes us.
                self.stats.blocks += 1;
                match self.rx.recv() {
                    Ok(packet) => self.apply(packet),
                    Err(_) => break,
                }
            }
        }
        // GVT passed the horizon: everything still on the books is
        // irrevocable. Commit in execution order.
        while !self.processed.is_empty() {
            self.commit_front();
        }
        (self.lp, self.stats, self.tracer, self.tel)
    }
}

/// Runs logical processes to `t_end` under Time Warp optimistic
/// synchronization, with default [`TwConfig`].
///
/// `edges` lists the directed communication channels `(src, dst)` exactly
/// as for [`crate::run_cmb`]. Unlike CMB, lookahead is not required to be
/// positive and sends may use any *strictly positive* delay, however far
/// below the declared lookahead — stragglers are repaired by rollback
/// instead of prevented by blocking. `Msg: Clone` because a rolled-back
/// event's payload is re-delivered on re-execution.
pub fn run_timewarp<L>(lps: Vec<L>, edges: &[(LpId, LpId)], t_end: SimTime) -> TwReport<L>
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    run_timewarp_cfg(lps, edges, t_end, TwConfig::default())
}

/// [`run_timewarp`] with explicit engine tuning.
pub fn run_timewarp_cfg<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: TwConfig,
) -> TwReport<L>
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    let (report, _tracers, _tels) =
        run_timewarp_with(lps, edges, t_end, cfg, |_| NoopTracer, |_| NoopTelemetry);
    report
}

/// Like [`run_timewarp_cfg`], but records scheduler telemetry — per-LP
/// rollbacks, anti-messages, annihilations, fossil batches, and sampled
/// GVT lag / queue depths — into one [`EngineTelemetry`] sink per LP,
/// merged after the run.
///
/// Telemetry only observes: the returned [`TwReport`] is bit-identical to
/// a plain run's. Samples tick on GVT (monotone), so attaching a
/// [`lsds_obs::ProgressReporter`] shows GVT versus the horizon.
pub fn run_timewarp_telemetry<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: TwConfig,
    tcfg: TelemetryConfig,
) -> (TwReport<L>, TelemetryReport)
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    let (report, _tracers, tels) = run_timewarp_with(
        lps,
        edges,
        t_end,
        cfg,
        |_| NoopTracer,
        |lp| EngineTelemetry::for_track(tcfg.clone(), lp as u32),
    );
    (report, TelemetryReport::merge(tels))
}

/// Like [`run_timewarp`], but emits one causal span per *committed* event
/// (rolled-back executions never appear), merged deterministically by
/// `(virtual time, event id)`. The returned [`TwReport`] is bit-identical
/// to an untraced run's.
pub fn run_timewarp_traced<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: TraceConfig,
) -> (TwReport<L>, SpanTrace)
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    let (report, tracers, _tels) = run_timewarp_with(
        lps,
        edges,
        t_end,
        TwConfig::default(),
        |_| RingTracer::new(cfg),
        |_| NoopTelemetry,
    );
    let trace = SpanTrace::merge(tracers.into_iter().map(RingTracer::finish).collect());
    (report, trace)
}

fn run_timewarp_with<L, T, Y>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    cfg: TwConfig,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
) -> (TwReport<L>, Vec<T>, Vec<Y>)
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
    T: Tracer + Send,
    Y: Telemetry + Send,
{
    assert!(cfg.window >= 0.0, "window must be non-negative");
    validate_run(&lps, edges, None);
    let (lps, stats, tracers, tels) =
        run_lp_threads(lps, mk_tracer, mk_tel, |me, lp, tracer, tel, rx, txs| {
            let port = LpPort::new(me, f64::MIN_POSITIVE, out_neighbors(edges, me));
            let mut engine = Engine {
                me,
                lp,
                seq: port.first_seq(),
                port,
                local: Vec::new(),
                tracer,
                tel,
                pending: BTreeMap::new(),
                pool: EventPool::new(),
                states: EventPool::new(),
                processed: VecDeque::new(),
                sends: VecDeque::new(),
                locals: VecDeque::new(),
                clock: SimTime::ZERO,
                gvt: 0.0,
                // Seed the GVT ring at LP 0; the seed visit (round 0)
                // only folds and forwards, round 1 starts circulating.
                token: (me == 0).then_some(Token {
                    round: 0,
                    min: f64::INFINITY,
                    outstanding: 0,
                    gvt: 0.0,
                }),
                stop: false,
                sent_delta: 0,
                recv_delta: 0,
                min_sent: f64::INFINITY,
                txs,
                rx,
                stats: TwStats::default(),
                cfg,
                t_end,
            };
            engine
                .port
                .initial(&mut engine.lp, &mut engine.seq, &mut engine.local);
            engine.flush_staged();
            engine.run()
        });
    (TwReport { lps, stats }, tracers, tels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpCtx;
    use crate::sequential::run_sequential;

    /// Ring token-passer with an optimistic twist: the declared lookahead
    /// is ignored by Time Warp, so `delay` may be anything positive.
    #[derive(Clone)]
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

    impl SaveState for RingNode {
        type Saved = (u64, f64);
        fn save(&self) -> (u64, f64) {
            (self.hops_seen, self.last_time)
        }
        fn restore(&mut self, saved: (u64, f64)) {
            self.hops_seen = saved.0;
            self.last_time = saved.1;
        }
    }

    fn ring_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    fn ring(n: usize, delay: f64) -> Vec<RingNode> {
        (0..n)
            .map(|_| RingNode {
                n,
                hops_seen: 0,
                last_time: 0.0,
                delay,
            })
            .collect()
    }

    #[test]
    fn ring_token_count_matches_analytic() {
        let report = run_timewarp(ring(4, 1.0), &ring_edges(4), SimTime::new(100.0));
        assert_eq!(report.total_events(), 101);
        assert_eq!(report.lps[0].hops_seen, 26);
        assert_eq!(report.lps[1].hops_seen, 25);
    }

    #[test]
    fn matches_sequential_state_exactly() {
        let seq = run_sequential(ring(5, 0.7), &ring_edges(5), SimTime::new(50.0));
        let tw = run_timewarp(ring(5, 0.7), &ring_edges(5), SimTime::new(50.0));
        assert_eq!(seq.total_events(), tw.total_events());
        for i in 0..5 {
            assert_eq!(seq.lps[i].hops_seen, tw.lps[i].hops_seen);
            assert_eq!(
                seq.lps[i].last_time.to_bits(),
                tw.lps[i].last_time.to_bits(),
                "LP {i} final time diverged"
            );
            assert_eq!(seq.events[i], tw.stats[i].committed);
        }
    }

    #[test]
    fn accounting_balances() {
        let report = run_timewarp(ring(4, 1.0), &ring_edges(4), SimTime::new(200.0));
        assert_eq!(
            report.total_events(),
            report.total_processed() - report.total_rolled_back(),
            "committed must equal processed minus rolled back"
        );
        assert!(report.efficiency() <= 1.0);
    }

    #[test]
    fn bounded_window_stays_bit_identical() {
        let pure = run_timewarp(ring(4, 1.0), &ring_edges(4), SimTime::new(100.0));
        for w in [0.0, 0.5, 2.0, 10.0] {
            let bounded = run_timewarp_cfg(
                ring(4, 1.0),
                &ring_edges(4),
                SimTime::new(100.0),
                TwConfig { window: w },
            );
            assert_eq!(pure.total_events(), bounded.total_events(), "w={w}");
            for i in 0..4 {
                assert_eq!(pure.lps[i].hops_seen, bounded.lps[i].hops_seen, "w={w}");
                assert_eq!(
                    pure.lps[i].last_time.to_bits(),
                    bounded.lps[i].last_time.to_bits(),
                    "w={w}"
                );
            }
        }
    }

    #[test]
    fn single_lp_no_events_terminates() {
        #[derive(Clone)]
        struct Idle;
        impl LogicalProcess for Idle {
            type Msg = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut LpCtx<'_, ()>) {}
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        impl InitialEvents for Idle {
            fn initial_events(&mut self, _: &mut LpCtx<'_, ()>) {}
        }
        impl SaveState for Idle {
            type Saved = ();
            fn save(&self) {}
            fn restore(&mut self, _: ()) {}
        }
        let report = run_timewarp(vec![Idle], &[], SimTime::new(10.0));
        assert_eq!(report.total_events(), 0);
    }

    #[test]
    fn single_lp_self_schedules() {
        #[derive(Clone)]
        struct Counter {
            count: u64,
        }
        impl LogicalProcess for Counter {
            type Msg = ();
            fn handle(&mut self, _now: SimTime, _m: (), ctx: &mut LpCtx<'_, ()>) {
                self.count += 1;
                ctx.schedule_in(1.0, ());
            }
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        impl InitialEvents for Counter {
            fn initial_events(&mut self, ctx: &mut LpCtx<'_, ()>) {
                ctx.schedule_in(0.0, ());
            }
        }
        impl SaveState for Counter {
            type Saved = u64;
            fn save(&self) -> u64 {
                self.count
            }
            fn restore(&mut self, saved: u64) {
                self.count = saved;
            }
        }
        let report = run_timewarp(vec![Counter { count: 0 }], &[], SimTime::new(100.0));
        assert_eq!(report.lps[0].count, 101);
        assert_eq!(report.total_events(), 101);
    }

    /// A two-LP workload engineered to force rollbacks: LP 1 busy-works
    /// through a dense local schedule while LP 0 occasionally sends it
    /// low-latency messages, which arrive as stragglers once LP 1 has
    /// optimistically run ahead.
    #[derive(Clone)]
    struct Strag {
        acc: u64,
        dense: bool,
        until: f64,
    }
    impl LogicalProcess for Strag {
        type Msg = u64;
        fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
            self.acc = self
                .acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(v ^ now.seconds().to_bits());
            if self.dense {
                if now.seconds() + 0.1 <= self.until {
                    ctx.schedule_in(0.1, v.wrapping_add(1));
                }
            } else if now.seconds() + 1.0 <= self.until {
                ctx.schedule_in(1.0, v.wrapping_add(3));
                // far below the declared lookahead: CMB would assert,
                // Time Warp rolls back and repairs
                ctx.send(1, 0.05, self.acc & 0xffff);
            }
        }
        fn lookahead(&self) -> f64 {
            1.0
        }
    }
    impl InitialEvents for Strag {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            ctx.schedule_in(0.0, ctx.me() as u64);
        }
    }
    impl SaveState for Strag {
        type Saved = u64;
        fn save(&self) -> u64 {
            self.acc
        }
        fn restore(&mut self, saved: u64) {
            self.acc = saved;
        }
    }

    #[test]
    fn forced_stragglers_match_sequential() {
        let mk = || {
            vec![
                Strag {
                    acc: 1,
                    dense: false,
                    until: 40.0,
                },
                Strag {
                    acc: 2,
                    dense: true,
                    until: 40.0,
                },
            ]
        };
        let edges = [(0usize, 1usize)];
        let seq = run_sequential(mk(), &edges, SimTime::new(40.0));
        let tw = run_timewarp(mk(), &edges, SimTime::new(40.0));
        assert_eq!(seq.total_events(), tw.total_events());
        assert_eq!(seq.lps[0].acc, tw.lps[0].acc);
        assert_eq!(seq.lps[1].acc, tw.lps[1].acc);
    }

    #[test]
    fn traced_run_is_bit_identical_and_commits_each_span_once() {
        let plain = run_timewarp(ring(4, 1.0), &ring_edges(4), SimTime::new(100.0));
        let (traced, trace) = run_timewarp_traced(
            ring(4, 1.0),
            &ring_edges(4),
            SimTime::new(100.0),
            TraceConfig::default(),
        );
        assert_eq!(plain.total_events(), traced.total_events());
        for i in 0..4 {
            assert_eq!(plain.lps[i].hops_seen, traced.lps[i].hops_seen);
            assert_eq!(
                plain.lps[i].last_time.to_bits(),
                traced.lps[i].last_time.to_bits()
            );
        }
        // exactly one span per committed event — rolled-back executions
        // must never leak into the trace
        assert_eq!(trace.len() as u64, traced.total_events());
        assert!(trace.spans.windows(2).all(|w| w[0].vt <= w[1].vt));
        let path = trace.critical_path();
        assert!(path.complete);
        assert_eq!(path.steps.len() as u64, traced.total_events());
    }

    #[test]
    fn export_metrics_reports_counters() {
        let report = run_timewarp(ring(3, 1.0), &ring_edges(3), SimTime::new(30.0));
        let mut reg = Registry::new();
        report.export_metrics(&mut reg);
        assert_eq!(reg.counter("tw.committed"), report.total_events());
        assert_eq!(reg.counter("tw.processed"), report.total_processed());
        assert_eq!(
            reg.counter("tw.token_visits"),
            report.stats.iter().map(|s| s.token_visits).sum::<u64>()
        );
        assert_eq!(reg.counter("tw.lp.0.rollbacks"), report.stats[0].rollbacks);
    }

    #[test]
    fn telemetry_run_matches_plain_and_counts_rollbacks() {
        let mk = || {
            vec![
                Strag {
                    acc: 1,
                    dense: false,
                    until: 40.0,
                },
                Strag {
                    acc: 2,
                    dense: true,
                    until: 40.0,
                },
            ]
        };
        let edges = [(0usize, 1usize)];
        let plain = run_timewarp(mk(), &edges, SimTime::new(40.0));
        let (telr, tel) = run_timewarp_telemetry(
            mk(),
            &edges,
            SimTime::new(40.0),
            TwConfig::default(),
            TelemetryConfig::new().every_events(16),
        );
        assert_eq!(plain.total_events(), telr.total_events());
        assert_eq!(plain.lps[0].acc, telr.lps[0].acc);
        assert_eq!(plain.lps[1].acc, telr.lps[1].acc);
        // telemetry counters agree with the engine's own stats (this run's
        // stats, not the plain run's — rollback counts are timing-dependent)
        assert_eq!(tel.counter("tw.rollbacks"), telr.total_rollbacks());
        assert_eq!(tel.counter("tw.rolled_back"), telr.total_rolled_back());
        assert_eq!(tel.counter("tw.antis"), telr.total_antis());
        assert_eq!(
            tel.counter("tw.annihilated"),
            telr.stats.iter().map(|s| s.annihilated).sum::<u64>()
        );
        // anti-messages can only come from rollback-cancelled sends
        assert!(
            tel.counter("tw.antis") <= tel.counter("tw.rolled_back") + tel.counter("tw.rollbacks")
        );
        assert_eq!(tel.events(), telr.total_processed());
    }
}
