//! Flow-level (fluid) network model with max-min fair bandwidth sharing.
//!
//! Each transfer is a fluid flow along its routed path; concurrent flows
//! share link bandwidth max-min fairly, recomputed on every arrival and
//! departure. This is the granularity OptorSim- and SimGrid-class
//! simulators use: cheap ("it can model only the flows of packets going
//! from one end to another") at the price of ignoring per-packet effects —
//! the other side of the E13 trade-off.
//!
//! # Incremental sharing
//!
//! Resharing is *incremental* by default ([`ShareMode::Incremental`]):
//! when a flow arrives, departs, reroutes, or a link's capacity changes,
//! only the connected component of the link↔flow bipartite graph that is
//! actually coupled to the change is recomputed (dirty-set propagation
//! from the affected links). Flows in untouched components keep their
//! rates, their progress bookkeeping, and their completion predictions;
//! each component keeps one pending `Complete` event, for its
//! earliest-finishing flow. Because the max-min progressive-filling
//! arithmetic of one component never reads another component's links, the
//! incremental result is bit-identical to a full recompute
//! ([`ShareMode::Full`]) — `tests/share_equivalence.rs` runs both side by
//! side on seeded random workloads (including faults) and asserts
//! identical trajectories. See DESIGN.md §"Incremental flow-level
//! sharing" for the invariant.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::fault::LinkFault;
use crate::routing::{RouteCache, Routing};
use crate::topology::{LinkId, NodeId, Topology};
use lsds_core::{IdMap, Schedule, SimTime, Slab};
use lsds_obs::Registry;
use std::cell::RefCell;
use std::fmt;

/// Identifier of a flow within a [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId(pub u64);

/// How [`FlowNet`] recomputes the max-min fair allocation after a change.
///
/// Both modes produce bit-identical trajectories (allocations, completion
/// timestamps, event order); `Full` exists as the self-checking reference
/// the equivalence property tests compare against, and as a diagnostic
/// fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShareMode {
    /// Recompute every component's allocation from scratch on each change,
    /// then apply only the rates that differ. O(L·min(F,L)) per change.
    Full,
    /// Recompute only the connected component(s) of links coupled to the
    /// changed flow (dirty-set propagation). Cost scales with the touched
    /// component, not the whole network.
    #[default]
    Incremental,
}

/// Events the flow model schedules for itself. Embed these in the owning
/// model's event type and route them back to [`FlowNet::handle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEvent {
    /// The flow's first byte reaches the path after propagation latency.
    Begin {
        /// Raw id of the starting flow.
        flow: u64,
    },
    /// Predicted completion of the earliest-finishing flow of its
    /// connected component: each component keeps exactly one such event
    /// valid, re-armed whenever a reshare of the component changes which
    /// flow finishes first or when. Stale generations are ignored.
    ///
    /// A flow predicted in one reshare but armed in a later one runs after
    /// any event for the same instant scheduled in between (an exact float
    /// tie with another component's completion, or a non-`FlowNet` event).
    Complete {
        /// Raw id of the completing flow.
        flow: u64,
        /// Rate-share generation this prediction was made under.
        gen: u64,
    },
}

impl FlowEvent {
    /// Classifies this event for the tracing layer, tagging the span with
    /// the flow id so trace tooling can follow one transfer end to end.
    pub fn span_kind(&self) -> lsds_obs::SpanKind {
        match self {
            FlowEvent::Begin { flow } => lsds_obs::SpanKind::tagged("net.flow_begin", *flow),
            FlowEvent::Complete { flow, .. } => {
                lsds_obs::SpanKind::tagged("net.flow_complete", *flow)
            }
        }
    }
}

/// Completion record returned to the owner.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDone {
    /// The finished flow.
    pub id: FlowId,
    /// Owner-supplied tag (job id, file id …).
    pub tag: u64,
    /// Bytes transferred.
    pub bytes: f64,
    /// When the transfer was requested.
    pub requested: SimTime,
    /// When the last byte arrived.
    pub finished: SimTime,
}

/// Error returned by [`FlowNet::try_start`] when no usable route exists
/// from `src` to `dst` (possible in any topology once links can fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRoute {
    /// Transfer source.
    pub src: NodeId,
    /// Unreachable destination.
    pub dst: NodeId,
}

impl fmt::Display for NoRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no route {:?} -> {:?}", self.src, self.dst)
    }
}

impl std::error::Error for NoRoute {}

/// Record of a flow torn down before completion — by [`FlowNet::cancel`]
/// or because a link failure left it with no usable route.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAborted {
    /// The aborted flow.
    pub id: FlowId,
    /// Owner-supplied tag.
    pub tag: u64,
    /// Requested transfer size in bytes.
    pub bytes: f64,
    /// Bytes actually carried before the abort (lost; a retry restarts
    /// from zero, matching FTP-style whole-file transfer semantics).
    pub transferred: f64,
    /// When the transfer was requested.
    pub requested: SimTime,
}

/// What a [`FlowNet::apply_fault`] call did to in-flight traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultOutcome {
    /// Flows that had no surviving route and were torn down. The owner
    /// decides whether to retry them (see `RetryPolicy`).
    pub aborted: Vec<FlowAborted>,
    /// Flows moved onto a detour path, keeping their progress.
    pub rerouted: u64,
}

struct Flow {
    /// The flow's public monotone id (the key events and orderings use).
    id: u64,
    src: NodeId,
    dst: NodeId,
    path: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    last_update: SimTime,
    gen: u64,
    /// Predicted completion under the current rate, with the order number
    /// of that prediction: two predictions for one instant order the way
    /// their `Complete` events would if both were scheduled when made.
    /// Meaningless while `gen` is 0 (never rated).
    due: (SimTime, u64),
    /// Whether the current prediction's `Complete` is pending; cleared
    /// whenever a rate change makes a new prediction.
    armed: bool,
    tag: u64,
    requested: SimTime,
    active: bool,
    bytes: f64,
}

/// Reusable per-reshare working memory, held by [`FlowNet`] so the hot
/// path allocates nothing in steady state. Link-indexed vectors are
/// epoch-stamped instead of cleared: a slot is valid only when its stamp
/// equals the current epoch.
#[derive(Debug, Default)]
struct Scratch {
    /// Monotone reshare epoch; bumping it invalidates all stamps at once.
    epoch: u64,
    /// Per-link: equals `epoch` when the link was queued by the current
    /// component search (or staged by the current fault re-index).
    link_stamp: Vec<u64>,
    /// Component links, by link index; read off in ascending order.
    link_bits: IndexBits,
    /// Component flows the current fill has not fixed yet, by flow id.
    flow_bits: IndexBits,
    /// Per-link: the link's position in `comp_links` during a fill (its
    /// position in `relinks` during a fault re-index).
    link_pos: Vec<u32>,
    /// Per flow slot: the rate the current fill assigned (applied only if
    /// it differs).
    rate: Vec<f64>,
    /// Per flow slot: which connected piece of the current scope the flow
    /// is in, numbered from 0 in search order.
    piece: Vec<u32>,
    /// Connected pieces in the current scope.
    pieces: u32,
    /// Per piece: its earliest prediction and that flow's slot (`None`
    /// while none of its flows has been rated).
    earliest: Vec<Option<((SimTime, u64), u32)>>,
    /// Per component link, by position in `comp_links`: residual capacity
    /// during progressive filling.
    cap: Vec<f64>,
    /// Per component link: flows not yet fixed.
    nflows: Vec<usize>,
    /// Per component link: `cap / nflows`, recomputed whenever fixing a
    /// flow changes either operand; `∞` once `nflows` is 0.
    share: Vec<f64>,
    /// Ascending positions whose share was the least when last scanned.
    tied: Vec<usize>,
    /// Per component link: how many flows the current round fixes on it
    /// (0 outside the round).
    fixing: Vec<u32>,
    /// Component links the current round fixes flows on.
    dirty: Vec<usize>,
    /// Links of the component(s) being reshared, ascending index.
    comp_links: Vec<usize>,
    /// Active flows of the component(s) being reshared, ascending id.
    comp_flows: Vec<u64>,
    /// Flows fixed by the current bottleneck (fill inner batch).
    batch: Vec<u64>,
    /// Dirty links seeding the next reshare's component search.
    seeds: Vec<usize>,
    /// Links whose cached load changed during the current event.
    changed_links: Vec<usize>,
    /// BFS worklist over the link↔flow bipartite graph.
    queue: Vec<usize>,
    /// Fault re-index: links whose flow lists change, first-touch order.
    relinks: Vec<usize>,
    /// Fault re-index, per entry of `relinks`: the list's length as the
    /// staged edits so far leave it.
    relen: Vec<usize>,
    /// Fault re-index: staged `(relinks position, edit)` list edits in the
    /// order the flows were processed; an edit is `id << 1 | insert`.
    reops: Vec<(u32, u64)>,
    /// Fault re-index: the edits grouped by link (counting sort), each
    /// link's still in processing order.
    regrouped: Vec<u64>,
    /// Fault re-index: where each link's edits start in `regrouped`; one
    /// more entry closes the last link's.
    restart: Vec<usize>,
    /// Fault re-index: merge output for the list being rebuilt.
    merged: Vec<u64>,
    /// `LinkFault::Down`: ids of the flows crossing the failed link,
    /// ascending.
    crossing: Vec<u64>,
    /// Every flow the fill fixed, in fix order, with its bottleneck link
    /// and share bits (the differential test compares these).
    #[cfg(test)]
    trace: Vec<(usize, u64, u64)>,
}

/// A bitset over a dense index space that remembers the span of words
/// set since its members were last read out or cleared, so reading them
/// out in ascending order scans that span only: how `reshare` orders a
/// component without sorting it.
#[derive(Debug)]
struct IndexBits {
    words: Vec<u64>,
    /// Lowest and highest word set since the span was last forgotten
    /// (`lo > hi`: none).
    lo: usize,
    hi: usize,
}

impl Default for IndexBits {
    fn default() -> Self {
        IndexBits {
            words: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl IndexBits {
    /// Makes room for indices `< n`.
    fn grow(&mut self, n: usize) {
        let need = n.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Sets bit `i`; `false` if it was already set.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
        true
    }

    /// Clears bit `i`; `false` if it was not set.
    #[inline]
    fn remove(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        was
    }

    /// Hands every member to `emit` in ascending order and forgets the
    /// span (the members stay).
    fn read_ascending(&mut self, mut emit: impl FnMut(usize)) {
        for w in self.lo..=self.hi {
            let mut bits = self.words[w];
            while bits != 0 {
                emit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Removes the listed members (the only ones set) and forgets the
    /// span, without scanning it.
    fn clear_listed(&mut self, members: impl IntoIterator<Item = usize>) {
        for i in members {
            self.remove(i);
        }
        self.lo = usize::MAX;
        self.hi = 0;
    }
}

/// Collects into `out`, ascending, every position holding the least
/// value of `xs`, and returns that value (`∞` with `out` empty when every
/// value is `∞`; values are never NaN). The minimum is taken over
/// independent lanes, which the compiler vectorizes.
fn least_positions(xs: &[f64], out: &mut Vec<usize>) -> f64 {
    const LANES: usize = 8;
    let mut lanes = [f64::INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            if x < *m {
                *m = x;
            }
        }
    }
    let mut least = f64::INFINITY;
    for &x in lanes.iter().chain(chunks.remainder()) {
        if x < least {
            least = x;
        }
    }
    out.clear();
    if least < f64::INFINITY {
        #[expect(
            clippy::float_cmp,
            reason = "exact tie: `least` is one of the values of `xs`, computed once and compared unchanged"
        )]
        out.extend((0..xs.len()).filter(|&p| xs[p] == least));
    }
    least
}

/// Optional MonALISA-style monitoring attached to a [`FlowNet`]: per-link
/// time-weighted utilization series plus transfer latency/size summaries.
/// `None` by default, so an unmonitored network does zero extra work.
struct NetMonitor {
    reg: Registry,
    /// Precomputed series key per link (`net.link.<from>-><to>.utilization`).
    link_keys: Vec<String>,
    /// Precomputed series key per link (`net.link.<from>-><to>.up`).
    up_keys: Vec<String>,
}

/// The fluid network state. Owns no clock; it is driven by an engine
/// through [`lsds_core::Schedule`].
pub struct FlowNet {
    topo: Topology,
    routing: Routing,
    /// Flow storage: a free-list arena indexed by `u32` slot. Events and
    /// all deterministic orderings keep using the monotone `u64` flow id;
    /// `fmap` turns an id into its slot with one array index — no hashing
    /// on the event path.
    flows: Slab<Flow>,
    /// Direct-indexed id → slot map (ids are issued densely from 0).
    fmap: IdMap,
    /// Retired path `Vec`s, reused by new flows so steady-state transfer
    /// starts allocate nothing; at most one per flow slot.
    spare_paths: Vec<Vec<LinkId>>,
    next_id: u64,
    /// Cumulative bytes carried per link. Progress is charged lazily: a
    /// flow's carried bytes are posted whenever its rate changes, it
    /// reroutes, or it leaves the system — not on every event.
    link_bytes: Vec<f64>,
    completed: u64,
    /// Dynamic link state: `false` while a link is down (fault-injected).
    link_up: Vec<bool>,
    /// Bandwidth multiplier per link (`1.0` = nominal service).
    degrade: Vec<f64>,
    /// Accumulated downtime per link over closed down intervals (seconds).
    downtime: Vec<f64>,
    /// Start of the current down interval, if the link is down now.
    down_since: Vec<Option<f64>>,
    aborted: u64,
    rerouted: u64,
    faults_applied: u64,
    monitor: Option<NetMonitor>,
    sharing: ShareMode,
    /// Memoized shortest paths over the current routing tables; behind a
    /// `RefCell` so read-side consumers (`&self`) share the memo.
    route_cache: RefCell<RouteCache>,
    /// Per-link ascending ids of the *active* flows crossing it — the
    /// link→flow half of the bipartite graph the dirty-set search walks.
    link_flows: Vec<Vec<u64>>,
    /// Cached Σ of active-flow rates per link, maintained at each rate
    /// change so load/utilization queries are O(1).
    load: Vec<f64>,
    scratch: Scratch,
    reshare_count: u64,
    links_touched: u64,
    flows_touched: u64,
    /// `Complete` events dropped because a later reshare superseded them
    /// or their flow is gone.
    stale_completions: u64,
    /// Completion predictions made so far: the next one's order number.
    predictions: u64,
}

impl FlowNet {
    /// Builds a flow network over a topology (routes are computed here).
    pub fn new(topo: Topology) -> Self {
        let routing = Routing::compute(&topo);
        let n_links = topo.link_count();
        FlowNet {
            topo,
            routing,
            flows: Slab::new(),
            fmap: IdMap::new(),
            spare_paths: Vec::new(),
            next_id: 0,
            link_bytes: vec![0.0; n_links],
            completed: 0,
            link_up: vec![true; n_links],
            degrade: vec![1.0; n_links],
            downtime: vec![0.0; n_links],
            down_since: vec![None; n_links],
            aborted: 0,
            rerouted: 0,
            faults_applied: 0,
            monitor: None,
            sharing: ShareMode::default(),
            route_cache: RefCell::new(RouteCache::new()),
            link_flows: vec![Vec::new(); n_links],
            load: vec![0.0; n_links],
            scratch: Scratch {
                link_stamp: vec![0; n_links],
                link_pos: vec![0; n_links],
                link_bits: {
                    let mut bits = IndexBits::default();
                    bits.grow(n_links);
                    bits
                },
                ..Scratch::default()
            },
            reshare_count: 0,
            links_touched: 0,
            flows_touched: 0,
            stale_completions: 0,
            predictions: 0,
        }
    }

    /// Selects how reshares are computed. [`ShareMode::Incremental`] is
    /// the default; [`ShareMode::Full`] is the bit-identical reference.
    pub fn set_share_mode(&mut self, mode: ShareMode) {
        self.sharing = mode;
    }

    /// The active [`ShareMode`].
    pub fn share_mode(&self) -> ShareMode {
        self.sharing
    }

    /// Enables or disables the pairwise route cache (enabled by default).
    /// Cache-off runs are bit-identical to cache-on runs; the toggle
    /// exists for the equivalence tests and for memory-constrained runs.
    pub fn set_route_cache(&mut self, enabled: bool) {
        self.route_cache.borrow_mut().set_enabled(enabled);
    }

    /// `(hits, misses)` of the pairwise route cache.
    pub fn route_cache_stats(&self) -> (u64, u64) {
        let rc = self.route_cache.borrow();
        (rc.hits(), rc.misses())
    }

    /// How many times the fair-share allocation was recomputed.
    pub fn reshare_count(&self) -> u64 {
        self.reshare_count
    }

    /// Cumulative links visited by reshares (component scope metric).
    pub fn links_touched(&self) -> u64 {
        self.links_touched
    }

    /// Cumulative active flows visited by reshares (component scope
    /// metric; under [`ShareMode::Full`] every reshare counts them all).
    pub fn flows_touched(&self) -> u64 {
        self.flows_touched
    }

    /// Turns on monitoring: per-link utilization series and transfer
    /// summaries accumulate in an internal [`Registry`] from this point on.
    /// Monitoring only ever *reads* simulation state, so a monitored run's
    /// event trajectory is identical to an unmonitored one.
    pub fn enable_monitor(&mut self) {
        let key = |i: usize, what: &str| {
            let l = self.topo.link(LinkId(i));
            format!(
                "net.link.{}->{}.{what}",
                self.topo.node(l.from).name,
                self.topo.node(l.to).name
            )
        };
        let link_keys = (0..self.topo.link_count())
            .map(|i| key(i, "utilization"))
            .collect();
        let up_keys = (0..self.topo.link_count()).map(|i| key(i, "up")).collect();
        self.monitor = Some(NetMonitor {
            reg: Registry::new(),
            link_keys,
            up_keys,
        });
    }

    /// The monitoring registry, if monitoring is enabled.
    pub fn monitor(&self) -> Option<&Registry> {
        self.monitor.as_ref().map(|m| &m.reg)
    }

    /// Merges the accumulated network metrics into `reg` (cumulative
    /// per-link byte gauges are always available; utilization series and
    /// transfer summaries require [`FlowNet::enable_monitor`]).
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("net.transfers_completed", self.completed);
        reg.inc("net.flows_aborted", self.aborted);
        reg.inc("net.flows_rerouted", self.rerouted);
        reg.inc("net.link_faults", self.faults_applied);
        reg.inc("net.reshare_count", self.reshare_count);
        reg.inc("net.stale_completions", self.stale_completions);
        reg.inc("net.links_touched", self.links_touched);
        reg.inc("net.flows_touched", self.flows_touched);
        let (hits, misses) = self.route_cache_stats();
        reg.inc("net.route_cache_hits", hits);
        reg.inc("net.route_cache_misses", misses);
        reg.set_gauge("net.flows_in_flight", self.flows.len() as f64);
        for i in 0..self.topo.link_count() {
            let l = self.topo.link(LinkId(i));
            let name = format!(
                "net.link.{}->{}",
                self.topo.node(l.from).name,
                self.topo.node(l.to).name
            );
            reg.set_gauge(&format!("{name}.bytes"), self.link_bytes[i]);
            // closed down intervals only; an interval still open at export
            // time is visible through the `.up` series instead
            if self.downtime[i] > 0.0 || self.down_since[i].is_some() {
                reg.set_gauge(&format!("{name}.downtime"), self.downtime[i]);
            }
        }
        if let Some(mon) = &self.monitor {
            reg.merge(mon.reg.clone());
        }
    }

    /// Records the utilization of every link whose load changed during
    /// the current event into the monitor's series, then clears the
    /// change list. No-op (beyond the clear) when monitoring is off.
    fn record_utilization(&mut self, now: SimTime) {
        if self.monitor.is_none() {
            self.scratch.changed_links.clear();
            return;
        }
        self.scratch.changed_links.sort_unstable();
        self.scratch.changed_links.dedup();
        let Some(mon) = self.monitor.as_mut() else {
            return;
        };
        for &li in &self.scratch.changed_links {
            let util = self.load[li] / self.topo.link(LinkId(li)).bandwidth;
            mon.reg
                .series_update(&mon.link_keys[li], now.seconds(), util);
        }
        self.scratch.changed_links.clear();
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing tables.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// The link path from `src` to `dst` under the current routing state,
    /// served from the pairwise route cache (the cache is invalidated
    /// whenever a fault changes the routing tables).
    pub fn cached_path(&self, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        self.route_cache
            .borrow_mut()
            .path(&self.routing, &self.topo, src, dst)
    }

    /// Propagation latency along the current route, served from the route
    /// cache. `None` when `dst` is unreachable from `src`.
    pub fn path_latency(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let mut cache = self.route_cache.borrow_mut();
        let p = cache.path_slice(&self.routing, &self.topo, src, dst)?;
        Some(p.iter().map(|&l| self.topo.link(l).latency).sum())
    }

    /// Starts a transfer of `bytes` from `src` to `dst`. The flow begins
    /// consuming bandwidth after the path's propagation latency. `tag` is
    /// returned in the [`FlowDone`] record.
    ///
    /// Panics if `dst` is unreachable from `src`; on a network with
    /// injected faults use [`FlowNet::try_start`], since unreachability is
    /// a normal transient condition there.
    #[expect(
        clippy::panic,
        reason = "start() is the documented panicking wrapper; fault-tolerant callers use try_start()"
    )]
    pub fn start(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: u64,
        sched: &mut impl Schedule<FlowEvent>,
    ) -> FlowId {
        self.try_start(src, dst, bytes, tag, sched)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`FlowNet::start`]: returns [`NoRoute`] instead of
    /// panicking when `dst` is currently unreachable from `src` (routes
    /// exclude links that are down).
    pub fn try_start(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: u64,
        sched: &mut impl Schedule<FlowEvent>,
    ) -> Result<FlowId, NoRoute> {
        assert!(bytes > 0.0 && bytes.is_finite(), "bad transfer size");
        // reuse a retired flow's path buffer: a cache hit fills it with one
        // memcpy, so the steady-state start path performs zero allocations
        let mut path = self.spare_paths.pop().unwrap_or_default();
        let routed =
            self.route_cache
                .borrow_mut()
                .path_into(&self.routing, &self.topo, src, dst, &mut path);
        if !routed {
            self.recycle_path(path);
            return Err(NoRoute { src, dst });
        }
        assert!(!path.is_empty(), "src == dst transfer needs no network");
        let latency: f64 = path.iter().map(|&l| self.topo.link(l).latency).sum();
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.flows.insert(Flow {
            id,
            src,
            dst,
            path,
            remaining: bytes,
            rate: 0.0,
            last_update: sched.now(),
            gen: 0,
            due: (SimTime::ZERO, 0),
            armed: false,
            tag,
            requested: sched.now(),
            active: false,
            bytes,
        });
        self.fmap.bind(id, slot);
        sched.schedule_in(latency, FlowEvent::Begin { flow: id });
        Ok(FlowId(id))
    }

    /// Tears down an in-flight flow (its pending events become no-ops) and
    /// reshares bandwidth. Returns `None` if the flow no longer exists.
    pub fn cancel(
        &mut self,
        id: FlowId,
        sched: &mut impl Schedule<FlowEvent>,
    ) -> Option<FlowAborted> {
        self.fmap.get(id.0)?;
        let now = sched.now();
        self.advance_one(id.0, now);
        let was_active = self
            .fmap
            .get(id.0)
            .and_then(|s| self.flows.get(s))
            .is_some_and(|f| f.active);
        self.unindex(id.0);
        let Some(mut f) = self.remove_flow(id.0) else {
            debug_assert!(false, "flow vanished between lookup and remove");
            return None;
        };
        self.aborted += 1;
        let rec = FlowAborted {
            id,
            tag: f.tag,
            bytes: f.bytes,
            transferred: f.bytes - f.remaining,
            requested: f.requested,
        };
        if was_active {
            for &l in &f.path {
                self.scratch.seeds.push(l.0);
            }
        }
        self.recycle_path(std::mem::take(&mut f.path));
        self.reshare(now, sched);
        self.record_utilization(now);
        Some(rec)
    }

    /// Applies a link fault at the current simulated time.
    ///
    /// * [`LinkFault::Down`] — the link is removed from routing; flows
    ///   crossing it are moved to a surviving route (keeping their
    ///   progress) or torn down and reported in the [`FaultOutcome`] when
    ///   no route survives. Flows still in their latency phase keep their
    ///   originally scheduled begin time even if re-routed.
    /// * [`LinkFault::Up`] — the link rejoins routing for *new* flows;
    ///   flows already re-routed keep their detour (transfers do not flap
    ///   back mid-flight).
    /// * [`LinkFault::Degrade`] — the link's usable capacity becomes
    ///   `factor ×` nominal for the max-min fair share from now on.
    ///
    /// Call this from the owning model's event handler so same-seed runs
    /// replay faults identically.
    pub fn apply_fault(
        &mut self,
        fault: LinkFault,
        sched: &mut impl Schedule<FlowEvent>,
    ) -> FaultOutcome {
        let now = sched.now();
        self.faults_applied += 1;
        let mut outcome = FaultOutcome::default();
        match fault {
            LinkFault::Down(l) => {
                if self.link_up[l.0] {
                    self.link_up[l.0] = false;
                    self.down_since[l.0] = Some(now.seconds());
                    self.routing = Routing::compute_filtered(&self.topo, &self.link_up);
                    self.route_cache.borrow_mut().invalidate();
                    // sorted ids: abort/reroute order must be
                    // deterministic (the slot-order slab scan feeds a sort)
                    let mut hit = std::mem::take(&mut self.scratch.crossing);
                    hit.clear();
                    self.flows.for_each(|_, f| {
                        if f.path.contains(&l) {
                            hit.push(f.id);
                        }
                    });
                    hit.sort_unstable();
                    // the lists are edited once per link at the end
                    // (`commit_reindex`); the load cache is updated now,
                    // flow by flow and hop by hop, exactly as `unindex`
                    // and `index` would
                    self.scratch.epoch += 1;
                    for &id in &hit {
                        let Some((slot, f)) = self
                            .fmap
                            .get(id)
                            .and_then(|slot| Some((slot, self.flows.get(slot)?)))
                        else {
                            debug_assert!(false, "hit-list flow vanished");
                            continue;
                        };
                        let (src, dst, was_active) = (f.src, f.dst, f.active);
                        // the cache was just invalidated: the first flow
                        // of each (src, dst) pair misses, the rest hit
                        let mut detour = self.spare_paths.pop().unwrap_or_default();
                        let routed = self.route_cache.borrow_mut().path_into(
                            &self.routing,
                            &self.topo,
                            src,
                            dst,
                            &mut detour,
                        );
                        self.advance_one(id, now);
                        let Some(f) = self.flows.get_mut(slot) else {
                            debug_assert!(false, "hit-list flow vanished");
                            continue;
                        };
                        let rate = f.rate;
                        let old = std::mem::take(&mut f.path);
                        // a hop the detour keeps changes the load but
                        // not the list
                        if was_active {
                            for &ol in &old {
                                self.stage_unindex(ol.0, id, rate, detour.contains(&ol));
                            }
                        }
                        if routed && !detour.is_empty() {
                            for &ol in &old {
                                self.scratch.seeds.push(ol.0);
                            }
                            for &nl in &detour {
                                self.scratch.seeds.push(nl.0);
                                if was_active {
                                    self.stage_index(nl.0, id, rate, old.contains(&nl));
                                }
                            }
                            // the generation is *not* bumped: if the
                            // detour leaves the rate bit-identical the
                            // pending completion stays valid, exactly
                            // as the full recompute would conclude
                            if let Some(f) = self.flows.get_mut(slot) {
                                f.path = detour;
                            }
                            self.recycle_path(old);
                            self.rerouted += 1;
                            outcome.rerouted += 1;
                        } else {
                            self.recycle_path(detour);
                            let Some(f) = self.remove_flow(id) else {
                                debug_assert!(false, "hit-list flow vanished");
                                continue;
                            };
                            if was_active {
                                for &ol in &old {
                                    self.scratch.seeds.push(ol.0);
                                }
                            }
                            self.recycle_path(old);
                            self.aborted += 1;
                            outcome.aborted.push(FlowAborted {
                                id: FlowId(id),
                                tag: f.tag,
                                bytes: f.bytes,
                                transferred: f.bytes - f.remaining,
                                requested: f.requested,
                            });
                        }
                    }
                    self.scratch.crossing = hit;
                    self.commit_reindex();
                }
            }
            LinkFault::Up(l) => {
                if !self.link_up[l.0] {
                    self.link_up[l.0] = true;
                    if let Some(t0) = self.down_since[l.0].take() {
                        self.downtime[l.0] += now.seconds() - t0;
                    }
                    self.routing = Routing::compute_filtered(&self.topo, &self.link_up);
                    self.route_cache.borrow_mut().invalidate();
                    // no active flow can cross a link that was down, so no
                    // allocation changes: the reshare below finds an empty
                    // dirty set (and the Full reference finds no diffs)
                }
            }
            LinkFault::Degrade { link, factor } => {
                assert!(factor.is_finite() && factor > 0.0, "bad degrade factor");
                self.degrade[link.0] = factor;
                self.scratch.seeds.push(link.0);
            }
        }
        self.reshare(now, sched);
        self.record_utilization(now);
        if let Some(mon) = self.monitor.as_mut() {
            let l = fault.link();
            let up = if self.link_up[l.0] { 1.0 } else { 0.0 };
            mon.reg.series_update(&mon.up_keys[l.0], now.seconds(), up);
        }
        outcome
    }

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.0]
    }

    /// Usable capacity of a link right now: nominal bandwidth times the
    /// degradation factor, or zero while the link is down.
    pub fn effective_bandwidth(&self, link: LinkId) -> f64 {
        if self.link_up[link.0] {
            self.topo.link(link).bandwidth * self.degrade[link.0]
        } else {
            0.0
        }
    }

    /// Total downtime of a link up to `now` (open interval included).
    pub fn link_downtime(&self, link: LinkId, now: SimTime) -> f64 {
        let open = self.down_since[link.0]
            .map(|t0| now.seconds() - t0)
            .unwrap_or(0.0);
        self.downtime[link.0] + open
    }

    /// Flows torn down (by faults or [`FlowNet::cancel`]).
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Flows moved to a detour path by link failures.
    pub fn rerouted(&self) -> u64 {
        self.rerouted
    }

    /// Number of flows currently in the system (including in latency phase).
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Completed flow count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cumulative bytes carried by a link. Progress is charged lazily (at
    /// each rate change, reroute, or departure of a flow), so while flows
    /// are still in flight this lags the fluid state by at most one
    /// constant-rate segment per flow; once the run drains it is exact.
    pub fn link_bytes(&self, link: LinkId) -> f64 {
        self.link_bytes[link.0]
    }

    /// Summed current rate of the active flows crossing a link, bytes/s.
    /// O(1): the value is maintained incrementally as rates change, and
    /// snapped to exactly `0.0` whenever the link's last flow leaves.
    pub fn link_load(&self, link: LinkId) -> f64 {
        self.load[link.0]
    }

    /// Instantaneous utilization of a link in `[0, 1]`. O(1) per query.
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        self.load[link.0] / self.topo.link(link).bandwidth
    }

    /// Handles a flow event, returning any completions.
    ///
    /// Convenience wrapper over [`FlowNet::handle_into`]; allocates a
    /// fresh `Vec` per completion. Hot callers (million-job drivers)
    /// should pass a reused buffer to `handle_into` instead.
    pub fn handle(&mut self, ev: FlowEvent, sched: &mut impl Schedule<FlowEvent>) -> Vec<FlowDone> {
        let mut out = Vec::new();
        self.handle_into(ev, sched, &mut out);
        out
    }

    /// Handles a flow event, pushing any completions into `out` (which is
    /// not cleared). Allocation-free in steady state when the caller
    /// recycles `out` across events.
    pub fn handle_into(
        &mut self,
        ev: FlowEvent,
        sched: &mut impl Schedule<FlowEvent>,
        out: &mut Vec<FlowDone>,
    ) {
        match ev {
            FlowEvent::Begin { flow } => {
                let now = sched.now();
                if let Some(slot) = self.fmap.get(flow) {
                    if let Some(f) = self.flows.get_mut(slot) {
                        f.active = true;
                        f.last_update = now;
                        // inline of `index(flow)`: a flow's rate is still
                        // zero at Begin (rates only change in `reshare`,
                        // which only touches active flows), so the load
                        // cache needs no update here
                        debug_assert!(f.rate.to_bits() == 0);
                        for &l in &f.path {
                            self.scratch.seeds.push(l.0);
                            let v = &mut self.link_flows[l.0];
                            match v.binary_search(&flow) {
                                Err(pos) => v.insert(pos, flow),
                                Ok(_) => debug_assert!(false, "flow already in link index"),
                            }
                        }
                    }
                    self.reshare(now, sched);
                    self.record_utilization(now);
                }
            }
            FlowEvent::Complete { flow, gen } => {
                let now = sched.now();
                let Some(slot) = self.fmap.get(flow) else {
                    self.stale_completions += 1;
                    return;
                };
                {
                    // single lookup: validate, then inline `advance_one`
                    // and `unindex` (same arithmetic, same order) while the
                    // flow is still borrowed
                    let Some(f) = self.flows.get_mut(slot) else {
                        self.stale_completions += 1;
                        return;
                    };
                    if f.gen != gen || !f.active {
                        self.stale_completions += 1;
                        return;
                    }
                    let dt = now - f.last_update;
                    if dt > 0.0 {
                        let moved = (f.rate * dt).min(f.remaining);
                        f.remaining -= moved;
                        for &l in &f.path {
                            self.link_bytes[l.0] += moved;
                        }
                        f.last_update = now;
                    }
                    let rate = f.rate;
                    for &l in &f.path {
                        let v = &mut self.link_flows[l.0];
                        if let Ok(pos) = v.binary_search(&flow) {
                            v.remove(pos);
                        } else {
                            debug_assert!(false, "active flow missing from link index");
                        }
                        self.load[l.0] -= rate;
                        if v.is_empty() {
                            self.load[l.0] = 0.0;
                        }
                        self.scratch.changed_links.push(l.0);
                    }
                }
                self.fmap.unbind(flow);
                let Some(mut f) = self.flows.remove(slot) else {
                    debug_assert!(false, "flow vanished after validation");
                    return;
                };
                debug_assert!(
                    f.remaining <= 1e-6 * f.bytes.max(1.0),
                    "completion with {} bytes left",
                    f.remaining
                );
                self.completed += 1;
                if let Some(mon) = self.monitor.as_mut() {
                    mon.reg.observe("net.transfer_latency", now - f.requested);
                    mon.reg.observe("net.transfer_bytes", f.bytes);
                }
                out.push(FlowDone {
                    id: FlowId(flow),
                    tag: f.tag,
                    bytes: f.bytes,
                    requested: f.requested,
                    finished: now,
                });
                for &l in &f.path {
                    self.scratch.seeds.push(l.0);
                }
                self.recycle_path(std::mem::take(&mut f.path));
                self.reshare(now, sched);
                self.record_utilization(now);
            }
        }
    }

    /// Keeps a retired path buffer for reuse while fewer are spare than
    /// flow slots exist: starts never need more buffers than peak
    /// concurrency, so reroutes cannot grow the pool without bound.
    fn recycle_path(&mut self, path: Vec<LinkId>) {
        if self.spare_paths.len() < self.flows.slot_bound() as usize {
            self.spare_paths.push(path);
        }
    }

    /// Unbinds a flow id and removes its slot, returning the flow.
    /// Callers hand `f.path` to `recycle_path` once done with it.
    fn remove_flow(&mut self, id: u64) -> Option<Flow> {
        let slot = self.fmap.unbind(id)?;
        self.flows.remove(slot)
    }

    /// Moves one flow's progress forward to `now` at its current rate,
    /// charging the carried bytes to its links. No-op for flows still in
    /// their latency phase. Called exactly when a flow's rate, path, or
    /// existence is about to change, so per-flow float arithmetic is a
    /// fixed function of its own rate-change history — the property the
    /// full/incremental bit-identity rests on.
    fn advance_one(&mut self, id: u64, now: SimTime) {
        let Some(f) = self.fmap.get(id).and_then(|s| self.flows.get_mut(s)) else {
            debug_assert!(false, "advance of a missing flow");
            return;
        };
        if !f.active {
            return;
        }
        let dt = now - f.last_update;
        if dt > 0.0 {
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            for &l in &f.path {
                self.link_bytes[l.0] += moved;
            }
            f.last_update = now;
        }
    }

    /// Removes an active flow from the per-link index and load cache,
    /// snapping a link's load to exactly zero when its last flow leaves.
    fn unindex(&mut self, id: u64) {
        let Some(f) = self.fmap.get(id).and_then(|s| self.flows.get(s)) else {
            debug_assert!(false, "unindexing a missing flow");
            return;
        };
        if !f.active {
            return;
        }
        let rate = f.rate;
        for &l in &f.path {
            let v = &mut self.link_flows[l.0];
            if let Ok(pos) = v.binary_search(&id) {
                v.remove(pos);
            } else {
                debug_assert!(false, "active flow missing from link index");
            }
            self.load[l.0] -= rate;
            if self.link_flows[l.0].is_empty() {
                self.load[l.0] = 0.0;
            }
            self.scratch.changed_links.push(l.0);
        }
    }

    /// Position of link `l` in the current fault re-index, registering
    /// the link (with its list's current length) on first touch.
    fn relink(&mut self, l: usize) -> usize {
        let s = &mut self.scratch;
        if s.link_stamp[l] != s.epoch {
            s.link_stamp[l] = s.epoch;
            s.link_pos[l] = s.relinks.len() as u32;
            s.relinks.push(l);
            s.relen.push(self.link_flows[l].len());
        }
        s.link_pos[l] as usize
    }

    /// `unindex` for one hop of a fault re-index: the load cache changes
    /// now (snapped to zero when the staged list would be empty) and the
    /// list edit is staged for [`FlowNet::commit_reindex`], unless the
    /// flow `stays` on the link.
    fn stage_unindex(&mut self, l: usize, id: u64, rate: f64, stays: bool) {
        let t = self.relink(l);
        let s = &mut self.scratch;
        s.relen[t] -= 1;
        self.load[l] -= rate;
        if s.relen[t] == 0 {
            self.load[l] = 0.0;
        }
        s.changed_links.push(l);
        if !stays {
            s.reops.push((t as u32, id << 1));
        }
    }

    /// `index` for one hop of a fault re-index (see `stage_unindex`).
    fn stage_index(&mut self, l: usize, id: u64, rate: f64, stays: bool) {
        let t = self.relink(l);
        let s = &mut self.scratch;
        s.relen[t] += 1;
        if rate != 0.0 {
            self.load[l] += rate;
            s.changed_links.push(l);
        }
        if !stays {
            s.reops.push((t as u32, id << 1 | 1));
        }
    }

    /// Applies the staged list edits: each list with edits is rebuilt by
    /// one merge of the old list with them. Flows were processed in
    /// ascending id order, so each link's edits come out of the stable
    /// grouping already in merge order.
    fn commit_reindex(&mut self) {
        let s = &mut self.scratch;
        let links = s.relinks.len();
        s.restart.clear();
        s.restart.resize(links + 1, 0);
        for &(t, _) in &s.reops {
            s.restart[t as usize + 1] += 1;
        }
        for t in 0..links {
            s.restart[t + 1] += s.restart[t];
        }
        // `relen` is spent: reuse it as the per-link fill cursor
        s.relen.clear();
        s.relen.extend_from_slice(&s.restart[..links]);
        s.regrouped.clear();
        s.regrouped.resize(s.reops.len(), 0);
        for &(t, edit) in &s.reops {
            s.regrouped[s.relen[t as usize]] = edit;
            s.relen[t as usize] += 1;
        }
        for t in 0..links {
            let edits = &s.regrouped[s.restart[t]..s.restart[t + 1]];
            if edits.is_empty() {
                continue;
            }
            let list = &mut self.link_flows[s.relinks[t]];
            s.merged.clear();
            let mut i = 0;
            for &edit in edits {
                let id = edit >> 1;
                while i < list.len() && list[i] < id {
                    s.merged.push(list[i]);
                    i += 1;
                }
                if edit & 1 == 1 {
                    debug_assert!(list.get(i) != Some(&id), "flow already in link index");
                    s.merged.push(id);
                } else if list.get(i) == Some(&id) {
                    i += 1;
                } else {
                    debug_assert!(false, "active flow missing from link index");
                }
            }
            s.merged.extend_from_slice(&list[i..]);
            // copied back rather than swapped, so each list keeps a
            // capacity of its own size
            list.clear();
            list.extend_from_slice(&s.merged);
        }
        s.relinks.clear();
        s.relen.clear();
        s.reops.clear();
    }

    /// Recomputes max-min fair rates for the dirty scope, re-predicts the
    /// completions of the flows whose rate actually changed, and arms the
    /// earliest completion of each connected piece of the scope.
    ///
    /// Callers push the link indices affected by the triggering change
    /// into `scratch.seeds` first. Under [`ShareMode::Incremental`] the
    /// recomputed scope is the connected component(s) of the link↔flow
    /// bipartite graph reachable from those seeds; under
    /// [`ShareMode::Full`] it is every loaded link (the seeds are
    /// ignored). Either way, only flows whose freshly computed rate
    /// differs bit-wise from their current rate are advanced, re-rated,
    /// and re-predicted — flows outside the dirty component always compare
    /// equal (their component's fill arithmetic reads nothing that
    /// changed), which is what makes the two modes bit-identical.
    fn reshare(&mut self, now: SimTime, sched: &mut impl Schedule<FlowEvent>) {
        self.reshare_count += 1;
        self.find_component();
        self.links_touched += self.scratch.comp_links.len() as u64;
        self.flows_touched += self.scratch.comp_flows.len() as u64;
        if self.scratch.comp_flows.is_empty() {
            // nothing is coupled to the change (e.g. the departing flow
            // was the last on its links): no rate can differ, so skip the
            // fill and apply scaffolding outright
            return;
        }
        self.fill();
        self.apply_pending(now, sched);
    }

    /// Collects the scope of the next fill into `comp_links` and
    /// `comp_flows`, and labels each of its flows with the connected piece
    /// of the scope it is in. Membership is recorded in
    /// `link_bits`/`flow_bits`, so a revisit costs one bit test and the
    /// ascending orders the fill needs come from one scan of each bitset.
    /// When the scope holds two or more flows, their bits stay set for the
    /// fill to clear as it fixes them; otherwise every bit is cleared here.
    fn find_component(&mut self) {
        let s = &mut self.scratch;
        s.epoch += 1;
        let epoch = s.epoch;
        s.comp_links.clear();
        s.comp_flows.clear();
        s.flow_bits.grow(self.next_id as usize);
        let slots = self.flows.slot_bound() as usize;
        if s.piece.len() < slots {
            s.piece.resize(slots, 0);
        }
        if self.sharing == ShareMode::Full {
            // the scope is every loaded link, searched the same way
            s.seeds.clear();
            s.seeds
                .extend((0..self.link_flows.len()).filter(|&l| !self.link_flows[l].is_empty()));
        }
        // component search over the link↔flow bipartite graph, one seed at
        // a time: each seed that reaches a flow not yet found opens a piece
        s.pieces = 0;
        while let Some(seed) = s.seeds.pop() {
            if s.link_stamp[seed] == epoch {
                continue;
            }
            s.link_stamp[seed] = epoch;
            s.queue.push(seed);
            let found = s.comp_flows.len();
            while let Some(l) = s.queue.pop() {
                if self.link_flows[l].is_empty() {
                    continue;
                }
                s.link_bits.insert(l);
                s.comp_links.push(l);
                for &fid in &self.link_flows[l] {
                    if !s.flow_bits.insert(fid as usize) {
                        continue;
                    }
                    s.comp_flows.push(fid);
                    let Some((slot, f)) = self
                        .fmap
                        .get(fid)
                        .and_then(|slot| Some((slot, self.flows.get(slot)?)))
                    else {
                        debug_assert!(false, "indexed flow vanished");
                        continue;
                    };
                    s.piece[slot as usize] = s.pieces;
                    for &l2 in &f.path {
                        if s.link_stamp[l2.0] != epoch {
                            s.link_stamp[l2.0] = epoch;
                            s.queue.push(l2.0);
                        }
                    }
                }
            }
            if s.comp_flows.len() > found {
                s.pieces += 1;
            }
        }
        if s.comp_flows.len() > 1 {
            // ascending order: the fill scans links (and fixes flows) in
            // exactly the per-component order a full scan would
            s.comp_links.clear();
            s.link_bits.read_ascending(|l| s.comp_links.push(l));
            s.comp_flows.clear();
            s.flow_bits
                .read_ascending(|id| s.comp_flows.push(id as u64));
        } else {
            // one flow or none: order is moot and there is nothing to fix
            s.flow_bits
                .clear_listed(s.comp_flows.iter().map(|&id| id as usize));
        }
        s.link_bits.clear_listed(s.comp_links.iter().copied());
    }

    /// Progressive filling over the *effective* (fault-adjusted) caps of
    /// the component [`FlowNet::find_component`] collected: repeatedly
    /// saturate the bottleneck link (minimal fair share, lowest index on a
    /// tie), fixing its unassigned flows. Writes each flow's rate into
    /// `rate` at its slot.
    ///
    /// Each component link's share `cap / n` sits in a contiguous array
    /// and is recomputed only when fixing a flow changes its `cap` or `n`,
    /// from the same operands the per-round recomputation would use, so
    /// the bits are the same. The bottleneck is the first position holding
    /// the least share, which is the link a strict `<` scan in ascending
    /// link order picks. A scan records every position holding the least
    /// share (`tied`); later rounds take the next one still holding it, and
    /// scan again only once none is left or a recomputed share comes out
    /// at or below it.
    fn fill(&mut self) {
        let slots = self.flows.slot_bound() as usize;
        if self.scratch.rate.len() < slots {
            self.scratch.rate.resize(slots, 0.0);
        }
        if let [fid] = self.scratch.comp_flows[..] {
            // single-flow component: every component link carries exactly
            // this one flow, so the generic fill would compute each link's
            // share as `cap / 1` (an exact division) and fix the flow at
            // the minimum — compute that minimum directly
            let mut share = f64::INFINITY;
            for &li in &self.scratch.comp_links {
                let cap = self.effective_bandwidth(LinkId(li));
                if cap < share {
                    share = cap;
                }
            }
            let Some(slot) = self.fmap.get(fid) else {
                debug_assert!(false, "flow vanished during fill");
                return;
            };
            self.scratch.rate[slot as usize] = share;
            return;
        }

        {
            let s = &mut self.scratch;
            s.cap.clear();
            s.nflows.clear();
            s.share.clear();
            s.fixing.clear();
        }
        for p in 0..self.scratch.comp_links.len() {
            let li = self.scratch.comp_links[p];
            let cap = self.effective_bandwidth(LinkId(li));
            let n = self.link_flows[li].len();
            // caps are finite (finite bandwidth × finite factor), so every
            // loaded link's share is finite and `∞` marks an exhausted one
            debug_assert!(cap.is_finite(), "link {li}: capacity {cap}");
            let s = &mut self.scratch;
            s.link_pos[li] = p as u32;
            s.cap.push(cap);
            s.nflows.push(n);
            s.share.push(cap / n as f64);
            s.fixing.push(0);
        }
        let s = &mut self.scratch;
        let mut unassigned = s.comp_flows.len();
        // every live share is at least `least`; `tied[next..]` holds, in
        // ascending order, the positions equal to it plus positions whose
        // share rose since the scan (skipped here)
        let (mut least, mut next) = (f64::INFINITY, 0);
        s.tied.clear();
        while unassigned > 0 {
            #[expect(
                clippy::float_cmp,
                reason = "exact tie: a tied share is skipped only when it rose since `least_positions` stored it"
            )]
            while next < s.tied.len() && s.share[s.tied[next]] != least {
                next += 1;
            }
            if next == s.tied.len() {
                least = least_positions(&s.share, &mut s.tied);
                next = 0;
            }
            let Some(&at) = s.tied.get(next) else {
                debug_assert!(false, "unassigned flows but no loaded link");
                break;
            };
            let (bottleneck, share) = (s.comp_links[at], s.share[at]);
            // fix every unassigned flow crossing the bottleneck, in
            // ascending id order (link_flows lists are kept sorted)
            s.batch.clear();
            for &fid in &self.link_flows[bottleneck] {
                if s.flow_bits.remove(fid as usize) {
                    s.batch.push(fid);
                }
            }
            debug_assert!(!s.batch.is_empty());
            for &fid in &s.batch {
                let Some(slot) = self.fmap.get(fid) else {
                    debug_assert!(false, "flow vanished during fill");
                    continue;
                };
                #[cfg(test)]
                s.trace.push((bottleneck, share.to_bits(), fid));
                s.rate[slot as usize] = share;
                unassigned -= 1;
                let Some(f) = self.flows.get(slot) else {
                    continue;
                };
                for &l in &f.path {
                    let p = s.link_pos[l.0] as usize;
                    if s.fixing[p] == 0 {
                        s.dirty.push(p);
                    }
                    s.fixing[p] += 1;
                }
            }
            // one subtraction per fixed flow, as if flow by flow: only
            // the count matters, since every flow of the round is fixed
            // at the same share (an exhausted link's cap is never read)
            let mut lowest = f64::INFINITY;
            for &p in &s.dirty {
                let fixed = std::mem::take(&mut s.fixing[p]);
                s.nflows[p] -= fixed as usize;
                if s.nflows[p] == 0 {
                    s.share[p] = f64::INFINITY;
                    continue;
                }
                let mut cap = s.cap[p];
                for _ in 0..fixed {
                    cap -= share;
                    if cap < 0.0 {
                        cap = 0.0; // guard accumulated rounding
                    }
                }
                s.cap[p] = cap;
                s.share[p] = cap / s.nflows[p] as f64;
                if s.share[p] < lowest {
                    lowest = s.share[p];
                }
            }
            s.dirty.clear();
            if lowest <= least {
                // a recomputed share may now be (or tie) the least
                next = s.tied.len();
            }
        }
        if unassigned > 0 {
            s.flow_bits
                .clear_listed(s.comp_flows.iter().map(|&id| id as usize));
        }
    }

    /// Applies the rates the current fill computed and re-predicts the
    /// completions of the flows whose rate changed, ascending flow id over
    /// the scope, then arms each piece's earliest prediction.
    ///
    /// Flows whose freshly computed rate is bit-equal to their current
    /// rate are left entirely alone — no progress charge, no generation
    /// bump, no new prediction. A changed flow's prediction takes the next
    /// order number, as the engine sequence number of an event scheduled
    /// then would. Each connected piece of the scope then gets one pending
    /// `Complete`, for its earliest prediction, unless that flow's is
    /// already pending; pieces are armed in ascending prediction order.
    /// Every piece the change touched is in the scope, and a piece outside
    /// it keeps the event armed when it was last reshared, so every
    /// component's earliest flow always has a valid `Complete` pending.
    fn apply_pending(&mut self, now: SimTime, sched: &mut impl Schedule<FlowEvent>) {
        self.scratch.earliest.clear();
        self.scratch
            .earliest
            .resize(self.scratch.pieces as usize, None);
        for i in 0..self.scratch.comp_flows.len() {
            let fid = self.scratch.comp_flows[i];
            // one lookup: check, then inline `advance_one` (the flow is in
            // the component, hence active) and the rate switch
            let Some((slot, f)) = self
                .fmap
                .get(fid)
                .and_then(|slot| Some((slot, self.flows.get_mut(slot)?)))
            else {
                debug_assert!(false, "flow vanished before reschedule");
                continue;
            };
            let new = self.scratch.rate[slot as usize];
            if new.to_bits() != f.rate.to_bits() {
                let dt = now - f.last_update;
                if dt > 0.0 {
                    let moved = (f.rate * dt).min(f.remaining);
                    f.remaining -= moved;
                    for &l in &f.path {
                        self.link_bytes[l.0] += moved;
                    }
                }
                let old = f.rate;
                f.rate = new;
                f.gen += 1;
                f.armed = false;
                f.last_update = now;
                debug_assert!(f.rate > 0.0, "active flow with zero rate");
                let eta = f.remaining / f.rate;
                f.due = (now.after(eta), self.predictions);
                self.predictions += 1;
                for &l in &f.path {
                    self.load[l.0] = self.load[l.0] - old + new;
                    self.scratch.changed_links.push(l.0);
                }
            }
            if f.gen == 0 {
                continue; // never rated: nothing predicted
            }
            let earliest = &mut self.scratch.earliest[self.scratch.piece[slot as usize] as usize];
            if earliest.is_none_or(|(due, _)| f.due < due) {
                *earliest = Some((f.due, slot));
            }
        }
        let s = &mut self.scratch;
        s.earliest.sort_unstable_by_key(|e| e.map(|(due, _)| due));
        for &(due, slot) in s.earliest.iter().flatten() {
            let Some(f) = self.flows.get_mut(slot) else {
                debug_assert!(false, "flow vanished before arming");
                continue;
            };
            if !f.armed {
                f.armed = true;
                sched.schedule_at(
                    due.0,
                    FlowEvent::Complete {
                        flow: f.id,
                        gen: f.gen,
                    },
                );
            }
        }
        #[cfg(debug_assertions)]
        self.verify_load_cache();
    }

    /// Debug-build cross-check: the O(1) load cache must agree with a
    /// fresh sorted-id accumulation on every touched link.
    #[cfg(debug_assertions)]
    fn verify_load_cache(&self) {
        for &li in &self.scratch.comp_links {
            let mut sum = 0.0;
            for &fid in &self.link_flows[li] {
                if let Some(f) = self.fmap.get(fid).and_then(|s| self.flows.get(s)) {
                    sum += f.rate;
                }
            }
            let cached = self.load[li];
            debug_assert!(
                (cached - sum).abs() <= 1e-6 * sum.abs().max(1.0),
                "link {li}: cached load {cached} drifted from {sum}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{mbps, NodeKind};
    use lsds_core::{Ctx, EventDriven, Model};

    /// Harness model: drives a FlowNet and records completions.
    struct Harness {
        net: FlowNet,
        done: Vec<FlowDone>,
        /// transfers to start at given times: (t, src, dst, bytes, tag)
        plan: Vec<(f64, NodeId, NodeId, f64, u64)>,
    }

    enum Ev {
        Kickoff(usize),
        Fault(LinkFault),
        Net(FlowEvent),
    }

    impl Model for Harness {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Kickoff(i) => {
                    let (_, src, dst, bytes, tag) = self.plan[i];
                    self.net.start(src, dst, bytes, tag, &mut ctx.map(Ev::Net));
                }
                Ev::Fault(fault) => {
                    let out = self.net.apply_fault(fault, &mut ctx.map(Ev::Net));
                    assert!(out.aborted.is_empty(), "a detour always survives");
                }
                Ev::Net(fe) => {
                    let done = self.net.handle(fe, &mut ctx.map(Ev::Net));
                    self.done.extend(done);
                }
            }
        }
    }

    fn run_plan(
        topo: Topology,
        plan: Vec<(f64, NodeId, NodeId, f64, u64)>,
    ) -> (Vec<FlowDone>, FlowNet) {
        run_plan_mode(topo, plan, ShareMode::Incremental)
    }

    fn run_plan_mode(
        topo: Topology,
        plan: Vec<(f64, NodeId, NodeId, f64, u64)>,
        mode: ShareMode,
    ) -> (Vec<FlowDone>, FlowNet) {
        let mut net = FlowNet::new(topo);
        net.set_share_mode(mode);
        let mut sim = EventDriven::new(Harness {
            net,
            done: vec![],
            plan: plan.clone(),
        });
        for (i, (t, ..)) in plan.iter().enumerate() {
            sim.schedule(SimTime::new(*t), Ev::Kickoff(i));
        }
        sim.run();
        let m = sim.into_model();
        (m.done, m.net)
    }

    fn pair(bw: f64, lat: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_duplex(a, b, bw, lat);
        (t, a, b)
    }

    #[test]
    fn single_flow_full_bandwidth() {
        let (t, a, b) = pair(mbps(80.0), 0.1); // 10 MB/s
        let (done, net) = run_plan(t, vec![(0.0, a, b, 100.0e6, 7)]);
        assert_eq!(done.len(), 1);
        // latency 0.1 + 100 MB / 10 MB/s = 10.1 s
        assert!((done[0].finished.seconds() - 10.1).abs() < 1e-6);
        assert_eq!(done[0].tag, 7);
        assert_eq!(net.completed(), 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn two_flows_share_equally() {
        let (t, a, b) = pair(mbps(80.0), 0.0);
        let (done, _) = run_plan(t, vec![(0.0, a, b, 50.0e6, 1), (0.0, a, b, 50.0e6, 2)]);
        assert_eq!(done.len(), 2);
        // both at 5 MB/s → both finish at 10 s
        for d in &done {
            assert!((d.finished.seconds() - 10.0).abs() < 1e-6, "{d:?}");
        }
    }

    #[test]
    fn late_flow_speeds_up_after_first_completes() {
        let (t, a, b) = pair(mbps(80.0), 0.0); // 10 MB/s
                                               // flow1: 50 MB at t=0; flow2: 75 MB at t=0.
                                               // shared 5 MB/s each; flow1 done at 10s; flow2 then has 25 MB left
                                               // at 10 MB/s → done at 12.5 s
        let (done, _) = run_plan(t, vec![(0.0, a, b, 50.0e6, 1), (0.0, a, b, 75.0e6, 2)]);
        let d2 = done.iter().find(|d| d.tag == 2).unwrap();
        assert!((d2.finished.seconds() - 12.5).abs() < 1e-6, "{d2:?}");
    }

    #[test]
    fn max_min_textbook_allocation() {
        // Classic: flows A (l1), B (l1+l2), C (l2).
        // l1 cap 10, l2 cap 6 (MB/s). Max-min: bottleneck l2 share 3 →
        // B=C=3; l1 remaining 7 → A=7.
        for mode in [ShareMode::Full, ShareMode::Incremental] {
            let mut t = Topology::new();
            let n0 = t.add_node(NodeKind::Host, "n0");
            let n1 = t.add_node(NodeKind::Router, "n1");
            let n2 = t.add_node(NodeKind::Host, "n2");
            t.add_link(n0, n1, 10.0e6, 0.0);
            t.add_link(n1, n2, 6.0e6, 0.0);
            // sizes chosen so nothing completes before we inspect rates
            let mut net = FlowNet::new(t);
            net.set_share_mode(mode);
            let mut sim = EventDriven::new(Harness {
                net,
                done: vec![],
                plan: vec![
                    (0.0, n0, n1, 1.0e9, 1), // A over l1
                    (0.0, n0, n2, 1.0e9, 2), // B over l1+l2
                    (0.0, n1, n2, 1.0e9, 3), // C over l2
                ],
            });
            for i in 0..3 {
                sim.schedule(SimTime::ZERO, Ev::Kickoff(i));
            }
            sim.run_until(SimTime::new(1.0));
            let net = &sim.model().net;
            let mut rates: std::collections::HashMap<u64, f64> = Default::default();
            net.flows.for_each(|_, f| {
                rates.insert(f.tag, f.rate);
            });
            assert!((rates[&1] - 7.0e6).abs() < 1.0, "A {}", rates[&1]);
            assert!((rates[&2] - 3.0e6).abs() < 1.0, "B {}", rates[&2]);
            assert!((rates[&3] - 3.0e6).abs() < 1.0, "C {}", rates[&3]);
        }
    }

    #[test]
    fn conservation_of_bytes() {
        let (t, a, b) = pair(mbps(80.0), 0.01);
        let plan: Vec<_> = (0..20)
            .map(|i| (i as f64 * 0.37, a, b, 1.0e6 * (i + 1) as f64, i as u64))
            .collect();
        let injected: f64 = plan.iter().map(|p| p.3).sum();
        let (done, net) = run_plan(t, plan);
        assert_eq!(done.len(), 20);
        let delivered: f64 = done.iter().map(|d| d.bytes).sum();
        assert!((delivered - injected).abs() < 1.0);
        // the single forward link carried everything
        assert!((net.link_bytes(LinkId(0)) - injected).abs() < injected * 1e-6);
    }

    #[test]
    fn utilization_reflects_active_flows() {
        let (t, a, b) = pair(mbps(80.0), 0.0);
        let mut sim = EventDriven::new(Harness {
            net: FlowNet::new(t),
            done: vec![],
            plan: vec![(0.0, a, b, 1.0e9, 1)],
        });
        sim.schedule(SimTime::ZERO, Ev::Kickoff(0));
        sim.run_until(SimTime::new(0.5));
        assert!((sim.model().net.link_utilization(LinkId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_tracks_utilization_and_latency_without_changing_results() {
        let plan: Vec<_> = (0..8)
            .map(|i| {
                let (t, a, b) = (i as f64 * 0.5, NodeId(0), NodeId(1));
                (t, a, b, 1.0e6 * (i + 1) as f64, i as u64)
            })
            .collect();
        let run = |monitored: bool| {
            let (t, _, _) = pair(mbps(80.0), 0.01);
            let mut net = FlowNet::new(t);
            if monitored {
                net.enable_monitor();
            }
            let mut sim = EventDriven::new(Harness {
                net,
                done: vec![],
                plan: plan.clone(),
            });
            for (i, (t, ..)) in plan.iter().enumerate() {
                sim.schedule(SimTime::new(*t), Ev::Kickoff(i));
            }
            sim.run();
            let m = sim.into_model();
            (m.done, m.net)
        };
        let (done_mon, net_mon) = run(true);
        let (done_plain, _) = run(false);
        assert_eq!(done_mon, done_plain, "monitoring must not perturb the run");

        let reg = net_mon.monitor().unwrap();
        let util = reg.series("net.link.a->b.utilization").unwrap();
        assert!(
            (util.max() - 1.0).abs() < 1e-9,
            "link saturated at some point"
        );
        assert_eq!(util.value(), 0.0, "idle after the last completion");
        let lat = reg.summary("net.transfer_latency").unwrap();
        assert_eq!(lat.count(), 8);
        assert!(lat.min() > 0.0);

        let mut merged = Registry::new();
        net_mon.export_metrics(&mut merged);
        assert_eq!(merged.counter("net.transfers_completed"), 8);
        assert!(merged.gauge("net.link.a->b.bytes").unwrap() > 0.0);
        assert!(merged.counter("net.reshare_count") > 0);
        assert!(merged.counter("net.route_cache_misses") > 0);
    }

    #[test]
    fn incremental_leaves_disjoint_components_untouched() {
        // two disjoint host pairs: flows on pair 0 must never widen the
        // reshare scope to pair 1's links
        let mut t = Topology::new();
        let a0 = t.add_node(NodeKind::Host, "a0");
        let b0 = t.add_node(NodeKind::Host, "b0");
        let a1 = t.add_node(NodeKind::Host, "a1");
        let b1 = t.add_node(NodeKind::Host, "b1");
        t.add_duplex(a0, b0, mbps(80.0), 0.0);
        t.add_duplex(a1, b1, mbps(80.0), 0.0);
        let plan = vec![
            (0.0, a0, b0, 50.0e6, 0),
            (0.0, a1, b1, 50.0e6, 1),
            (1.0, a0, b0, 50.0e6, 2),
            (1.0, a1, b1, 50.0e6, 3),
        ];
        let (done, net) = run_plan(t, plan);
        assert_eq!(done.len(), 4);
        // 8 reshares (4 begins + 4 completes), each touching at most the
        // one forward link and its 1–2 flows — never the other pair's.
        // The last completion of each pair leaves an empty component
        // (0 links), so per pair: 1 + 1 + 1 + 0 links, 1 + 2 + 1 + 0 flows.
        assert_eq!(net.reshare_count(), 8);
        assert_eq!(net.links_touched(), 6);
        assert_eq!(net.flows_touched(), 8);
    }

    #[test]
    fn full_and_incremental_trajectories_match_bitwise() {
        let (t, a, b) = pair(mbps(80.0), 0.01);
        let plan: Vec<_> = (0..16)
            .map(|i| (i as f64 * 0.61, a, b, 1.0e6 * (i % 5 + 1) as f64, i as u64))
            .collect();
        let (full, _) = run_plan_mode(t.clone(), plan.clone(), ShareMode::Full);
        let (inc, _) = run_plan_mode(t, plan, ShareMode::Incremental);
        assert_eq!(full.len(), inc.len());
        for (f, i) in full.iter().zip(&inc) {
            assert_eq!(f.tag, i.tag);
            assert_eq!(
                f.finished.seconds().to_bits(),
                i.finished.seconds().to_bits(),
                "tag {} diverged",
                f.tag
            );
        }
    }

    #[test]
    fn route_cache_serves_repeated_pairs() {
        let (t, a, b) = pair(mbps(80.0), 0.0);
        let plan: Vec<_> = (0..6).map(|i| (i as f64, a, b, 1.0e6, i as u64)).collect();
        let (_, net) = run_plan(t, plan);
        let (hits, misses) = net.route_cache_stats();
        assert_eq!(misses, 1, "one miss fills the (a, b) entry");
        assert_eq!(hits, 5, "the remaining starts are cache hits");
    }

    #[test]
    fn reroutes_keep_spare_paths_within_slot_bound() {
        // two parallel two-hop routes a→b; alternately failing the first
        // hop of each moves the one long flow back and forth
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        let mut first_hops = Vec::new();
        for name in ["r0", "r1"] {
            let r = t.add_node(NodeKind::Router, name);
            first_hops.push(t.add_link(a, r, mbps(80.0), 0.0));
            t.add_link(r, b, mbps(80.0), 0.0);
        }
        let mut sim = EventDriven::new(Harness {
            net: FlowNet::new(t),
            done: vec![],
            plan: vec![(0.0, a, b, 1.0e12, 0)],
        });
        sim.schedule(SimTime::ZERO, Ev::Kickoff(0));
        for cycle in 0..400 {
            let link = first_hops[cycle % 2];
            let at = 1.0 + cycle as f64;
            sim.schedule(SimTime::new(at), Ev::Fault(LinkFault::Down(link)));
            sim.schedule(SimTime::new(at + 0.5), Ev::Fault(LinkFault::Up(link)));
        }
        sim.run_until(SimTime::new(500.0));
        let net = &sim.model().net;
        assert_eq!(net.in_flight(), 1);
        assert!(net.rerouted() >= 300, "only {} reroutes", net.rerouted());
        assert!(
            net.spare_paths.len() <= net.flows.slot_bound() as usize,
            "{} spare paths for {} flow slots",
            net.spare_paths.len(),
            net.flows.slot_bound()
        );
    }

    #[test]
    fn superseded_completion_is_counted_stale() {
        // A and B share link a→m; B also crosses m→b at half the capacity,
        // which caps it at C/2 whatever A does. A begins alone at C, then
        // B's arrival halves A's rate: A's first prediction is stale. A
        // finishes early and B's rate stays C/2 bit for bit, so B's one
        // prediction holds. Exactly one completion is dropped.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let m = t.add_node(NodeKind::Router, "m");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_link(a, m, 10.0e6, 0.0);
        t.add_link(m, b, 5.0e6, 0.0);
        let (done, net) = run_plan(t, vec![(0.0, a, m, 10.0e6, 1), (0.0, a, b, 50.0e6, 2)]);
        assert_eq!(done.len(), 2);
        // A: 10 MB at 5 MB/s; B: 50 MB at 5 MB/s throughout
        assert!((done[0].finished.seconds() - 2.0).abs() < 1e-9, "{done:?}");
        assert!((done[1].finished.seconds() - 10.0).abs() < 1e-9, "{done:?}");
        assert_eq!(net.stale_completions, 1);
        let mut reg = Registry::new();
        net.export_metrics(&mut reg);
        assert_eq!(reg.counter("net.stale_completions"), 1);
    }

    /// What one component search and fill produced: the component's links
    /// and flows (ascending), each flow's rate bits, and every fixed flow
    /// in fix order with its bottleneck link and share bits.
    #[derive(Debug, PartialEq)]
    struct Filled {
        links: Vec<usize>,
        flows: Vec<u64>,
        rates: Vec<u64>,
        trace: Vec<(usize, u64, u64)>,
    }

    /// The sort-based component search and progressive fill `reshare`
    /// ran before the bitset and cached-share rewrite, kept as the
    /// reference the new code must match bit for bit. Reads the net and
    /// writes nothing. Also returns how many rounds had a tie for the
    /// minimum share, for the coverage checks.
    fn reference_fill(net: &FlowNet, seeds: &[usize]) -> (Filled, usize) {
        let flow = |id: u64| &net.flows[net.fmap.get(id).unwrap()];
        let n_links = net.topo.link_count();
        let mut comp_links = Vec::new();
        let mut comp_flows = Vec::new();
        match net.sharing {
            ShareMode::Full => {
                for (li, fl) in net.link_flows.iter().enumerate() {
                    if !fl.is_empty() {
                        comp_links.push(li);
                    }
                }
                net.flows.for_each(|_, f| {
                    if f.active {
                        comp_flows.push(f.id);
                    }
                });
                comp_flows.sort_unstable();
            }
            ShareMode::Incremental => {
                let mut stamped = vec![false; n_links];
                let mut marked = std::collections::HashSet::new();
                let mut queue = Vec::new();
                for &l in seeds {
                    if !stamped[l] {
                        stamped[l] = true;
                        queue.push(l);
                    }
                }
                while let Some(l) = queue.pop() {
                    if net.link_flows[l].is_empty() {
                        continue;
                    }
                    comp_links.push(l);
                    for &fid in &net.link_flows[l] {
                        if !marked.insert(fid) {
                            continue;
                        }
                        comp_flows.push(fid);
                        for &l2 in &flow(fid).path {
                            if !stamped[l2.0] {
                                stamped[l2.0] = true;
                                queue.push(l2.0);
                            }
                        }
                    }
                }
                comp_links.sort_unstable();
                comp_flows.sort_unstable();
            }
        }
        let mut pending = std::collections::HashMap::new();
        let mut trace = Vec::new();
        let mut ties = 0;
        if let [fid] = comp_flows[..] {
            let mut share = f64::INFINITY;
            for &li in &comp_links {
                let cap = net.effective_bandwidth(LinkId(li));
                if cap < share {
                    share = cap;
                }
            }
            pending.insert(fid, share);
        } else if !comp_flows.is_empty() {
            let mut cap = vec![0.0; n_links];
            let mut nflows = vec![0usize; n_links];
            for &li in &comp_links {
                cap[li] = net.effective_bandwidth(LinkId(li));
                nflows[li] = net.link_flows[li].len();
            }
            let mut unassigned = comp_flows.len();
            while unassigned > 0 {
                let mut best: Option<(f64, usize)> = None;
                for &li in &comp_links {
                    let n = nflows[li];
                    if n > 0 {
                        let share = cap[li] / n as f64;
                        if best.is_some_and(|(s, _)| share == s) {
                            ties += 1;
                        }
                        if best.is_none_or(|(s, _)| share < s) {
                            best = Some((share, li));
                        }
                    }
                }
                let (share, bottleneck) = best.expect("unassigned flows but no loaded link");
                let batch: Vec<u64> = net.link_flows[bottleneck]
                    .iter()
                    .copied()
                    .filter(|id| !pending.contains_key(id))
                    .collect();
                for fid in batch {
                    pending.insert(fid, share);
                    trace.push((bottleneck, share.to_bits(), fid));
                    unassigned -= 1;
                    for &l in &flow(fid).path {
                        cap[l.0] -= share;
                        if cap[l.0] < 0.0 {
                            cap[l.0] = 0.0;
                        }
                        nflows[l.0] -= 1;
                    }
                }
            }
        }
        let rates = comp_flows.iter().map(|id| pending[id].to_bits()).collect();
        let filled = Filled {
            links: comp_links,
            flows: comp_flows,
            rates,
            trace,
        };
        (filled, ties)
    }

    /// The production component search and fill on the same state.
    fn new_fill(net: &mut FlowNet, seeds: &[usize]) -> Filled {
        net.scratch.seeds.extend_from_slice(seeds);
        net.scratch.trace.clear();
        net.find_component();
        if !net.scratch.comp_flows.is_empty() {
            net.fill();
        }
        let flows = net.scratch.comp_flows.clone();
        let rates = flows
            .iter()
            .map(|&id| net.scratch.rate[net.fmap.get(id).unwrap() as usize].to_bits())
            .collect();
        let mut links = net.scratch.comp_links.clone();
        if flows.len() < 2 {
            // a one-flow component keeps its search order: nothing reads it
            links.sort_unstable();
        }
        Filled {
            links,
            flows,
            rates,
            trace: std::mem::take(&mut net.scratch.trace),
        }
    }

    /// Puts an active flow with the given path straight into the link
    /// index. Paths need not be routes: the fill reads only the lists.
    fn install(net: &mut FlowNet, path: Vec<LinkId>) -> u64 {
        let id = net.next_id;
        net.next_id += 1;
        for &l in &path {
            let v = &mut net.link_flows[l.0];
            let pos = v.binary_search(&id).unwrap_err();
            v.insert(pos, id);
        }
        let slot = net.flows.insert(Flow {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            path,
            remaining: 1.0,
            rate: 0.0,
            last_update: SimTime::ZERO,
            gen: 0,
            due: (SimTime::ZERO, 0),
            armed: false,
            tag: id,
            requested: SimTime::ZERO,
            active: true,
            bytes: 1.0,
        });
        net.fmap.bind(id, slot);
        id
    }

    /// A seeded fill scenario over parallel links between two nodes (the
    /// fill never looks at endpoints). Kinds: 0 a giant two-path-core
    /// component with equal-capacity access links; 1 random short paths
    /// over a few capacities; 2 mostly one-flow components. Every kind
    /// also gets degraded links, down links (share 0) and churn, so slot
    /// order differs from id order. Returns the net and the seeds.
    fn fill_scenario(seed: u64) -> (FlowNet, Vec<usize>) {
        let mut rng = lsds_stats::SimRng::new(seed);
        let kind = seed % 3;
        let side = 3 + rng.next_below(6) as usize;
        let n_links = match kind {
            0 => 4 + 2 * side,
            1 => 4 + rng.next_below(20) as usize,
            _ => 24,
        };
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        for l in 0..n_links {
            let bw = match kind {
                // a core that limits a flow only when `seed` says so
                0 if l < 4 => [2.5e9, 40.0e6][(seed / 3 % 2) as usize],
                0 => 12.5e6,
                _ => [10.0e6, 10.0e6, 20.0e6, 30.0e6][rng.next_below(4) as usize],
            };
            t.add_link(a, b, bw, 0.0);
        }
        let mut net = FlowNet::new(t);
        if seed % 4 == 3 {
            net.set_share_mode(ShareMode::Full);
        }
        let path = |rng: &mut lsds_stats::SimRng| -> Vec<LinkId> {
            match kind {
                0 => {
                    let core = 2 * rng.next_below(2) as usize;
                    let src = 4 + rng.next_below(side as u64) as usize;
                    let dst = 4 + side + rng.next_below(side as u64) as usize;
                    vec![LinkId(src), LinkId(core), LinkId(core + 1), LinkId(dst)]
                }
                1 => {
                    let hops = 1 + rng.next_below(4) as usize;
                    let mut p: Vec<LinkId> = Vec::new();
                    while p.len() < hops.min(n_links) {
                        let l = LinkId(rng.next_below(n_links as u64) as usize);
                        if !p.contains(&l) {
                            p.push(l);
                        }
                    }
                    p
                }
                _ => {
                    // private links 0..16 carry one flow each (most of
                    // the time); 16.. are shared
                    let l = rng.next_below(n_links as u64) as usize;
                    if l < 16 || rng.next_below(2) == 0 {
                        vec![LinkId(l)]
                    } else {
                        vec![LinkId(l), LinkId(16 + (l + 1) % 8)]
                    }
                }
            }
        };
        let flows = match kind {
            0 => 10 + rng.next_below(80) as usize,
            1 => 2 + rng.next_below(40) as usize,
            _ => 4 + rng.next_below(12) as usize,
        };
        let mut live = Vec::new();
        for _ in 0..flows {
            let p = path(&mut rng);
            live.push(install(&mut net, p));
        }
        // churn: retire a third, then install as many again, so new ids
        // take recycled slots
        for _ in 0..flows / 3 {
            let id = live.swap_remove(rng.next_below(live.len() as u64) as usize);
            net.unindex(id);
            net.remove_flow(id).unwrap();
        }
        for _ in 0..flows / 3 {
            let p = path(&mut rng);
            live.push(install(&mut net, p));
        }
        for _ in 0..rng.next_below(3) {
            let l = rng.next_below(n_links as u64) as usize;
            net.degrade[l] = [0.5, 0.25, rng.range_f64(0.1, 0.9)][rng.next_below(3) as usize];
        }
        if rng.next_below(3) == 0 {
            net.link_up[rng.next_below(n_links as u64) as usize] = false;
        }
        net.scratch.changed_links.clear();
        let seeds = (0..1 + rng.next_below(3))
            .map(|_| rng.next_below(n_links as u64) as usize)
            .collect();
        (net, seeds)
    }

    /// Differential test of the fill against the sort-based reference:
    /// same component, same rate bits, same bottlenecks and fix order, on
    /// seeded scenarios with exact share ties, degraded and down links,
    /// exhausted links and one-flow components. A second fill on the same
    /// state must agree too (no membership bit may outlive a fill).
    #[test]
    fn fill_matches_sort_based_reference() {
        let (mut ties, mut singles, mut giants, mut zero_shares) = (0, 0, 0, 0);
        for seed in 0..96u64 {
            let (mut net, seeds) = fill_scenario(seed);
            let (want, t) = reference_fill(&net, &seeds);
            let got = new_fill(&mut net, &seeds);
            assert_eq!(got, want, "scenario {seed}");
            assert_eq!(new_fill(&mut net, &seeds), want, "scenario {seed}, refill");
            ties += t;
            singles += usize::from(want.flows.len() == 1);
            giants += usize::from(want.flows.len() >= 40);
            zero_shares += want.trace.iter().filter(|r| r.1 == 0).count();
        }
        assert!(ties >= 50, "{ties} tied rounds");
        assert!(singles >= 5, "{singles} one-flow components");
        assert!(giants >= 5, "{giants} giant components");
        assert!(zero_shares >= 5, "{zero_shares} flows fixed at a down link");
    }

    #[test]
    #[should_panic]
    fn unroutable_transfer_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_link(b, a, 1.0, 0.0); // reverse only
        let _ = run_plan(t, vec![(0.0, a, b, 1.0, 0)]);
    }
}
