//! Shortest-path routing over a [`Topology`], plus a pairwise route cache.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::topology::{LinkId, NodeId, Topology};
use std::cell::RefCell;
use std::collections::HashMap;

/// Next-hop routing, computed with Dijkstra per source *on demand*.
///
/// Path weight is propagation latency, with hop count as tie-break, which
/// matches the static shortest-path routing the surveyed Grid simulators
/// assume. Routes are computed once per topology *state*: a static network
/// computes them once, and a network with injected link faults recomputes
/// them on each link state change (see [`Routing::compute_filtered`]).
///
/// Per-source rows are *lazy and sparse*: a row is materialized by one
/// Dijkstra run the first time any query touches that source, and stores
/// only the nodes actually reachable from it. An eager all-pairs table is
/// `O(n²)` memory — a hard wall near 100k nodes — while lazy rows cost
/// `O(Σ reachable)` over the sources a workload actually routes from.
/// Laziness is invisible to results: each row is a pure function of the
/// topology state, so query order cannot change any path.
///
/// A node with exactly one usable exit (self-loops aside) — a host on its
/// access link — never gets a row: its Dijkstra would put that exit first
/// for every node it reaches, so the lookup follows the chain of such
/// nodes to the first one with a row or several exits and answers from
/// there. After a fault, only the routers a detour crosses run Dijkstra.
#[derive(Debug, Clone)]
pub struct Routing {
    /// Link mask for fault-filtered routing (`None` = every link usable).
    usable: Option<Vec<bool>>,
    /// Lazily materialized per-source rows plus reusable Dijkstra scratch;
    /// behind a `RefCell` so read-side queries (`&self`) can fill rows.
    rows: RefCell<Rows>,
}

/// Heap entry: (latency bits, hops, node, first link from the source).
type HeapEntry = std::cmp::Reverse<(u64, u32, usize, Option<LinkId>)>;

/// One materialized routing row: sorted `(dst, first link)` pairs for
/// every node reachable from a source.
type Row = Box<[(u32, LinkId)]>;

#[derive(Debug, Clone, Default)]
struct Rows {
    /// `sources[src]` = sorted `(dst, first link)` pairs for every node
    /// reachable from `src`; `None` until materialized. Absent `dst` =
    /// unreachable.
    sources: Vec<Option<Row>>,
    /// Dijkstra scratch, validated by `stamp[v] == epoch` so runs reset in
    /// `O(touched)` instead of `O(n)`.
    stamp: Vec<u64>,
    epoch: u64,
    dist: Vec<(f64, u32)>,
    visited: Vec<bool>,
    first: Vec<Option<LinkId>>,
    heap: std::collections::BinaryHeap<HeapEntry>,
}

impl Rows {
    fn new(n: usize) -> Self {
        Rows {
            sources: vec![None; n],
            stamp: vec![0; n],
            epoch: 0,
            dist: vec![(f64::INFINITY, u32::MAX); n],
            visited: vec![false; n],
            first: vec![None; n],
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// One Dijkstra from `src`; identical relaxation and tie-breaking to a
    /// full-table build, so the lazy row equals the eager row bit for bit.
    fn materialize(&mut self, topo: &Topology, usable: Option<&[bool]>, src: usize) {
        self.epoch += 1;
        let epoch = self.epoch;
        let touch = |stamp: &mut Vec<u64>,
                     visited: &mut Vec<bool>,
                     first: &mut Vec<Option<LinkId>>,
                     dist: &mut Vec<(f64, u32)>,
                     v: usize| {
            if stamp[v] != epoch {
                stamp[v] = epoch;
                visited[v] = false;
                first[v] = None;
                dist[v] = (f64::INFINITY, u32::MAX);
            }
        };
        touch(
            &mut self.stamp,
            &mut self.visited,
            &mut self.first,
            &mut self.dist,
            src,
        );
        self.dist[src] = (0.0, 0);
        let mut reached: Vec<(u32, LinkId)> = Vec::new();
        self.heap
            .push(std::cmp::Reverse((ordered_float(0.0), 0u32, src, None)));
        while let Some(std::cmp::Reverse((d, hops, u, via))) = self.heap.pop() {
            if self.visited[u] {
                continue;
            }
            self.visited[u] = true;
            self.first[u] = via;
            if u != src {
                if let Some(lid) = via {
                    reached.push((u as u32, lid));
                }
            }
            for &lid in topo.out_links(NodeId(u)) {
                if usable.is_some_and(|mask| !mask[lid.0]) {
                    continue;
                }
                let link = topo.link(lid);
                let v = link.to.0;
                touch(
                    &mut self.stamp,
                    &mut self.visited,
                    &mut self.first,
                    &mut self.dist,
                    v,
                );
                if self.visited[v] {
                    continue;
                }
                let nd = from_ordered(d) + link.latency;
                let nh = hops + 1;
                if (nd, nh) < self.dist[v] {
                    self.dist[v] = (nd, nh);
                    let via_v = via.or(Some(lid));
                    self.heap
                        .push(std::cmp::Reverse((ordered_float(nd), nh, v, via_v)));
                }
            }
        }
        reached.sort_unstable_by_key(|&(dst, _)| dst);
        self.sources[src] = Some(reached.into_boxed_slice());
    }

    /// First link from `src` toward `dst`. A source with exactly one exit
    /// runs no Dijkstra: it reaches every node through that exit, so its
    /// row would hold the exit for exactly the nodes the exit's head
    /// reaches, and [`Rows::reaches`] answers that from the head's side.
    /// Any other source materializes its row on first touch.
    fn next_hop(
        &mut self,
        topo: &Topology,
        usable: Option<&[bool]>,
        src: usize,
        dst: usize,
    ) -> Option<LinkId> {
        debug_assert_ne!(src, dst, "a row never holds its own source");
        if self.sources[src].is_none() {
            if let Some(exit) = sole_exit(topo, usable, src) {
                let head = topo.link(exit).to.0;
                return self.reaches(topo, usable, src, head, dst).then_some(exit);
            }
            self.materialize(topo, usable, src);
        }
        self.row_entry(src, dst)
    }

    /// Whether `dst` is reachable from `at`, the head of single-exit
    /// `src`'s exit. Follows the chain of single-exit nodes from `at` to
    /// the first node that has a row or other than one exit and reads that
    /// node's row. A chain that comes back to `src`, or runs longer than
    /// the node count (a one-way ring), has reached all it ever will.
    fn reaches(
        &mut self,
        topo: &Topology,
        usable: Option<&[bool]>,
        src: usize,
        mut at: usize,
        dst: usize,
    ) -> bool {
        for _ in 0..self.sources.len() {
            if at == dst {
                return true;
            }
            if at == src {
                return false;
            }
            if self.sources[at].is_none() {
                if let Some(exit) = sole_exit(topo, usable, at) {
                    at = topo.link(exit).to.0;
                    continue;
                }
                self.materialize(topo, usable, at);
            }
            return self.row_entry(at, dst).is_some();
        }
        false
    }

    /// `dst`'s first link in `src`'s materialized row.
    fn row_entry(&self, src: usize, dst: usize) -> Option<LinkId> {
        let row = self.sources[src].as_deref()?;
        let i = row.binary_search_by_key(&(dst as u32), |&(d, _)| d).ok()?;
        Some(row[i].1)
    }

    /// The always-materialize lookup [`Rows::next_hop`] replaced, kept as
    /// the differential tests' reference.
    #[cfg(test)]
    fn next_hop_reference(
        &mut self,
        topo: &Topology,
        usable: Option<&[bool]>,
        src: usize,
        dst: usize,
    ) -> Option<LinkId> {
        if self.sources[src].is_none() {
            self.materialize(topo, usable, src);
        }
        self.row_entry(src, dst)
    }
}

/// The one usable out-link of `v` that leads to another node, or `None`
/// when `v` has none or several. Self-loops are not exits: Dijkstra never
/// relaxes across one.
fn sole_exit(topo: &Topology, usable: Option<&[bool]>, v: usize) -> Option<LinkId> {
    let mut exits = topo
        .out_links(NodeId(v))
        .iter()
        .copied()
        .filter(|&l| usable.is_none_or(|mask| mask[l.0]) && topo.link(l).to.0 != v);
    let exit = exits.next()?;
    exits.next().is_none().then_some(exit)
}

impl Routing {
    /// Builds routing over every link (rows materialize on first query).
    pub fn compute(topo: &Topology) -> Self {
        Routing {
            usable: None,
            rows: RefCell::new(Rows::new(topo.node_count())),
        }
    }

    /// Builds routing using only links whose `usable` entry is `true`
    /// (indexed by [`LinkId`]). This is how [`crate::FlowNet`] routes
    /// around failed links: rebuild with the down links masked out.
    pub fn compute_filtered(topo: &Topology, usable: &[bool]) -> Self {
        assert_eq!(usable.len(), topo.link_count(), "usable mask size");
        Routing {
            usable: Some(usable.to_vec()),
            rows: RefCell::new(Rows::new(topo.node_count())),
        }
    }

    /// First link on the route from `src` to `dst`, or `None`.
    pub fn next_hop(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<LinkId> {
        if src == dst {
            return None;
        }
        self.rows
            .borrow_mut()
            .next_hop(topo, self.usable.as_deref(), src.0, dst.0)
    }

    /// Full link path from `src` to `dst`, or `None` if unreachable.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut out = Vec::new();
        self.path_into(topo, src, dst, &mut out).then_some(out)
    }

    /// Like [`Routing::path`] but appends into a caller-owned buffer
    /// (cleared first), returning `false` when `dst` is unreachable — the
    /// allocation-free form hot paths use.
    pub fn path_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> bool {
        out.clear();
        self.extend_path(topo, src, dst, out)
    }

    /// Appends the path from `src` to `dst` to `out`, leaving `out` as it
    /// was and returning `false` when `dst` is unreachable.
    fn extend_path(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> bool {
        let start = out.len();
        // the walk consults each intermediate node's own row, exactly as
        // the eager table walk did
        let mut rows = self.rows.borrow_mut();
        let mut at = src;
        let mut guard = 0;
        while at != dst {
            let Some(lid) = rows.next_hop(topo, self.usable.as_deref(), at.0, dst.0) else {
                out.truncate(start);
                return false;
            };
            out.push(lid);
            at = topo.link(lid).to;
            guard += 1;
            assert!(guard <= topo.node_count(), "routing loop");
        }
        true
    }

    /// Sum of link latencies along the path.
    pub fn path_latency(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<f64> {
        let p = self.path(topo, src, dst)?;
        Some(p.iter().map(|&l| topo.link(l).latency).sum())
    }

    /// Minimum bandwidth along the path (the path's static bottleneck).
    pub fn path_bottleneck(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<f64> {
        let p = self.path(topo, src, dst)?;
        p.iter()
            .map(|&l| topo.link(l).bandwidth)
            .fold(None, |acc, b| Some(acc.map_or(b, |a: f64| a.min(b))))
    }
}

/// A memoized path's `(start, len)` in [`RouteCache`]'s arena.
type Span = (u32, u32);

/// Memoized [`Routing::path`] lookups keyed by `(src, dst)`.
///
/// [`Routing`]'s tables store next *hops*; materializing a full path walks
/// the tables once per query. Workloads repeat the same endpoint pairs
/// constantly (every retry, every replica of a dataset, every job on the
/// same site pair), so [`crate::FlowNet`] keeps one of these in front of
/// its routing tables and serves repeats from the memo.
///
/// The cache stores *negative* results too (`None` = unreachable), and
/// must be [`RouteCache::invalidate`]d whenever the routing tables are
/// rebuilt — in `FlowNet` that is exactly the fault paths
/// (`apply_fault` down/up). Every memoized path lives back to back in one
/// arena, so a miss appends to it and a hit copies a slice out of it; an
/// invalidation empties both the map and the arena but keeps their
/// capacity. A hit returns exactly the links a fresh table walk would
/// produce, so cache-on and cache-off runs produce identical trajectories
/// (property-tested in `tests/share_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct RouteCache {
    // keyed by raw node indices; never iterated, only probed, so the
    // HashMap cannot leak iteration order into simulation state. A value
    // is the path's `(start, len)` in `arena`, `None` = unreachable.
    map: HashMap<(usize, usize), Option<Span>, std::hash::BuildHasherDefault<PairHasher>>,
    /// Every memoized path, back to back; while the memo is off, the
    /// scratch buffer of the current walk.
    arena: Vec<LinkId>,
    hits: u64,
    misses: u64,
    enabled: bool,
}

impl Default for RouteCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Multiplicative hasher for the cache's integer pair keys. SipHash (the
/// `HashMap` default) costs more than the rest of a cache probe put
/// together on the per-transfer hot path; node ids are simulation-internal
/// (not attacker-controlled), so a fixed multiplicative mix with a
/// splitmix64 finisher is safe and much cheaper.
#[derive(Debug, Default, Clone)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(29) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

impl RouteCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        RouteCache {
            map: HashMap::default(),
            arena: Vec::new(),
            hits: 0,
            misses: 0,
            enabled: true,
        }
    }

    /// Turns the memo on or off (off = every lookup recomputes; the hit
    /// and miss counters stop advancing). Disabling drops stored entries.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.invalidate();
        }
    }

    /// The path from `src` to `dst`, served from the memo when possible.
    pub fn path(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Vec<LinkId>> {
        self.path_slice(routing, topo, src, dst)
            .map(<[LinkId]>::to_vec)
    }

    /// Like [`RouteCache::path`] but copies the path into a caller-owned
    /// buffer (cleared first), returning `false` when unreachable. A hit
    /// costs one memo probe and one memcpy — no allocation — which is what
    /// the per-transfer hot path in [`crate::FlowNet`] uses.
    pub fn path_into(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> bool {
        out.clear();
        let Some(p) = self.path_slice(routing, topo, src, dst) else {
            return false;
        };
        out.extend_from_slice(p);
        true
    }

    /// The path from `src` to `dst` as a slice of the arena, or `None`
    /// when unreachable. A miss walks the tables onto the arena's end.
    pub(crate) fn path_slice(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Option<&[LinkId]> {
        let (start, len) = if self.enabled {
            match self.map.get(&(src.0, dst.0)) {
                Some(&span) => {
                    self.hits += 1;
                    span?
                }
                None => {
                    self.misses += 1;
                    let span = self.walk(routing, topo, src, dst);
                    self.map.insert((src.0, dst.0), span);
                    span?
                }
            }
        } else {
            // off: nothing is memoized, so the arena holds only this walk
            self.arena.clear();
            self.walk(routing, topo, src, dst)?
        };
        Some(&self.arena[start as usize..][..len as usize])
    }

    /// Walks the tables onto the arena's end: the new path's
    /// `(start, len)`, or `None` (arena unchanged) when unreachable.
    fn walk(
        &mut self,
        routing: &Routing,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Span> {
        let start = self.arena.len();
        let reached = routing.extend_path(topo, src, dst, &mut self.arena);
        // past u32 offsets, spans would silently alias other entries
        assert!(
            u32::try_from(self.arena.len()).is_ok(),
            "route arena outgrew u32 spans"
        );
        reached.then(|| (start as u32, (self.arena.len() - start) as u32))
    }

    /// Drops every memoized entry, keeping the memo's capacity. Call after
    /// rebuilding the [`Routing`] tables this cache fronts.
    pub fn invalidate(&mut self) {
        self.map.clear();
        self.arena.clear();
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to walk the routing tables.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of memoized `(src, dst)` pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// BinaryHeap needs Ord; wrap latency as sortable bits (all values finite
// and non-negative here, so the IEEE bit pattern orders correctly).
fn ordered_float(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite());
    x.to_bits()
}

fn from_ordered(bits: u64) -> f64 {
    f64::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{mbps, NodeKind};

    fn line3() -> (Topology, [NodeId; 3]) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Router, "b");
        let c = t.add_node(NodeKind::Host, "c");
        t.add_duplex(a, b, mbps(100.0), 0.01);
        t.add_duplex(b, c, mbps(10.0), 0.02);
        (t, [a, b, c])
    }

    #[test]
    fn line_path() {
        let (t, [a, _b, c]) = line3();
        let r = Routing::compute(&t);
        let p = r.path(&t, a, c).unwrap();
        assert_eq!(p.len(), 2);
        assert!((r.path_latency(&t, a, c).unwrap() - 0.03).abs() < 1e-12);
        assert_eq!(r.path_bottleneck(&t, a, c).unwrap(), mbps(10.0));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, [a, _, _]) = line3();
        let r = Routing::compute(&t);
        assert!(r.path(&t, a, a).unwrap().is_empty());
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        let c = t.add_node(NodeKind::Host, "c");
        t.add_link(a, b, 1.0, 0.0); // one-way only, c isolated
        let r = Routing::compute(&t);
        assert!(r.path(&t, a, c).is_none());
        assert!(r.path(&t, b, a).is_none());
        assert!(r.path(&t, a, b).is_some());
    }

    #[test]
    fn picks_lower_latency_path() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Router, "b");
        let c = t.add_node(NodeKind::Host, "c");
        // direct but slow; via b is faster
        t.add_link(a, c, mbps(1.0), 0.10);
        t.add_link(a, b, mbps(1.0), 0.01);
        t.add_link(b, c, mbps(1.0), 0.01);
        let r = Routing::compute(&t);
        assert_eq!(r.path(&t, a, c).unwrap().len(), 2);
    }

    #[test]
    fn equal_latency_prefers_fewer_hops() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Router, "b");
        let c = t.add_node(NodeKind::Host, "c");
        t.add_link(a, c, mbps(1.0), 0.02);
        t.add_link(a, b, mbps(1.0), 0.01);
        t.add_link(b, c, mbps(1.0), 0.01);
        let r = Routing::compute(&t);
        assert_eq!(r.path(&t, a, c).unwrap().len(), 1);
    }

    #[test]
    fn star_routes_through_hub() {
        let (t, hosts) = Topology::star(4, mbps(100.0), 0.001);
        let r = Routing::compute(&t);
        let p = r.path(&t, hosts[0], hosts[3]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn filtered_routes_around_masked_link() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Router, "b");
        let c = t.add_node(NodeKind::Host, "c");
        // fast direct link plus a slower detour via b
        let (direct, _) = t.add_duplex(a, c, mbps(1.0), 0.01);
        t.add_duplex(a, b, mbps(1.0), 0.05);
        t.add_duplex(b, c, mbps(1.0), 0.05);
        let all = Routing::compute(&t);
        assert_eq!(all.path(&t, a, c).unwrap(), vec![direct]);
        let mut usable = vec![true; t.link_count()];
        usable[direct.0] = false;
        let filtered = Routing::compute_filtered(&t, &usable);
        let detour = filtered.path(&t, a, c).unwrap();
        assert_eq!(detour.len(), 2);
        assert!(!detour.contains(&direct));
        // mask the detour too: unreachable
        usable[detour[0].0] = false;
        let none = Routing::compute_filtered(&t, &usable);
        assert!(none.path(&t, a, c).is_none());
    }

    #[test]
    fn route_cache_memoizes_and_invalidates() {
        let (t, hosts) = Topology::star(4, mbps(100.0), 0.001);
        let r = Routing::compute(&t);
        let mut cache = RouteCache::new();
        let p1 = cache.path(&r, &t, hosts[0], hosts[2]);
        let p2 = cache.path(&r, &t, hosts[0], hosts[2]);
        assert_eq!(p1, r.path(&t, hosts[0], hosts[2]));
        assert_eq!(p1, p2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        cache.invalidate();
        assert!(cache.is_empty());
        let p3 = cache.path(&r, &t, hosts[0], hosts[2]);
        assert_eq!(p1, p3);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn route_cache_stores_negative_results() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, "a");
        let b = t.add_node(NodeKind::Host, "b");
        t.add_link(a, b, 1.0, 0.0); // one-way: b cannot reach a
        let r = Routing::compute(&t);
        let mut cache = RouteCache::new();
        assert!(cache.path(&r, &t, b, a).is_none());
        assert!(cache.path(&r, &t, b, a).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn disabled_route_cache_computes_fresh() {
        let (t, hosts) = Topology::star(3, mbps(100.0), 0.001);
        let r = Routing::compute(&t);
        let mut cache = RouteCache::new();
        cache.set_enabled(false);
        let p1 = cache.path(&r, &t, hosts[0], hosts[1]);
        let p2 = cache.path(&r, &t, hosts[0], hosts[1]);
        assert_eq!(p1, r.path(&t, hosts[0], hosts[1]));
        assert_eq!(p1, p2);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn unfiltered_matches_all_true_mask() {
        let (t, hosts) = Topology::star(5, mbps(100.0), 0.001);
        let plain = Routing::compute(&t);
        let masked = Routing::compute_filtered(&t, &vec![true; t.link_count()]);
        for &s in &hosts {
            for &d in &hosts {
                assert_eq!(plain.path(&t, s, d), masked.path(&t, s, d));
            }
        }
    }

    /// The reference walk: [`Routing::path`] over the always-materialize
    /// lookup.
    fn path_reference(r: &Routing, t: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<LinkId>> {
        let mut rows = r.rows.borrow_mut();
        let mut out = Vec::new();
        let mut at = src;
        while at != dst {
            let lid = rows.next_hop_reference(t, r.usable.as_deref(), at.0, dst.0)?;
            out.push(lid);
            at = t.link(lid).to;
        }
        Some(out)
    }

    /// A seeded topology mixing every shape single-exit routing must get
    /// right: a router core with parallel and one-way links, hosts on one
    /// access link (duplex, one-way out, one-way in, or two parallel
    /// ones), duplex host pairs, one-way chains into the core, one-way
    /// rings with and without a tail, and self-loops.
    fn mixed_topology(rng: &mut lsds_stats::SimRng) -> Topology {
        let mut t = Topology::new();
        let lat = |rng: &mut lsds_stats::SimRng| [0.0, 0.001, 0.002, 0.005][rng.index(4)];
        let routers: Vec<NodeId> = (0..2 + rng.index(4))
            .map(|_| t.add_node(NodeKind::Router, "r"))
            .collect();
        for (i, &r) in routers.iter().enumerate().skip(1) {
            let to = routers[rng.index(i)];
            let l = lat(rng);
            t.add_duplex(r, to, mbps(1.0), l);
            if rng.chance(0.3) {
                t.add_link(r, to, mbps(1.0), lat(rng)); // parallel
            }
        }
        for _ in 0..rng.index(3) {
            let (a, b) = (*rng.choose(&routers), *rng.choose(&routers));
            if a != b {
                t.add_link(a, b, mbps(1.0), lat(rng)); // one-way core link
            }
        }
        for _ in 0..3 + rng.index(6) {
            let h = t.add_node(NodeKind::Host, "h");
            let r = *rng.choose(&routers);
            match rng.index(4) {
                0 | 1 => {
                    t.add_duplex(h, r, mbps(1.0), lat(rng));
                }
                2 => {
                    t.add_link(h, r, mbps(1.0), lat(rng));
                }
                _ => {
                    t.add_link(r, h, mbps(1.0), lat(rng));
                }
            }
            if rng.chance(0.2) {
                t.add_link(h, r, mbps(1.0), lat(rng)); // parallel access
            }
        }
        for _ in 0..rng.index(3) {
            let a = t.add_node(NodeKind::Host, "p");
            let b = t.add_node(NodeKind::Host, "q");
            t.add_duplex(a, b, mbps(1.0), lat(rng));
            if rng.chance(0.5) {
                t.add_duplex(b, *rng.choose(&routers), mbps(1.0), lat(rng));
            }
        }
        for _ in 0..rng.index(3) {
            // one-way chain, ending in the core or nowhere
            let chain: Vec<NodeId> = (0..1 + rng.index(4))
                .map(|_| t.add_node(NodeKind::Host, "c"))
                .collect();
            for w in chain.windows(2) {
                t.add_link(w[0], w[1], mbps(1.0), lat(rng));
            }
            if rng.chance(0.7) {
                t.add_link(
                    chain[chain.len() - 1],
                    *rng.choose(&routers),
                    mbps(1.0),
                    lat(rng),
                );
            }
        }
        for _ in 0..rng.index(3) {
            // one-way ring, optionally fed by a tail from the core
            let ring: Vec<NodeId> = (0..2 + rng.index(4))
                .map(|_| t.add_node(NodeKind::Host, "o"))
                .collect();
            for (i, &a) in ring.iter().enumerate() {
                t.add_link(a, ring[(i + 1) % ring.len()], mbps(1.0), lat(rng));
            }
            if rng.chance(0.5) {
                let tail = t.add_node(NodeKind::Host, "t");
                t.add_link(tail, ring[0], mbps(1.0), lat(rng));
                t.add_link(*rng.choose(&routers), tail, mbps(1.0), lat(rng));
            }
        }
        for _ in 0..rng.index(4) {
            let v = NodeId(rng.index(t.node_count()));
            t.add_link(v, v, mbps(1.0), lat(rng));
        }
        t
    }

    /// Usable exits of `v` to another node, counted independently of
    /// `sole_exit`.
    fn exits(t: &Topology, usable: Option<&[bool]>, v: usize) -> usize {
        t.out_links(NodeId(v))
            .iter()
            .filter(|&&l| usable.is_none_or(|m| m[l.0]) && t.link(l).to.0 != v)
            .count()
    }

    #[test]
    fn single_exit_lookup_matches_always_materialize_reference() {
        for seed in 0..64 {
            let mut rng = lsds_stats::SimRng::new(seed);
            let t = mixed_topology(&mut rng);
            let n = t.node_count();
            let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
                .flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d))))
                .collect();
            for masked in [0.0, 0.15, 0.4] {
                let mask: Vec<bool> = (0..t.link_count()).map(|_| !rng.chance(masked)).collect();
                let build = || {
                    if masked == 0.0 {
                        Routing::compute(&t)
                    } else {
                        Routing::compute_filtered(&t, &mask)
                    }
                };
                let (fast, reference, walked) = (build(), build(), build());
                let mut cache = RouteCache::new();
                // a fresh query order per mask: which rows exist when a
                // lookup runs must not matter
                rng.shuffle(&mut pairs);
                for &(s, d) in &pairs {
                    let want = if s == d {
                        None
                    } else {
                        let mut rows = reference.rows.borrow_mut();
                        rows.next_hop_reference(&t, reference.usable.as_deref(), s.0, d.0)
                    };
                    assert_eq!(
                        fast.next_hop(&t, s, d),
                        want,
                        "seed {seed} mask {masked} {s:?}->{d:?}"
                    );
                    let path = path_reference(&reference, &t, s, d);
                    assert_eq!(
                        walked.path(&t, s, d),
                        path,
                        "seed {seed} mask {masked} {s:?}->{d:?}"
                    );
                    assert_eq!(cache.path(&walked, &t, s, d), path);
                }
                // a node with one way out never ran a Dijkstra
                for r in [&fast, &walked] {
                    let rows = r.rows.borrow();
                    for v in 0..n {
                        if exits(&t, r.usable.as_deref(), v) == 1 {
                            assert!(
                                rows.sources[v].is_none(),
                                "seed {seed}: single-exit node {v} got a row"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Hosts `h0`, `h1` and `far` on router `r`; `far`'s only way in is
    /// `r → far`, so taking that link down leaves `far` unreachable.
    fn spur() -> (Topology, [NodeId; 3], LinkId) {
        let mut t = Topology::new();
        let r = t.add_node(NodeKind::Router, "r");
        let h0 = t.add_node(NodeKind::Host, "h0");
        let h1 = t.add_node(NodeKind::Host, "h1");
        let far = t.add_node(NodeKind::Host, "far");
        t.add_duplex(h0, r, mbps(1.0), 0.001);
        t.add_duplex(h1, r, mbps(1.0), 0.001);
        let spur = t.add_link(r, far, mbps(1.0), 0.001);
        t.add_link(far, r, mbps(1.0), 0.001);
        (t, [h0, h1, far], spur)
    }

    #[test]
    fn route_cache_counts_and_paths_over_a_down_up_sequence() {
        let (t, [h0, h1, far], spur) = spur();
        let mut usable = vec![true; t.link_count()];
        let queries = [(h0, far), (h1, far), (h0, h1), (h0, far), (far, h0)];
        let mut cache = RouteCache::new();
        let mut seen = Vec::new();
        // up, down, up again: each state rebuilds the tables and
        // invalidates, so its first `path` of a pair misses and the repeat
        // of (h0, far) hits, negative or not; every `path_into` hits
        for (down, want) in [(false, (6, 4)), (true, (12, 8)), (false, (18, 12))] {
            usable[spur.0] = !down;
            let r = Routing::compute_filtered(&t, &usable);
            cache.invalidate();
            for &(s, d) in &queries {
                let p = cache.path(&r, &t, s, d);
                assert_eq!(p, r.path(&t, s, d));
                seen.push(p.as_ref().map(Vec::len));
            }
            for &(s, d) in &queries {
                let mut buf = vec![spur];
                let p = r.path(&t, s, d);
                assert_eq!(cache.path_into(&r, &t, s, d, &mut buf), p.is_some());
                assert_eq!(buf, p.unwrap_or_default());
            }
            assert_eq!((cache.hits(), cache.misses()), want, "down={down}");
            assert_eq!(cache.len(), 4);
        }
        let up = [Some(2), Some(2), Some(2), Some(2), Some(2)];
        let down = [None, None, Some(2), None, Some(2)];
        assert_eq!(seen, [up, down, up].concat());
    }

    #[test]
    fn invalidate_cycles_reuse_one_arena() {
        let (t, hosts) = Topology::star(6, mbps(100.0), 0.001);
        let r = Routing::compute(&t);
        let mut cache = RouteCache::new();
        let cycle = |cache: &mut RouteCache| {
            cache.invalidate();
            for &s in &hosts {
                for &d in &hosts {
                    cache.path(&r, &t, s, d);
                }
            }
        };
        cycle(&mut cache);
        // 30 two-hop paths and 6 empty self-paths
        let (len, cap) = (cache.arena.len(), cache.arena.capacity());
        assert_eq!(len, 60);
        for _ in 0..1_000 {
            cycle(&mut cache);
        }
        assert_eq!((cache.arena.len(), cache.arena.capacity()), (len, cap));
        assert_eq!((cache.hits(), cache.misses()), (0, 1_001 * 36));
    }
}
