//! Side-by-side properties of the incremental fair-share engine.
//!
//! The dirty-component reshare ([`ShareMode::Incremental`]) claims to be
//! *bit-identical* to the full recompute ([`ShareMode::Full`]): same
//! allocations, same completion timestamps, same event order. These tests
//! run both modes on the same seeded random workloads — multi-component
//! topologies, Poisson link outages, capacity degradations, reroutes and
//! aborts — and compare complete trajectories: completion fingerprints,
//! abort/reroute/rejection counts, and a digest of every link's load bits,
//! folded each time an event changes them (which pins down the order of
//! the load changes, not just final results).
//!
//! The same harness also proves the route-cache properties (stale cached
//! paths never survive a fault; cache-off runs match cache-on runs) and
//! that the O(1) cached `link_load` keeps monitored runs bit-identical.

use lsds_core::{Ctx, EventDriven, Model, SimTime};
use lsds_net::{
    mbps, poisson_link_outages, FlowDone, FlowEvent, FlowNet, LinkFault, LinkId, NodeId, NodeKind,
    ShareMode, Topology,
};
use lsds_stats::SimRng;

struct Harness {
    net: FlowNet,
    done: Vec<FlowDone>,
    plan: Vec<(f64, NodeId, NodeId, f64)>,
    no_route: u64,
    /// FNV-1a over every link's load bits, folded after each event that
    /// changes them: a compact witness of the whole rate trajectory,
    /// including the order of its changes. An event that changes no load
    /// (a superseded completion, a fault on an idle link) folds nothing,
    /// so the digest does not depend on how many such events a run has.
    digest: u64,
    /// The load bits last folded into `digest`.
    folded: Vec<u64>,
    /// After every event, assert no cached route crosses a down link.
    check_routes: bool,
}

enum FEv {
    Kick(usize),
    Fault(LinkFault),
    Net(FlowEvent),
}

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Model for Harness {
    type Event = FEv;
    fn handle(&mut self, ev: FEv, ctx: &mut Ctx<'_, FEv>) {
        match ev {
            FEv::Kick(i) => {
                let (_, s, d, b) = self.plan[i];
                if self
                    .net
                    .try_start(s, d, b, i as u64, &mut ctx.map(FEv::Net))
                    .is_err()
                {
                    self.no_route += 1;
                }
            }
            FEv::Fault(f) => {
                self.net.apply_fault(f, &mut ctx.map(FEv::Net));
            }
            FEv::Net(fe) => {
                let done = self.net.handle(fe, &mut ctx.map(FEv::Net));
                self.done.extend(done);
            }
        }
        let loads =
            (0..self.net.topology().link_count()).map(|l| self.net.link_load(LinkId(l)).to_bits());
        if !loads.clone().eq(self.folded.iter().copied()) {
            self.folded.clear();
            self.folded.extend(loads);
            for &bits in &self.folded {
                self.digest = fnv(self.digest, bits);
            }
        }
        if self.check_routes {
            let n = self.net.topology().node_count();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    if let Some(p) = self.net.cached_path(NodeId(s), NodeId(d)) {
                        for &lid in &p {
                            assert!(
                                self.net.link_is_up(lid),
                                "cached route {s}->{d} crosses down link {lid:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Several disjoint clusters (duplex pairs plus a star), so the link↔flow
/// bipartite graph genuinely decomposes into independent components.
fn clustered_topo(rng: &mut SimRng) -> (Topology, Vec<Vec<NodeId>>) {
    let mut t = Topology::new();
    let mut clusters: Vec<Vec<NodeId>> = Vec::new();
    let n_pairs = 2 + rng.next_below(3) as usize;
    for p in 0..n_pairs {
        let a = t.add_node(NodeKind::Host, format!("p{p}a"));
        let b = t.add_node(NodeKind::Host, format!("p{p}b"));
        t.add_duplex(a, b, mbps(rng.range_f64(50.0, 200.0)), 0.01);
        clusters.push(vec![a, b]);
    }
    // one star cluster: multi-hop paths through a shared hub
    let hub = t.add_node(NodeKind::Router, "hub");
    let n_leaves = 3 + rng.next_below(3) as usize;
    let mut leaves = Vec::new();
    for h in 0..n_leaves {
        let leaf = t.add_node(NodeKind::Host, format!("s{h}"));
        t.add_duplex(leaf, hub, mbps(rng.range_f64(50.0, 200.0)), 0.005);
        leaves.push(leaf);
    }
    clusters.push(leaves);
    (t, clusters)
}

fn random_faults(rng: &mut SimRng, topo: &Topology) -> Vec<(f64, LinkFault)> {
    let links: Vec<LinkId> = (0..topo.link_count())
        .filter(|_| rng.next_below(3) == 0)
        .map(LinkId)
        .collect();
    let mut faults = poisson_link_outages(rng, &links, 250.0, 50.0, 10.0);
    for _ in 0..2 {
        let l = LinkId(rng.next_below(topo.link_count() as u64) as usize);
        let at = rng.range_f64(5.0, 150.0);
        let factor = rng.range_f64(0.1, 0.9);
        faults.push((at, LinkFault::Degrade { link: l, factor }));
        faults.push((
            at + rng.range_f64(5.0, 60.0),
            LinkFault::Degrade {
                link: l,
                factor: 1.0,
            },
        ));
    }
    faults
}

/// Everything two runs must agree on to count as "the same trajectory".
#[derive(Debug, PartialEq)]
struct Trajectory {
    completions: Vec<(u64, u64)>,
    aborted: u64,
    rerouted: u64,
    no_route: u64,
    digest: u64,
    reshare_count: u64,
}

struct RunCfg {
    mode: ShareMode,
    route_cache: bool,
    monitored: bool,
    check_routes: bool,
}

fn run_clustered(seed: u64, cfg: &RunCfg) -> (Trajectory, FlowNet) {
    let mut rng = SimRng::new(seed);
    let (topo, clusters) = clustered_topo(&mut rng);
    let n_transfers = 24 + rng.next_below(24) as usize;
    let plan: Vec<(f64, NodeId, NodeId, f64)> = (0..n_transfers)
        .map(|_| {
            let t = rng.range_f64(0.0, 180.0);
            let c = &clusters[rng.next_below(clusters.len() as u64) as usize];
            let s = rng.next_below(c.len() as u64) as usize;
            let mut d = rng.next_below(c.len() as u64) as usize;
            if d == s {
                d = (d + 1) % c.len();
            }
            (t, c[s], c[d], rng.range_f64(1.0e4, 8.0e8))
        })
        .collect();
    let faults = random_faults(&mut rng.fork(7), &topo);
    let mut net = FlowNet::new(topo);
    net.set_share_mode(cfg.mode);
    net.set_route_cache(cfg.route_cache);
    if cfg.monitored {
        net.enable_monitor();
    }
    let mut sim = EventDriven::new(Harness {
        net,
        done: vec![],
        plan: plan.clone(),
        no_route: 0,
        digest: 0xCBF2_9CE4_8422_2325,
        folded: Vec::new(),
        check_routes: cfg.check_routes,
    });
    for (i, &(t, ..)) in plan.iter().enumerate() {
        sim.schedule(SimTime::new(t), FEv::Kick(i));
    }
    for &(t, f) in &faults {
        sim.schedule(SimTime::new(t), FEv::Fault(f));
    }
    sim.run();
    let m = sim.into_model();
    assert_eq!(m.net.in_flight(), 0, "run must drain");
    assert_eq!(
        m.done.len() as u64 + m.net.aborted() + m.no_route,
        plan.len() as u64,
        "transfers must complete, abort, or be rejected"
    );
    let traj = Trajectory {
        completions: m
            .done
            .iter()
            .map(|d| (d.tag, d.finished.seconds().to_bits()))
            .collect(),
        aborted: m.net.aborted(),
        rerouted: m.net.rerouted(),
        no_route: m.no_route,
        digest: m.digest,
        reshare_count: m.net.reshare_count(),
    };
    (traj, m.net)
}

const BASE: RunCfg = RunCfg {
    mode: ShareMode::Incremental,
    route_cache: true,
    monitored: false,
    check_routes: false,
};

/// The tentpole property: on seeded random faulty workloads, the
/// incremental dirty-component reshare produces the exact trajectory of
/// the full recompute — completion timestamps bit-for-bit, same
/// abort/reroute/rejection outcomes, same per-event load digest — while
/// touching no more (usually far fewer) links and flows.
#[test]
fn incremental_matches_full_bitwise_under_faults() {
    let mut saw_faulted_run = false;
    let mut saw_scope_win = false;
    for trial in 0..12u64 {
        let seed = 0x51DE + trial;
        let (full, full_net) = run_clustered(
            seed,
            &RunCfg {
                mode: ShareMode::Full,
                ..BASE
            },
        );
        let (inc, inc_net) = run_clustered(seed, &BASE);
        assert_eq!(full, inc, "trial {trial}: trajectories diverged");
        saw_faulted_run |= full.aborted + full.rerouted > 0;
        assert!(
            inc_net.links_touched() <= full_net.links_touched(),
            "trial {trial}: incremental touched more links"
        );
        assert!(inc_net.flows_touched() <= full_net.flows_touched());
        saw_scope_win |= inc_net.flows_touched() < full_net.flows_touched();
    }
    assert!(saw_faulted_run, "workloads must exercise fault paths");
    assert!(saw_scope_win, "incremental must actually shrink the scope");
}

/// Memoized routes are invalidated by `apply_fault`: after every event of
/// a faulty run, no cached path crosses a link that is currently down.
#[test]
fn cached_routes_never_traverse_down_links() {
    for trial in 0..6u64 {
        let (traj, _) = run_clustered(
            0xCAC4E + trial,
            &RunCfg {
                check_routes: true,
                ..BASE
            },
        );
        // the harness asserted route freshness after every event; make
        // sure faults actually disturbed some routes along the way
        if traj.aborted + traj.rerouted > 0 {
            return;
        }
    }
    panic!("no trial exercised reroute/abort paths");
}

/// The route cache is a pure memo: disabling it changes nothing about
/// the trajectory, under the same Poisson outage schedules.
#[test]
fn cache_off_matches_cache_on_bitwise_under_outages() {
    for trial in 0..6u64 {
        let seed = 0x0FF + trial;
        let (on, on_net) = run_clustered(seed, &BASE);
        let (off, off_net) = run_clustered(
            seed,
            &RunCfg {
                route_cache: false,
                ..BASE
            },
        );
        assert_eq!(on, off, "trial {trial}: cache toggled the trajectory");
        let (hits, _) = on_net.route_cache_stats();
        assert!(hits > 0, "trial {trial}: cache never hit");
        assert_eq!(off_net.route_cache_stats(), (0, 0));
    }
}

/// Regression for the O(1) cached `link_load`: turning monitoring on
/// (which samples utilization after every event) must not perturb the
/// trajectory in any bit.
#[test]
fn monitored_runs_stay_bit_identical() {
    for trial in 0..6u64 {
        let seed = 0x40B + trial;
        let (plain, _) = run_clustered(seed, &BASE);
        let (monitored, net) = run_clustered(
            seed,
            &RunCfg {
                monitored: true,
                ..BASE
            },
        );
        assert_eq!(plain, monitored, "trial {trial}: monitoring perturbed run");
        let reg = net.monitor().unwrap();
        let sampled = (0..net.topology().link_count()).any(|l| {
            let link = net.topology().link(LinkId(l));
            let key = format!(
                "net.link.{}->{}.utilization",
                net.topology().node(link.from).name,
                net.topology().node(link.to).name
            );
            reg.series(&key).is_some()
        });
        assert!(sampled, "trial {trial}: monitor recorded nothing");
    }
}

/// A small `flow_contention`-shaped network: `side` hosts behind each of
/// two edge routers, joined by two two-hop core paths. Access links all
/// have the same capacity (so fair shares tie exactly and the fill breaks
/// ties by link index); the core never limits a flow.
fn contention_topo(side: usize) -> (Topology, Vec<NodeId>, [LinkId; 4]) {
    let mut t = Topology::new();
    let left = t.add_node(NodeKind::Router, "left");
    let right = t.add_node(NodeKind::Router, "right");
    let mut core = Vec::new();
    for m in 0..2 {
        let mid = t.add_node(NodeKind::Router, format!("mid{m}"));
        let (up, _) = t.add_duplex(left, mid, 2.5e9, 0.001);
        let (down, _) = t.add_duplex(mid, right, 2.5e9, 0.001);
        core.extend([up, down]);
    }
    let mut hosts = Vec::new();
    for (edge, name) in [(left, "l"), (right, "r")] {
        for i in 0..side {
            let h = t.add_node(NodeKind::Host, format!("{name}{i}"));
            t.add_duplex(h, edge, 12.5e6, 0.001);
            hosts.push(h);
        }
    }
    (t, hosts, [core[0], core[1], core[2], core[3]])
}

/// FNV-1a over completion records in delivery order: each record's tag and
/// finish-time bits.
fn completions_digest(done: &[FlowDone]) -> u64 {
    done.iter().fold(0xCBF2_9CE4_8422_2325, |h, d| {
        fnv(fnv(h, d.tag), d.finished.seconds().to_bits())
    })
}

/// Runs the contention case and returns its link-load digest, the digest
/// of its completion records, and its reroute and abort counts.
fn contention_run(mode: ShareMode) -> (u64, u64, u64, u64) {
    let side = 6;
    let (topo, hosts, core) = contention_topo(side);
    let mut rng = SimRng::new(0xC0_4E);
    let plan: Vec<(f64, NodeId, NodeId, f64)> = (0..60)
        .map(|i| {
            let at = 4.0 * (i as f64 + rng.next_f64()) / 60.0;
            let (a, b) = (i % side, (i * 5 + i / side) % side);
            let (src, dst) = if i % 4 == 3 {
                (side + a, b)
            } else {
                (a, side + b)
            };
            (at, hosts[src], hosts[dst], rng.range_f64(2.0e7, 8.0e7))
        })
        .collect();
    // single-link outages that alternate between the two core paths, then
    // one double outage of both left→right links that aborts every
    // left→right flow still in the system
    let mut faults: Vec<(f64, LinkFault)> = Vec::new();
    for k in 0..16 {
        let link = core[(k % 2) * 2 + (k / 2) % 2];
        let down = 1.0 + 1.5 * k as f64 + rng.range_f64(0.0, 0.4);
        faults.push((down, LinkFault::Down(link)));
        faults.push((down + rng.range_f64(0.2, 0.9), LinkFault::Up(link)));
    }
    for (link, at) in [(core[0], 12.0), (core[2], 12.1)] {
        faults.push((at, LinkFault::Down(link)));
        faults.push((at + 0.5, LinkFault::Up(link)));
    }
    let mut net = FlowNet::new(topo);
    net.set_share_mode(mode);
    let mut sim = EventDriven::new(Harness {
        net,
        done: vec![],
        plan: plan.clone(),
        no_route: 0,
        digest: 0xCBF2_9CE4_8422_2325,
        folded: Vec::new(),
        check_routes: false,
    });
    for (i, &(t, ..)) in plan.iter().enumerate() {
        sim.schedule(SimTime::new(t), FEv::Kick(i));
    }
    for &(t, f) in &faults {
        sim.schedule(SimTime::new(t), FEv::Fault(f));
    }
    sim.run();
    let m = sim.into_model();
    assert_eq!(m.net.in_flight(), 0, "run must drain");
    (
        m.digest,
        completions_digest(&m.done),
        m.net.rerouted(),
        m.net.aborted(),
    )
}

/// Both modes share one fill, so comparing them cannot catch a drift they
/// share: pin the contention case's link-load digest, the digest of its
/// completion records (tag and finish time, in delivery order) and its
/// reroute and abort counts.
#[test]
fn contention_digest_is_pinned_in_both_modes() {
    for mode in [ShareMode::Incremental, ShareMode::Full] {
        let got = contention_run(mode);
        assert_eq!(
            got,
            (0xe59c_8457_8210_062e, 0xae1b_e9cd_8950_40c4, 305, 45),
            "{mode:?}: trajectory drifted"
        );
    }
}
