//! `flow_contention` — max-min fair sharing and routing under stress:
//! thousands of concurrent four-hop flows that all cross a two-path core,
//! so the link↔flow graph is a couple of giant components and every
//! arrival or completion walks a thousand flows; some 240 seeded outages of
//! single core links force reroutes and `Routing::compute_filtered` and
//! invalidate the route cache, and one early double outage aborts every
//! left→right flow into the retry path.
//!
//! The access links, not the core, limit each flow. With the core as the
//! bottleneck every reshare changes every rate, `FlowNet` schedules a new
//! completion for each of them and leaves the stale ones in the event
//! list: 1 300 flows then made 10.5 M events, 7.2 M of them pending at
//! once (596 MiB), and the event list, not `net`, took most of the 15 s.
//!
//! `net` is used here the opposite way to `net_scale_100k` (giant
//! components and cache invalidations against 30 k one-flow components and
//! cache hits), so a gain for one that costs the other shows.

use super::{field, fields, InputFile, Outcome, Size, Study};
use crate::product::{
    Ctx, FlowDone, FlowEvent, FlowNet, LinkFault, LinkId, Model, NodeId, NodeKind, SimTime,
    SpanKind, Topology,
};
use crate::shim::child_span;
use crate::util::{outcome, Rng};
use std::path::Path;

/// Directed core links, in the order [`build_topology`] adds them.
const CORE_LINKS: usize = 8;

/// Seconds an aborted flow waits before it starts again from byte zero.
const RETRY_BACKOFF: f64 = 2.0;

/// Host access links: 100 Mbit/s. With a dozen flows per host they, not
/// the core, limit every flow, so one arrival changes a dozen rates while
/// the reshare still walks the whole component the core ties together.
const ACCESS_BW: f64 = 12.5e6;

/// Core links: 20 Gbit/s, never the bottleneck.
const CORE_BW: f64 = 2.5e9;

/// Single-link outages in the fault schedule.
const FAULT_SLOTS: usize = 240;

fn dims(size: Size) -> (usize, usize) {
    match size {
        // (hosts per side, flows)
        Size::Full => (128, 3800),
        Size::Smoke => (8, 60),
    }
}

/// `flows.txt`: a header `hosts_per_side flows`, then one
/// `arrival_s src_host dst_host bytes` line per flow (hosts `0..n` are on
/// the left, `n..2n` on the right). `faults.txt`: one `at_s link down|up`
/// line per fault, time-ordered; `link` is a directed core link
/// `0..CORE_LINKS`.
pub fn generate(seed: u64, size: Size) -> Vec<InputFile> {
    let (side, flows) = dims(size);
    let mut rng = Rng::new(seed, 30);
    let mut text = format!("{side} {flows}\n");
    let scale = (flows as f64 / (2 * side) as f64).max(1.0);
    let mut total_bytes = 0.0;
    // hosts take turns (from a seeded offset), so every access link
    // carries the same number of flows whatever the seed: the run's length
    // must not hang on how unlucky the busiest host was
    let (off_a, off_b) = (
        rng.below(side as u64) as usize,
        rng.below(side as u64) as usize,
    );
    for i in 0..flows {
        // every arrival lands in [0, 10) while a transfer takes minutes,
        // so the flows really are concurrent; one in four runs right→left
        // (arrivals and sizes are jittered grids, not independent draws:
        // the seed moves every flow, but not how many arrive in a second
        // or how many bytes there are in total)
        let at = 10.0 * (i as f64 + rng.unit()) / flows as f64;
        let (a, b) = ((i + off_a) % side, (i * 7 + i / side + off_b) % side);
        let (src, dst) = if i % 4 == 3 {
            (side + a, b)
        } else {
            (a, side + b)
        };
        let rank = (i * 1_000_003 + off_a) % flows;
        let bytes = (2.0e6 + 6.0e6 * (rank as f64 + rng.unit()) / flows as f64) * scale;
        total_bytes += bytes;
        text.push_str(&format!("{at} {src} {dst} {bytes}\n"));
    }
    // Faults cover the time the left access links need to carry their
    // three quarters of the bytes, i.e. most of the busy period. They come
    // in slots: slot k takes one link of core path k mod 2 down for part
    // of the slot, so the two paths are never down together and every
    // fault is a reroute of the flows on that link...
    let horizon = 10.0 + 0.75 * total_bytes / side as f64 / ACCESS_BW;
    let slots = FAULT_SLOTS.min(flows);
    let slot = (horizon - 15.0).max(1.0) / slots as f64;
    let mut faults: Vec<(f64, usize, &str)> = Vec::new();
    let mut frng = Rng::new(seed, 31);
    for k in 0..slots {
        // the four links of the path take turns: the left→right ones carry
        // three times the flows of the others, and how many flows a run
        // reroutes must not depend on the seed's luck
        let link = (k % 2) * (CORE_LINKS / 2) + (k / 2 + off_b) % (CORE_LINKS / 2);
        let down = 15.0 + slot * (k as f64 + frng.range(0.0, 0.3));
        let up = down + slot * frng.range(0.1, 0.6);
        faults.push((down, link, "down"));
        faults.push((up, link, "up"));
    }
    // ...except once, early, while a flow has little progress to lose:
    // both left→right links fail within a tenth of a second, every
    // left→right flow aborts and goes through the retry path
    for (link, at) in [(0, 12.0), (4, 12.1)] {
        faults.push((at, link, "down"));
        faults.push((at + 0.5, link, "up"));
    }
    faults.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut ftext = String::new();
    for (t, link, what) in faults {
        ftext.push_str(&format!("{t} {link} {what}\n"));
    }
    vec![
        ("flows.txt", text.into_bytes()),
        ("faults.txt", ftext.into_bytes()),
    ]
}

/// Parsed input.
pub struct FlowInput {
    side: usize,
    /// `(arrival, src host, dst host, bytes)`.
    plan: Vec<(f64, usize, usize, f64)>,
    /// `(at, fault)`.
    faults: Vec<(f64, LinkFault)>,
}

/// Two edge routers joined by two two-hop paths (the core, added first so
/// its directed links are ids `0..CORE_LINKS`), `side` hosts behind each.
fn build_topology(side: usize) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let left = topo.add_node(NodeKind::Router, "left");
    let right = topo.add_node(NodeKind::Router, "right");
    for m in 0..2 {
        let mid = topo.add_node(NodeKind::Router, format!("mid{m}"));
        topo.add_duplex(left, mid, CORE_BW, 0.001);
        topo.add_duplex(mid, right, CORE_BW, 0.001);
    }
    assert_eq!(topo.link_count(), CORE_LINKS);
    let mut hosts = Vec::with_capacity(2 * side);
    for (edge, name) in [(left, "l"), (right, "r")] {
        for i in 0..side {
            let h = topo.add_node(NodeKind::Host, format!("{name}{i}"));
            topo.add_duplex(h, edge, ACCESS_BW, 0.001);
            hosts.push(h);
        }
    }
    (topo, hosts)
}

/// Event alphabet.
pub enum FlowEv {
    /// Start (or, after an abort, restart) planned flow `i`.
    Kick(u32),
    /// Apply fault `i` of the schedule.
    Fault(u32),
    /// Internal `FlowNet` event.
    Net(FlowEvent),
}

/// The contention model: planned flows, injected faults, retry on abort.
pub struct FlowModel {
    net: FlowNet,
    hosts: Vec<NodeId>,
    plan: Vec<(f64, usize, usize, f64)>,
    faults: Vec<(f64, LinkFault)>,
    completed: u64,
    retries: u64,
    fingerprint: u64,
    last_finish: f64,
    done: Vec<FlowDone>,
}

impl FlowModel {
    fn retry_later(&mut self, flow: u32, ctx: &mut Ctx<'_, FlowEv>) {
        self.retries += 1;
        ctx.schedule_in(RETRY_BACKOFF, FlowEv::Kick(flow));
    }
}

impl Model for FlowModel {
    type Event = FlowEv;

    fn trace_kind(&self, ev: &FlowEv) -> SpanKind {
        match ev {
            FlowEv::Kick(_) => SpanKind::new("flow.kick"),
            FlowEv::Fault(_) => SpanKind::new("flow.fault"),
            FlowEv::Net(_) => SpanKind::new("flow.net_event"),
        }
    }

    fn handle(&mut self, ev: FlowEv, ctx: &mut Ctx<'_, FlowEv>) {
        match ev {
            FlowEv::Kick(i) => {
                let (_, src, dst, bytes) = self.plan[i as usize];
                let (src, dst) = (self.hosts[src], self.hosts[dst]);
                let started = child_span("net.start", || {
                    self.net
                        .try_start(src, dst, bytes, u64::from(i), &mut ctx.map(FlowEv::Net))
                });
                if started.is_err() {
                    // both core paths are down right now
                    self.retry_later(i, ctx);
                }
            }
            FlowEv::Fault(i) => {
                let fault = self.faults[i as usize].1;
                let hit = child_span("net.apply_fault", || {
                    self.net.apply_fault(fault, &mut ctx.map(FlowEv::Net))
                });
                for aborted in hit.aborted {
                    self.retry_later(aborted.tag as u32, ctx);
                }
            }
            FlowEv::Net(fe) => {
                let mut done = std::mem::take(&mut self.done);
                child_span("net.handle", || {
                    self.net
                        .handle_into(fe, &mut ctx.map(FlowEv::Net), &mut done)
                });
                for d in done.drain(..) {
                    self.completed += 1;
                    let finished = d.finished.seconds();
                    self.fingerprint = self
                        .fingerprint
                        .wrapping_add(outcome(d.tag, finished.to_bits()));
                    self.last_finish = self.last_finish.max(finished);
                }
                self.done = done;
            }
        }
    }
}

/// The counts every `FlowNet`-based workload reports.
pub fn net_counts(net: &FlowNet) -> Vec<(&'static str, f64)> {
    let reshares = net.reshare_count();
    let per = |total: u64| {
        if reshares == 0 {
            0.0
        } else {
            total as f64 / reshares as f64
        }
    };
    let (hits, misses) = net.route_cache_stats();
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    vec![
        ("net.reshares", reshares as f64),
        ("net.flows_touched_per_reshare", per(net.flows_touched())),
        ("net.links_touched_per_reshare", per(net.links_touched())),
        ("net.route_cache_hit_ratio", hit_ratio),
        ("net.flows_completed", net.completed() as f64),
        ("net.flows_aborted", net.aborted() as f64),
        ("net.flows_rerouted", net.rerouted() as f64),
    ]
}

/// The `flow_contention` study.
pub struct FlowContention;

impl Study for FlowContention {
    type M = FlowModel;
    type Input = FlowInput;

    fn load(dir: &Path) -> std::io::Result<FlowInput> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let text = std::fs::read_to_string(dir.join("flows.txt"))?;
        let mut lines = text.lines();
        let head = fields(lines.next().unwrap_or(""));
        let side: usize = field(&head, 0, "host count")?;
        let flows: usize = field(&head, 1, "flow count")?;
        let plan = lines
            .map(|l| {
                let rec = fields(l);
                let (src, dst): (usize, usize) = (field(&rec, 1, "src")?, field(&rec, 2, "dst")?);
                if src >= 2 * side || dst >= 2 * side || src == dst {
                    return Err(bad("flows.txt: host out of range"));
                }
                Ok((
                    field(&rec, 0, "arrival")?,
                    src,
                    dst,
                    field(&rec, 3, "bytes")?,
                ))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        if plan.len() != flows || flows == 0 {
            return Err(bad("flows.txt: flow count does not match its header"));
        }
        let faults = std::fs::read_to_string(dir.join("faults.txt"))?
            .lines()
            .map(|l| {
                let rec = fields(l);
                let link: usize = field(&rec, 1, "link")?;
                if link >= CORE_LINKS {
                    return Err(bad("faults.txt: not a core link"));
                }
                let fault = match rec.get(2).copied() {
                    Some("down") => LinkFault::Down(LinkId(link)),
                    Some("up") => LinkFault::Up(LinkId(link)),
                    _ => return Err(bad("faults.txt: fault must be down or up")),
                };
                Ok((field(&rec, 0, "fault time")?, fault))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(FlowInput { side, plan, faults })
    }

    fn build(input: &FlowInput) -> FlowModel {
        let (topo, hosts) = build_topology(input.side);
        FlowModel {
            net: FlowNet::new(topo),
            hosts,
            plan: input.plan.clone(),
            faults: input.faults.clone(),
            completed: 0,
            retries: 0,
            fingerprint: 0,
            last_finish: 0.0,
            done: Vec::new(),
        }
    }

    fn prime(input: &FlowInput, schedule: &mut dyn FnMut(SimTime, FlowEv)) {
        for (i, &(at, ..)) in input.plan.iter().enumerate() {
            schedule(SimTime::new(at), FlowEv::Kick(i as u32));
        }
        for (i, &(at, _)) in input.faults.iter().enumerate() {
            schedule(SimTime::new(at), FlowEv::Fault(i as u32));
        }
    }

    fn horizon(_: &FlowInput) -> Option<SimTime> {
        None
    }

    fn outcome(input: &FlowInput, m: &FlowModel, events: u64) -> Outcome {
        let planned = input.plan.len() as u64;
        let violation = (m.completed != planned || m.net.in_flight() != 0).then(|| {
            format!(
                "{} of {planned} flows completed, {} still in flight",
                m.completed,
                m.net.in_flight()
            )
        });
        Outcome {
            ops: m.completed,
            events,
            fingerprint: m.fingerprint,
            counts: net_counts(&m.net),
            violation,
            report: format!(
                "{{\"workload\":\"flow_contention\",\"flows\":{},\"retries\":{},\"last_finish\":{}}}",
                m.completed, m.retries, m.last_finish
            ),
        }
    }
}
