//! `net_scale_100k` — the scale pillar of the paper's §5: a huge modelled
//! system with a bounded simulator working set. Sliding-window transfers
//! (the repository's PR 6 scenario, as the benchmark's own copy of the
//! model) over 60 k hosts and 60 k links: at most `window` disjoint duplex
//! host pairs are active at once, each runs `per_pair` sequential
//! transfers, and a pair that finishes its quota activates the next one.
//!
//! This is the workload where `setup_s` (topology, routing) and
//! `peak_rss_mib` mean something, and where `net` is used as 30 k one-flow
//! components with route-cache hits and a shallow event list — the
//! opposite of `flow_contention`.

use super::{field, fields, InputFile, Outcome, Size, Study};
use crate::product::{
    Ctx, FlowDone, FlowEvent, FlowNet, Model, NodeId, NodeKind, SimTime, SpanKind, Topology,
};
use crate::shim::child_span;
use crate::util::{outcome, Rng};
use std::path::Path;

fn dims(size: Size) -> (usize, u32, usize) {
    match size {
        Size::Full => (30_000, 80, 4096),
        Size::Smoke => (96, 6, 16),
    }
}

/// `pairs.txt`: a header `pairs per_pair window rng_seed`, then one
/// `bandwidth_bytes_per_s latency_s` line per host pair.
pub fn generate(seed: u64, size: Size) -> Vec<InputFile> {
    let (pairs, per_pair, window) = dims(size);
    generate_with(seed, pairs, per_pair, window)
}

/// [`generate`] at an explicit size (the observer-overhead probes run the
/// same model at a tenth of the pairs).
pub fn generate_with(seed: u64, pairs: usize, per_pair: u32, window: usize) -> Vec<InputFile> {
    let mut rng = Rng::new(seed, 20);
    let mut text = format!("{pairs} {per_pair} {window} {}\n", rng.next_u64());
    for _ in 0..pairs {
        // access links between 100 Mbit/s and 1 Gbit/s, 0.2–5 ms away
        let bw = [12.5e6, 19.375e6, 77.75e6, 125.0e6][rng.below(4) as usize];
        let latency = rng.range(0.0002, 0.005);
        text.push_str(&format!("{bw} {latency}\n"));
    }
    vec![("pairs.txt", text.into_bytes())]
}

/// Parsed `pairs.txt`.
pub struct ScaleInput {
    per_pair: u32,
    window: usize,
    rng_seed: u64,
    links: Vec<(f64, f64)>,
}

/// Event alphabet of the scenario.
pub enum ScaleEv {
    /// Start the next transfer of this pair.
    Kick(u32),
    /// Internal `FlowNet` event.
    Net(FlowEvent),
}

/// The sliding-window transfer generator.
pub struct ScaleModel {
    net: FlowNet,
    endpoints: Vec<(NodeId, NodeId)>,
    remaining: Vec<u32>,
    next_pair: usize,
    rng: Rng,
    completions: u64,
    fingerprint: u64,
    last_finish: f64,
    /// Reused completion buffer: the per-event `FlowNet` call allocates
    /// nothing in steady state.
    done: Vec<FlowDone>,
}

impl ScaleModel {
    fn kick(&mut self, pair: u32, ctx: &mut Ctx<'_, ScaleEv>) {
        let (a, b) = self.endpoints[pair as usize];
        let bytes = self.rng.range(5.0e5, 2.0e6);
        let started = child_span("net.start", || {
            self.net
                .try_start(a, b, bytes, u64::from(pair), &mut ctx.map(ScaleEv::Net))
        });
        // disjoint pairs and no faults: a route always exists
        assert!(started.is_ok(), "scale workload transfer failed to route");
    }
}

impl Model for ScaleModel {
    type Event = ScaleEv;

    fn trace_kind(&self, ev: &ScaleEv) -> SpanKind {
        match ev {
            ScaleEv::Kick(_) => SpanKind::new("scale.kick"),
            ScaleEv::Net(_) => SpanKind::new("scale.net_event"),
        }
    }

    fn handle(&mut self, ev: ScaleEv, ctx: &mut Ctx<'_, ScaleEv>) {
        match ev {
            ScaleEv::Kick(pair) => self.kick(pair, ctx),
            ScaleEv::Net(fe) => {
                let mut done = std::mem::take(&mut self.done);
                child_span("net.handle", || {
                    self.net
                        .handle_into(fe, &mut ctx.map(ScaleEv::Net), &mut done)
                });
                for d in done.drain(..) {
                    let pair = d.tag as usize;
                    self.completions += 1;
                    self.remaining[pair] -= 1;
                    let key = (d.tag << 32) | u64::from(self.remaining[pair]);
                    let finished = d.finished.seconds();
                    self.fingerprint = self
                        .fingerprint
                        .wrapping_add(outcome(key, finished.to_bits()));
                    self.last_finish = self.last_finish.max(finished);
                    let gap = self.rng.range(0.01, 0.5);
                    if self.remaining[pair] > 0 {
                        ctx.schedule_in(gap, ScaleEv::Kick(pair as u32));
                    } else if self.next_pair < self.endpoints.len() {
                        let next = self.next_pair as u32;
                        self.next_pair += 1;
                        ctx.schedule_in(gap, ScaleEv::Kick(next));
                    }
                }
                self.done = done;
            }
        }
    }
}

/// The `net_scale_100k` study.
pub struct NetScale;

impl Study for NetScale {
    type M = ScaleModel;
    type Input = ScaleInput;

    fn load(dir: &Path) -> std::io::Result<ScaleInput> {
        let text = std::fs::read_to_string(dir.join("pairs.txt"))?;
        let mut lines = text.lines();
        let head = fields(lines.next().unwrap_or(""));
        let pairs: usize = field(&head, 0, "pair count")?;
        let links = lines
            .map(|l| {
                let rec = fields(l);
                Ok((field(&rec, 0, "bandwidth")?, field(&rec, 1, "latency")?))
            })
            .collect::<std::io::Result<Vec<(f64, f64)>>>()?;
        if links.len() != pairs || pairs == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "pairs.txt: pair count does not match its header",
            ));
        }
        Ok(ScaleInput {
            per_pair: field(&head, 1, "per-pair quota")?,
            window: field(&head, 2, "window")?,
            rng_seed: field(&head, 3, "rng seed")?,
            links,
        })
    }

    fn build(input: &ScaleInput) -> ScaleModel {
        let mut topo = Topology::new();
        let mut endpoints = Vec::with_capacity(input.links.len());
        for (p, &(bw, latency)) in input.links.iter().enumerate() {
            let a = topo.add_node(NodeKind::Host, format!("a{p}"));
            let b = topo.add_node(NodeKind::Host, format!("b{p}"));
            topo.add_duplex(a, b, bw, latency);
            endpoints.push((a, b));
        }
        let pairs = endpoints.len();
        ScaleModel {
            net: FlowNet::new(topo),
            endpoints,
            remaining: vec![input.per_pair; pairs],
            next_pair: input.window.min(pairs),
            rng: Rng::new(input.rng_seed, 21),
            completions: 0,
            fingerprint: 0,
            last_finish: 0.0,
            done: Vec::new(),
        }
    }

    fn prime(input: &ScaleInput, schedule: &mut dyn FnMut(SimTime, ScaleEv)) {
        for p in 0..input.window.min(input.links.len()) {
            schedule(SimTime::new(p as f64 * 1.0e-3), ScaleEv::Kick(p as u32));
        }
    }

    fn horizon(_: &ScaleInput) -> Option<SimTime> {
        None
    }

    fn outcome(input: &ScaleInput, m: &ScaleModel, events: u64) -> Outcome {
        let expected = input.links.len() as u64 * u64::from(input.per_pair);
        let violation = (m.completions != expected || m.net.in_flight() != 0).then(|| {
            format!(
                "{} of {expected} transfers completed, {} still in flight",
                m.completions,
                m.net.in_flight()
            )
        });
        Outcome {
            ops: m.completions,
            events,
            fingerprint: m.fingerprint,
            counts: super::flow::net_counts(&m.net),
            violation,
            report: format!(
                "{{\"workload\":\"net_scale_100k\",\"transfers\":{},\"last_finish\":{}}}",
                m.completions, m.last_finish
            ),
        }
    }
}
