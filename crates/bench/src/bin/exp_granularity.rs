//! E13 — network granularity: packet-level vs flow-level simulation.
//!
//! "The simulation of the network can model in detail the flow of each
//! packet through the network, a time consuming operation that leads to
//! better output results, or it can model only the flows of packets going
//! from one end to another in the network." (§3)
//!
//! The same bulk transfers cross a two-hop path under both models; the
//! table reports predicted completion times, the packet model's extra
//! fidelity (store-and-forward pipelining, queueing), and the cost in
//! simulation events and wall time.

#![expect(
    clippy::disallowed_methods,
    reason = "the exhibits' wall-clock columns time the simulator from outside; no simulated state reads the clock"
)]

use lsds_core::{Ctx, EventDriven, Model, SimTime};
use lsds_net::{FlowEvent, FlowNet, NodeId, NodeKind, PacketEvent, PacketNet, Topology};
use lsds_trace::TextTable;
use std::time::Instant;

const BW: f64 = 1.0e6; // 1 MB/s per hop
const LAT: f64 = 0.005;
const MTU: f64 = 1500.0;

fn two_hop() -> (Topology, NodeId, NodeId) {
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host, "a");
    let r = t.add_node(NodeKind::Router, "r");
    let b = t.add_node(NodeKind::Host, "b");
    t.add_duplex(a, r, BW, LAT);
    t.add_duplex(r, b, BW, LAT);
    (t, a, b)
}

// ---- flow model ----

struct FlowH {
    net: FlowNet,
    done_at: Vec<f64>,
}

enum FEv {
    Kick(f64),
    Net(FlowEvent),
}

impl Model for FlowH {
    type Event = FEv;
    fn handle(&mut self, ev: FEv, ctx: &mut Ctx<'_, FEv>) {
        match ev {
            FEv::Kick(bytes) => {
                let topo = self.net.topology();
                let a = NodeId(0);
                let b = NodeId(2);
                let _ = topo;
                self.net.start(a, b, bytes, 0, &mut ctx.map(FEv::Net));
            }
            FEv::Net(fe) => {
                for d in self.net.handle(fe, &mut ctx.map(FEv::Net)) {
                    self.done_at.push(d.finished.seconds());
                }
            }
        }
    }
}

fn run_flow(n_transfers: usize, bytes: f64) -> (f64, u64, f64) {
    let (t, _, _) = two_hop();
    let mut sim = EventDriven::new(FlowH {
        net: FlowNet::new(t),
        done_at: vec![],
    });
    for i in 0..n_transfers {
        sim.schedule(SimTime::new(i as f64 * 0.001), FEv::Kick(bytes));
    }
    let start = Instant::now();
    let stats = sim.run();
    let wall = start.elapsed().as_secs_f64();
    let last = sim.model().done_at.iter().cloned().fold(0.0f64, f64::max);
    (last, stats.events, wall)
}

// ---- packet model ----

struct PacketH {
    net: PacketNet,
    delivered: u64,
    last: f64,
}

enum PEv {
    Kick { transfer: u64, packets: u32 },
    Net(PacketEvent),
}

impl Model for PacketH {
    type Event = PEv;
    fn handle(&mut self, ev: PEv, ctx: &mut Ctx<'_, PEv>) {
        match ev {
            PEv::Kick { transfer, packets } => {
                self.net.inject_transfer(
                    transfer,
                    NodeId(0),
                    NodeId(2),
                    packets,
                    MTU,
                    &mut ctx.map(PEv::Net),
                );
            }
            PEv::Net(pe) => {
                for note in self.net.handle(pe, &mut ctx.map(PEv::Net)) {
                    if let lsds_net::PacketNote::Delivered { .. } = note {
                        self.delivered += 1;
                        self.last = ctx.now().seconds();
                    }
                }
            }
        }
    }
}

fn run_packet(n_transfers: usize, bytes: f64) -> (f64, u64, f64) {
    let (t, _, _) = two_hop();
    let packets = (bytes / MTU).ceil() as u32;
    let mut sim = EventDriven::new(PacketH {
        net: PacketNet::new(t, 1_000_000),
        delivered: 0,
        last: 0.0,
    });
    for i in 0..n_transfers {
        sim.schedule(
            SimTime::new(i as f64 * 0.001),
            PEv::Kick {
                transfer: i as u64,
                packets,
            },
        );
    }
    let start = Instant::now();
    let stats = sim.run();
    let wall = start.elapsed().as_secs_f64();
    (sim.model().last, stats.events, wall)
}

fn main() {
    println!("E13 — packet vs flow granularity (two-hop path, 1 MB/s hops)\n");
    let mut table = TextTable::with_columns(&[
        "transfers x size",
        "model",
        "completion (s)",
        "events",
        "wall (ms)",
    ]);
    for &(n, mb) in &[(1usize, 1.0f64), (4, 1.0), (8, 4.0)] {
        let bytes = mb * 1.0e6;
        let (t_f, ev_f, w_f) = run_flow(n, bytes);
        let (t_p, ev_p, w_p) = run_packet(n, bytes);
        table.row(vec![
            format!("{n} x {mb} MB"),
            "flow (fluid)".into(),
            format!("{t_f:.3}"),
            format!("{ev_f}"),
            format!("{:.2}", w_f * 1e3),
        ]);
        table.row(vec![
            String::new(),
            "packet".into(),
            format!("{t_p:.3}"),
            format!("{ev_p}"),
            format!("{:.2}", w_p * 1e3),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nReading: the models agree on completion times to within the\n\
         store-and-forward pipelining the fluid model cannot see (one MTU\n\
         of serialization), while the packet model pays thousands of times\n\
         more events — the cost/fidelity axis of the taxonomy."
    );
}
