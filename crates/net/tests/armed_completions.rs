//! Completion events of [`FlowNet`] on the shapes that stress which flow
//! of a component holds the pending `Complete`: a component that splits
//! when a flow departs (by completion or by `cancel`), and many flows that
//! finish at the same instant while the owner starts a replacement on each
//! completion.

use lsds_core::{Ctx, EventDriven, Model, SimTime};
use lsds_net::{FlowDone, FlowEvent, FlowId, FlowNet, NodeId, NodeKind, Topology};

/// What the harness does at a planned instant.
#[derive(Clone, Copy)]
enum Act {
    /// Start a transfer of `bytes` from `src` to `dst` with tag `tag`.
    Start {
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: u64,
    },
    /// Cancel the transfer started with tag `tag`.
    Cancel(u64),
}

enum Ev {
    Act(Act),
    Net(FlowEvent),
}

struct Harness {
    net: FlowNet,
    done: Vec<FlowDone>,
    /// Flow id per tag, for `Act::Cancel`.
    ids: Vec<Option<FlowId>>,
    /// Each completion of a tag below this starts one more transfer over
    /// the same endpoints, tagged `tag + step`.
    replace_below: u64,
    step: u64,
    ends: (NodeId, NodeId),
}

impl Harness {
    fn start(&mut self, src: NodeId, dst: NodeId, bytes: f64, tag: u64, ctx: &mut Ctx<'_, Ev>) {
        let id = self.net.start(src, dst, bytes, tag, &mut ctx.map(Ev::Net));
        let slot = tag as usize;
        if self.ids.len() <= slot {
            self.ids.resize(slot + 1, None);
        }
        self.ids[slot] = Some(id);
    }
}

impl Model for Harness {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Act(Act::Start {
                src,
                dst,
                bytes,
                tag,
            }) => self.start(src, dst, bytes, tag, ctx),
            Ev::Act(Act::Cancel(tag)) => {
                let id = self.ids[tag as usize].expect("cancel of a started transfer");
                assert!(self.net.cancel(id, &mut ctx.map(Ev::Net)).is_some());
            }
            Ev::Net(fe) => {
                for d in self.net.handle(fe, &mut ctx.map(Ev::Net)) {
                    if d.tag < self.replace_below {
                        let (src, dst) = self.ends;
                        self.start(src, dst, d.bytes, d.tag + self.step, ctx);
                    }
                    self.done.push(d);
                }
            }
        }
    }
}

fn run(net: FlowNet, plan: &[(f64, Act)], replace: (u64, u64, NodeId, NodeId)) -> Harness {
    let (replace_below, step, src, dst) = replace;
    let mut sim = EventDriven::new(Harness {
        net,
        done: Vec::new(),
        ids: Vec::new(),
        replace_below,
        step,
        ends: (src, dst),
    });
    for &(t, act) in plan {
        sim.schedule(SimTime::new(t), Ev::Act(act));
    }
    sim.run();
    sim.into_model()
}

/// FNV-1a over completion records in delivery order: each record's tag and
/// finish-time bits.
fn completions_digest(done: &[FlowDone]) -> u64 {
    let fnv = |mut h: u64, x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    done.iter().fold(0xCBF2_9CE4_8422_2325, |h, d| {
        fnv(fnv(h, d.tag), d.finished.seconds().to_bits())
    })
}

fn finish(done: &[FlowDone], tag: u64) -> f64 {
    done.iter()
        .find(|d| d.tag == tag)
        .unwrap_or_else(|| panic!("tag {tag} never completed"))
        .finished
        .seconds()
}

/// Three flows chained through two 10 MB/s links with no latency: A on
/// `l1`, B on `l1` and `l2`, C on `l2`. All three start at 0 and run at
/// 5 MB/s (both links tie as bottleneck), so they form one component.
/// `b_bytes` sets when B leaves; `cancel_b_at` tears it down instead.
fn chain(b_bytes: f64, cancel_b_at: Option<f64>) -> Harness {
    let mut t = Topology::new();
    let n: Vec<NodeId> = (0..3)
        .map(|i| t.add_node(NodeKind::Host, format!("n{i}")))
        .collect();
    t.add_link(n[0], n[1], 10.0e6, 0.0);
    t.add_link(n[1], n[2], 10.0e6, 0.0);
    let start = |src: usize, dst: usize, bytes: f64, tag: u64| {
        (
            0.0,
            Act::Start {
                src: n[src],
                dst: n[dst],
                bytes,
                tag,
            },
        )
    };
    let mut plan = vec![
        start(0, 1, 30.0e6, 0),  // A
        start(0, 2, b_bytes, 1), // B
        start(1, 2, 50.0e6, 2),  // C
    ];
    if let Some(at) = cancel_b_at {
        plan.push((at, Act::Cancel(1)));
    }
    let h = run(FlowNet::new(t), &plan, (0, 0, n[0], n[1]));
    assert_eq!(h.net.in_flight(), 0, "a flow was left without a completion");
    h
}

/// B's departure at t = 2 splits the component into {A} and {C}. Each
/// piece must still complete on time: A carried 10 MB by then and sends
/// its last 20 MB at 10 MB/s (t = 4), C its last 40 MB (t = 6).
#[test]
fn split_by_completion_completes_both_pieces() {
    let h = chain(10.0e6, None);
    assert_eq!(h.done.len(), 3);
    assert!((finish(&h.done, 1) - 2.0).abs() < 1e-9, "{:?}", h.done);
    assert!((finish(&h.done, 0) - 4.0).abs() < 1e-9, "{:?}", h.done);
    assert!((finish(&h.done, 2) - 6.0).abs() < 1e-9, "{:?}", h.done);
}

/// The same split, with B cancelled at t = 2 long before it could finish.
#[test]
fn split_by_cancel_completes_both_pieces() {
    let h = chain(1.0e9, Some(2.0));
    assert_eq!(h.done.len(), 2);
    assert_eq!(h.net.aborted(), 1);
    assert!((finish(&h.done, 0) - 4.0).abs() < 1e-9, "{:?}", h.done);
    assert!((finish(&h.done, 2) - 6.0).abs() < 1e-9, "{:?}", h.done);
}

/// Eight equal 1 MB flows start together on one 8 MB/s link, so all eight
/// predictions fall on the same instant; each completion starts a
/// replacement over the same link, for four rounds. Every round ends at an
/// exact tie, and every replacement's start lands among the completions of
/// its instant, so the delivery order is pinned.
#[test]
fn tied_completions_with_replacements_keep_their_order() {
    const K: u64 = 8;
    let mut t = Topology::new();
    let a = t.add_node(NodeKind::Host, "a");
    let b = t.add_node(NodeKind::Host, "b");
    t.add_link(a, b, 8.0e6, 0.0);
    let plan: Vec<(f64, Act)> = (0..K)
        .map(|tag| {
            (
                0.0,
                Act::Start {
                    src: a,
                    dst: b,
                    bytes: 1.0e6,
                    tag,
                },
            )
        })
        .collect();
    let h = run(FlowNet::new(t), &plan, (3 * K, K, a, b));
    assert_eq!(h.done.len() as u64, 4 * K);
    assert_eq!(h.net.in_flight(), 0);
    assert_eq!(completions_digest(&h.done), 0x1040_526f_1ca4_ed55);
}
