//! Sequential reference execution of a
//! [`LogicalProcess`](crate::lp::LogicalProcess) topology.
//!
//! Runs the *same* LP code the parallel engines run, in a single thread,
//! with one global event list ordered by `(time, tie key)`. Because the
//! tie key is `(source LP, per-source sequence)` and every engine assigns
//! sequences in each LP's local delivery order, the per-LP subsequence of
//! this global order is exactly the order CMB, the time-stepped engine,
//! and Time Warp deliver — so this executor is the bit-identity oracle the
//! engine-equivalence and rollback property tests compare against.

use crate::lp::{out_neighbors, validate_run, LpId};
use lsds_core::{BinaryHeapQueue, EventQueue, LpPort, PooledQueue, ScheduledEvent, SimTime};
use lsds_obs::{EngineTelemetry, NoopTelemetry, Telemetry, TelemetryConfig, TelemetryReport};

/// Result of a sequential reference run.
#[derive(Debug)]
pub struct SequentialReport<L> {
    /// The logical processes, in id order, with their final state.
    pub lps: Vec<L>,
    /// Events delivered per LP, in id order.
    pub events: Vec<u64>,
}

impl<L> SequentialReport<L> {
    /// Total events delivered across all LPs.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }
}

/// Runs `lps` to `t_end` (inclusive) in one thread, delivering all events
/// in global `(time, source LP, sequence)` order.
///
/// `edges` lists the directed channels `(src, dst)` exactly as for
/// [`crate::run_cmb`], and as there a send along an undeclared edge
/// panics. Lookahead is *not* enforced here — the reference delivers
/// whatever timestamps the LPs produce, which is what lets it double as
/// the oracle for Time Warp runs whose sends duck below the declared
/// lookahead (see [`crate::timewarp`]).
pub fn run_sequential<L>(lps: Vec<L>, edges: &[(LpId, LpId)], t_end: SimTime) -> SequentialReport<L>
where
    L: crate::cmb::InitialEvents,
{
    run_sequential_with(lps, edges, t_end, NoopTelemetry).0
}

/// Like [`run_sequential`], with a [`Telemetry`] sink sampling the
/// global event-list length (`seq.queue_len`) on the configured cadence.
/// The single-threaded reference has no scheduler to introspect, but the
/// telemetry variant gives the oracle run the same live-progress and
/// series surface as the parallel engines; results are bit-identical to
/// the plain run.
pub fn run_sequential_telemetry<L>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    tcfg: TelemetryConfig,
) -> (SequentialReport<L>, TelemetryReport)
where
    L: crate::cmb::InitialEvents,
{
    let (report, tel) = run_sequential_with(lps, edges, t_end, EngineTelemetry::new(tcfg));
    (report, TelemetryReport::merge(vec![tel]))
}

fn run_sequential_with<L, Y>(
    lps: Vec<L>,
    edges: &[(LpId, LpId)],
    t_end: SimTime,
    mut tel: Y,
) -> (SequentialReport<L>, Y)
where
    L: crate::cmb::InitialEvents,
    Y: Telemetry,
{
    validate_run(&lps, edges, None);
    let mut lps = lps;
    let mut events = vec![0u64; lps.len()];
    let mut ports: Vec<LpPort<L::Msg>> = (0..lps.len())
        .map(|me| LpPort::new(me, 0.0, out_neighbors(edges, me)))
        .collect();
    let mut seqs: Vec<u64> = ports.iter().map(LpPort::first_seq).collect();
    // One global list; the payload carries its destination LP. The `seq`
    // field holds the cross-LP tie key, as in the parallel engines.
    let mut queue = PooledQueue::new(BinaryHeapQueue::<u32>::new());
    let mut local = Vec::new();
    for (me, lp) in lps.iter_mut().enumerate() {
        ports[me].initial(lp, &mut seqs[me], &mut local);
        file(&mut queue, me, &mut ports[me], &mut local);
    }

    loop {
        if queue.peek_time().is_none_or(|t| t > t_end) {
            break;
        }
        let Some(ev) = queue.pop_min() else {
            debug_assert!(false, "peeked event vanished");
            break;
        };
        let (me, msg) = ev.event;
        events[me] += 1;
        if Y::ENABLED && tel.tick(ev.time.seconds()) {
            let len = queue.len() as f64;
            tel.sample("seq.queue_len", 0, ev.time.seconds(), len);
        }
        let ev = ScheduledEvent::with_parent(ev.time, ev.seq, ev.parent, msg);
        ports[me].handle(&mut lps[me], ev, &mut seqs[me], &mut local);
        file(&mut queue, me, &mut ports[me], &mut local);
    }

    (SequentialReport { lps, events }, tel)
}

/// Files what LP `me`'s handler scheduled (`local`) and sent (staged on
/// `port`) into the global list, each payload tagged with its destination.
fn file<M>(
    queue: &mut impl EventQueue<(LpId, M)>,
    me: LpId,
    port: &mut LpPort<M>,
    local: &mut Vec<ScheduledEvent<M>>,
) {
    let tag = |dst, ev: ScheduledEvent<M>| {
        ScheduledEvent::with_parent(ev.time, ev.seq, ev.parent, (dst, ev.event))
    };
    for ev in local.drain(..) {
        queue.insert(tag(me, ev));
    }
    port.drain(|_, dst, ev| queue.insert(tag(dst, ev)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmb::InitialEvents;
    use crate::lp::{LogicalProcess, LpCtx};

    struct Hop {
        n: usize,
        seen: u64,
        delay: f64,
    }
    impl LogicalProcess for Hop {
        type Msg = u64;
        fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
            self.seen += 1;
            ctx.send((ctx.me() + 1) % self.n, self.delay, hop + 1);
        }
        fn lookahead(&self) -> f64 {
            self.delay
        }
    }
    impl InitialEvents for Hop {
        fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
            if ctx.me() == 0 {
                ctx.schedule_in(0.0, 0);
            }
        }
    }

    #[test]
    fn matches_analytic_ring_count() {
        let lps: Vec<Hop> = (0..4)
            .map(|_| Hop {
                n: 4,
                seen: 0,
                delay: 1.0,
            })
            .collect();
        let edges: Vec<(usize, usize)> = (0..4).map(|i| (i, (i + 1) % 4)).collect();
        let report = run_sequential(lps, &edges, SimTime::new(100.0));
        // token at t = 0..=100 → 101 events, LP0 sees 26 of them
        assert_eq!(report.total_events(), 101);
        assert_eq!(report.lps[0].seen, 26);
        assert_eq!(report.events[0], 26);
    }

    #[test]
    fn telemetry_run_matches_plain_and_samples_queue() {
        let mk = || -> (Vec<Hop>, Vec<(usize, usize)>) {
            (
                (0..4)
                    .map(|_| Hop {
                        n: 4,
                        seen: 0,
                        delay: 1.0,
                    })
                    .collect(),
                (0..4).map(|i| (i, (i + 1) % 4)).collect(),
            )
        };
        let (lps, edges) = mk();
        let plain = run_sequential(lps, &edges, SimTime::new(100.0));
        let (lps, edges) = mk();
        let (report, tel) = run_sequential_telemetry(
            lps,
            &edges,
            SimTime::new(100.0),
            lsds_obs::TelemetryConfig::new().every_events(16),
        );
        assert_eq!(report.total_events(), plain.total_events());
        for (a, b) in report.lps.iter().zip(plain.lps.iter()) {
            assert_eq!(a.seen, b.seen);
        }
        assert_eq!(tel.events(), report.total_events());
        let series = tel.series_on("seq.queue_len", 0).expect("queue series");
        assert!(!series.is_empty());
        assert!(series.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
