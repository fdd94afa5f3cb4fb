//! Pending-event-set ("event list") structures.
//!
//! The paper singles the event list out as a first-order engine design
//! choice: "a system using an O(1) structure for the event list will behave
//! better than another one using an O(log n) queuing structure … Finding the
//! best suitable queuing structure to be used for the simulation of large
//! scale systems still represents a hot subject today. There is not a single
//! unanimity accepted queuing structure that performs best when modeling
//! distributed systems, they all tend to behave different depending on
//! various parameters." (§3)
//!
//! Four structures are provided behind one trait so any engine can swap
//! them (and experiment E2 races them against each other):
//!
//! | structure | insert | pop-min | notes |
//! |---|---|---|---|
//! | [`BinaryHeapQueue`] | O(log n) | O(log n) | the default; 4-ary, one cache line of keys per level |
//! | [`SortedListQueue`] | O(n) | O(1) | fine for tiny models, collapses at scale |
//! | [`CalendarQueue`] | O(1) am. | O(1) am. | Brown 1988; self-resizing buckets |
//! | [`LadderQueue`] | O(1) am. | O(1) am. | Tang/Goh-style tiered buckets |
//!
//! All four deliver events in identical `(time, seq)` order, so swapping the
//! structure never changes simulation *results*, only simulator performance
//! — a property the integration tests assert.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

mod binary_heap;
mod calendar;
mod ladder;
mod sorted_list;

pub use binary_heap::BinaryHeapQueue;
pub use calendar::CalendarQueue;
pub use ladder::LadderQueue;
pub use sorted_list::SortedListQueue;

use crate::event::ScheduledEvent;
use crate::time::SimTime;

/// A priority queue of [`ScheduledEvent`]s ordered by `(time, seq)`.
pub trait EventQueue<E> {
    /// Inserts an event.
    fn insert(&mut self, ev: ScheduledEvent<E>);
    /// Removes and returns the earliest event, if any.
    fn pop_min(&mut self) -> Option<ScheduledEvent<E>>;
    /// Due time of the earliest event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes the earliest *run* — every pending event sharing the
    /// minimal timestamp — appending the events to `out` in `(time, seq)`
    /// order and returning the run length (0 when empty). Engines use this
    /// to drain simultaneous events in one dispatch loop instead of
    /// re-touching the queue per event; structures whose ties sit
    /// contiguously (calendar day rings, the sorted list) override the
    /// default peek/pop loop with a contiguous drain.
    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        let Some(first) = self.pop_min() else {
            return 0;
        };
        let t = first.time;
        out.push(first);
        let mut n = 1;
        while self.peek_time().is_some_and(|pt| pt.same_instant(t)) {
            let Some(ev) = self.pop_min() else {
                debug_assert!(false, "peeked event vanished");
                break;
            };
            out.push(ev);
            n += 1;
        }
        n
    }
    /// Removes and returns the earliest event, appending any *ties* —
    /// later-seq events sharing its timestamp — to `ties` in `(time, seq)`
    /// order. Equivalent to [`EventQueue::pop_run`] with the head returned
    /// directly instead of pushed, which lets engines deliver the common
    /// singleton run without a `Vec` round-trip; structures whose ties sit
    /// contiguously override the default peek/pop loop with a contiguous
    /// drain.
    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        let first = self.pop_min()?;
        while self
            .peek_time()
            .is_some_and(|pt| pt.same_instant(first.time))
        {
            let Some(ev) = self.pop_min() else {
                debug_assert!(false, "peeked event vanished");
                break;
            };
            ties.push(ev);
        }
        Some(first)
    }
    /// Human-readable structure name (for experiment output).
    fn name(&self) -> &'static str;
    /// Storage occupancy `(live, high_water)` for structures that park
    /// payloads out-of-line (the pooled adaptor reports its slab's
    /// current and peak slot usage). `None` — the default — for plain
    /// structures whose only size measure is [`EventQueue::len`].
    fn occupancy(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Selector for the event-list structure, usable in experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// `O(log n)` binary heap.
    BinaryHeap,
    /// `O(n)`-insert sorted list.
    SortedList,
    /// Amortized `O(1)` calendar queue.
    Calendar,
    /// Amortized `O(1)` ladder queue.
    Ladder,
}

impl QueueKind {
    /// All selectable kinds, for parameter sweeps.
    pub const ALL: [QueueKind; 4] = [
        QueueKind::BinaryHeap,
        QueueKind::SortedList,
        QueueKind::Calendar,
        QueueKind::Ladder,
    ];

    /// Builds an empty queue of this kind.
    pub fn build<E: 'static>(self) -> Box<dyn EventQueue<E>> {
        match self {
            QueueKind::BinaryHeap => Box::new(BinaryHeapQueue::new()),
            QueueKind::SortedList => Box::new(SortedListQueue::new()),
            QueueKind::Calendar => Box::new(CalendarQueue::new()),
            QueueKind::Ladder => Box::new(LadderQueue::new()),
        }
    }

    /// Structure name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::BinaryHeap => "binary-heap",
            QueueKind::SortedList => "sorted-list",
            QueueKind::Calendar => "calendar",
            QueueKind::Ladder => "ladder",
        }
    }
}

impl<E> EventQueue<E> for Box<dyn EventQueue<E>> {
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        (**self).insert(ev)
    }
    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        (**self).pop_min()
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        (**self).peek_time()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        (**self).pop_run(out)
    }
    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        (**self).pop_next(ties)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn occupancy(&self) -> Option<(usize, usize)> {
        (**self).occupancy()
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared conformance suite run against every queue implementation.
    use super::*;
    use lsds_stats::SimRng;

    pub fn fifo_within_same_time<Q: EventQueue<u32>>(mut q: Q) {
        let t = SimTime::new(1.0);
        for i in 0..100u32 {
            q.insert(ScheduledEvent::new(t, i as u64, i));
        }
        for i in 0..100u32 {
            assert_eq!(q.pop_min().unwrap().event, i, "{}", q.name());
        }
    }

    pub fn ordered_output<Q: EventQueue<u64>>(mut q: Q, n: usize, seed: u64) {
        let mut rng = SimRng::new(seed);
        for s in 0..n as u64 {
            let t = rng.next_f64() * 1000.0;
            q.insert(ScheduledEvent::new(SimTime::new(t), s, s));
        }
        assert_eq!(q.len(), n);
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        let mut first = true;
        while let Some(ev) = q.pop_min() {
            if !first {
                assert!(
                    ev.key() >= last,
                    "{}: out of order {:?} after {:?}",
                    q.name(),
                    ev.key(),
                    last
                );
            }
            first = false;
            last = ev.key();
            popped += 1;
        }
        assert_eq!(popped, n);
        assert!(q.is_empty());
    }

    pub fn interleaved_hold_model<Q: EventQueue<u64>>(mut q: Q, seed: u64) {
        // classic hold: pop one, insert one slightly in the future
        let mut rng = SimRng::new(seed);
        let mut seq = 0u64;
        for _ in 0..500 {
            q.insert(ScheduledEvent::new(
                SimTime::new(rng.next_f64() * 10.0),
                seq,
                seq,
            ));
            seq += 1;
        }
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            let ev = q.pop_min().expect("queue drained unexpectedly");
            assert!(ev.time >= now, "{}: clock went backwards", q.name());
            now = ev.time;
            q.insert(ScheduledEvent::new(
                now.after(rng.next_f64() * 5.0),
                seq,
                seq,
            ));
            seq += 1;
        }
        assert_eq!(q.len(), 500);
    }

    pub fn peek_agrees_with_pop<Q: EventQueue<u32>>(mut q: Q, seed: u64) {
        let mut rng = SimRng::new(seed);
        for s in 0..1000u64 {
            q.insert(ScheduledEvent::new(
                SimTime::new(rng.next_f64() * 50.0),
                s,
                s as u32,
            ));
        }
        while let Some(t) = q.peek_time() {
            let ev = q.pop_min().unwrap();
            assert_eq!(ev.time, t, "{}", q.name());
        }
    }

    pub fn empty_behaviour<Q: EventQueue<u32>>(mut q: Q) {
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.peek_time().is_none());
        assert!(q.pop_min().is_none());
        q.insert(ScheduledEvent::new(SimTime::new(3.0), 0, 7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::new(3.0)));
        assert_eq!(q.pop_min().unwrap().event, 7);
        assert!(q.pop_min().is_none());
    }

    pub fn pop_run_matches_pop_min<Q: EventQueue<u64>>(mut a: Q, mut b: Q, seed: u64) {
        // heavy ties: many events land on the same quantized timestamp
        let mut rng = SimRng::new(seed);
        for s in 0..3000u64 {
            let t = (rng.next_f64() * 40.0).floor() * 0.5;
            a.insert(ScheduledEvent::new(SimTime::new(t), s, s));
            b.insert(ScheduledEvent::new(SimTime::new(t), s, s));
        }
        let mut runs = Vec::new();
        let mut total = 0;
        while !a.is_empty() {
            runs.clear();
            let n = a.pop_run(&mut runs);
            assert_eq!(n, runs.len(), "{}: bad run length", a.name());
            assert!(n > 0, "{}: empty run from non-empty queue", a.name());
            let t = runs[0].time;
            for ev in &runs {
                assert_eq!(ev.time, t, "{}: mixed-time run", a.name());
                let single = b.pop_min().expect("reference queue drained early");
                assert_eq!(
                    (ev.time, ev.seq, ev.event),
                    (single.time, single.seq, single.event),
                    "{}: run order diverged from pop_min order",
                    a.name()
                );
            }
            assert_ne!(
                a.peek_time(),
                Some(t),
                "{}: run left same-time events behind",
                a.name()
            );
            total += n;
        }
        assert_eq!(total, 3000);
        assert!(b.pop_min().is_none());
    }

    /// One step of a script that [`matches_sorted_list`] runs.
    #[derive(Clone, Copy, Debug)]
    pub enum Op {
        /// Insert `(time, seq)` with `seq` as the payload.
        Insert(f64, u64),
        Pop,
        Peek,
        PopNext,
        PopRun,
    }

    /// `(time bits, seq, payload)`: what two queues must agree on.
    fn bits(ev: &ScheduledEvent<u64>) -> (u64, u64, u64) {
        (ev.time.seconds().to_bits(), ev.seq, ev.event)
    }

    /// Runs `ops` on `q` and on a [`SortedListQueue`] reference and
    /// asserts after every step that both returned the same events and
    /// hold the same number. The reference answers `pop_next` and
    /// `pop_run` from `pop_min`/`peek_time` alone, so a structure's own
    /// contiguous drains are checked against its single pops. An insert
    /// never precedes the last delivered time, as in every engine.
    pub fn matches_sorted_list<Q: EventQueue<u64>>(mut q: Q, ops: impl IntoIterator<Item = Op>) {
        let mut reference = SortedListQueue::new();
        let mut floor = SimTime::new(f64::MIN);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let name = q.name();
        for (step, op) in ops.into_iter().enumerate() {
            got.clear();
            want.clear();
            match op {
                Op::Insert(t, seq) => {
                    let t = SimTime::new(t).max(floor);
                    q.insert(ScheduledEvent::new(t, seq, seq));
                    reference.insert(ScheduledEvent::new(t, seq, seq));
                }
                Op::Pop => {
                    want.extend(reference.pop_min());
                    let a = q.pop_min().as_ref().map(bits);
                    assert_eq!(a, want.first().map(bits), "{name}: pop_min at step {step}");
                }
                Op::Peek => {
                    let a = q.peek_time().map(|t| t.seconds().to_bits());
                    let b = reference.peek_time().map(|t| t.seconds().to_bits());
                    assert_eq!(a, b, "{name}: peek_time at step {step}");
                }
                Op::PopNext | Op::PopRun => {
                    if let Some(head) = reference.pop_min() {
                        while reference
                            .peek_time()
                            .is_some_and(|t| t.same_instant(head.time))
                        {
                            want.extend(reference.pop_min());
                        }
                        want.insert(0, head);
                    }
                    if let Op::PopRun = op {
                        let n = q.pop_run(&mut got);
                        assert_eq!(n, got.len(), "{name}: pop_run count at step {step}");
                    } else if let Some(head) = q.pop_next(&mut got) {
                        got.insert(0, head);
                    }
                    let a: Vec<_> = got.iter().map(bits).collect();
                    let b: Vec<_> = want.iter().map(bits).collect();
                    assert_eq!(a, b, "{name}: {op:?} at step {step}");
                }
            }
            if let Some(ev) = want.last() {
                floor = ev.time;
            }
            assert_eq!(q.len(), reference.len(), "{name}: len at step {step}");
        }
    }

    /// A random mix of `inserts` inserts (times drawn from `times`, seqs a
    /// shuffled permutation, so equal times arrive with descending and
    /// out-of-order seqs) and all four kinds of removal and peek, then a
    /// drain.
    fn shuffled_script(rng: &mut SimRng, times: &[f64], inserts: u64) -> Vec<Op> {
        let mut seqs: Vec<u64> = (0..inserts).collect();
        rng.shuffle(&mut seqs);
        let mut ops = Vec::new();
        for seq in seqs {
            ops.push(Op::Insert(*rng.choose(times), seq));
            for _ in 0..rng.next_below(3) {
                let other = [Op::Pop, Op::Peek, Op::PopNext, Op::PopRun];
                ops.push(*rng.choose(&other));
            }
        }
        ops.extend((0..inserts).flat_map(|_| [Op::Peek, Op::PopNext, Op::Pop, Op::PopRun]));
        ops
    }

    /// Equal times inserted with descending and shuffled seqs, as
    /// `LpCore` does when remote sends carry other LPs' tie keys.
    pub fn tie_keys_out_of_order<Q: EventQueue<u64>>(q: Q, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut ops: Vec<Op> = (0..64).rev().map(|s| Op::Insert(1.0, 1_000 + s)).collect();
        ops.extend((0..64).map(|_| Op::PopNext));
        ops.extend(shuffled_script(&mut rng, &[1.0, 2.0, 2.5, 4.0], 600));
        matches_sorted_list(q, ops);
    }

    /// `-0.0`, `+0.0` (distinct instants: `-0.0` sorts first) and negative
    /// times, each shared by several events.
    pub fn signed_zero_and_negative_times<Q: EventQueue<u64>>(q: Q, seed: u64) {
        let mut rng = SimRng::new(seed);
        // both zeros pending at the head, each sign with a lower seq once
        let mut ops: Vec<Op> = [(0.0, 1_001), (-0.0, 1_002), (0.0, 1_000), (-0.0, 1_003)]
            .into_iter()
            .map(|(t, s)| Op::Insert(t, s))
            .collect();
        ops.extend([Op::Insert(-1.5, 1_004), Op::Peek, Op::PopNext, Op::Peek]);
        ops.extend([Op::PopNext, Op::Peek, Op::Pop, Op::PopRun]);
        let times = [-5.0, -1.5, -1.0e-300, -0.0, 0.0, 1.0e-300, 0.25, 3.0];
        ops.extend(shuffled_script(&mut rng, &times, 400));
        matches_sorted_list(q, ops);
    }

    /// Every size from 0 to 70 pending, around the heap's four-key child
    /// groups: each filled fresh (`make`) and, one after another, in a
    /// reused queue, then drained by alternating removals and peeks.
    pub fn sizes_around_group_boundaries<Q: EventQueue<u64>>(make: impl Fn() -> Q, seed: u64) {
        let mut rng = SimRng::new(seed);
        let mut all = Vec::new();
        for n in 0..=70u64 {
            let mut seqs: Vec<u64> = (0..n).collect();
            rng.shuffle(&mut seqs);
            let mut ops: Vec<Op> = seqs
                .into_iter()
                .map(|s| Op::Insert(rng.next_below(8) as f64 * 0.5, s))
                .collect();
            let drain = [Op::Peek, Op::Pop, Op::PopNext, Op::Peek, Op::PopRun];
            ops.extend(drain.iter().cycle().take(2 * n as usize + 2));
            matches_sorted_list(make(), ops.clone());
            all.extend(ops);
        }
        matches_sorted_list(make(), all);
    }

    pub fn clustered_times<Q: EventQueue<u64>>(mut q: Q, seed: u64) {
        // bimodal: half the events in a tight cluster, half spread far out —
        // the adversarial profile for calendar-style bucket structures.
        let mut rng = SimRng::new(seed);
        let n = 4000u64;
        for s in 0..n {
            let t = if s % 2 == 0 {
                100.0 + rng.next_f64() * 0.001
            } else {
                rng.next_f64() * 1.0e6
            };
            q.insert(ScheduledEvent::new(SimTime::new(t), s, s));
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(ev) = q.pop_min() {
            assert!(ev.time >= last, "{}", q.name());
            last = ev.time;
            count += 1;
        }
        assert_eq!(count, n);
    }
}
