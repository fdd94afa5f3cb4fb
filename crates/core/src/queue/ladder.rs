//! Ladder queue (after Tang & Goh, 2005) — amortized `O(1)` event list.
//!
//! Three tiers: an unsorted far-future *top*, a ladder of *rungs* whose
//! buckets progressively refine the near future, and a small sorted
//! *bottom* that events are actually popped from. Buckets are only sorted
//! when they become imminent, and oversized buckets are split into a finer
//! rung instead of being sorted, which keeps per-event work constant
//! without the calendar queue's sensitivity to a single global bucket
//! width. This is the second `O(1)` structure raced in experiment E2.

use super::EventQueue;
use crate::event::ScheduledEvent;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Maximum events sorted directly into the bottom from one bucket.
const THRES: usize = 48;
/// Maximum ladder depth; deeper overflow buckets are sorted regardless.
const MAX_RUNGS: usize = 8;

struct Rung<E> {
    /// Start time of the rung's coverage.
    start: f64,
    /// Width of each bucket.
    width: f64,
    /// Buckets; unsorted until transferred.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Index of the next bucket to consume.
    cur: usize,
    /// Events remaining in this rung.
    count: usize,
}

impl<E> Rung<E> {
    /// Builds a rung spreading the span `[start, end)` over one bucket per
    /// event, plus one. The span should be the full range the rung is
    /// responsible for — not merely the range of `events` — so that later
    /// inserts spread over its buckets too; which bucket an event takes is
    /// [`Rung::bucket`] alone, so rounding at the span's edges costs
    /// balance, never order.
    fn spanning(events: Vec<ScheduledEvent<E>>, start: f64, end: f64) -> Self {
        debug_assert!(!events.is_empty());
        let n = events.len();
        let span = end - start;
        let width = if span / (n + 1) as f64 > 0.0 {
            span / (n + 1) as f64
        } else if span > 0.0 {
            span
        } else {
            1.0
        };
        let mut rung = Rung {
            start,
            width,
            buckets: (0..n + 1).map(|_| Vec::new()).collect(),
            cur: 0,
            count: 0,
        };
        for ev in events {
            let i = rung.bucket(ev.time.seconds());
            rung.push(i, ev);
        }
        rung
    }

    /// The bucket time `t` belongs to: a monotone function of `t`, so
    /// equal times always share a bucket. Times before the span saturate
    /// to the first bucket, times past it clamp to the last.
    #[inline]
    fn bucket(&self, t: f64) -> usize {
        (((t - self.start) / self.width) as usize).min(self.buckets.len() - 1)
    }

    fn push(&mut self, i: usize, ev: ScheduledEvent<E>) {
        self.buckets[i].push(ev);
        self.count += 1;
    }

    /// Takes the next non-empty bucket, advancing the cursor past it.
    fn take_next_bucket(&mut self) -> Option<Vec<ScheduledEvent<E>>> {
        while self.cur < self.buckets.len() {
            let i = self.cur;
            self.cur += 1;
            if !self.buckets[i].is_empty() {
                let b = std::mem::take(&mut self.buckets[i]);
                self.count -= b.len();
                return Some(b);
            }
        }
        None
    }
}

/// Tiered event list: unsorted top, refining rungs, sorted bottom.
pub struct LadderQueue<E> {
    top: Vec<ScheduledEvent<E>>,
    top_start: f64,
    top_max: f64,
    rungs: Vec<Rung<E>>,
    bottom: VecDeque<ScheduledEvent<E>>,
    size: usize,
}

impl<E> LadderQueue<E> {
    /// Creates an empty ladder queue.
    pub fn new() -> Self {
        LadderQueue {
            top: Vec::new(),
            top_start: 0.0,
            top_max: 0.0,
            rungs: Vec::new(),
            bottom: VecDeque::new(),
            size: 0,
        }
    }

    fn insert_bottom(&mut self, ev: ScheduledEvent<E>) {
        let key = ev.key();
        let mut idx = self.bottom.len();
        while idx > 0 && self.bottom[idx - 1].key() > key {
            idx -= 1;
        }
        self.bottom.insert(idx, ev);
    }

    /// Moves one bucket's worth of events into the bottom, spawning finer
    /// rungs for oversized buckets. Returns false when truly empty.
    fn refill_bottom(&mut self) -> bool {
        loop {
            if let Some(rung) = self.rungs.last_mut() {
                match rung.take_next_bucket() {
                    Some(bucket) => {
                        // Span of the bucket just consumed, from the
                        // parent's geometry. A child rung built from this
                        // bucket must cover the whole span — not just its
                        // current events' [min, max] — or a later insert
                        // into the uncovered gap falls through the rung
                        // walk into the sorted bottom behind events that
                        // are still sitting in the child rung.
                        let bs = rung.start + (rung.cur - 1) as f64 * rung.width;
                        let bw = rung.width;
                        if bucket.len() > THRES && self.rungs.len() < MAX_RUNGS {
                            self.rungs.push(Rung::spanning(bucket, bs, bs + bw));
                            continue;
                        }
                        let mut bucket = bucket;
                        bucket.sort_by_key(|a| a.key());
                        debug_assert!(self.bottom.is_empty());
                        self.bottom = bucket.into();
                        return true;
                    }
                    None => {
                        self.rungs.pop();
                        continue;
                    }
                }
            } else if !self.top.is_empty() {
                let events = std::mem::take(&mut self.top);
                // The new first rung owns everything up to `top_max`,
                // ties included; inserts at or past `top_start` go to top.
                self.top_start = self.top_max.next_up();
                let lo = events
                    .iter()
                    .map(|ev| ev.time.seconds())
                    .fold(f64::INFINITY, f64::min);
                self.rungs.push(Rung::spanning(events, lo, self.top_start));
                continue;
            } else {
                return false;
            }
        }
    }
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for LadderQueue<E> {
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        self.size += 1;
        let t = ev.time.seconds();
        // nothing structured yet, or past every rung: top
        if (self.rungs.is_empty() && self.bottom.is_empty()) || t >= self.top_start {
            self.top_max = self.top_max.max(t);
            self.top.push(ev);
            return;
        }
        // Coarsest rung first. A bucket a rung has already handed down
        // lives on as the next finer rung or, from the finest, as the
        // bottom, so an event whose bucket is consumed follows it there —
        // by the same `bucket` function its earlier ties took, so equal
        // times never land in two tiers.
        for rung in &mut self.rungs {
            let i = rung.bucket(t);
            if i >= rung.cur {
                rung.push(i, ev);
                return;
            }
        }
        self.insert_bottom(ev);
    }

    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        if self.bottom.is_empty() && !self.refill_bottom() {
            return None;
        }
        self.size -= 1;
        self.bottom.pop_front()
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.bottom.is_empty() && !self.refill_bottom() {
            return None;
        }
        self.bottom.front().map(|ev| ev.time)
    }

    fn len(&self) -> usize {
        self.size
    }

    fn name(&self) -> &'static str {
        "ladder"
    }
}

#[cfg(test)]
mod tests {
    use super::super::conformance::{self, Op};
    use super::*;
    use lsds_stats::SimRng;

    #[test]
    fn fifo_same_time() {
        conformance::fifo_within_same_time(LadderQueue::new());
    }

    #[test]
    fn ordered() {
        conformance::ordered_output(LadderQueue::new(), 5000, 31);
    }

    #[test]
    fn hold() {
        conformance::interleaved_hold_model(LadderQueue::new(), 32);
    }

    #[test]
    fn peek() {
        conformance::peek_agrees_with_pop(LadderQueue::new(), 33);
    }

    #[test]
    fn empty() {
        conformance::empty_behaviour(LadderQueue::<u32>::new());
    }

    #[test]
    fn clustered() {
        conformance::clustered_times(LadderQueue::new(), 34);
    }

    #[test]
    fn tie_keys_out_of_order() {
        conformance::tie_keys_out_of_order(LadderQueue::new(), 6);
    }

    #[test]
    fn signed_zero_and_negative_times() {
        conformance::signed_zero_and_negative_times(LadderQueue::new(), 7);
    }

    #[test]
    fn sizes_around_group_boundaries() {
        conformance::sizes_around_group_boundaries(LadderQueue::new, 8);
    }

    #[test]
    fn run_pop() {
        conformance::pop_run_matches_pop_min(LadderQueue::new(), LadderQueue::new(), 35);
    }

    #[test]
    fn all_same_time_bucket() {
        // degenerate single-time bucket must not split forever
        let mut q = LadderQueue::new();
        for s in 0..500u64 {
            q.insert(ScheduledEvent::new(SimTime::new(42.0), s, s));
        }
        for s in 0..500u64 {
            assert_eq!(q.pop_min().unwrap().event, s);
        }
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn insert_into_split_gap_stays_ordered() {
        // A dense cluster splits into a child rung whose events span only
        // [5.0, 5.099]; the parent bucket it came from spans ~[5, 15). An
        // insert at 10.0 must refine into the child rung, not fall through
        // to the bottom where it would be delivered out of order.
        let mut q = LadderQueue::new();
        let mut seq = 0u64;
        for i in 0..100 {
            q.insert(ScheduledEvent::new(
                SimTime::new(5.0 + i as f64 * 0.001),
                seq,
                seq,
            ));
            seq += 1;
        }
        q.insert(ScheduledEvent::new(SimTime::new(1000.0), seq, seq));
        seq += 1;
        let first = q.pop_min().unwrap();
        assert_eq!(first.time, SimTime::new(5.0));
        q.insert(ScheduledEvent::new(SimTime::new(10.0), seq, seq));
        let mut last = first.time;
        while let Some(ev) = q.pop_min() {
            assert!(ev.time >= last, "out of order: {} after {}", ev.time, last);
            last = ev.time;
        }
    }

    #[test]
    fn matches_sorted_list_on_all_equal_times() {
        // adversarial: every event at the same timestamp, pops interleaved
        // with inserts so the degenerate zero-width bucket keeps splitting
        let mut ops = Vec::new();
        let mut seq = 0u64;
        for round in 0..6 {
            for _ in 0..120 {
                ops.push(Op::Insert(7.5, seq));
                seq += 1;
            }
            ops.extend((0..40 + round * 10).map(|_| Op::Pop));
        }
        ops.extend((0..2000).map(|_| Op::Pop));
        conformance::matches_sorted_list(LadderQueue::new(), ops);
    }

    #[test]
    fn matches_sorted_list_on_monotone_decreasing_inserts() {
        // adversarial: after a partial drain, each insert lands *earlier*
        // than the one before (but still >= the last pop), repeatedly
        // probing the gap between consumed buckets and live rung spans
        let mut ops: Vec<Op> = (0..300).map(|i| Op::Insert(i as f64 * 0.01, i)).collect();
        ops.extend((0..50).map(|_| Op::Pop));
        // last pop was at ~0.49; walk inserts downward toward it
        for i in 0..200 {
            ops.push(Op::Insert(2.9 - i as f64 * 0.012, 300 + i));
            if i % 3 == 0 {
                ops.push(Op::Pop);
            }
        }
        ops.extend((0..1000).map(|_| Op::Pop));
        conformance::matches_sorted_list(LadderQueue::new(), ops);
    }

    #[test]
    fn interleaved_inserts_respect_order() {
        let mut q = LadderQueue::new();
        let mut rng = SimRng::new(35);
        let mut seq = 0u64;
        for _ in 0..2000 {
            q.insert(ScheduledEvent::new(
                SimTime::new(rng.next_f64() * 100.0),
                seq,
                seq,
            ));
            seq += 1;
        }
        // drain half, interleaving new inserts at or after "now"
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let ev = q.pop_min().unwrap();
            assert!(ev.time >= now);
            now = ev.time;
            q.insert(ScheduledEvent::new(
                now.after(rng.next_f64() * 50.0),
                seq,
                seq,
            ));
            seq += 1;
        }
        // drain rest, still ordered
        let mut last = now;
        while let Some(ev) = q.pop_min() {
            assert!(ev.time >= last);
            last = ev.time;
        }
    }
}
