//! `O(n)`-insert sorted-list event list.
//!
//! The structure early simulators actually shipped with: a linear list kept
//! sorted by due time. Pop is `O(1)` but insert degrades linearly, which is
//! exactly the scalability ceiling §5 complains about ("many of today's
//! simulators lack the capability to simulate large distributed systems
//! because their simulation engines are limited"). Kept as the baseline
//! that experiment E2 shows collapsing as the pending set grows.

use super::EventQueue;
use crate::event::ScheduledEvent;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Event list backed by a `VecDeque` kept sorted ascending by `(time, seq)`.
///
/// Insertion scans from the back (new events usually land near the end in
/// hold-model workloads), shifting later entries; pop takes from the front.
pub struct SortedListQueue<E> {
    items: VecDeque<ScheduledEvent<E>>,
}

impl<E> SortedListQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SortedListQueue {
            items: VecDeque::new(),
        }
    }
}

impl<E> Default for SortedListQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for SortedListQueue<E> {
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let key = ev.key();
        // find first index from the back whose key is <= new key
        let mut idx = self.items.len();
        while idx > 0 && self.items[idx - 1].key() > key {
            idx -= 1;
        }
        self.items.insert(idx, ev);
    }

    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        self.items.pop_front()
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.items.front().map(|ev| ev.time)
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        let base = out.len();
        let Some(first) = self.pop_next(out) else {
            return 0;
        };
        // `pop_next` appended the ties first; rotate the head in front.
        out.push(first);
        out[base..].rotate_right(1);
        out.len() - base
    }

    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        // ties are contiguous at the front: drain without re-peeking
        let first = self.items.pop_front()?;
        let t = first.time;
        while self.items.front().is_some_and(|ev| ev.time.same_instant(t)) {
            let Some(ev) = self.items.pop_front() else {
                break;
            };
            ties.push(ev);
        }
        Some(first)
    }

    fn name(&self) -> &'static str {
        "sorted-list"
    }
}

#[cfg(test)]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn fifo_same_time() {
        conformance::fifo_within_same_time(SortedListQueue::new());
    }

    #[test]
    fn ordered() {
        conformance::ordered_output(SortedListQueue::new(), 3000, 11);
    }

    #[test]
    fn hold() {
        conformance::interleaved_hold_model(SortedListQueue::new(), 12);
    }

    #[test]
    fn peek() {
        conformance::peek_agrees_with_pop(SortedListQueue::new(), 13);
    }

    #[test]
    fn empty() {
        conformance::empty_behaviour(SortedListQueue::<u32>::new());
    }

    #[test]
    fn clustered() {
        conformance::clustered_times(SortedListQueue::new(), 14);
    }

    #[test]
    fn tie_keys_out_of_order() {
        conformance::tie_keys_out_of_order(SortedListQueue::new(), 6);
    }

    #[test]
    fn signed_zero_and_negative_times() {
        conformance::signed_zero_and_negative_times(SortedListQueue::new(), 7);
    }

    #[test]
    fn sizes_around_group_boundaries() {
        conformance::sizes_around_group_boundaries(SortedListQueue::new, 8);
    }

    #[test]
    fn run_pop() {
        conformance::pop_run_matches_pop_min(SortedListQueue::new(), SortedListQueue::new(), 15);
    }

    #[test]
    fn stable_insert_position() {
        // equal-time events must keep seq order even when inserted out of
        // seq order relative to existing later-time entries
        let mut q = SortedListQueue::new();
        q.insert(ScheduledEvent::new(SimTime::new(2.0), 0, "late"));
        q.insert(ScheduledEvent::new(SimTime::new(1.0), 1, "a"));
        q.insert(ScheduledEvent::new(SimTime::new(1.0), 2, "b"));
        assert_eq!(q.pop_min().unwrap().event, "a");
        assert_eq!(q.pop_min().unwrap().event, "b");
        assert_eq!(q.pop_min().unwrap().event, "late");
    }
}
