//! Pooled event storage: fixed-size keys in the queue, payloads in a slab.
//!
//! Every [`EventQueue`] structure shuffles whole
//! [`ScheduledEvent`]s while sifting, rotating buckets, or resizing. With a
//! large payload `E` that movement dominates queue cost; with a boxed
//! payload every schedule is a heap allocation. [`PooledQueue`] splits the
//! two concerns: the inner queue orders lightweight `ScheduledEvent<u32>`
//! records (time, seq, parent, pool slot — 32 bytes), while payloads sit
//! still in an [`EventPool`] free-list slab until delivery. Pool slots are
//! recycled LIFO, so a steady-state simulation reaches a fixed working set
//! and schedules events with **zero** per-event heap allocation.
//!
//! Ordering is untouched: the inner queue orders the same `(time, seq)`
//! keys it would order for the unpooled events, so a pooled engine run is
//! bit-identical to an unpooled one (asserted by the engine-equivalence
//! suite and the slot-recycling property test).
//!
//! Payloads that are already small and `Copy` (a `u32` entity handle, a
//! small event enum) gain nothing from the indirection — benchmarks show
//! the pool pays for itself once `size_of::<E>()` clearly exceeds the
//! 32-byte key record. `QueueKind::build_pooled` exists so experiments can
//! race both representations.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::arena::Slab;
use crate::event::ScheduledEvent;
use crate::queue::{EventQueue, QueueKind};
use crate::time::SimTime;

/// Free-list slab holding scheduled-but-undelivered payloads.
///
/// A thin wrapper over [`Slab`] so the intent (event payload parking) and
/// the recycling contract are explicit in engine code.
#[derive(Debug, Default)]
pub struct EventPool<E> {
    slab: Slab<E>,
}

impl<E> EventPool<E> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        EventPool { slab: Slab::new() }
    }

    /// Parks a payload, returning its slot.
    #[inline]
    pub fn park(&mut self, payload: E) -> u32 {
        self.slab.insert(payload)
    }

    /// Takes a payload out, recycling the slot.
    #[inline]
    pub fn claim(&mut self, slot: u32) -> Option<E> {
        self.slab.remove(slot)
    }

    /// Borrows a parked payload without vacating its slot. Optimistic
    /// engines deliver payloads by reference/clone and keep the slot
    /// occupied until the event is past GVT, so a rollback can re-deliver
    /// the same payload without re-parking it.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&E> {
        self.slab.get(slot)
    }

    /// Payloads currently parked.
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when nothing is parked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Distinct slots ever allocated — the pool's high-water mark. A
    /// recycling pool under a steady hold-model workload keeps this at the
    /// peak concurrent event count instead of the total event count.
    #[inline]
    pub fn slot_high_water(&self) -> u32 {
        self.slab.slot_bound()
    }
}

/// An [`EventQueue`] adaptor that parks payloads in an [`EventPool`] and
/// orders fixed-size slot records in the wrapped queue `Q`.
pub struct PooledQueue<E, Q: EventQueue<u32>> {
    pool: EventPool<E>,
    inner: Q,
    /// Reused between `pop_run` calls so batch draining stays
    /// allocation-free in steady state.
    scratch: Vec<ScheduledEvent<u32>>,
}

impl<E, Q: EventQueue<u32>> PooledQueue<E, Q> {
    /// Wraps `inner`, pooling payloads of type `E`.
    pub fn new(inner: Q) -> Self {
        PooledQueue {
            pool: EventPool::new(),
            inner,
            scratch: Vec::new(),
        }
    }

    /// The pool's slot high-water mark (see
    /// [`EventPool::slot_high_water`]).
    pub fn slot_high_water(&self) -> u32 {
        self.pool.slot_high_water()
    }
}

impl<E, Q: EventQueue<u32>> EventQueue<E> for PooledQueue<E, Q> {
    #[inline]
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let slot = self.pool.park(ev.event);
        self.inner.insert(ScheduledEvent::with_parent(
            ev.time, ev.seq, ev.parent, slot,
        ));
    }

    #[inline]
    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        let key = self.inner.pop_min()?;
        let Some(payload) = self.pool.claim(key.event) else {
            debug_assert!(false, "queue returned a vacant pool slot");
            return None;
        };
        Some(ScheduledEvent::with_parent(
            key.time, key.seq, key.parent, payload,
        ))
    }

    fn pop_run(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        self.scratch.clear();
        let mut keys = std::mem::take(&mut self.scratch);
        let n = self.inner.pop_run(&mut keys);
        out.reserve(n);
        for key in keys.drain(..) {
            let Some(payload) = self.pool.claim(key.event) else {
                debug_assert!(false, "queue returned a vacant pool slot");
                continue;
            };
            out.push(ScheduledEvent::with_parent(
                key.time, key.seq, key.parent, payload,
            ));
        }
        self.scratch = keys;
        n
    }

    fn pop_next(&mut self, ties: &mut Vec<ScheduledEvent<E>>) -> Option<ScheduledEvent<E>> {
        self.scratch.clear();
        let mut keys = std::mem::take(&mut self.scratch);
        let first = self.inner.pop_next(&mut keys);
        // Claim the head before the ties so pool slots recycle in the same
        // `(time, seq)` order `pop_run` frees them in.
        let head = first.and_then(|key| {
            let payload = self.pool.claim(key.event);
            debug_assert!(payload.is_some(), "queue returned a vacant pool slot");
            payload.map(|p| ScheduledEvent::with_parent(key.time, key.seq, key.parent, p))
        });
        ties.reserve(keys.len());
        for key in keys.drain(..) {
            let Some(payload) = self.pool.claim(key.event) else {
                debug_assert!(false, "queue returned a vacant pool slot");
                continue;
            };
            ties.push(ScheduledEvent::with_parent(
                key.time, key.seq, key.parent, payload,
            ));
        }
        self.scratch = keys;
        head
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn occupancy(&self) -> Option<(usize, usize)> {
        Some((self.pool.len(), self.pool.slot_high_water() as usize))
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "binary-heap" => "pooled-binary-heap",
            "sorted-list" => "pooled-sorted-list",
            "calendar" => "pooled-calendar",
            "ladder" => "pooled-ladder",
            _ => "pooled",
        }
    }
}

impl QueueKind {
    /// Builds a queue of this kind behind a payload pool: the structure
    /// orders 32-byte slot records while payloads stay parked in a
    /// free-list slab (see [`PooledQueue`]).
    pub fn build_pooled<E: 'static>(self) -> Box<dyn EventQueue<E>> {
        match self {
            QueueKind::BinaryHeap => {
                Box::new(PooledQueue::new(crate::queue::BinaryHeapQueue::<u32>::new()))
            }
            QueueKind::SortedList => {
                Box::new(PooledQueue::new(crate::queue::SortedListQueue::<u32>::new()))
            }
            QueueKind::Calendar => {
                Box::new(PooledQueue::new(crate::queue::CalendarQueue::<u32>::new()))
            }
            QueueKind::Ladder => {
                Box::new(PooledQueue::new(crate::queue::LadderQueue::<u32>::new()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::conformance;
    use crate::queue::BinaryHeapQueue;

    #[test]
    fn pooled_conformance_all_kinds() {
        for kind in QueueKind::ALL {
            conformance::fifo_within_same_time(kind.build_pooled::<u32>());
            conformance::ordered_output(kind.build_pooled::<u64>(), 2000, 31);
            conformance::interleaved_hold_model(kind.build_pooled::<u64>(), 32);
            conformance::peek_agrees_with_pop(kind.build_pooled::<u32>(), 33);
            conformance::empty_behaviour(kind.build_pooled::<u32>());
            conformance::clustered_times(kind.build_pooled::<u64>(), 34);
        }
    }

    #[test]
    fn pool_recycles_slots_lifo() {
        let mut q = PooledQueue::new(BinaryHeapQueue::<u32>::new());
        for s in 0..100u64 {
            q.insert(ScheduledEvent::new(SimTime::new(s as f64), s, s));
        }
        for _ in 0..100 {
            q.pop_min().unwrap();
        }
        // hold-model steady state: one live event at a time from here on
        for s in 100..200u64 {
            q.insert(ScheduledEvent::new(SimTime::new(s as f64), s, s));
            assert_eq!(q.pop_min().unwrap().event, s);
        }
        assert_eq!(
            q.slot_high_water(),
            100,
            "steady state must not grow the pool"
        );
    }

    /// `build_pooled` hands the pool out behind `Box<dyn EventQueue>`; the
    /// box must forward `occupancy`, or telemetry sees no pool behind it.
    #[test]
    fn boxed_pooled_queue_reports_the_pools_occupancy() {
        let mut concrete = PooledQueue::new(BinaryHeapQueue::<u32>::new());
        let mut boxed = QueueKind::BinaryHeap.build_pooled::<u64>();
        for s in 0..10u64 {
            concrete.insert(ScheduledEvent::new(SimTime::new(s as f64), s, s));
            boxed.insert(ScheduledEvent::new(SimTime::new(s as f64), s, s));
        }
        for _ in 0..4 {
            concrete.pop_min().unwrap();
            boxed.pop_min().unwrap();
        }
        assert_eq!(concrete.occupancy(), Some((6, 10)));
        assert_eq!(boxed.occupancy(), concrete.occupancy());
    }

    /// Drives a pooled queue and its unpooled twin through one randomized
    /// tie-heavy hold-model script, mixing all three pop flavors
    /// (`pop_min`, `pop_run`, `pop_next`), and asserts the delivered
    /// `(time-bits, seq, payload)` streams are identical — slot recycling
    /// must never reorder `(time, seq)` ties. Also pins the recycling
    /// contract itself: the slab's high-water mark equals the peak number
    /// of concurrently parked events, not the total insert count.
    fn pooled_tracks_unpooled<Qi, Qr>(inner: Qi, mut plain: Qr, seed: u64)
    where
        Qi: EventQueue<u32>,
        Qr: EventQueue<u64>,
    {
        use lsds_stats::SimRng;
        fn key3(ev: &ScheduledEvent<u64>) -> (u64, u64, u64) {
            (ev.time.seconds().to_bits(), ev.seq, ev.event)
        }
        let mut pooled = PooledQueue::new(inner);
        let mut rng = SimRng::new(seed);
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut live = 0usize;
        let mut peak_live = 0usize;
        let (mut run_a, mut run_b) = (Vec::new(), Vec::new());
        for _ in 0..4000 {
            if live == 0 || rng.next_below(3) > 0 {
                // coarse offsets: repeated zero deltas pile up large tie runs
                let dt = [0.0, 0.0, 0.5, 1.0][rng.next_below(4) as usize];
                let t = SimTime::new(now + dt);
                pooled.insert(ScheduledEvent::new(t, seq, seq));
                plain.insert(ScheduledEvent::new(t, seq, seq));
                seq += 1;
                live += 1;
                peak_live = peak_live.max(live);
            } else {
                match rng.next_below(3) {
                    0 => {
                        let a = pooled.pop_min().expect("pooled empty before plain");
                        let b = plain.pop_min().expect("plain empty before pooled");
                        assert_eq!(key3(&a), key3(&b), "pop_min diverged");
                        now = a.time.seconds();
                        live -= 1;
                    }
                    1 => {
                        run_a.clear();
                        run_b.clear();
                        let na = pooled.pop_run(&mut run_a);
                        let nb = plain.pop_run(&mut run_b);
                        assert_eq!(na, nb, "pop_run length diverged");
                        for (a, b) in run_a.iter().zip(&run_b) {
                            assert_eq!(key3(a), key3(b), "pop_run diverged");
                        }
                        if let Some(last) = run_a.last() {
                            now = last.time.seconds();
                        }
                        live -= na;
                    }
                    _ => {
                        run_a.clear();
                        run_b.clear();
                        let a = pooled.pop_next(&mut run_a).expect("pooled empty");
                        let b = plain.pop_next(&mut run_b).expect("plain empty");
                        assert_eq!(key3(&a), key3(&b), "pop_next head diverged");
                        assert_eq!(run_a.len(), run_b.len(), "tie count diverged");
                        for (a, b) in run_a.iter().zip(&run_b) {
                            assert_eq!(key3(a), key3(b), "pop_next ties diverged");
                        }
                        now = a.time.seconds();
                        live -= 1 + run_a.len();
                    }
                }
            }
        }
        loop {
            match (pooled.pop_min(), plain.pop_min()) {
                (Some(a), Some(b)) => assert_eq!(key3(&a), key3(&b), "drain diverged"),
                (None, None) => break,
                _ => panic!("pooled and plain drained different event counts"),
            }
        }
        assert_eq!(
            pooled.slot_high_water() as usize,
            peak_live,
            "free-list recycling must bound the slab at peak concurrency"
        );
    }

    #[test]
    fn pooled_recycling_keeps_tie_order_all_queues() {
        use crate::queue::{CalendarQueue, LadderQueue, SortedListQueue};
        pooled_tracks_unpooled(
            BinaryHeapQueue::<u32>::new(),
            QueueKind::BinaryHeap.build::<u64>(),
            0xA11,
        );
        pooled_tracks_unpooled(
            SortedListQueue::<u32>::new(),
            QueueKind::SortedList.build::<u64>(),
            0xA12,
        );
        pooled_tracks_unpooled(
            CalendarQueue::<u32>::new(),
            QueueKind::Calendar.build::<u64>(),
            0xA13,
        );
        pooled_tracks_unpooled(
            LadderQueue::<u32>::new(),
            QueueKind::Ladder.build::<u64>(),
            0xA14,
        );
    }

    #[test]
    fn non_copy_payloads_survive_pooling() {
        let mut q = PooledQueue::new(BinaryHeapQueue::<u32>::new());
        for s in 0..50u64 {
            q.insert(ScheduledEvent::new(
                SimTime::new((s % 5) as f64),
                s,
                format!("payload-{s}"),
            ));
        }
        let mut seen = Vec::new();
        while let Some(ev) = q.pop_min() {
            seen.push(ev.event);
        }
        assert_eq!(seen.len(), 50);
        // (time, seq) order: grouped by time mod 5, seq ascending inside
        assert_eq!(seen[0], "payload-0");
        assert_eq!(seen[1], "payload-5");
        assert_eq!(seen[49], "payload-49");
    }
}
