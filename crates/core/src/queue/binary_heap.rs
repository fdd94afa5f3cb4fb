//! `O(log n)` 4-ary heap event list — the default structure, laid out so
//! that each sift level reads one cache line of keys.
//!
//! The packed `u128` `(time, seq)` keys live in their own array, apart
//! from the `u32` slab slots of the payloads. A node's four children are
//! four adjacent keys — 64 bytes — and the array's lead offset puts every
//! such child group on a 64-byte line, so a sift-down level costs one
//! line of keys plus one slot. Lanes past the last node hold [`VACANT`],
//! which sorts after every real key, so the min-of-group scan reads all
//! four lanes without a bounds branch. The key is the only copy of an
//! event's time and seq: the slab keeps the parent seq and the payload,
//! and `peek_time` reads the root key alone.

use super::EventQueue;
use crate::arena::Slab;
use crate::event::{EventSeq, ScheduledEvent};
use crate::time::SimTime;

/// Packs a `(time, seq)` priority into one integer so heap compares are a
/// single `u128` comparison instead of a float compare plus a tie-break
/// branch. The high half is the time's bit pattern passed through the
/// standard total-order involution (sign bit flipped for non-negatives,
/// all bits flipped for negatives), which sorts exactly like
/// [`SimTime`]'s own `Ord` (`f64::total_cmp`, so `-0.0` before `+0.0`);
/// the low half is the sequence number. The involution is a bijection,
/// so equal high halves are exactly [`SimTime::same_instant`].
#[inline]
fn okey(time: SimTime, seq: u64) -> u128 {
    let b = time.seconds().to_bits();
    let mask = (((b as i64) >> 63) as u64) | (1u64 << 63);
    (((b ^ mask) as u128) << 64) | seq as u128
}

/// The time a packed key was made from, bit for bit: the involution
/// inverted (non-negatives have the high bit set, negatives clear).
#[inline]
fn key_time(key: u128) -> SimTime {
    let h = (key >> 64) as u64;
    let mask = (((!h as i64) >> 63) as u64) | (1u64 << 63);
    SimTime::new(f64::from_bits(h ^ mask))
}

/// Heap branching factor: four 16-byte keys fill one 64-byte line.
const ARITY: usize = 4;

/// Key of a lane that holds no node. Every real key is smaller: its high
/// half would be all ones only for a NaN time, which [`SimTime`] rejects.
const VACANT: u128 = u128::MAX;

/// Lanes a growth leaves free past the new group: a realignment shifts
/// the keys by up to `ARITY - 1` lanes and must not reallocate again.
const SLACK: usize = ARITY - 1;

/// Event list backed by an array-embedded 4-ary min-heap.
///
/// Insert and pop are `O(log n)`; this is the baseline the amortized-`O(1)`
/// structures are compared against in experiment E2. Node `p` is the
/// packed key `keys[lead + p]` and the payload slot `slots[p]`; each
/// payload sits still, with its parent seq, in a free-list [`Slab`] until
/// delivery, so sifting never moves payload bytes and never compares
/// floats. The key is the only copy of the time and seq: a pending event
/// costs 16 bytes of key, 4 of slot and one slab entry.
pub struct BinaryHeapQueue<E> {
    /// Packed keys, `lead` unused lanes first, then the root, then the
    /// child groups; every lane past the last node holds [`VACANT`].
    keys: Vec<u128>,
    /// Slab slot of each node's payload; its length is the heap's.
    slots: Vec<u32>,
    /// Lanes before the root, chosen from the key buffer's address so
    /// that every child group `4p + 1 ..= 4p + 4` starts a 64-byte line.
    /// It only places keys in memory; the delivered order never sees it.
    lead: usize,
    /// `(parent, payload)` of each pending event.
    events: Slab<(EventSeq, E)>,
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            keys: Vec::new(),
            slots: Vec::new(),
            lead: 0,
            events: Slab::new(),
        }
    }

    /// Adds one child group of vacant lanes (the root lane on first use),
    /// doubling the key buffer first when the group plus the largest lead
    /// would not fit. The test leaves `lead` out, so the growth steps do
    /// not depend on where the allocator put the buffer. The slots grow in
    /// the same steps: two buffers doubling on schedules of their own
    /// fragmented the allocator's heap by about 0.7 MiB more at the peak
    /// of `net_scale_100k`.
    #[cold]
    fn grow(&mut self) {
        let cap = self.keys.capacity();
        if cap < self.keys.len() - self.lead + ARITY + SLACK {
            let lanes = (2 * cap).max(2 * ARITY);
            self.keys.reserve_exact(lanes - self.keys.len());
            self.slots.reserve_exact(lanes - self.slots.len());
            self.realign();
        }
        let lanes = if self.keys.is_empty() {
            self.lead + 1
        } else {
            self.keys.len() + ARITY
        };
        self.keys.resize(lanes, VACANT);
    }

    /// Re-picks `lead` for the key buffer's current address and shifts the
    /// keys to match. A 16-aligned buffer that `realloc` grew in place
    /// keeps its offset within a line and moves nothing; one it moved may
    /// need a shift of up to three lanes, which the reserved [`SLACK`]
    /// absorbs without another reallocation.
    fn realign(&mut self) {
        let line_lane = (self.keys.as_ptr().addr() / size_of::<u128>()) % ARITY;
        // first child lane `lead + 1` must sit at lane 0 of a line
        let lead = (2 * ARITY - 1 - line_lane) % ARITY;
        let len = self.keys.len();
        if len > 0 && lead > self.lead {
            self.keys.resize(len + lead - self.lead, VACANT);
            self.keys.copy_within(self.lead..len, lead);
        } else if len > 0 && lead < self.lead {
            self.keys.copy_within(self.lead..len, lead);
            self.keys.truncate(len + lead - self.lead);
        }
        self.lead = lead;
    }

    /// Moves the node `(key, slot)` up from position `p` (a freshly
    /// appended leaf) to its heap position, shifting larger ancestors down.
    #[inline]
    fn sift_up(&mut self, mut p: usize, key: u128, slot: u32) {
        let keys = &mut self.keys[self.lead..];
        while p > 0 {
            let parent = (p - 1) / ARITY;
            let pk = keys[parent];
            if pk <= key {
                break;
            }
            keys[p] = pk;
            self.slots[p] = self.slots[parent];
            p = parent;
        }
        keys[p] = key;
        self.slots[p] = slot;
    }

    /// Places the node `(key, slot)` into the root hole, moving the
    /// smallest child up at each level until the heap property holds.
    #[inline]
    fn sift_down(&mut self, key: u128, slot: u32) {
        let n = self.slots.len();
        let keys = &mut self.keys[self.lead..];
        let mut p = 0;
        loop {
            let first = ARITY * p + 1;
            if first >= n {
                break;
            }
            // the whole group is present: lanes past the last node are
            // vacant, and the first minimum is always a real node
            let Some(g) = keys.get(first..).and_then(<[u128]>::first_chunk::<ARITY>) else {
                debug_assert!(false, "child group {first} not allocated");
                break;
            };
            let (a, ka) = if g[1] < g[0] { (1, g[1]) } else { (0, g[0]) };
            let (b, kb) = if g[3] < g[2] { (3, g[3]) } else { (2, g[2]) };
            let (c, kc) = if kb < ka { (b, kb) } else { (a, ka) };
            if key <= kc {
                break;
            }
            let child = first + c;
            keys[p] = kc;
            self.slots[p] = self.slots[child];
            p = child;
        }
        keys[p] = key;
        self.slots[p] = slot;
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let key = okey(ev.time, ev.seq);
        let slot = self.events.insert((ev.parent, ev.event));
        let p = self.slots.len();
        if self.lead + p >= self.keys.len() {
            self.grow();
        }
        self.slots.push(slot);
        self.sift_up(p, key, slot);
    }

    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        let root = *self.slots.first()?;
        let Some(slot) = self.slots.pop() else {
            debug_assert!(false, "non-empty heap has a last node");
            return None;
        };
        let min = self.keys[self.lead];
        let last = self.lead + self.slots.len();
        let key = std::mem::replace(&mut self.keys[last], VACANT);
        if !self.slots.is_empty() {
            self.sift_down(key, slot);
        }
        let Some((parent, event)) = self.events.remove(root) else {
            debug_assert!(false, "heap node without payload");
            return None;
        };
        Some(ScheduledEvent::with_parent(
            key_time(min),
            min as EventSeq,
            parent,
            event,
        ))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        (!self.slots.is_empty()).then(|| key_time(self.keys[self.lead]))
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
        let first = self.pop_min()?;
        // Ties share the key's high (time) half, so the run boundary check
        // is a shift-compare on the root key — no payload access. An empty
        // heap's root lane is vacant, whose high half no time reaches.
        let tbits = okey(first.time, 0) >> 64;
        while self.keys[self.lead] >> 64 == tbits {
            let Some(ev) = self.pop_min() else {
                debug_assert!(false, "non-empty heap refused to pop");
                break;
            };
            ties.push(ev);
        }
        Some(first)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn name(&self) -> &'static str {
        "binary-heap"
    }
}

#[cfg(test)]
mod tests {
    use super::super::conformance;
    use super::*;

    #[test]
    fn fifo_same_time() {
        conformance::fifo_within_same_time(BinaryHeapQueue::new());
    }

    #[test]
    fn ordered() {
        conformance::ordered_output(BinaryHeapQueue::new(), 5000, 1);
    }

    #[test]
    fn hold() {
        conformance::interleaved_hold_model(BinaryHeapQueue::new(), 2);
    }

    #[test]
    fn peek() {
        conformance::peek_agrees_with_pop(BinaryHeapQueue::new(), 3);
    }

    #[test]
    fn empty() {
        conformance::empty_behaviour(BinaryHeapQueue::<u32>::new());
    }

    #[test]
    fn clustered() {
        conformance::clustered_times(BinaryHeapQueue::new(), 4);
    }

    #[test]
    fn tie_keys_out_of_order() {
        conformance::tie_keys_out_of_order(BinaryHeapQueue::new(), 6);
    }

    #[test]
    fn signed_zero_and_negative_times() {
        conformance::signed_zero_and_negative_times(BinaryHeapQueue::new(), 7);
    }

    #[test]
    fn sizes_around_group_boundaries() {
        conformance::sizes_around_group_boundaries(BinaryHeapQueue::new, 8);
    }

    #[test]
    fn run_pop() {
        conformance::pop_run_matches_pop_min(BinaryHeapQueue::new(), BinaryHeapQueue::new(), 5);
    }

    #[test]
    fn okey_orders_like_time_then_seq() {
        let times = [-2.5, -1.0e-300, -0.0, 0.0, 1.0e-300, 0.5, 1.0, 1.0e300];
        let seqs = [0u64, 1, u64::MAX];
        for &ta in &times {
            for &tb in &times {
                for &sa in &seqs {
                    for &sb in &seqs {
                        let expect = (SimTime::new(ta), sa).cmp(&(SimTime::new(tb), sb));
                        let got = okey(SimTime::new(ta), sa).cmp(&okey(SimTime::new(tb), sb));
                        assert_eq!(expect, got, "({ta}, {sa}) vs ({tb}, {sb})");
                        let back = key_time(okey(SimTime::new(ta), sa));
                        assert_eq!(back.seconds().to_bits(), ta.to_bits(), "{ta}");
                    }
                }
            }
        }
    }

    #[test]
    fn okey_orders_negative_zero_before_zero() {
        // two instants to `SimTime` (`total_cmp`, `same_instant`), so two
        // runs here too: whatever the seqs, -0.0 comes first
        assert!(okey(SimTime::new(-0.0), 3) < okey(SimTime::new(0.0), 2));
        assert_ne!(
            okey(SimTime::new(-0.0), 0) >> 64,
            okey(SimTime::new(0.0), 0) >> 64
        );
    }
}
