//! Arena storage with `u32` index handles.
//!
//! The paper's §5 scale prescription — "optimizing the way in which
//! simulated entities are being scheduled" — starts with how entities are
//! *stored*: per-entity heap boxes and string/hash keyed maps cost an
//! allocation and a hashing pass on every event. The structures here give
//! the hot paths of `lsds-net` and `lsds-grid` contiguous, index-addressed
//! storage instead:
//!
//! * [`Slab`] — a free-list arena. `insert` returns a dense `u32` handle,
//!   `remove` recycles it. Lookups are a bounds-checked array index, no
//!   hashing. Iteration order is *slot* order, which is **not** insertion
//!   order once slots recycle — callers that need deterministic order must
//!   sort by a monotone key they store themselves (see `lsds-net`'s flow
//!   uids).
//! * [`IdMap`] — a direct-indexed map from a dense monotone `u64` id space
//!   (job ids, flow ids) to `u32` slot handles. Lookup is one array index;
//!   the backing `Vec` grows with the id space, 4 bytes per id ever issued.
//!
//! Both are deliberately dependency-free and `unsafe`-free; `Slab` keeps
//! vacant slots as `None`, trading a word of padding for safety.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

/// A free-list arena: `O(1)` insert/remove/lookup by `u32` handle.
///
/// ```
/// use lsds_core::arena::Slab;
/// let mut s = Slab::new();
/// let a = s.insert("alpha");
/// let b = s.insert("beta");
/// assert_eq!(s[a], "alpha");
/// s.remove(a);
/// let c = s.insert("gamma"); // recycles slot `a`
/// assert_eq!(c, a);
/// assert_eq!(s.len(), 2);
/// let _ = b;
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    /// Values handed back by [`Slab::retire`], kept so [`Slab::insert_with`]
    /// can scavenge their heap allocations. Bounded by the free-list depth.
    spare: Vec<T>,
    len: usize,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `cap` values.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (the exclusive upper bound of valid handles).
    #[inline]
    pub fn slot_bound(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Stores a value, recycling a vacant slot when one exists.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none(), "free slot occupied");
            self.slots[slot as usize] = Some(value);
            slot
        } else {
            assert!(self.slots.len() < u32::MAX as usize, "slab handle overflow");
            self.slots.push(Some(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Stores a value produced by `make`, handing the closure a previously
    /// [retired](Slab::retire) value (if any) so it can scavenge its heap
    /// allocations (e.g. reuse a `Vec`'s capacity) instead of allocating.
    #[inline]
    pub fn insert_with(&mut self, make: impl FnOnce(Option<T>) -> T) -> u32 {
        let prev = self.spare.pop();
        self.insert(make(prev))
    }

    /// Removes and returns the value in `slot`, recycling the handle.
    /// Returns `None` when the slot is vacant.
    #[inline]
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let v = self.slots.get_mut(slot as usize)?.take()?;
        self.len -= 1;
        self.free.push(slot);
        Some(v)
    }

    /// Like [`Slab::remove`] but parks the vacated value in a spare pool
    /// for [`Slab::insert_with`] to scavenge, so its heap allocations
    /// survive the recycle. The slot reads as vacant afterwards.
    #[inline]
    pub fn retire(&mut self, slot: u32) -> bool {
        match self.slots.get_mut(slot as usize).and_then(Option::take) {
            Some(v) => {
                self.len -= 1;
                self.free.push(slot);
                self.spare.push(v);
                true
            }
            None => false,
        }
    }

    /// Shared access; `None` for vacant or out-of-range slots.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Mutable access; `None` for vacant or out-of-range slots.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Visits every live `(slot, value)` in slot order. Slot order is not
    /// insertion order after recycling — order-sensitive callers must sort
    /// on a key of their own.
    pub fn for_each(&self, mut f: impl FnMut(u32, &T)) {
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(v) = s {
                f(i as u32, v);
            }
        }
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::ops::Index<u32> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, slot: u32) -> &T {
        match self.slots[slot as usize].as_ref() {
            Some(v) => v,
            #[expect(
                clippy::panic,
                reason = "indexing a vacant slot is a caller bug; Index has no fallible signature — fallible callers use get()"
            )]
            None => panic!("vacant slab slot {slot}"),
        }
    }
}

impl<T> std::ops::IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut T {
        match self.slots[slot as usize].as_mut() {
            Some(v) => v,
            #[expect(
                clippy::panic,
                reason = "indexing a vacant slot is a caller bug; IndexMut has no fallible signature — fallible callers use get_mut()"
            )]
            None => panic!("vacant slab slot {slot}"),
        }
    }
}

/// Direct-indexed map from a dense monotone `u64` id space to `u32` slot
/// handles: one array index per lookup, no hashing. Ids must be issued
/// densely from 0 (job counters, flow counters); the map spends 4 bytes
/// per id ever seen.
#[derive(Debug, Clone, Default)]
pub struct IdMap {
    slots: Vec<u32>,
}

/// Vacant marker inside [`IdMap`] (`u32::MAX` is never a valid handle —
/// [`Slab::insert`] refuses to allocate it).
const VACANT: u32 = u32::MAX;

impl IdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        IdMap::default()
    }

    /// Binds `id` to `slot`, growing the index as the id space grows.
    #[inline]
    pub fn bind(&mut self, id: u64, slot: u32) {
        debug_assert!(slot != VACANT, "u32::MAX is the vacant marker");
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, VACANT);
        }
        self.slots[i] = slot;
    }

    /// The slot bound to `id`, if any.
    #[inline]
    pub fn get(&self, id: u64) -> Option<u32> {
        match self.slots.get(id as usize) {
            Some(&s) if s != VACANT => Some(s),
            _ => None,
        }
    }

    /// Unbinds `id`, returning the slot it was bound to.
    #[inline]
    pub fn unbind(&mut self, id: u64) -> Option<u32> {
        match self.slots.get_mut(id as usize) {
            Some(s) if *s != VACANT => {
                let out = *s;
                *s = VACANT;
                Some(out)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_remove_recycles_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        let c = s.insert(3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(b), Some(2));
        assert_eq!(s.remove(a), Some(1));
        assert_eq!(s.len(), 1);
        // LIFO recycle: most recently freed slot first
        assert_eq!(s.insert(4), a);
        assert_eq!(s.insert(5), b);
        assert_eq!(s.insert(6), 3);
        assert_eq!(s[c], 3);
        assert_eq!(s.remove(99), None);
        assert_eq!(s.remove(c), Some(3));
        assert_eq!(s.remove(c), None, "double remove is None");
    }

    #[test]
    fn slab_insert_with_scavenges_capacity() {
        let mut s: Slab<Vec<u64>> = Slab::new();
        let a = s.insert(Vec::with_capacity(64));
        assert!(s.retire(a));
        assert!(s.get(a).is_none(), "retired slot reads vacant");
        let b = s.insert_with(|prev| {
            let mut v = prev.expect("retired value available for reuse");
            v.clear();
            v.push(9);
            v
        });
        assert_eq!(b, a);
        assert!(s[b].capacity() >= 64, "allocation survived the recycle");
        assert_eq!(s[b], vec![9]);
    }

    #[test]
    fn slab_for_each_visits_live_only() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let _b = s.insert(20);
        s.remove(a);
        let mut seen = Vec::new();
        s.for_each(|slot, v| seen.push((slot, *v)));
        assert_eq!(seen, vec![(1, 20)]);
    }

    #[test]
    fn idmap_bind_get_unbind() {
        let mut m = IdMap::new();
        assert_eq!(m.get(0), None);
        m.bind(0, 7);
        m.bind(5, 9);
        assert_eq!(m.get(0), Some(7));
        assert_eq!(m.get(5), Some(9));
        assert_eq!(m.get(3), None);
        assert_eq!(m.unbind(5), Some(9));
        assert_eq!(m.get(5), None);
        assert_eq!(m.unbind(5), None);
    }
}
