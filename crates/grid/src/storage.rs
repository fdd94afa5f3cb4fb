//! Storage resources: disks, mass storage (tape), and database servers.
//!
//! "Such hosts may contain computing, data storage, and other resources"
//! (§3); MONARC's regional centers bundle "database servers and mass
//! storage units" (§4). Disk capacity and eviction order are what the
//! replication strategies of E7/E8 manipulate.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::replication::FileId;
use lsds_core::{IdMap, Schedule, SimTime, Slab};
use std::collections::{BinaryHeap, VecDeque};

/// Metadata for a file resident on a storage element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileMeta {
    /// Size in bytes.
    pub size: f64,
    /// Last access time (LRU state).
    pub last_access: SimTime,
    /// Access count since arrival (LFU / economic state).
    pub accesses: u64,
    /// Pinned files (inputs of running jobs) cannot be evicted.
    pub pins: u32,
}

/// Maps `f64::total_cmp` order onto unsigned integer order (sign bit set
/// for positives, all bits flipped for negatives), so eviction keys
/// compare as plain integers.
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | (1 << 63))
}

/// A disk pool with finite capacity and replacement bookkeeping.
///
/// Resident files live in a [`Slab`]; a [`FileId`] resolves to its slot
/// through an [`IdMap`] (the catalog issues ids densely from 0), so every
/// lookup is one array index. The index costs 4 bytes × the highest
/// `FileId` ever stored on this disk.
#[derive(Debug, Clone)]
pub struct StorageElement {
    capacity: f64,
    used: f64,
    files: Slab<(u64, FileMeta)>,
    index: IdMap,
    /// `make_room`'s heap buffer of `(total_order_bits(key), id, slot)`,
    /// kept between calls. Ids are unique, so the slot never decides the
    /// order.
    victims: Vec<(u64, u64, u32)>,
}

impl StorageElement {
    /// Creates a disk of `capacity` bytes.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "bad capacity");
        StorageElement {
            capacity,
            used: 0.0,
            files: Slab::new(),
            index: IdMap::new(),
            victims: Vec::new(),
        }
    }

    /// Mutable metadata of a resident file.
    fn get_mut(&mut self, file: FileId) -> Option<&mut FileMeta> {
        let slot = self.index.get(file.0)?;
        self.files.get_mut(slot).map(|(_, m)| m)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Bytes in use.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Free bytes.
    pub fn free(&self) -> f64 {
        self.capacity - self.used
    }

    /// Whether `file` is resident.
    pub fn has(&self, file: FileId) -> bool {
        self.index.get(file.0).is_some()
    }

    /// Number of resident files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Metadata of a resident file.
    pub fn meta(&self, file: FileId) -> Option<&FileMeta> {
        let slot = self.index.get(file.0)?;
        self.files.get(slot).map(|(_, m)| m)
    }

    /// Records an access (updates LRU/LFU state). Returns false if the
    /// file is not resident.
    pub fn touch(&mut self, file: FileId, now: SimTime) -> bool {
        match self.get_mut(file) {
            Some(m) => {
                m.last_access = now;
                m.accesses += 1;
                true
            }
            None => false,
        }
    }

    /// Pins a resident file against eviction.
    pub fn pin(&mut self, file: FileId) {
        if let Some(m) = self.get_mut(file) {
            m.pins += 1;
        }
    }

    /// Releases one pin.
    pub fn unpin(&mut self, file: FileId) {
        if let Some(m) = self.get_mut(file) {
            assert!(m.pins > 0, "unpin without pin");
            m.pins -= 1;
        }
    }

    /// Stores a file, assuming capacity was already freed. Panics if it
    /// does not fit — callers must evict first (see [`evict_candidates`]).
    ///
    /// [`evict_candidates`]: StorageElement::evict_candidates
    pub fn store(&mut self, file: FileId, size: f64, now: SimTime) {
        assert!(size > 0.0, "bad size");
        assert!(
            self.used + size <= self.capacity * (1.0 + 1e-9),
            "store without room: {} + {size} > {}",
            self.used,
            self.capacity
        );
        assert!(self.index.get(file.0).is_none(), "file already resident");
        let slot = self.files.insert((
            file.0,
            FileMeta {
                size,
                last_access: now,
                accesses: 1,
                pins: 0,
            },
        ));
        self.index.bind(file.0, slot);
        self.used += size;
    }

    /// Deletes a file (no-op if absent). Pinned files cannot be deleted.
    pub fn delete(&mut self, file: FileId) {
        if let Some(&m) = self.meta(file) {
            assert_eq!(m.pins, 0, "deleting pinned file");
            self.used -= m.size;
            self.remove(file.0);
        }
    }

    /// Drops a resident file's slot and index entry (no byte accounting).
    fn remove(&mut self, id: u64) {
        let removed = self.index.unbind(id).and_then(|s| self.files.remove(s));
        debug_assert!(removed.is_some(), "index and slab disagree on {id}");
    }

    /// Unpinned resident files ordered by eviction preference under the
    /// given comparator key: smaller key = evicted first, ties by id.
    pub fn evict_candidates(&self, key: impl Fn(&FileMeta) -> f64) -> Vec<(FileId, f64)> {
        let mut v: Vec<(FileId, f64)> = Vec::new();
        self.files.for_each(|_, (id, m)| {
            if m.pins == 0 {
                v.push((FileId(*id), key(m)));
            }
        });
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }

    /// Frees at least `needed` bytes by evicting unpinned files in order
    /// of ascending `key`, ties by id. Returns the evicted files, or `None`
    /// (state unchanged) if even full eviction cannot make room.
    ///
    /// One pass over the disk keeps, in a max-heap, only the cheapest
    /// unpinned files whose sizes cover the deficit — no sort of the disk.
    /// The kept files are then drawn cheapest first until the replayed
    /// `used -= size` sequence leaves room, and only then deleted, so
    /// `used` ends at exactly the bits that deleting the sorted candidates
    /// one by one would leave.
    pub fn make_room(
        &mut self,
        needed: f64,
        key: impl Fn(&FileMeta) -> f64,
    ) -> Option<Vec<FileId>> {
        if self.free() >= needed {
            return Some(Vec::new());
        }
        // `held` is the kept sizes' sum. A file costlier than every kept
        // one is skipped once they cover the deficit, and the costliest
        // kept file leaves once the others cover it. `cover` is the
        // deficit plus a slack bounding the rounding of `held` and of the
        // replay together (each a sum of at most 2n terms no larger than
        // the disk), so kept files that cover here also cover in the
        // replay: if the replay runs out, nothing was skipped or dropped,
        // and no eviction fits.
        let cover = needed - self.free()
            + (4 * self.files.len() + 16) as f64 * f64::EPSILON * self.capacity.max(self.used);
        let files = &self.files;
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        let mut heap = BinaryHeap::from(victims);
        let mut held = 0.0;
        files.for_each(|slot, (id, m)| {
            if m.pins > 0 {
                return;
            }
            let v = (total_order_bits(key(m)), *id, slot);
            if held >= cover && heap.peek().is_some_and(|top| v > *top) {
                return;
            }
            heap.push(v);
            held += m.size;
            while let Some(&(_, _, top)) = heap.peek() {
                let size = files[top].1.size;
                if held - size >= cover {
                    heap.pop();
                    held -= size;
                } else {
                    break;
                }
            }
        });
        // popped costliest first, so the replay walks `kept` from its end
        let mut kept = Vec::with_capacity(heap.len());
        while let Some(v) = heap.pop() {
            kept.push(v);
        }
        self.victims = heap.into_vec();
        let mut used = self.used;
        let mut evicted = Vec::new();
        loop {
            if self.capacity - used >= needed {
                break;
            }
            let (_, id, slot) = kept.pop()?;
            used -= self.files[slot].1.size;
            evicted.push(FileId(id));
        }
        for id in &evicted {
            self.remove(id.0);
        }
        self.used = used;
        Some(evicted)
    }
}

/// Events of the mass-storage component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeEvent {
    /// A drive finished a recall.
    DriveDone {
        /// Request tag being served.
        tag: u64,
    },
}

/// A tape silo: limited drives, mount latency, sequential read rate.
///
/// Requests queue FIFO for a free drive; service time is
/// `mount_latency + bytes / read_rate`.
pub struct MassStorage {
    drives: usize,
    busy: usize,
    mount_latency: f64,
    read_rate: f64,
    waiting: VecDeque<(u64, f64)>,
    served: u64,
}

impl MassStorage {
    /// Creates a silo with `drives` drives.
    pub fn new(drives: usize, mount_latency: f64, read_rate: f64) -> Self {
        assert!(drives > 0 && read_rate > 0.0 && mount_latency >= 0.0);
        MassStorage {
            drives,
            busy: 0,
            mount_latency,
            read_rate,
            waiting: VecDeque::new(),
            served: 0,
        }
    }

    /// Requests queued for a drive.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Recalls served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests a recall of `bytes`, tagged `tag`. Completion arrives as
    /// [`TapeEvent::DriveDone`].
    pub fn recall(&mut self, tag: u64, bytes: f64, sched: &mut impl Schedule<TapeEvent>) {
        if self.busy < self.drives {
            self.busy += 1;
            let service = self.mount_latency + bytes / self.read_rate;
            sched.schedule_in(service, TapeEvent::DriveDone { tag });
        } else {
            self.waiting.push_back((tag, bytes));
        }
    }

    /// Handles a drive completion; returns the finished tag.
    pub fn handle(&mut self, ev: TapeEvent, sched: &mut impl Schedule<TapeEvent>) -> u64 {
        let TapeEvent::DriveDone { tag } = ev;
        self.served += 1;
        if let Some((next_tag, bytes)) = self.waiting.pop_front() {
            let service = self.mount_latency + bytes / self.read_rate;
            sched.schedule_in(service, TapeEvent::DriveDone { tag: next_tag });
        } else {
            self.busy -= 1;
        }
        tag
    }
}

/// Events of the database-server component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DbEvent {
    /// A server finished a query.
    QueryDone {
        /// Request tag being served.
        tag: u64,
    },
}

/// A database server pool: `c` identical servers with a fixed service
/// demand per query — an M/D/c station when arrivals are Poisson, which is
/// exactly what the E11 validation checks against.
pub struct DbServer {
    servers: usize,
    busy: usize,
    service_seconds: f64,
    waiting: VecDeque<u64>,
    served: u64,
}

impl DbServer {
    /// Creates a pool of `servers` with the given per-query service time.
    pub fn new(servers: usize, service_seconds: f64) -> Self {
        assert!(servers > 0 && service_seconds > 0.0);
        DbServer {
            servers,
            busy: 0,
            service_seconds,
            waiting: VecDeque::new(),
            served: 0,
        }
    }

    /// Queries waiting for a server.
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// Queries served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Submits a query.
    pub fn query(&mut self, tag: u64, sched: &mut impl Schedule<DbEvent>) {
        if self.busy < self.servers {
            self.busy += 1;
            sched.schedule_in(self.service_seconds, DbEvent::QueryDone { tag });
        } else {
            self.waiting.push_back(tag);
        }
    }

    /// Handles a completion; returns the finished tag.
    pub fn handle(&mut self, ev: DbEvent, sched: &mut impl Schedule<DbEvent>) -> u64 {
        let DbEvent::QueryDone { tag } = ev;
        self.served += 1;
        if let Some(next) = self.waiting.pop_front() {
            sched.schedule_in(self.service_seconds, DbEvent::QueryDone { tag: next });
        } else {
            self.busy -= 1;
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::{Ctx, EventDriven, Model};

    #[test]
    fn store_touch_delete() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 40.0, SimTime::ZERO);
        d.store(FileId(2), 30.0, SimTime::new(1.0));
        assert_eq!(d.used(), 70.0);
        assert!(d.has(FileId(1)));
        assert!(d.touch(FileId(1), SimTime::new(2.0)));
        assert_eq!(d.meta(FileId(1)).unwrap().accesses, 2);
        d.delete(FileId(1));
        assert!(!d.has(FileId(1)));
        assert_eq!(d.used(), 30.0);
        assert!(!d.touch(FileId(1), SimTime::new(3.0)));
    }

    #[test]
    #[should_panic]
    fn overfull_store_panics() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 60.0, SimTime::ZERO);
        d.store(FileId(2), 60.0, SimTime::ZERO);
    }

    #[test]
    fn lru_eviction_order() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 40.0, SimTime::new(0.0));
        d.store(FileId(2), 40.0, SimTime::new(1.0));
        d.touch(FileId(1), SimTime::new(5.0)); // 1 is now most recent
        let evicted = d.make_room(30.0, |m| m.last_access.seconds()).unwrap();
        assert_eq!(evicted, vec![FileId(2)]);
        assert!(d.has(FileId(1)));
    }

    #[test]
    fn lfu_eviction_order() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 40.0, SimTime::ZERO);
        d.store(FileId(2), 40.0, SimTime::ZERO);
        d.touch(FileId(2), SimTime::new(1.0));
        d.touch(FileId(2), SimTime::new(2.0));
        let evicted = d.make_room(30.0, |m| m.accesses as f64).unwrap();
        assert_eq!(evicted, vec![FileId(1)]);
    }

    #[test]
    fn pinned_files_survive_eviction() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 50.0, SimTime::ZERO);
        d.store(FileId(2), 50.0, SimTime::new(1.0));
        d.pin(FileId(1));
        let evicted = d.make_room(40.0, |m| m.last_access.seconds()).unwrap();
        assert_eq!(evicted, vec![FileId(2)], "only unpinned file evicted");
        assert!(d.has(FileId(1)));
        // now nothing can be evicted
        assert!(d.make_room(60.0, |m| m.last_access.seconds()).is_none());
        d.unpin(FileId(1));
        assert!(d.make_room(60.0, |m| m.last_access.seconds()).is_some());
    }

    #[test]
    fn make_room_noop_when_space_free() {
        let mut d = StorageElement::new(100.0);
        d.store(FileId(1), 10.0, SimTime::ZERO);
        assert_eq!(d.make_room(50.0, |m| m.size).unwrap(), vec![]);
    }

    /// The sort-based `make_room` the heap selection replaced: sort every
    /// unpinned file, check the total, delete in order until room is made.
    fn make_room_by_sort(
        d: &mut StorageElement,
        needed: f64,
        key: impl Fn(&FileMeta) -> f64,
    ) -> Option<Vec<FileId>> {
        if d.free() >= needed {
            return Some(Vec::new());
        }
        let candidates = d.evict_candidates(key);
        let evictable: f64 = candidates
            .iter()
            .map(|(id, _)| d.meta(*id).unwrap().size)
            .sum();
        if d.free() + evictable < needed {
            return None;
        }
        let mut evicted = Vec::new();
        for (id, _) in candidates {
            if d.free() >= needed {
                break;
            }
            d.delete(id);
            evicted.push(id);
        }
        Some(evicted)
    }

    #[test]
    fn total_order_bits_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_bits(a).cmp(&total_order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    fn assert_same_disk(a: &StorageElement, b: &StorageElement, ids: u64, at: &str) {
        assert_eq!(a.used().to_bits(), b.used().to_bits(), "{at}: used");
        assert_eq!(a.file_count(), b.file_count(), "{at}: file count");
        for f in 0..ids {
            assert_eq!(a.meta(FileId(f)), b.meta(FileId(f)), "{at}: file {f}");
        }
    }

    #[test]
    fn make_room_matches_sort_based_reference() {
        use lsds_stats::SimRng;
        const IDS: u64 = 96;
        let lru = |m: &FileMeta| m.last_access.seconds();
        let lfu = |m: &FileMeta| m.accesses as f64;
        // evictions seen with 0, 1 and many victims, and infeasible calls
        let mut seen = [0u32; 4];
        for seed in 0..60 {
            let mut rng = SimRng::new(seed);
            // odd seeds draw fractional sizes, even seeds whole ones (whose
            // sums are exact, so deficits can sit exactly on a boundary)
            let whole = seed % 2 == 0;
            let mut new = StorageElement::new(2_000.0);
            let mut old = new.clone();
            let mut now = 0.0;
            for op in 0..600 {
                let at = format!("seed {seed} op {op}");
                // a coarse clock: many files share an access time, so the
                // id tie-break decides LRU order as often as the key does
                if rng.next_below(4) == 0 {
                    now += 1.0;
                }
                let t = SimTime::new(now);
                let f = FileId(rng.next_below(IDS));
                let use_lru = rng.next_below(2) == 0;
                let key = |m: &FileMeta| if use_lru { lru(m) } else { lfu(m) };
                match rng.next_below(10) {
                    0..=2 if !new.has(f) => {
                        let size = if whole {
                            (1 + rng.next_below(150)) as f64
                        } else {
                            0.5 + rng.next_f64() * 150.0
                        };
                        let got = new.make_room(size, key);
                        assert_eq!(got, make_room_by_sort(&mut old, size, key), "{at}");
                        if got.is_some() {
                            new.store(f, size, t);
                            old.store(f, size, t);
                        }
                    }
                    3 | 4 => {
                        assert_eq!(new.touch(f, t), old.touch(f, t), "{at}");
                    }
                    5 => {
                        new.pin(f);
                        old.pin(f);
                    }
                    6 if new.meta(f).is_some_and(|m| m.pins > 0) => {
                        new.unpin(f);
                        old.unpin(f);
                    }
                    7 if new.meta(f).is_some_and(|m| m.pins == 0) => {
                        new.delete(f);
                        old.delete(f);
                    }
                    8 | 9 => {
                        // a deficit chosen against the reference order
                        let order: Vec<f64> = old
                            .evict_candidates(key)
                            .iter()
                            .map(|(id, _)| old.meta(*id).unwrap().size)
                            .collect();
                        let total: f64 = order.iter().sum();
                        let free = old.free();
                        let inside = 0.25 + 0.5 * rng.next_f64();
                        let needed = match rng.next_below(5) {
                            0 => free * rng.next_f64(),
                            3 => free + total + 1.0 + 50.0 * rng.next_f64(),
                            4 if whole && !order.is_empty() => {
                                let k = 1 + rng.next_below(order.len() as u64) as usize;
                                free + order[..k].iter().sum::<f64>()
                            }
                            _ if order.is_empty() => free + 1.0,
                            r => {
                                let k = if r == 1 {
                                    1
                                } else {
                                    1 + rng.next_below(order.len() as u64) as usize
                                };
                                free + order[..k - 1].iter().sum::<f64>() + inside * order[k - 1]
                            }
                        };
                        let before = new.clone();
                        let got = new.make_room(needed, key);
                        assert_eq!(got, make_room_by_sort(&mut old, needed, key), "{at}");
                        match &got {
                            None => {
                                assert_same_disk(&new, &before, IDS, &at);
                                seen[3] += 1;
                            }
                            Some(v) => seen[v.len().min(2)] += 1,
                        }
                    }
                    _ => {}
                }
                assert_same_disk(&new, &old, IDS, &at);
            }
        }
        assert!(seen.iter().all(|&n| n >= 50), "coverage {seen:?}");
    }

    // -- tape --

    struct TapeHarness {
        tape: MassStorage,
        done: Vec<(u64, f64)>,
    }
    enum TE {
        Recall(u64, f64),
        Tape(TapeEvent),
    }
    impl Model for TapeHarness {
        type Event = TE;
        fn handle(&mut self, ev: TE, ctx: &mut Ctx<'_, TE>) {
            match ev {
                TE::Recall(tag, bytes) => self.tape.recall(tag, bytes, &mut ctx.map(TE::Tape)),
                TE::Tape(te) => {
                    let tag = self.tape.handle(te, &mut ctx.map(TE::Tape));
                    self.done.push((tag, ctx.now().seconds()));
                }
            }
        }
    }

    #[test]
    fn tape_drives_limit_concurrency() {
        let mut sim = EventDriven::new(TapeHarness {
            tape: MassStorage::new(1, 10.0, 100.0), // mount 10s, 100 B/s
            done: vec![],
        });
        sim.schedule(SimTime::ZERO, TE::Recall(1, 1000.0)); // 10+10=20s
        sim.schedule(SimTime::ZERO, TE::Recall(2, 500.0)); // waits, 10+5
        sim.run();
        let m = sim.model();
        assert_eq!(m.done[0], (1, 20.0));
        assert_eq!(m.done[1], (2, 35.0));
        assert_eq!(m.tape.served(), 2);
    }

    // -- db --

    struct DbHarness {
        db: DbServer,
        done: Vec<(u64, f64)>,
    }
    enum DE {
        Query(u64),
        Db(DbEvent),
    }
    impl Model for DbHarness {
        type Event = DE;
        fn handle(&mut self, ev: DE, ctx: &mut Ctx<'_, DE>) {
            match ev {
                DE::Query(tag) => self.db.query(tag, &mut ctx.map(DE::Db)),
                DE::Db(de) => {
                    let tag = self.db.handle(de, &mut ctx.map(DE::Db));
                    self.done.push((tag, ctx.now().seconds()));
                }
            }
        }
    }

    #[test]
    fn db_pool_queues_excess_queries() {
        let mut sim = EventDriven::new(DbHarness {
            db: DbServer::new(2, 1.0),
            done: vec![],
        });
        for tag in 0..4 {
            sim.schedule(SimTime::ZERO, DE::Query(tag));
        }
        sim.run();
        let ends: Vec<f64> = sim.model().done.iter().map(|&(_, t)| t).collect();
        assert_eq!(ends, vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(sim.model().db.queue_len(), 0);
    }
}
