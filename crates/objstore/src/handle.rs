//! In-memory object representatives ("Handles").
//!
//! The paper's §4 diagnosis: every object touched in client memory gets
//! a ~60-byte *Handle* — flags, class-info pointer, index-list pointer,
//! pin count, version pointer, schema-history info — that must be
//! "allocated, updated and freed whenever necessary", and this CPU cost
//! dominates cold associative scans. O2 mitigates repeat access by
//! *delaying* handle destruction "as much as possible".
//!
//! [`HandleTable`] models exactly that: pin-counted live handles plus a
//! bounded delayed-free (zombie) pool. It reports *what happened* on
//! each operation ([`GetOutcome`], free counts) so the
//! [`ObjectStore`](crate::store::ObjectStore) can charge the matching
//! [`CpuEvent`](tq_pagestore::CpuEvent)s:
//!
//! * first get of an object → `HandleAlloc`
//! * get while live or zombied → `HandleTouch`
//! * unref → `HandleUnref` (pin drop only)
//! * zombie-pool eviction → `HandleFree` (the deferred teardown)
//!
//! so a one-pass scan pays alloc + unref + free per object
//! (the paper's ~0.125 ms), while repeated navigation to a hot parent
//! pays only touches.

use crate::rid::Rid;
use std::collections::hash_map::Entry;
use tq_fasthash::FxHashMap;

/// Simulated size of one full object handle (paper §4.4: "the structure
/// takes 60 Bytes of memory").
pub const HANDLE_BYTES: u64 = 60;

/// Default capacity of the delayed-free pool.
pub const DEFAULT_ZOMBIE_CAPACITY: usize = 4096;

/// What a [`HandleTable::get`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// A fresh handle was allocated.
    Allocated,
    /// The handle was live (pinned); its pin count was bumped.
    Touched,
    /// The handle sat in the delayed-free pool and was revived.
    Revived,
}

/// Cumulative handle-traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Fresh allocations.
    pub allocations: u64,
    /// Re-pins of live handles.
    pub touches: u64,
    /// Revivals from the delayed-free pool.
    pub revivals: u64,
    /// Pin drops.
    pub unrefs: u64,
    /// Actual teardowns (delayed-free evictions + explicit drain).
    pub frees: u64,
    /// High-water mark of simultaneously existing handles
    /// (live + zombie).
    pub peak_handles: u64,
}

impl HandleStats {
    /// Simulated peak memory the handles occupied.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_handles * HANDLE_BYTES
    }
}

const NIL: u32 = u32::MAX;

/// One existing handle. `pins == 0` means it is parked in the
/// delayed-free pool.
#[derive(Clone, Copy)]
struct Node {
    rid: Rid,
    pins: u32,
    prev: u32,
    next: u32,
}

/// A doubly-linked list threaded through the slab's nodes, oldest
/// first.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    fn push_back(&mut self, slab: &mut [Node], at: u32) {
        (slab[at as usize].prev, slab[at as usize].next) = (self.tail, NIL);
        match self.tail {
            NIL => self.head = at,
            tail => slab[tail as usize].next = at,
        }
        self.tail = at;
        self.len += 1;
    }

    fn unlink(&mut self, slab: &mut [Node], at: u32) {
        let Node { prev, next, .. } = slab[at as usize];
        match prev {
            NIL => self.head = next,
            prev => slab[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => slab[next as usize].prev = prev,
        }
        self.len -= 1;
    }

    /// The list's slab slots, oldest first.
    fn slots(self, slab: &[Node]) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let here = at;
            at = slab.get(here as usize)?.next;
            Some(here)
        })
    }
}

/// Takes a slab node for `rid`, on no list yet.
fn new_node(slab: &mut Vec<Node>, free: &mut u32, rid: Rid, pins: u32) -> u32 {
    let node = Node {
        rid,
        pins,
        prev: NIL,
        next: NIL,
    };
    if *free == NIL {
        slab.push(node);
        return (slab.len() - 1) as u32;
    }
    let at = *free;
    *free = slab[at as usize].next;
    slab[at as usize] = node;
    at
}

/// The handle table: pin-counted live handles plus a delayed-free pool.
///
/// One map holds every existing handle, so a `get` is one probe. Each
/// handle is a slab node on exactly one of two lists — `map.len()` =
/// `pinned.len` + `parked.len` — where `parked` is the pool, evicted in
/// the order it was parked. A `get` also returns the handle's slab
/// slot: [`HandleTable::unref_slot`] drops the pin there with no probe
/// (only a pool eviction probes, to forget the freed rid). A pinned
/// handle keeps its slot until its last unref, through clones and
/// drains.
pub struct HandleTable {
    /// Slab index by rid. Touched on every object fetch — FxHash, as
    /// the hottest hashed lookup in the simulator.
    map: FxHashMap<Rid, u32>,
    slab: Vec<Node>,
    /// Freed nodes, chained through `next`.
    free: u32,
    pinned: List,
    parked: List,
    zombie_capacity: usize,
    stats: HandleStats,
}

impl Default for HandleTable {
    fn default() -> Self {
        Self::new(DEFAULT_ZOMBIE_CAPACITY)
    }
}

/// Copies the table node for node, so every slot a pin was handed
/// stays valid in the clone; the map gets no more room than it holds.
/// Sessions, epochs and per-cell clones are taken from drained tables,
/// whose clone allocates nothing.
impl Clone for HandleTable {
    fn clone(&self) -> Self {
        let mut map = FxHashMap::default();
        map.reserve(self.map.len());
        for at in (self.pinned.slots(&self.slab)).chain(self.parked.slots(&self.slab)) {
            map.insert(self.slab[at as usize].rid, at);
        }
        Self {
            map,
            slab: self.slab.clone(),
            free: self.free,
            pinned: self.pinned,
            parked: self.parked,
            zombie_capacity: self.zombie_capacity,
            stats: self.stats,
        }
    }
}

impl HandleTable {
    /// Creates a table whose delayed-free pool holds up to
    /// `zombie_capacity` unpinned handles before real frees happen.
    pub fn new(zombie_capacity: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: NIL,
            pinned: List::EMPTY,
            parked: List::EMPTY,
            zombie_capacity,
            stats: HandleStats::default(),
        }
    }

    /// Makes room for a full delayed-free pool plus `pins` pinned
    /// handles, so a table filled up to that never grows.
    pub fn reserve(&mut self, pins: usize) {
        let handles = self.zombie_capacity + pins;
        self.slab.reserve(handles.saturating_sub(self.slab.len()));
        // A full pool churns (each new handle evicts the oldest), which
        // leaves tombstones in the map; at most half full, it clears
        // them in place instead of doubling.
        self.map
            .reserve((2 * handles).saturating_sub(self.map.len()));
    }

    /// Pins `rid`, reporting how the handle was obtained and the slot
    /// [`HandleTable::unref_slot`] takes back.
    pub fn get(&mut self, rid: Rid) -> (GetOutcome, u32) {
        let at = match self.map.entry(rid) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let at = *e.insert(new_node(&mut self.slab, &mut self.free, rid, 1));
                self.pinned.push_back(&mut self.slab, at);
                self.stats.allocations += 1;
                // Only an allocation adds a handle, so only it can set
                // a new high-water mark.
                self.stats.peak_handles = self.stats.peak_handles.max(self.map.len() as u64);
                return (GetOutcome::Allocated, at);
            }
        };
        let node = &mut self.slab[at as usize];
        node.pins += 1;
        if node.pins > 1 {
            self.stats.touches += 1;
            return (GetOutcome::Touched, at);
        }
        self.parked.unlink(&mut self.slab, at);
        self.pinned.push_back(&mut self.slab, at);
        self.stats.revivals += 1;
        (GetOutcome::Revived, at)
    }

    /// Drops one pin. When the pin count reaches zero the handle moves
    /// to the delayed-free pool; returns the number of handles whose
    /// teardown this triggered (0 or 1 — a pool eviction).
    ///
    /// Panics on unref of a handle that was never pinned: that is a
    /// query-operator bug, not a data condition.
    pub fn unref(&mut self, rid: Rid) -> u64 {
        let at = self.map.get(&rid).copied().unwrap_or(NIL);
        let pinned = self.slab.get(at as usize).is_some_and(|n| n.pins > 0);
        assert!(pinned, "unref of unpinned handle {rid:?}");
        self.unref_at(at)
    }

    /// [`HandleTable::unref`] of the handle a `get` of `rid` returned
    /// `slot` for. Debug builds check that the slot still holds a pin
    /// on `rid`.
    pub(crate) fn unref_slot(&mut self, rid: Rid, slot: u32) -> u64 {
        debug_assert!(
            (self.slab.get(slot as usize)).is_some_and(|n| n.rid == rid && n.pins > 0),
            "unref of {rid:?} at slot {slot}, which holds no pin on it"
        );
        self.unref_at(slot)
    }

    fn unref_at(&mut self, at: u32) -> u64 {
        self.stats.unrefs += 1;
        let node = &mut self.slab[at as usize];
        node.pins -= 1;
        if node.pins > 0 {
            return 0;
        }
        self.pinned.unlink(&mut self.slab, at);
        self.parked.push_back(&mut self.slab, at);
        if self.parked.len <= self.zombie_capacity {
            return 0;
        }
        let oldest = self.parked.head;
        self.parked.unlink(&mut self.slab, oldest);
        self.map.remove(&self.slab[oldest as usize].rid);
        self.slab[oldest as usize].next = self.free;
        self.free = oldest;
        self.stats.frees += 1;
        1
    }

    /// Tears down every unpinned handle (end of query / transaction).
    /// Returns the number of frees performed.
    pub fn drain_zombies(&mut self) -> u64 {
        let n = self.discard_zombies();
        self.stats.frees += n;
        n
    }

    /// [`HandleTable::drain_zombies`] without counting the frees: a
    /// cold restart, which the paper's server shutdown makes free.
    pub(crate) fn discard_zombies(&mut self) -> u64 {
        let n = self.parked.len as u64;
        if self.pinned.len == 0 {
            self.map.clear();
            self.slab.clear();
            self.free = NIL;
        } else if n > 0 {
            // Clear the map rather than remove the pool key by key, and
            // put the pinned handles back at their slots.
            self.map.clear();
            for at in self.pinned.slots(&self.slab) {
                self.map.insert(self.slab[at as usize].rid, at);
            }
            // The pool, chained through `next` already, joins the free
            // list whole.
            self.slab[self.parked.tail as usize].next = self.free;
            self.free = self.parked.head;
        }
        self.parked = List::EMPTY;
        n
    }

    /// Currently pinned handles.
    pub fn live_count(&self) -> usize {
        self.pinned.len
    }

    /// Handles parked in the delayed-free pool.
    pub fn zombie_count(&self) -> usize {
        self.parked.len
    }

    /// True if `rid` currently has a pinned handle.
    pub fn is_pinned(&self, rid: Rid) -> bool {
        (self.map.get(&rid)).is_some_and(|&at| self.slab[at as usize].pins > 0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> HandleStats {
        self.stats
    }

    /// Simulated bytes of handle memory right now.
    pub fn current_bytes(&self) -> u64 {
        self.map.len() as u64 * HANDLE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use tq_pagestore::{FileId, PageId};

    fn rid(n: u32) -> Rid {
        Rid::new(
            PageId {
                file: FileId(0),
                page_no: n,
            },
            0,
        )
    }

    #[test]
    fn scan_pattern_alloc_unref_then_pool() {
        let mut t = HandleTable::new(2);
        assert_eq!(t.get(rid(1)).0, GetOutcome::Allocated);
        assert_eq!(t.unref(rid(1)), 0, "goes to pool, no teardown yet");
        assert_eq!(t.live_count(), 0);
        assert_eq!(t.zombie_count(), 1);
        // Two more distinct objects overflow the 2-slot pool.
        t.get(rid(2));
        assert_eq!(t.unref(rid(2)), 0);
        t.get(rid(3));
        assert_eq!(t.unref(rid(3)), 1, "pool eviction frees rid 1");
        assert_eq!(t.stats().frees, 1);
    }

    #[test]
    fn navigation_pattern_touches_hot_handle() {
        let mut t = HandleTable::new(8);
        assert_eq!(t.get(rid(9)).0, GetOutcome::Allocated);
        for _ in 0..100 {
            assert_eq!(t.get(rid(9)).0, GetOutcome::Touched);
            t.unref(rid(9));
        }
        t.unref(rid(9));
        assert_eq!(t.get(rid(9)).0, GetOutcome::Revived);
        let s = t.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.touches, 100);
        assert_eq!(s.revivals, 1);
    }

    #[test]
    fn pin_counting_keeps_handle_live() {
        let mut t = HandleTable::new(4);
        t.get(rid(5));
        t.get(rid(5));
        t.unref(rid(5));
        assert!(t.is_pinned(rid(5)), "one pin remains");
        t.unref(rid(5));
        assert!(!t.is_pinned(rid(5)));
    }

    #[test]
    #[should_panic(expected = "unref of unpinned handle")]
    fn unref_without_get_panics() {
        let mut t = HandleTable::new(4);
        t.unref(rid(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "holds no pin on it")]
    fn unref_of_a_stale_slot_panics_in_debug() {
        let mut t = HandleTable::new(4);
        let (_, slot) = t.get(rid(1));
        t.unref_slot(rid(1), slot);
        t.unref_slot(rid(1), slot);
    }

    #[test]
    fn zero_capacity_pool_frees_immediately() {
        let mut t = HandleTable::new(0);
        t.get(rid(1));
        assert_eq!(t.unref(rid(1)), 1);
        assert_eq!(t.stats().frees, 1);
        assert_eq!(t.get(rid(1)).0, GetOutcome::Allocated, "nothing to revive");
    }

    #[test]
    fn drain_and_memory_accounting() {
        let mut t = HandleTable::new(16);
        for i in 0..10 {
            t.get(rid(i));
        }
        assert_eq!(t.current_bytes(), 10 * HANDLE_BYTES);
        for i in 0..10 {
            t.unref(rid(i));
        }
        assert_eq!(t.zombie_count(), 10);
        assert_eq!(t.drain_zombies(), 10);
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(t.stats().peak_handles, 10);
        assert_eq!(t.stats().peak_bytes(), 600);
    }

    #[test]
    fn discarding_the_pool_counts_nothing() {
        let mut t = HandleTable::new(16);
        let (_, pin) = t.get(rid(0));
        for i in 1..10 {
            t.get(rid(i));
            t.unref(rid(i));
        }
        let stats = t.stats();
        assert_eq!(t.discard_zombies(), 9);
        assert_eq!((t.live_count(), t.zombie_count()), (1, 0));
        assert_eq!(t.stats(), stats);
        assert_eq!(t.get(rid(5)).0, GetOutcome::Allocated, "nothing to revive");
        // The pin held through the discard comes back by its slot.
        assert_eq!(t.unref_slot(rid(0), pin), 0);
        assert_eq!(t.get(rid(0)).0, GetOutcome::Revived);
    }

    #[test]
    fn a_drain_with_pins_held_frees_the_pool_in_place() {
        let mut t = HandleTable::new(DEFAULT_ZOMBIE_CAPACITY);
        let (_, pin) = t.get(rid(u32::MAX));
        for i in 0..DEFAULT_ZOMBIE_CAPACITY as u32 {
            t.get(rid(i));
            t.unref(rid(i));
        }
        let slab = t.slab.len();
        assert_eq!(t.drain_zombies(), DEFAULT_ZOMBIE_CAPACITY as u64);
        assert_eq!((t.slab.len(), t.map.len()), (slab, 1));
        // The freed nodes are reused before the slab grows.
        for i in 0..DEFAULT_ZOMBIE_CAPACITY as u32 {
            assert_eq!(t.get(rid(i)).0, GetOutcome::Allocated);
            t.unref(rid(i));
        }
        assert_eq!(t.slab.len(), slab);
        // Parking the pin overflows the full pool.
        assert_eq!(t.unref_slot(rid(u32::MAX), pin), 1);
    }

    /// The two-structure table this module used before — a pin-count
    /// map plus a FIFO pool — kept as the reference model.
    struct ModelTable {
        live: FxHashMap<Rid, u32>,
        /// Front = parked most recently.
        zombies: VecDeque<Rid>,
        capacity: usize,
        stats: HandleStats,
    }

    impl ModelTable {
        fn note_peak(&mut self) {
            let now = (self.live.len() + self.zombies.len()) as u64;
            self.stats.peak_handles = self.stats.peak_handles.max(now);
        }

        fn get(&mut self, rid: Rid) -> GetOutcome {
            if let Some(pins) = self.live.get_mut(&rid) {
                *pins += 1;
                self.stats.touches += 1;
                return GetOutcome::Touched;
            }
            if let Some(at) = self.zombies.iter().position(|&z| z == rid) {
                self.zombies.remove(at);
                self.live.insert(rid, 1);
                self.stats.revivals += 1;
                return GetOutcome::Revived;
            }
            self.live.insert(rid, 1);
            self.stats.allocations += 1;
            self.note_peak();
            GetOutcome::Allocated
        }

        fn unref(&mut self, rid: Rid) -> u64 {
            self.stats.unrefs += 1;
            let pins = self.live.get_mut(&rid).expect("model: unref of unpinned");
            *pins -= 1;
            if *pins > 0 {
                return 0;
            }
            self.live.remove(&rid);
            self.zombies.push_front(rid);
            let freed = self.zombies.len() > self.capacity;
            if freed {
                self.zombies.pop_back();
            }
            self.stats.frees += u64::from(freed);
            self.note_peak();
            u64::from(freed)
        }

        fn drain_zombies(&mut self) -> u64 {
            let n = self.zombies.len() as u64;
            self.zombies.clear();
            self.stats.frees += n;
            n
        }
    }

    /// Every pin is released by rid or by slot at random; the table is
    /// cloned mid-query and drained with pins held.
    #[test]
    fn random_schedules_match_the_two_structure_model() {
        for (case, capacity) in [0usize, 2, 4096, 2, 0, 4096].into_iter().enumerate() {
            let mut rng = tq_simrng::SimRng::seed_from_u64(0x4A2D_1E00 + case as u64);
            let mut table = HandleTable::new(capacity);
            let mut model = ModelTable {
                live: FxHashMap::default(),
                zombies: VecDeque::new(),
                capacity,
                stats: HandleStats::default(),
            };
            // Pins held, with duplicates, and the slot each get
            // returned: what may be unref'd next.
            let mut pinned: Vec<(Rid, u32)> = Vec::new();
            // A small domain revives and re-touches; a large one fills
            // and overflows the pool.
            let domain = if case < 3 { 12 } else { 10_000 };
            for step in 0..20_000 {
                match rng.below(100) {
                    0 => assert_eq!(table.drain_zombies(), model.drain_zombies()),
                    1..=50 => {
                        let r = rid(rng.below(domain) as u32);
                        let (outcome, slot) = table.get(r);
                        assert_eq!(outcome, model.get(r), "step {step}");
                        pinned.push((r, slot));
                    }
                    _ if !pinned.is_empty() => {
                        let (r, slot) = pinned.swap_remove(rng.index(pinned.len()));
                        let freed = if rng.below(2) == 0 {
                            table.unref(r)
                        } else {
                            table.unref_slot(r, slot)
                        };
                        assert_eq!(freed, model.unref(r), "step {step}");
                    }
                    _ => {}
                }
                assert_eq!(table.stats(), model.stats, "step {step}");
                assert_eq!(table.live_count(), model.live.len());
                assert_eq!(table.zombie_count(), model.zombies.len());
                if step % 1000 == 0 {
                    // A clone carries on exactly where the original is,
                    // every slot included.
                    table = table.clone();
                }
            }
        }
    }

    #[test]
    fn clone_of_a_drained_table_allocates_nothing() {
        let mut t = HandleTable::default();
        for i in 0..5000 {
            t.get(rid(i));
            t.unref(rid(i));
        }
        assert_eq!(t.zombie_count(), DEFAULT_ZOMBIE_CAPACITY);
        t.drain_zombies();
        assert!(t.map.capacity() > 0, "the drained table keeps its buckets");
        let c = t.clone();
        assert_eq!(c.map.capacity(), 0);
        assert_eq!(c.slab.capacity(), 0);
        assert_eq!(c.stats(), t.stats());
    }

    #[test]
    fn a_reserved_table_fills_its_pool_without_growing() {
        let mut t = HandleTable::new(64);
        t.reserve(8);
        let (map, slab) = (t.map.capacity(), t.slab.capacity());
        // Seven pins held beside a full pool, and an eighth by a scan
        // that evicts from the pool on every object.
        for i in 0..7 {
            t.get(rid(i));
        }
        for i in 7..10_000 {
            t.get(rid(i));
            t.unref(rid(i));
        }
        assert_eq!((t.live_count(), t.zombie_count()), (7, 64));
        assert_eq!((t.map.capacity(), t.slab.capacity()), (map, slab));
    }

    #[test]
    fn mid_query_clone_preserves_pins_and_park_order() {
        let mut t = HandleTable::new(3);
        t.get(rid(1));
        let (_, one) = t.get(rid(1));
        t.get(rid(2));
        for i in [10, 11, 12] {
            t.get(rid(i));
            t.unref(rid(i));
        }
        // Revive and re-park the oldest: park order is now 11, 12, 10.
        t.get(rid(10));
        t.unref(rid(10));
        let mut c = t.clone();
        assert_eq!((c.live_count(), c.zombie_count()), (2, 3));
        assert_eq!(c.stats(), t.stats());
        assert_eq!(c.unref_slot(rid(1), one), 0, "rid 1 was pinned twice");
        assert!(c.is_pinned(rid(1)));
        // The next two parks evict the two oldest, 11 then 12.
        assert_eq!(c.unref(rid(1)), 1);
        assert_eq!(c.unref(rid(2)), 1);
        assert_eq!(c.get(rid(11)).0, GetOutcome::Allocated);
        assert_eq!(c.get(rid(12)).0, GetOutcome::Allocated);
        assert_eq!(c.get(rid(10)).0, GetOutcome::Revived);
    }
}
