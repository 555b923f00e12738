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

    fn iter(self, slab: &[Node]) -> impl Iterator<Item = Node> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = *slab.get(at as usize)?;
            at = node.next;
            Some(node)
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
/// One map holds every existing handle, so a `get` or `unref` is one
/// probe (an eviction adds one). Each handle is a slab node on exactly
/// one of two lists — `map.len()` = `pinned.len` + `parked.len` —
/// where `parked` is the pool, evicted in the order it was parked.
pub struct HandleTable {
    /// Slab index by rid. Touched on every object access — FxHash, the
    /// same reasoning as the LRU key maps.
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

/// Copies contents, not capacity: sessions, epochs and per-cell clones
/// are taken from drained tables, whose clone allocates nothing.
impl Clone for HandleTable {
    fn clone(&self) -> Self {
        let mut t = Self::new(self.zombie_capacity);
        t.stats = self.stats;
        t.map.reserve(self.map.len());
        t.slab.reserve(self.map.len());
        for node in self
            .pinned
            .iter(&self.slab)
            .chain(self.parked.iter(&self.slab))
        {
            t.adopt(node.rid, node.pins);
        }
        t
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

    /// Adds a handle the table does not hold, as the newest of its list.
    fn adopt(&mut self, rid: Rid, pins: u32) {
        let at = new_node(&mut self.slab, &mut self.free, rid, pins);
        self.map.insert(rid, at);
        if pins > 0 {
            self.pinned.push_back(&mut self.slab, at);
        } else {
            self.parked.push_back(&mut self.slab, at);
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

    /// Pins `rid`, reporting how the handle was obtained.
    pub fn get(&mut self, rid: Rid) -> GetOutcome {
        let at = match self.map.entry(rid) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let at = *e.insert(new_node(&mut self.slab, &mut self.free, rid, 1));
                self.pinned.push_back(&mut self.slab, at);
                self.stats.allocations += 1;
                // Only an allocation adds a handle, so only it can set
                // a new high-water mark.
                self.stats.peak_handles = self.stats.peak_handles.max(self.map.len() as u64);
                return GetOutcome::Allocated;
            }
        };
        let node = &mut self.slab[at as usize];
        node.pins += 1;
        if node.pins > 1 {
            self.stats.touches += 1;
            return GetOutcome::Touched;
        }
        self.parked.unlink(&mut self.slab, at);
        self.pinned.push_back(&mut self.slab, at);
        self.stats.revivals += 1;
        GetOutcome::Revived
    }

    /// Drops one pin. When the pin count reaches zero the handle moves
    /// to the delayed-free pool; returns the number of handles whose
    /// teardown this triggered (0 or 1 — a pool eviction).
    ///
    /// Panics on unref of a handle that was never pinned: that is a
    /// query-operator bug, not a data condition.
    pub fn unref(&mut self, rid: Rid) -> u64 {
        self.stats.unrefs += 1;
        let at = self.map.get(&rid).copied().unwrap_or(NIL);
        let Some(node) = self.slab.get_mut(at as usize).filter(|n| n.pins > 0) else {
            panic!("unref of unpinned handle {rid:?}");
        };
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
        let n = self.parked.len as u64;
        // Clear everything and put the pinned handles (between queries:
        // none) back, rather than remove the pool key by key.
        let pinned: Vec<Node> = self.pinned.iter(&self.slab).collect();
        self.map.clear();
        self.slab.clear();
        (self.free, self.pinned, self.parked) = (NIL, List::EMPTY, List::EMPTY);
        for node in pinned {
            self.adopt(node.rid, node.pins);
        }
        self.stats.frees += n;
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
        assert_eq!(t.get(rid(1)), GetOutcome::Allocated);
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
        assert_eq!(t.get(rid(9)), GetOutcome::Allocated);
        for _ in 0..100 {
            assert_eq!(t.get(rid(9)), GetOutcome::Touched);
            t.unref(rid(9));
        }
        t.unref(rid(9));
        assert_eq!(t.get(rid(9)), GetOutcome::Revived);
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
    fn zero_capacity_pool_frees_immediately() {
        let mut t = HandleTable::new(0);
        t.get(rid(1));
        assert_eq!(t.unref(rid(1)), 1);
        assert_eq!(t.stats().frees, 1);
        assert_eq!(t.get(rid(1)), GetOutcome::Allocated, "nothing to revive");
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

    /// The two-structure table this module used before — a pin-count
    /// map plus an `LruCache` pool — kept as the reference model.
    struct ModelTable {
        live: FxHashMap<Rid, u32>,
        zombies: tq_pagestore::LruCache<Rid>,
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
            if self.zombies.remove(&rid) {
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
            let freed = self.zombies.capacity() == 0 || self.zombies.insert(rid).is_some();
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

    #[test]
    fn random_schedules_match_the_two_structure_model() {
        for (case, capacity) in [0usize, 2, 4096, 2, 0, 4096].into_iter().enumerate() {
            let mut rng = tq_simrng::SimRng::seed_from_u64(0x4A2D_1E00 + case as u64);
            let mut table = HandleTable::new(capacity);
            let mut model = ModelTable {
                live: FxHashMap::default(),
                zombies: tq_pagestore::LruCache::new(capacity),
                stats: HandleStats::default(),
            };
            // Pins held, with duplicates: what may be unref'd next.
            let mut pinned: Vec<Rid> = Vec::new();
            // A small domain revives and re-touches; a large one fills
            // and overflows the pool.
            let domain = if case < 3 { 12 } else { 10_000 };
            for step in 0..20_000 {
                match rng.below(100) {
                    0 => assert_eq!(table.drain_zombies(), model.drain_zombies()),
                    1..=50 => {
                        let r = rid(rng.below(domain) as u32);
                        assert_eq!(table.get(r), model.get(r), "step {step}");
                        pinned.push(r);
                    }
                    _ if !pinned.is_empty() => {
                        let r = pinned.swap_remove(rng.index(pinned.len()));
                        assert_eq!(table.unref(r), model.unref(r), "step {step}");
                    }
                    _ => {}
                }
                assert_eq!(table.stats(), model.stats, "step {step}");
                assert_eq!(table.live_count(), model.live.len());
                assert_eq!(table.zombie_count(), model.zombies.len());
                if step % 1000 == 0 {
                    // A clone carries on exactly where the original is.
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
        t.get(rid(1));
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
        assert_eq!(c.unref(rid(1)), 0, "rid 1 was pinned twice");
        assert!(c.is_pinned(rid(1)));
        // The next two parks evict the two oldest, 11 then 12.
        assert_eq!(c.unref(rid(1)), 1);
        assert_eq!(c.unref(rid(2)), 1);
        assert_eq!(c.get(rid(11)), GetOutcome::Allocated);
        assert_eq!(c.get(rid(12)), GetOutcome::Allocated);
        assert_eq!(c.get(rid(10)), GetOutcome::Revived);
    }
}
