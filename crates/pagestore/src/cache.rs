//! An O(1) LRU residency cache.
//!
//! Both tiers of the paper's client/server architecture (32 MB client
//! cache, 4 MB server cache) are modelled as LRU sets of [`PageId`]s:
//! the *data* always lives on the in-memory [`Disk`](crate::disk::Disk),
//! so the caches only need to decide hit vs. miss and pick eviction
//! victims — which is all the paper's counters (`CCMissrate`,
//! `SCMissrate`, `CCPagefaults`, RPC and disk-read counts) depend on.
//!
//! Implementation: a slab of doubly-linked nodes, found by position
//! rather than by hash. A key names a `(table, position)` pair
//! ([`FrameKey`]) — a page its file and page number — and
//! `frames[table][position]` holds the key's slab index, or `u32::MAX`
//! when it is not resident. The lookup is the hottest in the
//! simulator, touched on every simulated page access, and this way it
//! is two dependent loads and no hashing. `touch`, `insert` and
//! eviction are all O(1).
//!
//! A table grows to the highest position inserted into it. The
//! [`StorageStack`](crate::stack::StorageStack) instead keeps each
//! file's table exactly as long as the file
//! ([`LruCache::set_table_len`]), so a clone of it carries exact tables
//! and a read-only clone never grows one.

use crate::page::PageId;

const NIL: u32 = u32::MAX;

/// Upper bound on *eager* allocation in [`LruCache::new`], in entries.
/// A cache sized for a paper-scale client (millions of pages) must not
/// pay its full footprint up front — the slab starts at most this
/// large and grows on demand.
const PREALLOC_CAP: usize = 1 << 20;

/// A key an [`LruCache`] finds by position.
pub trait FrameKey: Copy + Eq {
    /// The key's `(table, position)`. Tables and positions should be
    /// dense: a table is a vector as long as its highest position.
    fn frame(self) -> (usize, usize);
}

/// A page is found in its file's table, at its page number.
impl FrameKey for PageId {
    fn frame(self) -> (usize, usize) {
        (self.file.0 as usize, self.page_no as usize)
    }
}

macro_rules! integer_frame_keys {
    ($($t:ty),*) => {$(
        /// An integer key is a position in table 0.
        impl FrameKey for $t {
            fn frame(self) -> (usize, usize) {
                (0, self as usize)
            }
        }
    )*};
}
integer_frame_keys!(u8, u32, u64);

#[derive(Clone)]
struct Node<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set.
///
/// Generic over the key so tests can model it with small integers; the
/// storage stack instantiates it with [`PageId`].
#[derive(Clone)]
pub struct LruCache<K: FrameKey> {
    /// Slab index by `(table, position)`; `NIL` when absent.
    frames: Vec<Vec<u32>>,
    slab: Vec<Node<K>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
    capacity: usize,
}

impl<K: FrameKey> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys. A capacity of 0
    /// is a legal degenerate cache that misses everything.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < NIL as usize,
            "LruCache capacity {capacity} exceeds u32 slots"
        );
        Self {
            frames: Vec::new(),
            slab: Vec::with_capacity(capacity.min(PREALLOC_CAP)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Maximum number of resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slab index of `key`, or `NIL`.
    fn slot(&self, key: K) -> u32 {
        let (table, at) = key.frame();
        let slot = self.frames.get(table).and_then(|t| t.get(at));
        slot.copied().unwrap_or(NIL)
    }

    /// Table `table`, made (empty) if it was never made.
    fn table_mut(&mut self, table: usize) -> &mut Vec<u32> {
        if table >= self.frames.len() {
            self.frames.resize_with(table + 1, Vec::new);
        }
        &mut self.frames[table]
    }

    /// `key`'s frame, growing its table to hold it.
    fn frame_mut(&mut self, key: K) -> &mut u32 {
        let (table, at) = key.frame();
        let frames = self.table_mut(table);
        if at >= frames.len() {
            frames.resize(at + 1, NIL);
        }
        &mut frames[at]
    }

    /// True if `key` is resident, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.slot(*key) != NIL
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.slab[idx as usize];
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks `key` as most recently used. Returns `true` on hit.
    pub fn touch(&mut self, key: K) -> bool {
        // Sequential scans touch the same page dozens of times in a row
        // (and rid-run cursors touch theirs once per rid); when the key
        // is already at the MRU position the frame lookup can be
        // skipped outright. Hit/miss outcome and recency order are
        // unchanged.
        if self.head != NIL && self.slab[self.head as usize].key == key {
            return true;
        }
        let idx = self.slot(key);
        if idx == NIL {
            return false;
        }
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        true
    }

    /// Inserts `key` as most recently used, evicting the LRU key if the
    /// cache is full. Returns the evicted key, if any.
    ///
    /// Inserting an already-resident key just touches it.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(key) {
            return None;
        }
        self.insert_absent(key)
    }

    /// [`LruCache::insert`] for a key the caller knows is not resident
    /// (it has just missed): no lookup first. Debug builds check.
    pub fn insert_absent(&mut self, key: K) -> Option<K> {
        debug_assert!(!self.contains(&key), "insert_absent of a resident key");
        if self.capacity == 0 {
            return None;
        }
        let (idx, evicted) = if self.len == self.capacity {
            // The victim's node becomes the new key's.
            let idx = self.tail;
            let victim = self.slab[idx as usize].key;
            self.unlink(idx);
            *self.frame_mut(victim) = NIL;
            self.slab[idx as usize].key = key;
            (idx, Some(victim))
        } else {
            self.len += 1;
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i as usize].key = key;
                    i
                }
                None => {
                    self.slab.push(Node {
                        key,
                        prev: NIL,
                        next: NIL,
                    });
                    (self.slab.len() - 1) as u32
                }
            };
            (idx, None)
        };
        self.push_front(idx);
        *self.frame_mut(key) = idx;
        evicted
    }

    /// Removes `key` if resident. Returns `true` if it was.
    pub fn remove(&mut self, key: &K) -> bool {
        let idx = self.slot(*key);
        if idx == NIL {
            return false;
        }
        *self.frame_mut(*key) = NIL;
        self.unlink(idx);
        self.free.push(idx);
        self.len -= 1;
        true
    }

    /// Drops everything (a server shutdown / cold restart, which the
    /// paper performs before every measured query). Tables keep their
    /// lengths; only the resident keys' frames are reset.
    pub fn clear(&mut self) {
        let mut at = self.head;
        while at != NIL {
            let Node { key, next, .. } = self.slab[at as usize];
            *self.frame_mut(key) = NIL;
            at = next;
        }
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Length of table `table` in positions (0 for a table never made).
    pub fn table_len(&self, table: usize) -> usize {
        self.frames.get(table).map_or(0, Vec::len)
    }

    /// Makes table `table` exactly `len` positions long, removing every
    /// resident key at a position past the new end.
    pub fn set_table_len(&mut self, table: usize, len: usize) {
        for at in len..self.table_mut(table).len() {
            let idx = self.frames[table][at];
            if idx != NIL {
                self.frames[table][at] = NIL;
                self.unlink(idx);
                self.free.push(idx);
                self.len -= 1;
            }
        }
        self.frames[table].resize(len, NIL);
    }

    /// Keys from most- to least-recently used (test/diagnostic helper).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len);
        let mut at = self.head;
        while at != NIL {
            out.push(self.slab[at as usize].key);
            at = self.slab[at as usize].next;
        }
        out
    }
}

impl<K: FrameKey + std::fmt::Debug> std::fmt::Debug for LruCache<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::<u32>::new(2);
        assert!(!c.touch(1));
        assert_eq!(c.insert(1), None);
        assert!(c.touch(1));
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::<u32>::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1); // order now 1,3,2
        assert_eq!(c.insert(4), Some(2));
        assert_eq!(c.keys_mru_to_lru(), vec![4, 1, 3]);
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let mut c = LruCache::<u32>::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None); // touch, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::<u32>::new(0);
        assert_eq!(c.insert(1), None);
        assert!(!c.contains(&1));
        assert!(c.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut c = LruCache::<u32>::new(4);
        for k in 0..4 {
            c.insert(k);
        }
        assert!(c.remove(&2));
        assert!(!c.remove(&2));
        assert_eq!(c.len(), 3);
        c.insert(9); // reuses freed slab node
        assert_eq!(c.len(), 4);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(&9));
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::<u32>::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert!(c.contains(&2));
        assert!(!c.contains(&1));
    }

    /// Exhaustive small-trace check against a naive model.
    #[test]
    fn matches_naive_model_on_random_trace() {
        use std::collections::VecDeque;
        // Simple deterministic pseudo-random sequence.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut nxt = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 16) as u32
        };
        let mut lru = LruCache::new(5);
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        for _ in 0..10_000 {
            let k = nxt();
            let model_hit = model.contains(&k);
            let hit = lru.touch(k);
            assert_eq!(hit, model_hit);
            if hit {
                let pos = model.iter().position(|&m| m == k).unwrap();
                model.remove(pos);
                model.push_front(k);
            } else {
                let evicted = lru.insert(k);
                if model.len() == 5 {
                    let victim = model.pop_back();
                    assert_eq!(evicted, victim);
                } else {
                    assert_eq!(evicted, None);
                }
                model.push_front(k);
            }
            assert_eq!(lru.keys_mru_to_lru(), Vec::from(model.clone()));
        }
    }

    /// Random touches, inserts (known misses through `insert_absent`),
    /// removes, clears, table truncations and clones against a
    /// MRU-first list, with keys drawn by `key`.
    fn matches_list_model<K: FrameKey + std::fmt::Debug>(
        seed: u64,
        mut key: impl FnMut(&mut tq_simrng::SimRng) -> K,
    ) {
        use std::collections::VecDeque;
        for cap in [0usize, 1, 3, 7] {
            let mut rng = tq_simrng::SimRng::seed_from_u64(seed + cap as u64);
            let mut lru = LruCache::<K>::new(cap);
            let mut model: VecDeque<K> = VecDeque::new();
            for step in 0..4_000 {
                let k = key(&mut rng);
                match rng.below(20) {
                    0..=7 => {
                        let hit = model.iter().position(|&m| m == k);
                        assert_eq!(lru.touch(k), hit.is_some(), "step {step}");
                        if let Some(at) = hit {
                            model.remove(at);
                            model.push_front(k);
                        }
                    }
                    8..=15 => {
                        let hit = model.iter().position(|&m| m == k);
                        let evicted = match hit {
                            Some(at) => {
                                model.remove(at);
                                model.push_front(k);
                                None
                            }
                            None if cap == 0 => None,
                            None => {
                                model.push_front(k);
                                (model.len() > cap).then(|| model.pop_back().unwrap())
                            }
                        };
                        let got = if hit.is_none() && rng.bool() {
                            lru.insert_absent(k)
                        } else {
                            lru.insert(k)
                        };
                        assert_eq!(got, evicted, "step {step}");
                    }
                    16 => {
                        let at = model.iter().position(|&m| m == k);
                        assert_eq!(lru.remove(&k), at.is_some());
                        if let Some(at) = at {
                            model.remove(at);
                        }
                    }
                    17 => {
                        // Cut k's table just past or just below k.
                        let (table, at) = k.frame();
                        let len = at + rng.index(2);
                        lru.set_table_len(table, len);
                        model.retain(|m| {
                            let (t, p) = m.frame();
                            t != table || p < len
                        });
                        assert_eq!(lru.table_len(table), len);
                    }
                    18 => {
                        lru.clear();
                        model.clear();
                    }
                    _ => lru = lru.clone(),
                }
                assert_eq!(lru.len(), model.len());
                assert_eq!(
                    lru.keys_mru_to_lru(),
                    Vec::from(model.clone()),
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn pages_in_several_files_match_a_list_model() {
        matches_list_model(0xCAC4_E000, |rng| PageId {
            file: crate::disk::FileId(rng.below(3) as u32),
            page_no: rng.below(6) as u32,
        });
    }

    #[test]
    fn u64_keys_match_a_list_model() {
        matches_list_model(0xCAC4_E100, |rng| rng.below(16));
    }
}
