//! The client → server → disk storage stack.
//!
//! Reproduces the paper's measurement environment (§2): O2 ran client
//! and server on one machine with a 32 MB client cache and a 4 MB
//! server cache; every measured query started *cold* (server shut down
//! between runs). A page access therefore resolves as:
//!
//! 1. **client cache hit** — free (the object is already in the
//!    application's address space);
//! 2. **client miss, server hit** — one RPC ships the page
//!    (`SC2CCreadpages` aka `RPCsnumber`);
//! 3. **both miss** — one physical disk read (`D2SCreadpages`) *and*
//!    one RPC.
//!
//! Disk reads are charged at the sequential rate when they continue the
//! previous disk read (same file, next page) — cache hits do not move
//! the simulated disk arm.
//!
//! Writes go to the client cache and are made durable by
//! [`StorageStack::commit`], which charges one page write per dirty
//! page (plus one log write per dirty page unless running in the
//! paper's transaction-off loading mode). This is what makes the §3.2
//! loading-pitfall experiment (commit batch size, logging on/off)
//! reproducible.

use crate::cache::LruCache;
use crate::cost::{CostModel, CpuEvent, SimClock};
use crate::disk::{Disk, FileId};
use crate::page::{PageId, SlottedPage};
use tq_fasthash::FxHashSet;

/// Capacities of the two cache tiers, in pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Client cache capacity (paper default: 32 MB = 8192 pages).
    pub client_pages: usize,
    /// Server cache capacity (paper default: 4 MB = 1024 pages).
    pub server_pages: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            client_pages: 8192,
            server_pages: 1024,
        }
    }
}

impl CacheConfig {
    /// The paper's default 32 MB / 4 MB split.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The out-of-the-box O2 configuration the authors started from
    /// (§3.2): 4 MB for both caches.
    pub fn o2_factory_default() -> Self {
        Self {
            client_pages: 1024,
            server_pages: 1024,
        }
    }
}

/// The raw counters behind the paper's Figure 3 `Stat` class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read from disk into the server cache (`D2SCreadpages`).
    pub d2sc_read_pages: u64,
    /// Pages shipped from server cache to client cache — one per RPC
    /// (`SC2CCreadpages` / `RPCsnumber`).
    pub sc2cc_read_pages: u64,
    /// Client-cache lookups that hit.
    pub client_hits: u64,
    /// Client-cache lookups that missed (`CCPagefaults`).
    pub client_misses: u64,
    /// Server-cache lookups that hit (only performed on client misses).
    pub server_hits: u64,
    /// Server-cache lookups that missed.
    pub server_misses: u64,
    /// Pages written to disk (commits, flushes, relocations).
    pub pages_written: u64,
    /// Log pages written (zero in transaction-off mode).
    pub log_pages_written: u64,
}

impl IoStats {
    /// Client-cache miss rate in percent, the paper's `CCMissrate`.
    pub fn client_miss_rate(&self) -> f64 {
        percent(self.client_misses, self.client_hits + self.client_misses)
    }

    /// Server-cache miss rate in percent, the paper's `SCMissrate`.
    pub fn server_miss_rate(&self) -> f64 {
        percent(self.server_misses, self.server_hits + self.server_misses)
    }

    /// Total bytes shipped client-ward, the paper's `RPCstotalsize`.
    pub fn rpc_total_bytes(&self) -> u64 {
        self.sc2cc_read_pages * crate::page::PAGE_SIZE as u64
    }

    /// Component-wise sum — folds another window (e.g. a morsel
    /// worker's [`delta_since`](Self::delta_since)) into this one.
    pub fn accumulate(&mut self, other: &IoStats) {
        self.d2sc_read_pages += other.d2sc_read_pages;
        self.sc2cc_read_pages += other.sc2cc_read_pages;
        self.client_hits += other.client_hits;
        self.client_misses += other.client_misses;
        self.server_hits += other.server_hits;
        self.server_misses += other.server_misses;
        self.pages_written += other.pages_written;
        self.log_pages_written += other.log_pages_written;
    }

    /// Component-wise difference (`self` must be the later snapshot).
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            d2sc_read_pages: self.d2sc_read_pages - earlier.d2sc_read_pages,
            sc2cc_read_pages: self.sc2cc_read_pages - earlier.sc2cc_read_pages,
            client_hits: self.client_hits - earlier.client_hits,
            client_misses: self.client_misses - earlier.client_misses,
            server_hits: self.server_hits - earlier.server_hits,
            server_misses: self.server_misses - earlier.server_misses,
            pages_written: self.pages_written - earlier.pages_written,
            log_pages_written: self.log_pages_written - earlier.log_pages_written,
        }
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// The full storage stack: disk, server cache, client cache, dirty-page
/// tracking, clock and counters.
///
/// `Clone` produces an independent simulated machine — the figure
/// harness clones one loaded stack per measurement cell so cells can
/// run on worker threads without sharing state.
#[derive(Clone)]
pub struct StorageStack {
    disk: Disk,
    client: LruCache<PageId>,
    server: LruCache<PageId>,
    dirty: FxHashSet<PageId>,
    stats: IoStats,
    clock: SimClock,
    model: CostModel,
    config: CacheConfig,
    last_disk_read: Option<PageId>,
    /// When `true`, commits skip the log (the paper's bulk-loading
    /// transaction-off mode, §3.2).
    pub logging_enabled: bool,
}

impl StorageStack {
    /// Builds a stack over an empty disk.
    pub fn new(model: CostModel, config: CacheConfig) -> Self {
        Self {
            disk: Disk::new(),
            client: LruCache::new(config.client_pages),
            server: LruCache::new(config.server_pages),
            dirty: FxHashSet::default(),
            stats: IoStats::default(),
            clock: SimClock::new(),
            model,
            config,
            last_disk_read: None,
            logging_enabled: true,
        }
    }

    /// A stack with the paper's calibrated model and default caches.
    pub fn paper_default() -> Self {
        Self::new(CostModel::sparc20(), CacheConfig::paper_default())
    }

    /// The cache configuration in force.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The cost model in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Replaces the cost model (ablation benches).
    pub fn set_model(&mut self, model: CostModel) {
        self.model = model;
    }

    /// Underlying disk (counter access, debug).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Creates a new file.
    pub fn create_file(&mut self, name: impl Into<String>) -> FileId {
        let file = self.disk.create_file(name);
        self.frame_file(file);
        file
    }

    /// Makes both tiers' frame tables for `file` exactly as long as the
    /// file (see [`LruCache::set_table_len`]).
    fn frame_file(&mut self, file: FileId) {
        let len = self.disk.file_len(file) as usize;
        self.client.set_table_len(file.0 as usize, len);
        self.server.set_table_len(file.0 as usize, len);
    }

    /// Appends a fresh page to `file`. The new page is born resident in
    /// the client cache and dirty (it exists nowhere else yet), so no
    /// read I/O is charged.
    pub fn allocate_page(&mut self, file: FileId) -> PageId {
        let pid = self.disk.allocate_page(file);
        self.frame_file(file);
        self.admit_client(pid);
        self.server.insert_absent(pid);
        self.dirty.insert(pid);
        pid
    }

    /// Admits `pid`, which the client cache does not hold.
    fn admit_client(&mut self, pid: PageId) {
        if let Some(evicted) = self.client.insert_absent(pid) {
            // Evicting a dirty page forces a write-back through the
            // server to disk. The page's bytes were already mutated in
            // place, so only the write is recorded — materializing the
            // page here would defeat copy-on-write sharing.
            if !self.dirty.is_empty() && self.dirty.remove(&evicted) {
                self.disk.record_write(evicted);
                self.stats.pages_written += 1;
                self.clock.charge_write(&self.model);
            }
        }
    }

    /// Ensures `pid` is resident in the client cache, charging RPC and
    /// disk time as needed.
    fn fault_in(&mut self, pid: PageId) {
        if self.client.touch(pid) {
            self.stats.client_hits += 1;
            return;
        }
        self.stats.client_misses += 1;
        if self.server.touch(pid) {
            self.stats.server_hits += 1;
        } else {
            self.stats.server_misses += 1;
            let sequential = match self.last_disk_read {
                Some(last) => last.file == pid.file && pid.page_no == last.page_no.wrapping_add(1),
                None => false,
            };
            self.clock.charge_read(&self.model, sequential);
            let _ = self.disk.read(pid); // keep the disk's own counter in sync
            self.stats.d2sc_read_pages += 1;
            self.last_disk_read = Some(pid);
            self.server.insert_absent(pid);
        }
        // Ship server → client.
        self.clock.charge_rpc(&self.model);
        self.stats.sc2cc_read_pages += 1;
        self.admit_client(pid);
    }

    /// Reads a page through the cache hierarchy.
    pub fn read_page(&mut self, pid: PageId) -> &SlottedPage {
        self.fault_in(pid);
        self.disk.peek(pid)
    }

    /// Mutates a page through the cache hierarchy; the page becomes
    /// dirty and is made durable at the next [`StorageStack::commit`].
    pub fn write_page<R>(&mut self, pid: PageId, f: impl FnOnce(&mut SlottedPage) -> R) -> R {
        self.fault_in(pid);
        self.dirty.insert(pid);
        f(self.disk.peek_mut(pid))
    }

    /// Number of dirty (uncommitted) pages.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Flushes all dirty pages: one page write each, plus one log page
    /// write each when logging is enabled.
    pub fn commit(&mut self) {
        let n = self.dirty.len() as u64;
        for pid in self.dirty.iter() {
            self.disk.record_write(*pid); // count the physical write
            self.clock.charge_write(&self.model);
        }
        self.stats.pages_written += n;
        if self.logging_enabled {
            for _ in 0..n {
                self.clock.charge_write(&self.model);
            }
            self.stats.log_pages_written += n;
        }
        self.dirty.clear();
    }

    /// Truncates a temporary (spill) file: its pages vanish without
    /// write-back, and all cached residency for them is purged so a
    /// reused page number can never produce a stale hit.
    ///
    /// Only for files written through [`StorageStack::allocate_page`]
    /// directly (spill/sort runs). Truncating a file an
    /// `ObjectStore` appends records to would leave its tail-page
    /// bookkeeping pointing past the end of the file.
    pub fn truncate_file(&mut self, file: FileId) {
        let len = self.disk.file_len(file);
        let dropped = self.disk.truncate_file(file);
        debug_assert_eq!(len, dropped);
        self.purge_file(file, len);
    }

    /// Forgets every cached residency and dirty mark for `file`'s pages
    /// below `span`, and the disk arm if it rests in `file`, then sizes
    /// the file's frame tables to its current length.
    fn purge_file(&mut self, file: FileId, span: u32) {
        self.client.set_table_len(file.0 as usize, 0);
        self.server.set_table_len(file.0 as usize, 0);
        self.frame_file(file);
        if !self.dirty.is_empty() {
            for page_no in 0..span {
                self.dirty.remove(&PageId { file, page_no });
            }
        }
        if let Some(last) = self.last_disk_read {
            if last.file == file {
                self.last_disk_read = None;
            }
        }
    }

    /// Simulates the paper's cold start: commit outstanding work, then
    /// drop both caches and forget the disk-arm position. Counters and
    /// clock are *not* reset — use [`StorageStack::reset_metrics`].
    pub fn cold_restart(&mut self) {
        self.commit();
        self.client.clear();
        self.server.clear();
        self.last_disk_read = None;
    }

    /// Zeroes the clock and counters (typically right after a
    /// [`StorageStack::cold_restart`], before a measured run).
    pub fn reset_metrics(&mut self) {
        self.stats = IoStats::default();
        self.clock.reset();
    }

    /// Pages on which this stack's disk diverged from `base`'s — the
    /// transaction write-set for MVCC commit validation. Callers
    /// should [`StorageStack::commit`] first so the dirty list and the
    /// copy-on-write state agree.
    pub fn write_set_since(&self, base: &StorageStack) -> crate::writeset::WriteSet {
        self.disk.write_set_since(&base.disk)
    }

    /// True when no page diverged from `base`'s disk and nothing is
    /// dirty — a read-only session that can safely re-pin a newer
    /// base epoch.
    pub fn is_unchanged_since(&self, base: &StorageStack) -> bool {
        self.dirty.is_empty() && self.disk.is_unchanged_since(&base.disk)
    }

    /// Adopts one file wholesale from `src` (see
    /// [`Disk::adopt_file_from`]), purging any cached residency and
    /// dirty marks this stack held for the file so a stale page can
    /// never surface as a hit.
    pub fn adopt_file_from(&mut self, src: &StorageStack, file: FileId) {
        let before = if file.0 < self.disk.file_count() {
            self.disk.file_len(file)
        } else {
            0
        };
        self.disk.adopt_file_from(&src.disk, file);
        // Adoption may have created the files up to `file`, empty.
        for f in 0..self.disk.file_count() {
            self.frame_file(FileId(f));
        }
        self.purge_file(file, before.max(self.disk.file_len(file)));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Charges `count` CPU events to the clock.
    pub fn charge(&mut self, event: CpuEvent, count: u64) {
        self.clock.charge(&self.model, event, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;
    use std::collections::{BTreeSet, VecDeque};

    fn tiny_stack(client: usize, server: usize) -> StorageStack {
        StorageStack::new(
            CostModel::sparc20(),
            CacheConfig {
                client_pages: client,
                server_pages: server,
            },
        )
    }

    /// Builds a file of `n` pages, each holding one marker record, and
    /// returns (stack, pids) with cold caches and clean metrics.
    fn stack_with_pages(n: u32, client: usize, server: usize) -> (StorageStack, Vec<PageId>) {
        let mut s = tiny_stack(client, server);
        let f = s.create_file("data");
        let pids: Vec<PageId> = (0..n)
            .map(|i| {
                let pid = s.allocate_page(f);
                s.write_page(pid, |p| {
                    p.insert(&[i as u8], PAGE_SIZE).unwrap();
                });
                pid
            })
            .collect();
        s.cold_restart();
        s.reset_metrics();
        (s, pids)
    }

    #[test]
    fn cold_read_charges_disk_and_rpc() {
        let (mut s, pids) = stack_with_pages(1, 8, 8);
        s.read_page(pids[0]);
        let st = s.stats();
        assert_eq!(st.client_misses, 1);
        assert_eq!(st.server_misses, 1);
        assert_eq!(st.d2sc_read_pages, 1);
        assert_eq!(st.sc2cc_read_pages, 1);
        assert_eq!(
            s.clock().elapsed(),
            s.model().read_page_random + s.model().rpc_per_page
        );
    }

    #[test]
    fn warm_read_is_free() {
        let (mut s, pids) = stack_with_pages(1, 8, 8);
        s.read_page(pids[0]);
        let t = s.clock().elapsed();
        s.read_page(pids[0]);
        assert_eq!(s.stats().client_hits, 1);
        assert_eq!(s.clock().elapsed(), t, "client-cache hit charges nothing");
    }

    #[test]
    fn server_hit_charges_only_rpc() {
        // Client of 1 page, server of 8: reading A, then B, then A again
        // evicts A from the client but finds it in the server.
        let (mut s, pids) = stack_with_pages(2, 1, 8);
        s.read_page(pids[0]);
        s.read_page(pids[1]);
        let before = s.clock().elapsed();
        let reads_before = s.stats().d2sc_read_pages;
        s.read_page(pids[0]);
        let st = s.stats();
        assert_eq!(st.d2sc_read_pages, reads_before, "no new disk read");
        assert_eq!(st.server_hits, 1);
        assert_eq!(s.clock().elapsed() - before, s.model().rpc_per_page);
    }

    #[test]
    fn sequential_scan_charges_streaming_rate() {
        let (mut s, pids) = stack_with_pages(10, 32, 4);
        for pid in &pids {
            s.read_page(*pid);
        }
        // First read random, nine sequential.
        let expected = s.model().read_page_random
            + 9 * s.model().read_page_sequential
            + 10 * s.model().rpc_per_page;
        assert_eq!(s.clock().elapsed(), expected);
    }

    #[test]
    fn cache_hits_do_not_break_sequentiality() {
        let (mut s, pids) = stack_with_pages(4, 32, 8);
        s.read_page(pids[0]);
        s.read_page(pids[0]); // hit — disk arm unmoved
        s.read_page(pids[1]); // still sequential
        let expected = s.model().read_page_random
            + s.model().read_page_sequential
            + 2 * s.model().rpc_per_page;
        assert_eq!(s.clock().elapsed(), expected);
    }

    #[test]
    fn random_order_charges_seek_rate() {
        let (mut s, pids) = stack_with_pages(10, 32, 4);
        // 0, 5, 2, 9: no two consecutive.
        for &i in &[0usize, 5, 2, 9] {
            s.read_page(pids[i]);
        }
        let expected = 4 * s.model().read_page_random + 4 * s.model().rpc_per_page;
        assert_eq!(s.clock().elapsed(), expected);
    }

    #[test]
    fn commit_writes_dirty_pages_once_plus_log() {
        let (mut s, pids) = stack_with_pages(3, 32, 8);
        for pid in &pids {
            s.write_page(*pid, |p| {
                p.insert(b"x", PAGE_SIZE).unwrap();
            });
        }
        // Double-write the same page: still one flush.
        s.write_page(pids[0], |p| {
            p.insert(b"y", PAGE_SIZE).unwrap();
        });
        assert_eq!(s.dirty_pages(), 3);
        let st0 = s.stats();
        s.commit();
        let d = s.stats().delta_since(&st0);
        assert_eq!(d.pages_written, 3);
        assert_eq!(d.log_pages_written, 3);
        assert_eq!(s.dirty_pages(), 0);
    }

    #[test]
    fn transaction_off_mode_skips_log() {
        let (mut s, pids) = stack_with_pages(2, 32, 8);
        s.logging_enabled = false;
        s.write_page(pids[0], |p| {
            p.insert(b"x", PAGE_SIZE).unwrap();
        });
        s.commit();
        assert_eq!(s.stats().log_pages_written, 0);
        assert_eq!(s.stats().pages_written, 1);
    }

    #[test]
    fn dirty_eviction_forces_writeback() {
        let mut s = tiny_stack(1, 8);
        let f = s.create_file("x");
        let a = s.allocate_page(f);
        s.write_page(a, |p| {
            p.insert(b"a", PAGE_SIZE).unwrap();
        });
        let writes_before = s.stats().pages_written;
        // Allocating a second page into a 1-page client cache evicts
        // dirty `a`.
        let _b = s.allocate_page(f);
        assert_eq!(s.stats().pages_written, writes_before + 1);
    }

    #[test]
    fn cold_restart_forgets_residency() {
        let (mut s, pids) = stack_with_pages(1, 8, 8);
        s.read_page(pids[0]);
        s.cold_restart();
        s.reset_metrics();
        s.read_page(pids[0]);
        assert_eq!(
            s.stats().d2sc_read_pages,
            1,
            "cold read hits the disk again"
        );
    }

    #[test]
    fn truncate_purges_pages_and_residency() {
        let (mut s, pids) = stack_with_pages(3, 8, 8);
        s.read_page(pids[0]);
        let file = pids[0].file;
        s.truncate_file(file);
        assert_eq!(s.disk().file_len(file), 0);
        // Re-allocating page 0 must not hit stale cache state.
        let pid = s.allocate_page(file);
        assert_eq!(pid.page_no, 0);
        s.write_page(pid, |p| {
            p.insert(b"fresh", PAGE_SIZE).unwrap();
        });
        s.cold_restart();
        s.reset_metrics();
        let got = s.read_page(pid).read(0).unwrap().to_vec();
        assert_eq!(got, b"fresh");
        assert_eq!(s.stats().d2sc_read_pages, 1, "stale residency purged");
    }

    #[test]
    fn miss_rates_match_paper_definition() {
        let (mut s, pids) = stack_with_pages(2, 1, 8);
        s.read_page(pids[0]); // miss
        s.read_page(pids[1]); // miss, evicts 0 from client
        s.read_page(pids[1]); // hit
        let st = s.stats();
        assert!((st.client_miss_rate() - 66.666).abs() < 0.01);
        assert_eq!(st.rpc_total_bytes(), 2 * PAGE_SIZE as u64);
    }

    /// The two tiers as plain MRU-first lists, with the counters that
    /// depend on them: the reference for the frame-table stack.
    struct Model {
        client: VecDeque<PageId>,
        server: VecDeque<PageId>,
        caps: (usize, usize),
        dirty: BTreeSet<PageId>,
        lens: Vec<u32>,
        stats: IoStats,
    }

    impl Model {
        fn admit(list: &mut VecDeque<PageId>, cap: usize, pid: PageId) -> Option<PageId> {
            if cap == 0 {
                return None;
            }
            list.push_front(pid);
            (list.len() > cap).then(|| list.pop_back().unwrap())
        }

        fn hit(list: &mut VecDeque<PageId>, pid: PageId) -> bool {
            let Some(at) = list.iter().position(|&p| p == pid) else {
                return false;
            };
            list.remove(at);
            list.push_front(pid);
            true
        }

        fn admit_client(&mut self, pid: PageId) {
            if let Some(victim) = Self::admit(&mut self.client, self.caps.0, pid) {
                if self.dirty.remove(&victim) {
                    self.stats.pages_written += 1;
                }
            }
        }

        fn read(&mut self, pid: PageId) {
            if Self::hit(&mut self.client, pid) {
                self.stats.client_hits += 1;
                return;
            }
            self.stats.client_misses += 1;
            if Self::hit(&mut self.server, pid) {
                self.stats.server_hits += 1;
            } else {
                self.stats.server_misses += 1;
                self.stats.d2sc_read_pages += 1;
                Self::admit(&mut self.server, self.caps.1, pid);
            }
            self.stats.sc2cc_read_pages += 1;
            self.admit_client(pid);
        }

        fn allocate(&mut self, file: FileId) -> PageId {
            let pid = PageId {
                file,
                page_no: self.lens[file.0 as usize],
            };
            self.lens[file.0 as usize] += 1;
            self.admit_client(pid);
            Self::admit(&mut self.server, self.caps.1, pid);
            self.dirty.insert(pid);
            pid
        }

        fn commit(&mut self) {
            let n = self.dirty.len() as u64;
            self.stats.pages_written += n;
            self.stats.log_pages_written += n;
            self.dirty.clear();
        }

        fn purge(&mut self, file: FileId) {
            self.client.retain(|p| p.file != file);
            self.server.retain(|p| p.file != file);
            self.dirty.retain(|p| p.file != file);
        }
    }

    /// Reads, writes, allocations, truncations, adoptions, commits and
    /// cold restarts over several files against [`Model`]: the same
    /// counters and the same residency order at every step, and every
    /// frame table exactly as long as its file.
    #[test]
    fn two_tiers_match_a_naive_model() {
        for (case, caps) in [(3, 2), (1, 4), (0, 2), (6, 0), (4, 4)]
            .into_iter()
            .enumerate()
        {
            let mut rng = tq_simrng::SimRng::seed_from_u64(0x57AC_0000 + case as u64);
            let mut s = tiny_stack(caps.0, caps.1);
            let mut m = Model {
                client: Default::default(),
                server: Default::default(),
                caps,
                dirty: Default::default(),
                lens: Vec::new(),
                stats: IoStats::default(),
            };
            for name in ["a", "b", "c"] {
                s.create_file(name);
                m.lens.push(0);
            }
            for step in 0..3_000 {
                let file = FileId(rng.below(s.disk.file_count() as u64) as u32);
                let len = m.lens[file.0 as usize];
                match rng.below(100) {
                    0..=54 if len > 0 => {
                        let pid = PageId {
                            file,
                            page_no: rng.below(len as u64) as u32,
                        };
                        if rng.below(4) == 0 {
                            s.write_page(pid, |_| ());
                            m.read(pid);
                            m.dirty.insert(pid);
                        } else {
                            s.read_page(pid);
                            m.read(pid);
                        }
                    }
                    0..=79 => assert_eq!(s.allocate_page(file), m.allocate(file)),
                    80..=83 => {
                        s.truncate_file(file);
                        m.purge(file);
                        m.lens[file.0 as usize] = 0;
                    }
                    84..=89 => {
                        // A transaction's clone grows the file (or a new
                        // one) and writes to it; the file is adopted back.
                        let mut src = s.clone();
                        let target = if rng.below(3) == 0 {
                            src.create_file("new")
                        } else {
                            file
                        };
                        for _ in 0..rng.index(4) {
                            src.allocate_page(target);
                        }
                        src.commit();
                        s.adopt_file_from(&src, target);
                        m.lens.resize(s.disk.file_count() as usize, 0);
                        m.lens[target.0 as usize] = src.disk.file_len(target);
                        m.purge(target);
                    }
                    90..=93 => {
                        s.commit();
                        m.commit();
                    }
                    94..=96 => {
                        s.cold_restart();
                        m.commit();
                        m.client.clear();
                        m.server.clear();
                    }
                    _ => s = s.clone(),
                }
                assert_eq!(s.stats(), m.stats, "case {case} step {step}");
                assert_eq!(s.client.keys_mru_to_lru(), Vec::from(m.client.clone()));
                assert_eq!(s.server.keys_mru_to_lru(), Vec::from(m.server.clone()));
                assert_eq!(s.dirty_pages(), m.dirty.len());
                for f in 0..s.disk.file_count() {
                    let len = s.disk.file_len(FileId(f)) as usize;
                    assert_eq!(len, m.lens[f as usize] as usize);
                    assert_eq!(s.client.table_len(f as usize), len, "step {step}");
                    assert_eq!(s.server.table_len(f as usize), len, "step {step}");
                }
            }
        }
    }
}
