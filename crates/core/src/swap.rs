//! Operator-memory swap simulation.
//!
//! The paper (§5.1, Figure 10): "Recall that we have a RAM of 128MB,
//! 36MB of which are used by the O2 caches. ... one can see that
//! swapping will occur in the 1:3 case, when 90% of the providers are
//! selected." When an operator's private hash table exceeds the free
//! RAM, every touch may fault.
//!
//! [`SwapSim`] models the table as `ceil(bytes / 4K)` virtual pages and
//! the free RAM as an LRU resident set. Touches map to a page by key
//! hash. A miss on a page *never touched before* is a demand
//! allocation (free); a miss on a previously resident page is a real
//! fault, charged [`CpuEvent::SwapFault`](tq_pagestore::CpuEvent::SwapFault) (victim write-back + read) by
//! the caller. A table within budget therefore never faults.

use tq_pagestore::{LruCache, PAGE_SIZE};

/// Swap simulator for one operator-private memory region.
#[derive(Debug, Clone)]
pub struct SwapSim {
    table_pages: u64,
    resident: LruCache<u64>,
    /// Per region page: touched before. Sized, like `resident`'s frame
    /// table, to the region whenever touches can fault.
    ever_touched: Vec<bool>,
    faults: u64,
}

impl SwapSim {
    /// A region of `table_bytes` with `budget_bytes` of real memory.
    pub fn new(table_bytes: u64, budget_bytes: u64) -> Self {
        let budget_pages = (budget_bytes / PAGE_SIZE as u64).max(1) as usize;
        let mut swap = Self {
            table_pages: 0,
            resident: LruCache::new(budget_pages),
            ever_touched: Vec::new(),
            faults: 0,
        };
        swap.grow_to(table_bytes);
        swap
    }

    /// True when the whole region fits in budget (no touch can fault).
    pub fn fits(&self) -> bool {
        self.table_pages as usize <= self.resident.capacity()
    }

    /// Grows the region (hash tables grow as they are built); never
    /// shrinks. Resident and touched state is preserved.
    pub fn grow_to(&mut self, table_bytes: u64) {
        let pages = table_bytes.div_ceil(PAGE_SIZE as u64).max(1);
        if pages > self.table_pages {
            self.table_pages = pages;
            if !self.fits() {
                self.size_state(pages as usize);
            }
        }
    }

    /// Sizes the per-page state for a region that will grow to at most
    /// `table_bytes`, so neither `grow_to` nor `touch` allocates up to
    /// there. Call it where the region is made when another thread
    /// fills it (a morsel partial), so that thread never grows it.
    pub fn reserve(&mut self, table_bytes: u64) {
        let pages = table_bytes.div_ceil(PAGE_SIZE as u64) as usize;
        if pages > self.resident.capacity() {
            self.size_state(pages);
        }
    }

    fn size_state(&mut self, pages: usize) {
        if pages > self.ever_touched.len() {
            self.resident.set_table_len(0, pages);
            self.ever_touched.resize(pages, false);
        }
    }

    /// Touches the page that `key_hash` falls on. Returns `true` when
    /// this touch faulted (the caller charges the clock).
    pub fn touch(&mut self, key_hash: u64) -> bool {
        if self.fits() {
            return false;
        }
        let page = key_hash % self.table_pages;
        if self.resident.touch(page) {
            return false;
        }
        self.resident.insert_absent(page);
        let touched = std::mem::replace(&mut self.ever_touched[page as usize], true);
        if touched {
            self.faults += 1;
        }
        // A page never touched before is a demand allocation, not a
        // fault.
        touched
    }

    /// Faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Pages in the simulated region.
    pub fn table_pages(&self) -> u64 {
        self.table_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_budget_never_faults() {
        let mut s = SwapSim::new(1 << 20, 32 << 20);
        assert!(s.fits());
        for i in 0..100_000u64 {
            assert!(!s.touch(i.wrapping_mul(0x9E3779B97F4A7C15)));
        }
        assert_eq!(s.faults(), 0);
    }

    #[test]
    fn oversized_region_faults_on_revisits() {
        // 100 pages of table, 10 pages of budget.
        let mut s = SwapSim::new(100 * PAGE_SIZE as u64, 10 * PAGE_SIZE as u64);
        assert!(!s.fits());
        // First pass over all pages: demand allocations only.
        for p in 0..100u64 {
            assert!(!s.touch(p * PAGE_SIZE as u64 / PAGE_SIZE as u64 + p * 100));
        }
        // Uniform revisits: most touches fault (resident 10/100).
        let mut x = 7u64;
        let mut faults = 0;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s.touch(x) {
                faults += 1;
            }
        }
        let rate = faults as f64 / 10_000.0;
        assert!(
            (0.80..0.99).contains(&rate),
            "expected ~90% fault rate, got {rate}"
        );
        assert_eq!(s.faults(), faults);
    }

    #[test]
    fn fault_rate_tracks_excess() {
        // 40 pages over a 32-page budget: ~20% of touches fault.
        let mut s = SwapSim::new(40 * PAGE_SIZE as u64, 32 * PAGE_SIZE as u64);
        let mut x = 3u64;
        // Warm up (demand-allocate everything).
        for p in 0..40u64 {
            s.touch(p);
        }
        let before = s.faults();
        let mut faults = 0;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s.touch(x) {
                faults += 1;
            }
        }
        let _ = before;
        let rate = faults as f64 / 20_000.0;
        assert!(
            (0.10..0.35).contains(&rate),
            "expected ~20% fault rate, got {rate}"
        );
    }

    #[test]
    fn zero_sized_table_is_fine() {
        let mut s = SwapSim::new(0, 1 << 20);
        assert!(s.fits());
        assert!(!s.touch(42));
    }
}
