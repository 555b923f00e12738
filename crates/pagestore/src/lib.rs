//! # tq-pagestore — paged storage substrate
//!
//! The bottom layer of the `treequery` engine: an in-memory simulation of
//! the storage stack described in *Benchmarking Queries over Trees*
//! (SIGMOD 2000) for the O2 system:
//!
//! ```text
//!   query engine
//!        │ read/write page
//!   client cache  (default 32 MB = 8192 pages)
//!        │ RPC
//!   server cache  (default  4 MB = 1024 pages)
//!        │ disk I/O
//!   disk (files of 4 KB slotted pages)
//! ```
//!
//! Everything the paper measures at this level is a *count*: disk page
//! reads (`D2SCreadpages`), RPCs (`SC2CCreadpages`), client-cache page
//! faults, hit/miss rates. The data itself lives in an in-memory
//! [`Disk`]; the two [cache](cache::LruCache) tiers are residency
//! simulators that produce exactly those counts, and a [`CostModel`]
//! converts counted events into simulated elapsed time (the paper's own
//! accounting: 10 ms per page read plus CPU terms, §3.5/§4.2).
//!
//! Modules:
//! * [`page`] — 4 KB slotted pages with a slot directory.
//! * [`disk`] — named files of pages, read/write counters.
//! * [`cache`] — an O(1) LRU used for both cache tiers.
//! * [`stack`] — the client→server→disk [`StorageStack`].
//! * [`cost`] — simulated clock and calibrated cost constants.
//! * [`writeset`] — copy-on-write diffing for MVCC epoch publication.

pub mod cache;
pub mod cost;
pub mod disk;
pub mod page;
pub mod stack;
pub mod writeset;

pub use cache::{FrameKey, LruCache};
pub use cost::{CostModel, CpuEvent, SimClock};
pub use disk::{Disk, FileId};
pub use page::{PageId, SlotId, SlottedPage, PAGE_SIZE};
pub use stack::{CacheConfig, IoStats, StorageStack};
pub use writeset::{FileWrites, WriteSet};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// Compile-time proof that a simulated machine can move to (and be
    /// shared with) worker threads — the figure harness runs one
    /// cloned stack per cell in parallel.
    #[test]
    fn storage_stack_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<StorageStack>();
        assert_sync::<StorageStack>();
        assert_send::<Disk>();
        assert_send::<LruCache<PageId>>();
        assert_send::<SlottedPage>();
        assert_send::<SimClock>();
        assert_send::<CostModel>();
    }
}
