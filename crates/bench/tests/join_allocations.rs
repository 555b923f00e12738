//! Host allocations of the CHJ build, counted by a global allocator of
//! this test binary's own.
//!
//! CHJ's table files every selected child under its parent. Its host
//! copy is three arenas reserved before the build, and at morsel
//! degree > 1 every worker's partial table is reserved on the
//! coordinator before the worker starts; the merged table takes the
//! first partial over. So:
//!
//! * at degree 1, a query allocates about as often whether it selects a
//!   tenth of the children or nine tenths — a map of per-parent `Vec`s
//!   allocates once per parent slot;
//! * at degree 2, no table memory is allocated on a worker and handed
//!   back to the coordinator. A worker that grows its own partial
//!   leaves the table's pages in its thread's malloc arena, where the
//!   coordinator's free cannot return them to the coordinator's.
//!
//! What a worker allocates *and frees itself* does grow with the cell.
//! So the degree-2 gate counts the bytes that escape — allocated on a
//! worker, freed on the coordinator — and bounds the workers' own
//! bytes loosely: enough to catch a handle table grown on the worker,
//! which each store clone has reserved on the coordinator.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside this one would allocate inside its window. Counts are
//! deterministic (same seed, same database, same query), so the bounds
//! are tight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use tq_bench::build_db;
use tq_query::join::parallel::run_join_parallel;
use tq_query::join::{JoinContext, JoinOptions};
use tq_query::JoinAlgo;
use tq_server::measure::join_spec;
use tq_workload::{Database, DbShape, Organization};

/// Counts the allocations made while [`ARMED`]: all of them, those on
/// threads other than the measuring one, and the bytes of those the
/// measuring thread frees. Every block carries a header word saying
/// whether a worker (re)allocated it.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WORKER_BYTES: AtomicU64 = AtomicU64::new(0);
static ESCAPED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Header bytes in front of a block: one tag word, padded to the
/// block's alignment.
fn header(layout: Layout) -> usize {
    layout.align().max(16)
}

/// The layout asked of `System` for a block of `layout` resized to `size`.
fn widened(layout: Layout, size: usize) -> Layout {
    Layout::from_size_align(size + header(layout), layout.align()).expect("widened layout")
}

/// Counts a (re)allocation of `bytes` and returns the block's tag:
/// 1 when a worker made it inside the window.
fn count(bytes: usize) -> u64 {
    if !ARMED.load(Relaxed) {
        return 0;
    }
    ALLOCS.fetch_add(1, Relaxed);
    if MEASURING.with(Cell::get) {
        return 0;
    }
    WORKER_ALLOCS.fetch_add(1, Relaxed);
    WORKER_BYTES.fetch_add(bytes as u64, Relaxed);
    1
}

/// Tags the block at `base` and returns the caller's pointer into it.
///
/// # Safety
/// `base` is null or a live block of `widened(layout, _)`.
unsafe fn finish(base: *mut u8, layout: Layout, tag: u64) -> *mut u8 {
    if base.is_null() {
        return base;
    }
    let h = header(layout);
    (base.add(h - 8) as *mut u64).write(tag);
    base.add(h)
}

// SAFETY: every block is a `System` block of the widened layout; the
// caller's pointer is `header` bytes in, so it keeps the alignment
// asked for. The counters are atomics and the thread-local is
// const-initialized (touching it never allocates).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let tag = count(layout.size());
        finish(System.alloc(widened(layout, layout.size())), layout, tag)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let tag = count(layout.size());
        finish(
            System.alloc_zeroed(widened(layout, layout.size())),
            layout,
            tag,
        )
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let tag = count(new_size);
        let base = ptr.sub(header(layout));
        let old = widened(layout, layout.size());
        finish(
            System.realloc(base, old, new_size + header(layout)),
            layout,
            tag,
        )
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let by_worker = (ptr.sub(8) as *const u64).read() == 1;
        if by_worker && ARMED.load(Relaxed) && MEASURING.with(Cell::get) {
            ESCAPED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        System.dealloc(ptr.sub(header(layout)), widened(layout, layout.size()))
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one query allocated.
#[derive(Debug)]
struct Allocs {
    /// Allocations on every thread.
    total: u64,
    /// Allocations on the morsel workers.
    worker: u64,
    /// Bytes the morsel workers asked for.
    worker_bytes: u64,
    /// Bytes the workers allocated and the coordinator freed.
    escaped_bytes: u64,
    /// The query's simulated table bytes.
    table_bytes: u64,
}

/// One cold CHJ run of cell `(pat_pct, prov_pct)` at `degree`, counted
/// from the join's start to its end (the database clone, the spec and
/// the index copies are made outside the window).
fn chj(master: &Database, pat_pct: u32, prov_pct: u32, degree: usize) -> Allocs {
    let mut db = master.clone();
    let spec = join_spec(&db, pat_pct, prov_pct);
    let parent_index = db.idx_provider_upin.clone();
    let child_index = db.idx_patient_mrn.clone();
    db.store.cold_restart();
    db.store.reset_metrics();
    let mut ctx = JoinContext {
        store: &mut db.store,
        parent_index: &parent_index,
        child_index: &child_index,
    };
    let opts = JoinOptions::default();
    MEASURING.with(|m| m.set(true));
    for counter in [&ALLOCS, &WORKER_ALLOCS, &WORKER_BYTES, &ESCAPED_BYTES] {
        counter.store(0, Relaxed);
    }
    ARMED.store(true, Relaxed);
    let run = run_join_parallel(JoinAlgo::Chj, &mut ctx, &spec, &opts, false, None, degree);
    ARMED.store(false, Relaxed);
    let run = run.expect("no worker panics in a healthy run");
    Allocs {
        total: ALLOCS.load(Relaxed),
        worker: WORKER_ALLOCS.load(Relaxed),
        worker_bytes: WORKER_BYTES.load(Relaxed),
        escaped_bytes: ESCAPED_BYTES.load(Relaxed),
        table_bytes: run.report.hash_table_bytes,
    }
}

#[test]
fn chj_allocations_do_not_grow_with_the_table() {
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 200);
    let (small, large) = (chj(&master, 10, 90, 1), chj(&master, 90, 90, 1));
    assert!(
        large.table_bytes > 4 * small.table_bytes,
        "the cells must differ in table size: {small:?} / {large:?}"
    );
    // 4 797 and 4 942 allocations; a map of per-parent `Vec`s makes
    // 5 938 and 9 821.
    assert_eq!(large.worker + large.worker_bytes, 0, "degree 1 runs inline");
    assert!(
        large.total <= small.total + 160,
        "degree 1: allocations grow with the table: {small:?} / {large:?}"
    );

    let (small, large) = (chj(&master, 10, 90, 2), chj(&master, 90, 90, 2));
    assert!(
        large.worker > 0 && large.worker_bytes > 0,
        "degree 2 runs workers"
    );
    // 1 424 and 8 208 bytes (the workers' trace and swap-simulation
    // state); partials grown on the workers hand back 133 264 and
    // 744 752.
    assert!(
        large.escaped_bytes <= small.escaped_bytes + (8 << 10),
        "degree 2: worker-allocated bytes reaching the coordinator grow with the table: \
         {small:?} / {large:?}"
    );
    // 443 964 and 1 201 344 bytes, with each store clone's handle
    // table reserved on the coordinator; grown on the worker instead,
    // by doubling up to the delayed-free pool's 4 096 handles, they
    // are 592 404 and 2 544 888.
    assert!(
        large.worker_bytes <= 1_500_000,
        "degree 2: the workers grow their own handle tables: {small:?} / {large:?}"
    );
}
