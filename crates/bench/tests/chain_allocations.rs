//! Host memory of the chain executor, measured by a global allocator of
//! this test binary's own.
//!
//! A counting chain run (`collect = false`, what every production
//! caller asks for) keeps only live state: the last stage counts its
//! rows, and each intermediate frontier keeps only the rids of steps a
//! later stage still reads. Its peak live bytes therefore follow the
//! extents it scans and its widest intermediate frontier, not the
//! result count times the chain width.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside this one would allocate inside its window. Counts are
//! deterministic (same seed, same database, same plan).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed};

use tq_bench::build_db;
use tq_index::BTreeIndex;
use tq_objstore::ClassId;
use tq_query::{plan_chain, run_chain, ChainFacts, PlannerPolicy};
use tq_server::measure::compile_chain_spec;
use tq_workload::{patient_attr, provider_attr, Database, DbShape, Organization};

/// Tracks the bytes allocated and not yet freed while [`ARMED`], and
/// their high-water mark.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` bytes to the live count.
fn track(delta: i64) {
    if ARMED.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The workload's fixed index set, by (class, attribute).
fn index_of(db: &Database, class: ClassId, attr: usize) -> Option<&BTreeIndex> {
    if class == db.derby.provider && attr == provider_attr::UPIN {
        Some(&db.idx_provider_upin)
    } else if class == db.derby.patient && attr == patient_attr::MRN {
        Some(&db.idx_patient_mrn)
    } else if class == db.derby.patient && attr == patient_attr::NUM {
        Some(&db.idx_patient_num)
    } else {
        None
    }
}

/// One cold, counting run of the estimator's plan for a chain cell:
/// its result count and the peak bytes live inside `run_chain` (the
/// clone, spec, plan and index copies are made outside the window).
fn chain(master: &Database, depth: u32, pat_pct: u32, prov_pct: u32) -> (u64, i64) {
    let mut db = master.clone();
    let spec = compile_chain_spec(&db, depth, pat_pct, prov_pct).expect("served depth");
    let facts = ChainFacts::derive(&db.store, &spec, |class, attr| {
        index_of(&db, class, attr).map(|i| i.clustered)
    });
    let model = db.store.stack().model().clone();
    let plan = plan_chain(PlannerPolicy::Estimate, &spec, &facts, &model).plan;
    let indexes: Vec<Option<BTreeIndex>> = spec
        .steps
        .iter()
        .map(|s| {
            let class = db.store.collection(&s.collection).class;
            s.preds
                .first()
                .and_then(|p| index_of(&db, class, p.attr))
                .cloned()
        })
        .collect();
    db.store.cold_restart();
    db.store.reset_metrics();
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let report = run_chain(&mut db.store, &spec, &plan, &indexes, false, None);
    ARMED.store(false, Relaxed);
    (report.results, PEAK.load(Relaxed))
}

/// The bound on every cell's peak, whatever its result count: the
/// candidates a stage scans, its hash table, the widest intermediate
/// frontier and the store's own working state (pages and handles read
/// in). The cells peak at 220–686 KB; materializing every result row
/// (a rid per step plus the projection) took them to 237 KB–1.78 MB,
/// growing with the 1 146–9 508 results.
const BOUND: i64 = 768 << 10;

#[test]
fn counting_chains_keep_only_live_state() {
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 200);
    let mut results = Vec::new();
    for depth in [3, 4] {
        for (pat, prov) in [(10, 90), (90, 10), (50, 50)] {
            let (n, peak) = chain(&master, depth, pat, prov);
            println!("d{depth} ({pat}, {prov}): {n} results, peak {peak} live bytes");
            assert!(
                peak <= BOUND,
                "d{depth} ({pat}, {prov}): peak {peak} live bytes above {BOUND} ({n} results)"
            );
            results.push(n);
        }
    }
    let (least, most) = (results.iter().min(), results.iter().max());
    assert!(
        most >= least.map(|n| 8 * n).as_ref(),
        "the one bound must span a wide range of result counts: {results:?}"
    );
}
