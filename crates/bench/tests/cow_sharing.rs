//! Copy-on-write at the `Database` level: cloning a built base is
//! O(files), and a cold read-only measurement cell copies no page
//! bytes at all — the property that lets the figure harness fan
//! paper-scale cells across workers without `TQ_JOBS × database`
//! memory.

use tq_bench::build_db;
use tq_query::{JoinAlgo, JoinOptions};
use tq_server::measure::run_join_cell;
use tq_workload::{DbShape, Organization};

#[test]
fn database_clone_allocates_no_page_bytes() {
    let db = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let disk = db.store.stack().disk();
    let total = disk.total_pages();
    assert!(total > 100, "sanity: the base has real pages");

    let clone = db.clone();
    let clone_disk = clone.store.stack().disk();
    assert_eq!(
        disk.shared_page_count(clone_disk),
        total,
        "every page of an unmutated clone must be shared"
    );
    assert_eq!(clone_disk.private_page_bytes(), 0);
}

#[test]
fn cold_transient_join_cell_copies_no_data_pages() {
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let total = master.store.stack().disk().total_pages();

    // The harness's per-cell protocol: clone, run one cold measured
    // join (transient results — the paper's Figures 11–14 mode).
    for algo in [JoinAlgo::Phj, JoinAlgo::Chj] {
        let mut cell = master.clone();
        let out = run_join_cell(&mut cell, algo, 10, 90, &JoinOptions::default());
        assert!(out.results > 0);
        assert_eq!(
            master
                .store
                .stack()
                .disk()
                .shared_page_count(cell.store.stack().disk()),
            total,
            "{algo:?}: a read-only cell must not unshare any page"
        );
    }
}
