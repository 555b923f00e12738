//! The parallel figure harness must be invisible in the numbers:
//! running the same figure serially and across workers yields
//! bit-identical `Stat` records (simulated seconds are `f64`-equal,
//! every I/O counter matches exactly).

use tq_bench::env;
use tq_bench::figures::{fig06, joins};
use tq_workload::{DbShape, Organization};

#[test]
fn join_figure_stats_identical_at_any_worker_count() {
    let db = tq_bench::build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let serial = joins::run_join_figure_on(&db, 1000, 1);
    let parallel = joins::run_join_figure_on(&db, 1000, 4);
    assert_eq!(serial.stats.len(), 16);
    // Bit-identical records: elapsed simulated time, page counts, miss
    // rates, numtest assignment — everything.
    assert_eq!(serial.stats.all(), parallel.stats.all());
    // And the printed table is byte-identical too.
    assert_eq!(
        joins::print_join_figure(&serial),
        joins::print_join_figure(&parallel)
    );
}

/// The same oracle at paper-relevant scale (DB2 at 1/10 = 100k
/// providers / 300k patients — large enough that copy-on-write
/// snapshots, cache sizing and swap simulation all engage). Too slow
/// for a debug-profile `cargo test`, so it is `#[ignore]`d there;
/// `scripts/verify.sh` runs it in `--release` on every verification,
/// which is what keeps CoW from ever silently perturbing counters.
#[test]
#[ignore = "paper-relevant scale: run via scripts/verify.sh (release)"]
fn join_figure_stats_identical_at_paper_relevant_scale() {
    let db = tq_bench::build_db(DbShape::Db2, Organization::ClassClustered, 10);
    let serial = joins::run_join_figure_on(&db, 10, 1);
    let parallel = joins::run_join_figure_on(&db, 10, 4);
    assert_eq!(serial.stats.len(), 16);
    assert_eq!(serial.stats.all(), parallel.stats.all());
    assert_eq!(
        joins::print_join_figure(&serial),
        joins::print_join_figure(&parallel)
    );
}

#[test]
fn fig06_rows_identical_at_any_worker_count() {
    let serial = fig06::run(2000, 1);
    let parallel = fig06::run(2000, 3);
    assert_eq!(serial.stats.all(), parallel.stats.all());
    assert_eq!(fig06::print(&serial), fig06::print(&parallel));
}

/// `TQ_SCALE`/`TQ_JOBS` parsing: defaults when unset, `Err` (not a
/// process exit) on garbage.
#[test]
fn env_knobs_parse_or_error() {
    assert_eq!(env::scale(None), Ok(1));
    assert!(env::jobs(None).unwrap() >= 1);

    assert_eq!(env::scale(Some("250")), Ok(250));
    assert!(env::scale(Some("0")).unwrap_err().contains("TQ_SCALE"));
    assert!(env::scale(Some("lots"))
        .unwrap_err()
        .contains("positive integer"));

    assert_eq!(env::jobs(Some("8")), Ok(8));
    assert!(env::jobs(Some("-3")).unwrap_err().contains("TQ_JOBS"));
}
