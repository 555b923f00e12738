//! Differential tests: the morsel-parallel executor against the serial
//! engine, at the raw-report, `Stat`, and served layers.
//!
//! What must be byte-identical, and why (mirroring the sharded
//! oracle's contract in `sharded_equivalence.rs`):
//!
//! * **Degree 1 is the serial path** — `run_join_with` *is*
//!   `run_join_parallel` at degree 1 (the dispatcher runs the driving
//!   list inline), so the *whole* `Stat` must be byte-identical. There
//!   is no hidden fork to drift.
//! * **Results and pairs at any degree** — morsels are contiguous and
//!   their emits are flushed in morsel-index order, so the full pair
//!   list (not just the count) reproduces the serial emission order.
//! * **Trace shape at any degree** — the ordered merge reproduces the
//!   serial pre-order: same `(kind, label, depth)` row sequence.
//! * **Per-row `handle_gets` and the `Emit` rows at any degree** —
//!   object fetches partition exactly across morsels, and per-pair
//!   emit charges are cache-independent, so these sum back
//!   field-for-field.
//! * **The attribution invariant at any degree** — merged rows sum to
//!   the query-level totals (coordinator + worker windows), proving
//!   the merge lost nothing.
//!
//! Cache-sensitive counters (hit/miss splits, swap faults) are **not**
//! degree-invariant and are deliberately not pinned: each worker owns
//! a private store clone — the in-process analogue of the router's
//! per-shard caches — and the locality change is real simulated
//! physics, the same reason the sharded oracle lets them diverge.
//! They are deterministic, though, so the degree-2/4 `Stat`s are also
//! checked whole against `golden/parallel_equivalence.fp`, rendered
//! from the last commit with per-algorithm parallel drivers (8267b58).

mod golden;

use tq_bench::build_db;
use tq_query::join::parallel::run_join_parallel;
use tq_query::join::{JoinContext, JoinOptions};
use tq_query::{JoinAlgo, ParallelRun};
use tq_router::{Router, RouterConfig};
use tq_server::measure::{join_spec, run_join_cell, run_join_cell_parallel, stat_record};
use tq_server::{CacheMode, Client, DuplexStream, QuerySpec, Response, Server, ServerConfig};
use tq_statsdb::Stat;
use tq_workload::{Database, DbShape, Organization};

const DEGREES: [usize; 2] = [2, 4];
const ORGS: [Organization; 3] = [
    Organization::ClassClustered,
    Organization::Randomized,
    Organization::Composition,
];

fn master(org: Organization) -> Database {
    build_db(DbShape::Db2, org, 500)
}

/// One cold engine-level run with pair collection, at a degree.
fn raw_run(db: &mut Database, algo: JoinAlgo, degree: usize) -> ParallelRun {
    let spec = join_spec(db, 10, 90);
    let parent_index = db.idx_provider_upin.clone();
    let child_index = db.idx_patient_mrn.clone();
    db.store.cold_restart();
    db.store.reset_metrics();
    let mut ctx = JoinContext {
        store: &mut db.store,
        parent_index: &parent_index,
        child_index: &child_index,
    };
    run_join_parallel(
        algo,
        &mut ctx,
        &spec,
        &JoinOptions::default(),
        true,
        None,
        degree,
    )
    .expect("no worker panics in a healthy run")
}

#[test]
fn parallel_reports_match_serial_at_every_degree() {
    for org in ORGS {
        let base = master(org);
        for algo in JoinAlgo::all() {
            let mut db = base.clone();
            let serial = raw_run(&mut db, algo, 1).report;
            assert!(serial.results > 0, "{org:?}/{}: empty cell", algo.label());
            for degree in DEGREES {
                let mut db = base.clone();
                let run = raw_run(&mut db, algo, degree);
                let ctx = format!("{org:?}/{} degree {degree}", algo.label());
                assert_eq!(run.report.results, serial.results, "{ctx}: results");
                // The full pair list, in the serial emission order —
                // morsel-order flushing is what makes this hold.
                assert_eq!(run.report.pairs, serial.pairs, "{ctx}: pairs");
                assert_eq!(
                    run.report.hash_table_bytes, serial.hash_table_bytes,
                    "{ctx}: table size"
                );
                // The merged trace has the serial row sequence...
                let shape = |r: &tq_query::JoinReport| -> Vec<(tq_query::OpKind, String, u32)> {
                    r.trace
                        .ops
                        .iter()
                        .map(|o| (o.kind, o.label.clone(), o.depth))
                        .collect()
                };
                assert_eq!(shape(&run.report), shape(&serial), "{ctx}: trace shape");
                // ...with exactly the serial record work per row, and
                // byte-identical result production.
                for (row, srow) in run.report.trace.ops.iter().zip(serial.trace.ops.iter()) {
                    assert_eq!(
                        row.counters.handle_gets(),
                        srow.counters.handle_gets(),
                        "{ctx}: handle_gets diverged in {:?}/{}",
                        row.kind,
                        row.label
                    );
                    if row.kind == tq_query::OpKind::Emit {
                        assert_eq!(row, srow, "{ctx}: Emit row diverged");
                    }
                }
                // The attribution invariant across both windows: the
                // merged rows — plus the workers' end-of-query drains,
                // which only gain a trace row at the measurement layer
                // — sum to coordinator + worker deltas.
                let mut total = run.report.trace.total();
                total.add(&run.workers_teardown);
                let mut io = db.store.stats();
                io.accumulate(&run.workers_io);
                assert_eq!(total.io, io, "{ctx}: I/O must sum across all windows");
                assert_eq!(
                    total.elapsed_nanos(),
                    db.store.clock().elapsed() + run.workers_nanos,
                    "{ctx}: simulated time must be fully attributed"
                );
            }
        }
    }
}

/// Measures one cold cell through the measurement layer and exports
/// its `Stat` record.
fn stat_at_degree(base: &Database, algo: JoinAlgo, degree: usize) -> (u64, Stat) {
    let mut db = base.clone();
    let cell = run_join_cell_parallel(&mut db, algo, 10, 90, &JoinOptions::default(), None, degree)
        .expect("no worker panics in a healthy run");
    let stat = stat_record(&db, &cell, 10, 90);
    (cell.results, stat)
}

#[test]
fn degree_one_stat_is_byte_identical_to_serial() {
    let base = master(Organization::ClassClustered);
    for algo in JoinAlgo::all() {
        let mut db = base.clone();
        let cell = run_join_cell(&mut db, algo, 10, 90, &JoinOptions::default());
        let serial = stat_record(&db, &cell, 10, 90);
        let (results, stat) = stat_at_degree(&base, algo, 1);
        assert_eq!(results, cell.results, "{}", algo.label());
        assert_eq!(
            stat,
            serial,
            "{}: degree 1 must be the serial path",
            algo.label()
        );
    }
}

#[test]
fn stats_match_serial_in_invariant_fields_at_higher_degrees() {
    let mut frozen = Vec::new();
    for org in ORGS {
        let base = master(org);
        for algo in JoinAlgo::all() {
            let (oresults, ostat) = stat_at_degree(&base, algo, 1);
            for degree in DEGREES {
                let (results, stat) = stat_at_degree(&base, algo, degree);
                let ctx = format!("{org:?}/{} degree {degree}", algo.label());
                frozen.push((ctx.clone(), format!("{results} {stat:?}")));
                assert_eq!(results, oresults, "{ctx}: results");
                assert_eq!(stat.query, ostat.query, "{ctx}: query desc");
                assert_eq!(stat.database, ostat.database, "{ctx}: extents");
                assert_eq!(stat.cluster, ostat.cluster, "{ctx}");
                assert_eq!(stat.algo, ostat.algo, "{ctx}");
                assert_eq!(stat.system, ostat.system, "{ctx}");
                for orow in &ostat.operators {
                    let row = stat
                        .operators
                        .iter()
                        .find(|r| r.op == orow.op && r.label == orow.label && r.depth == orow.depth)
                        .unwrap_or_else(|| {
                            panic!("{ctx}: merged record lost row {}/{}", orow.op, orow.label)
                        });
                    assert_eq!(
                        row.handle_gets, orow.handle_gets,
                        "{ctx}: handle_gets diverged in {}/{}",
                        orow.op, orow.label
                    );
                    if orow.op == "Emit" {
                        assert_eq!(row, orow, "{ctx}: Emit row diverged");
                    }
                }
                let sum = |f: fn(&tq_statsdb::OperatorStat) -> u64| -> u64 {
                    stat.operators.iter().map(f).sum()
                };
                assert_eq!(sum(|r| r.client_misses), stat.cc_pagefaults, "{ctx}");
                assert_eq!(sum(|r| r.d2sc_read_pages), stat.d2sc_read_pages, "{ctx}");
                assert_eq!(sum(|r| r.sc2cc_read_pages), stat.sc2cc_read_pages, "{ctx}");
            }
        }
    }
    golden::assert_matches("parallel_equivalence.fp", &frozen);
}

fn open(conn: DuplexStream) -> (Client<DuplexStream>, u64) {
    let mut client = Client::new(conn);
    let session = client.open_session(CacheMode::Cold).expect("open session");
    (client, session)
}

fn served_cells(conn: DuplexStream) -> Vec<(u64, Stat)> {
    let (mut client, session) = open(conn);
    let cells = JoinAlgo::all()
        .into_iter()
        .map(|algo| {
            let spec = QuerySpec {
                session,
                algo,
                pat_pct: 10,
                prov_pct: 90,
                deadline_nanos: 0,
            };
            match client.query(spec).expect("query") {
                Response::QueryOk { results, stat } => (results, *stat),
                other => panic!("query answered {other:?}"),
            }
        })
        .collect();
    client.close_session(session).expect("close session");
    cells
}

/// Checks a parallel-served cell against its serial-served oracle on
/// the degree-invariant fields.
fn check_served(cells: &[(u64, Stat)], oracle: &[(u64, Stat)], what: &str) {
    for (algo, ((results, stat), (oresults, ostat))) in
        JoinAlgo::all().into_iter().zip(cells.iter().zip(oracle))
    {
        let ctx = format!("{what} {}", algo.label());
        assert_eq!(results, oresults, "{ctx}: results");
        assert_eq!(stat.query, ostat.query, "{ctx}: query desc");
        assert_eq!(stat.database, ostat.database, "{ctx}: extents");
        assert_eq!(stat.algo, ostat.algo, "{ctx}");
        for orow in &ostat.operators {
            let row = stat
                .operators
                .iter()
                .find(|r| r.op == orow.op && r.label == orow.label && r.depth == orow.depth)
                .unwrap_or_else(|| panic!("{ctx}: lost row {}/{}", orow.op, orow.label));
            assert_eq!(
                row.handle_gets, orow.handle_gets,
                "{ctx}: handle_gets diverged in {}/{}",
                orow.op, orow.label
            );
            if orow.op == "Emit" {
                assert_eq!(row, orow, "{ctx}: Emit row diverged");
            }
        }
    }
}

#[test]
fn served_stats_match_serial_service_at_degree_two() {
    let base = master(Organization::ClassClustered);
    let serial = Server::start(
        base.clone(),
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            parallel: 1,
        },
    );
    let oracle = served_cells(serial.connect_in_proc());
    serial.shutdown();

    let parallel = Server::start(
        base,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            parallel: 2,
        },
    );
    let cells = served_cells(parallel.connect_in_proc());
    parallel.shutdown();
    check_served(&cells, &oracle, "served");
}

#[test]
fn sharded_service_composes_with_intra_query_parallelism() {
    // Both parallelism axes at once: 2 shards × degree 2. Each shard's
    // partial runs morsel-parallel; the merged record must still agree
    // with the serial sharded service on every topology-invariant
    // field — the two decompositions commute.
    let base = master(Organization::ClassClustered);
    let config = |parallel: usize| RouterConfig {
        workers_per_shard: 1,
        queue_depth: 16,
        max_inflight: 16,
        parallel,
    };
    let serial = Router::start_partitioned(&base, 2, config(1));
    let oracle = served_cells(serial.connect_in_proc());
    serial.shutdown();

    let parallel = Router::start_partitioned(&base, 2, config(2));
    let cells = served_cells(parallel.connect_in_proc());
    parallel.shutdown();
    check_served(&cells, &oracle, "sharded+parallel");
}
