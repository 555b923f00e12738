//! The executor's attribution invariant, enforced end to end: for
//! every join algorithm × physical organization at smoke scale, the
//! per-operator counter rows of a measured run sum **exactly** — field
//! for field, no rounding — to the query-level totals the harness
//! stores in the Figure 3 `Stat` record.

use tq_bench::build_db;
use tq_query::join::{smj, JoinContext, JoinOptions};
use tq_query::plan::chain_pipeline;
use tq_query::{JoinAlgo, OpKind, PlannerPolicy};
use tq_server::measure::{
    chain_stat_record, compile_chain_spec, measure_update_current, run_chain_cell,
    update_stat_record,
};
use tq_server::measure::{join_spec, run_join_cell, run_join_cell_parallel, stat_record, JoinCell};
use tq_server::UpdateTarget;
use tq_statsdb::Stat;
use tq_workload::{Database, DbShape, Organization};

/// Asserts a stored `Stat`'s operator rows reproduce its query-level
/// fields — the invariant that makes the per-operator CSV trustworthy.
fn check_stat_rows(stat: &Stat, what: &str) {
    assert!(!stat.operators.is_empty(), "{what}: breakdown must export");
    let d2sc: u64 = stat.operators.iter().map(|o| o.d2sc_read_pages).sum();
    let sc2cc: u64 = stat.operators.iter().map(|o| o.sc2cc_read_pages).sum();
    let misses: u64 = stat.operators.iter().map(|o| o.client_misses).sum();
    let nanos: u64 = stat
        .operators
        .iter()
        .map(|o| o.io_nanos + o.rpc_nanos + o.cpu_nanos + o.swap_nanos)
        .sum();
    assert_eq!(d2sc, stat.d2sc_read_pages, "{what}: d2sc_read_pages");
    assert_eq!(sc2cc, stat.sc2cc_read_pages, "{what}: sc2cc_read_pages");
    assert_eq!(sc2cc, stat.rpcs_number, "{what}: rpcs_number");
    assert_eq!(misses, stat.cc_pagefaults, "{what}: cc_pagefaults");
    assert_eq!(
        nanos as f64 / 1e9,
        stat.elapsed_time,
        "{what}: elapsed_time"
    );
}

/// Asserts one measured cell's trace sums to its run-wide counters and
/// that its `Stat` record's operator rows reproduce the query fields.
fn check_cell(db: &Database, cell: &JoinCell, pat: u32, prov: u32, what: &str) {
    let total = cell.report.trace.total();
    // Field-for-field against the run's I/O counters (all 8 fields,
    // including the cache hit/miss tallies the rates derive from).
    assert_eq!(total.io, cell.io, "{what}: I/O counters must sum exactly");
    // The simulated clock: the rows' nanoseconds are the elapsed time.
    assert_eq!(
        total.elapsed_secs(),
        cell.secs,
        "{what}: elapsed time must be fully attributed"
    );
    // Attribution is complete: nothing landed outside an operator.
    assert!(
        cell.report.trace.find(OpKind::Other).is_none(),
        "{what}: no counters may land outside operator scopes"
    );
    // And the same invariant on the stored record.
    check_stat_rows(&stat_record(db, cell, pat, prov), what);
}

#[test]
fn every_algo_and_clustering_sums_to_the_query_stat() {
    for (shape, scale) in [(DbShape::Db1, 200), (DbShape::Db2, 1000)] {
        for org in [
            Organization::ClassClustered,
            Organization::Randomized,
            Organization::Composition,
        ] {
            let master = build_db(shape, org, scale);
            for algo in JoinAlgo::all() {
                let mut db = master.clone();
                let cell = run_join_cell(&mut db, algo, 10, 90, &JoinOptions::default());
                let what = format!("{shape:?}/{org:?}/{}", algo.label());
                check_cell(&db, &cell, 10, 90, &what);
            }
        }
    }
}

#[test]
fn parallel_merged_traces_sum_to_the_query_stat() {
    // The morsel-parallel path under the same microscope: the merged
    // trace (coordinator prefix + every worker's partial + suffix)
    // must account for every counter in the run's combined window —
    // coordinator store *plus* worker store deltas — with nothing in
    // an `Other` row, at every degree, for every algorithm ×
    // clustering. Degree 1 short-circuits to the serial path, so it
    // doubles as the there-is-no-hidden-fork check.
    for org in [
        Organization::ClassClustered,
        Organization::Randomized,
        Organization::Composition,
    ] {
        let master = build_db(DbShape::Db2, org, 1000);
        for algo in JoinAlgo::all() {
            for degree in [1usize, 2, 4] {
                let mut db = master.clone();
                let cell = run_join_cell_parallel(
                    &mut db,
                    algo,
                    10,
                    90,
                    &JoinOptions::default(),
                    None,
                    degree,
                )
                .expect("no worker panics in a healthy run");
                let what = format!("{org:?}/{} degree {degree}", algo.label());
                check_cell(&db, &cell, 10, 90, &what);
            }
        }
    }
}

#[test]
fn swap_heavy_and_hybrid_cells_sum_to_the_query_stat() {
    // (90,90) on DB2/class drives the hash tables past the operator
    // budget: swap-fault nanoseconds must be attributed too.
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    for algo in [JoinAlgo::Phj, JoinAlgo::Chj] {
        for hybrid in [false, true] {
            let mut db = master.clone();
            let opts = JoinOptions {
                hybrid_hashing: hybrid,
                ..Default::default()
            };
            let cell = run_join_cell(&mut db, algo, 90, 90, &opts);
            let what = format!("{} hybrid={hybrid}", algo.label());
            check_cell(&db, &cell, 90, 90, &what);
        }
    }
}

#[test]
fn sort_merge_join_trace_sums_to_its_window() {
    // SMJ is not dispatched by `run_join`; measure it directly and
    // compare the trace against the whole post-reset window.
    let mut db = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let spec = join_spec(&db, 90, 90);
    let parent_index = db.idx_provider_upin.clone();
    let child_index = db.idx_patient_mrn.clone();
    db.store.cold_restart();
    db.store.reset_metrics();
    let report = {
        let mut ctx = JoinContext {
            store: &mut db.store,
            parent_index: &parent_index,
            child_index: &child_index,
        };
        smj::run(&mut ctx, &spec, &JoinOptions::default(), false)
    };
    assert!(report.results > 0);
    let total = report.trace.total();
    assert_eq!(total.io, db.store.stats());
    assert_eq!(total.elapsed_secs(), db.store.clock().elapsed_secs());
    assert!(report.trace.find(OpKind::Sort).is_some());
    assert!(report.trace.find(OpKind::Merge).is_some());
    assert!(report.trace.find(OpKind::Other).is_none());
}

#[test]
fn multiway_chains_sum_to_the_query_stat_at_any_batch() {
    // The N-way pipeline under the same microscope: for every policy at
    // depths 3 and 4, each join step's trace rows — plus the Teardown
    // drain — sum exactly to the query-level Stat, and the whole Stat
    // is byte-identical between the scalar path (batch 1) and the
    // batched default.
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let mut per_batch: Vec<Vec<Stat>> = Vec::new();
    for batch in [1usize, 1024] {
        let mut stats = Vec::new();
        for policy in PlannerPolicy::all() {
            for depth in [3u32, 4] {
                let mut db = master.clone();
                db.store.set_batch_size(batch);
                let cell = run_chain_cell(&mut db, depth, 30, 60, policy, None).unwrap();
                let what = format!("depth {depth} {policy:?} batch {batch}");
                assert!(cell.results > 0, "{what}: selected nothing");

                let total = cell.report.trace.total();
                assert_eq!(total.io, cell.io, "{what}: I/O counters must sum exactly");
                assert_eq!(
                    total.elapsed_secs(),
                    cell.secs,
                    "{what}: elapsed time must be fully attributed"
                );
                assert!(
                    cell.report.trace.find(OpKind::Other).is_none(),
                    "{what}: no counters may land outside operator scopes"
                );
                assert!(
                    cell.report.trace.find(OpKind::Teardown).is_some(),
                    "{what}: the end-of-query drain must have its own row"
                );

                // The trace rows are exactly the plan's pipeline — one
                // row per join step's operators — plus the teardown.
                // The executor merges a re-entered (kind, label) scope
                // into its first row (a parent-ward hash step re-probes
                // the step it extends), so the expectation keeps first
                // occurrences only.
                let spec = compile_chain_spec(&db, depth, 30, 60).unwrap();
                let mut want = chain_pipeline(&spec, &cell.choice.plan);
                let mut seen = std::collections::HashSet::new();
                want.retain(|row| seen.insert(row.clone()));
                let got: Vec<(OpKind, String)> = cell
                    .report
                    .trace
                    .ops
                    .iter()
                    .filter(|op| op.kind != OpKind::Teardown)
                    .map(|op| (op.kind, op.label.clone()))
                    .collect();
                assert_eq!(got, want, "{what}: trace rows are the plan's pipeline");

                let stat = chain_stat_record(&db, &cell, depth, 30, 60);
                assert!(stat.algo.starts_with("CHAIN-"), "{}", stat.algo);
                check_stat_rows(&stat, &what);
                stats.push(stat);
            }
        }
        per_batch.push(stats);
    }
    assert_eq!(
        per_batch[0], per_batch[1],
        "chain Stats must be byte-identical at batch 1 and 1024"
    );
}

#[test]
fn update_statements_sum_to_their_stat() {
    // The same attribution invariant for write statements: the update
    // executor's trace (IndexRangeScan feeding Update, plus the
    // teardown drain) must account for every counter in its window,
    // and the exported `Stat` (algo "UPDATE") must reproduce the sums.
    for org in [
        Organization::ClassClustered,
        Organization::Randomized,
        Organization::Composition,
    ] {
        let master = build_db(DbShape::Db2, org, 1000);
        for (target, sel, delta) in [
            (UpdateTarget::Patients, 10, 5),  // re-keys the num index
            (UpdateTarget::Patients, 100, 0), // touch-update, full range
            (UpdateTarget::Providers, 50, 0), // touch-update, other extent
        ] {
            let mut db = master.clone();
            let cell = measure_update_current(&mut db, target, sel, delta, None);
            let what = format!("{org:?}/{target:?} sel={sel} delta={delta}");
            assert!(cell.outcome.updated > 0, "{what}: matched no rows");
            assert_eq!(
                cell.outcome.updated, cell.outcome.scanned,
                "{what}: every scanned row is rewritten"
            );

            let total = cell.outcome.trace.total();
            assert_eq!(total.io, cell.io, "{what}: I/O counters must sum exactly");
            assert_eq!(
                total.elapsed_secs(),
                cell.secs,
                "{what}: elapsed time must be fully attributed"
            );
            assert!(
                cell.outcome.trace.find(OpKind::Other).is_none(),
                "{what}: no counters may land outside operator scopes"
            );
            assert!(
                cell.outcome.trace.find(OpKind::Update).is_some(),
                "{what}: the statement's own operator row must exist"
            );

            let stat = update_stat_record(&db, &cell, sel, delta, true);
            assert_eq!(stat.algo, "UPDATE");
            check_stat_rows(&stat, &what);
        }
    }
}
