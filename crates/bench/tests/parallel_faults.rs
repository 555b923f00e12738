//! Fault paths of the morsel-parallel executor: a panicking worker
//! and a deadline that fires mid-query must both terminate promptly
//! with *typed* errors — never a hang, never a leaked object handle —
//! and the engine must be reusable afterwards.
//!
//! The panic hook (`inject_worker_panic`) is process-global, so every
//! scenario runs sequentially inside one `#[test]` — concurrent tests
//! in this binary would race on the injection window.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tq_bench::build_db;
use tq_query::join::parallel::{clear_worker_panic, inject_worker_panic};
use tq_query::join::JoinOptions;
use tq_query::{CancelToken, Cancelled, JoinAlgo, MorselPanic};
use tq_server::measure::{run_join_cell, run_join_cell_parallel};
use tq_server::{CacheMode, Client, QuerySpec, Response, Server, ServerConfig};
use tq_workload::{DbShape, Organization};

#[test]
fn worker_faults_are_typed_prompt_and_leak_free() {
    let master = build_db(DbShape::Db2, Organization::ClassClustered, 1000);
    let opts = JoinOptions::default();

    // --- A panicking morsel worker surfaces as `MorselPanic`. Worker
    // 0 exists whenever any morsel runs at all (a short driving side
    // can collapse to fewer spans than the degree). ---
    for algo in JoinAlgo::all() {
        let mut db = master.clone();
        inject_worker_panic(0);
        let err = run_join_cell_parallel(&mut db, algo, 10, 90, &opts, None, 4)
            .expect_err("injected panic must surface as an error");
        clear_worker_panic();
        assert_eq!(
            err,
            MorselPanic {
                worker: 0,
                message: "injected morsel failure (worker 0)".into(),
            },
            "{}",
            algo.label()
        );
        // The coordinator unwound nothing: every ObjGuard opened by the
        // prefix and the surviving workers was dropped on the way out.
        assert_eq!(
            db.store.live_handles(),
            0,
            "{}: a failed parallel run may not leak handles",
            algo.label()
        );
        // The engine is reusable: the same database answers the same
        // query correctly afterwards.
        let cell = run_join_cell_parallel(&mut db, algo, 10, 90, &opts, None, 4)
            .expect("engine must recover after a worker panic");
        let mut oracle = master.clone();
        let serial = run_join_cell(&mut oracle, algo, 10, 90, &opts);
        assert_eq!(cell.results, serial.results, "{}", algo.label());
    }

    // --- A deadline crossing mid-query propagates into the workers
    // and resumes as the session layer's typed `Cancelled` unwind.
    // A fifth of the serial budget at degree 2 is guaranteed to fire:
    // the run's simulated work splits across three windows (prefix +
    // suffix on the coordinator, half the driving side on each
    // worker), so some window must cross T/5 well before finishing. ---
    for algo in JoinAlgo::all() {
        let mut db = master.clone();
        let serial = run_join_cell(&mut db, algo, 10, 90, &opts);
        let budget = (serial.secs * 1e9) as u64 / 5;
        assert!(budget > 0);
        let mut db = master.clone();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_join_cell_parallel(
                &mut db,
                algo,
                10,
                90,
                &opts,
                Some(CancelToken::with_deadline_nanos(budget)),
                2,
            )
        }))
        .expect_err("a fifth of the serial budget must cancel the query");
        let cancelled = payload
            .downcast_ref::<Cancelled>()
            .unwrap_or_else(|| panic!("{}: unwind payload must be Cancelled", algo.label()));
        assert!(
            cancelled.elapsed_nanos >= budget,
            "{}: cancellation fired before the deadline",
            algo.label()
        );
    }

    // --- The same two faults through the service edge, at degree 2:
    // a worker panic becomes a protocol `Error` (a failed query, not a
    // dead server), a deadline becomes `DeadlineExceeded`, and the
    // session keeps serving afterwards. ---
    let server = Server::start(
        master.clone(),
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            parallel: 2,
        },
    );
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Cold).expect("open session");
    let spec = |deadline_nanos: u64| QuerySpec {
        session,
        algo: JoinAlgo::Phj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos,
    };

    inject_worker_panic(0);
    let err = client
        .query(spec(0))
        .expect_err("a worker panic must answer Error, not hang");
    clear_worker_panic();
    assert!(
        err.to_string().contains("morsel worker 0"),
        "served error must carry the typed panic: {err}"
    );

    match client.query(spec(1)).expect("deadline reply") {
        Response::DeadlineExceeded { elapsed_nanos } => assert!(elapsed_nanos >= 1),
        other => panic!("1ns deadline answered {other:?}"),
    }

    match client.query(spec(0)).expect("recovery reply") {
        Response::QueryOk { results, .. } => {
            let mut oracle = master.clone();
            let serial = run_join_cell(&mut oracle, JoinAlgo::Phj, 10, 90, &opts);
            assert_eq!(results, serial.results, "post-fault serve must be correct");
        }
        other => panic!("post-fault query answered {other:?}"),
    }
    client.close_session(session).expect("close session");
    // The handler thread exits on client hang-up; shutdown joins it.
    drop(client);
    server.shutdown();

    // --- A plain panic inside a served query at degree 1 (the inline
    // run is the hook's worker 0): no morsel scope catches it, so it
    // unwinds to the pool's only worker. It must become a typed
    // `Error` — not a dead worker, not a session stuck `Busy` — and the
    // *same session* must serve the same query right after. ---
    let server = Server::start(
        master.clone(),
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            parallel: 1,
        },
    );
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Cold).expect("open session");
    let spec = QuerySpec {
        session,
        algo: JoinAlgo::Phj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
    };
    inject_worker_panic(0);
    let err = client
        .query(spec)
        .expect_err("a panicking query must answer Error, not hang");
    clear_worker_panic();
    assert!(
        err.to_string()
            .contains("internal error: injected morsel failure (worker 0)"),
        "served error must carry the panic message: {err}"
    );
    match client.query(spec).expect("recovery reply") {
        Response::QueryOk { results, .. } => {
            let mut oracle = master.clone();
            let serial = run_join_cell(&mut oracle, JoinAlgo::Phj, 10, 90, &opts);
            assert_eq!(results, serial.results, "post-panic serve must be correct");
        }
        other => panic!("post-panic query answered {other:?}"),
    }
    let (_drained, leaked, _uncommitted) = client.close_session(session).expect("close session");
    assert_eq!(leaked, 0, "a panicked query may not leak handles");
    assert_eq!(server.open_sessions(), 0);
    assert_eq!(server.stats().queries_failed, 1);
    drop(client);
    server.shutdown();
}
