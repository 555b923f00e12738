//! Fault paths of the morsel-parallel executor: a panicking worker
//! and a deadline that fires mid-query must both terminate promptly
//! with *typed* errors — never a hang, never a leaked object handle —
//! and the engine must be reusable afterwards.
//!
//! Each fault travels with one query: a panic is injected through that
//! query's [`CancelToken::fail_worker`], or through
//! [`Server::fail_next_query`] on a server of the test's own, so the
//! scenarios are separate tests that may run at the same time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tq_bench::build_db;
use tq_query::join::JoinOptions;
use tq_query::{CancelToken, Cancelled, JoinAlgo, MorselPanic};
use tq_server::measure::{run_join_cell, run_join_cell_parallel};
use tq_server::{CacheMode, Client, DuplexStream, QuerySpec, Response, Server, ServerConfig};
use tq_workload::{Database, DbShape, Organization};

fn master() -> Database {
    build_db(DbShape::Db2, Organization::ClassClustered, 1000)
}

/// The serial engine's result count for the served cell.
fn serial_results(master: &Database) -> u64 {
    let mut oracle = master.clone();
    run_join_cell(&mut oracle, JoinAlgo::Phj, 10, 90, &JoinOptions::default()).results
}

/// A one-worker server at `parallel` with one open cold session, and
/// the PHJ 10/90 query on it.
fn serve(
    master: &Database,
    parallel: usize,
) -> (Server, Client<DuplexStream>, u64, impl Fn(u64) -> QuerySpec) {
    let server = Server::start(
        master.clone(),
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            parallel,
        },
    );
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Cold).expect("open session");
    let spec = move |deadline_nanos| QuerySpec {
        session,
        algo: JoinAlgo::Phj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos,
    };
    (server, client, session, spec)
}

/// A panicking morsel worker surfaces as `MorselPanic`. Worker 0
/// exists whenever any morsel runs at all (a short driving side can
/// collapse to fewer spans than the degree).
#[test]
fn in_process_worker_panic_is_typed_and_leak_free() {
    let master = master();
    let opts = JoinOptions::default();
    for algo in JoinAlgo::all() {
        let mut db = master.clone();
        let token = CancelToken::new().fail_worker(0);
        let err = run_join_cell_parallel(&mut db, algo, 10, 90, &opts, Some(token), 4)
            .expect_err("injected panic must surface as an error");
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
}

/// A deadline crossing mid-query propagates into the workers and
/// resumes as the session layer's typed `Cancelled` unwind. A fifth of
/// the serial budget at degree 2 is guaranteed to fire: the run's
/// simulated work splits across three windows (prefix + suffix on the
/// coordinator, half the driving side on each worker), so some window
/// must cross T/5 well before finishing.
#[test]
fn in_process_deadline_cancels_every_worker() {
    let master = master();
    let opts = JoinOptions::default();
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
}

/// The same two faults through the service edge, at degree 2: a worker
/// panic becomes a protocol `Error` (a failed query, not a dead
/// server), a deadline becomes `DeadlineExceeded`, and the session
/// keeps serving afterwards.
#[test]
fn served_worker_panic_at_degree_2_is_typed() {
    let master = master();
    let (server, mut client, session, spec) = serve(&master, 2);

    server.fail_next_query(0);
    let err = client
        .query(spec(0))
        .expect_err("a worker panic must answer Error, not hang");
    assert!(
        err.to_string().contains("morsel worker 0"),
        "served error must carry the typed panic: {err}"
    );

    match client.query(spec(1)).expect("deadline reply") {
        Response::DeadlineExceeded { elapsed_nanos } => assert!(elapsed_nanos >= 1),
        other => panic!("1ns deadline answered {other:?}"),
    }

    match client.query(spec(0)).expect("recovery reply") {
        Response::QueryOk { results, .. } => assert_eq!(
            results,
            serial_results(&master),
            "post-fault serve must be correct"
        ),
        other => panic!("post-fault query answered {other:?}"),
    }
    client.close_session(session).expect("close session");
    // The handler thread exits on client hang-up; shutdown joins it.
    drop(client);
    server.shutdown();
}

/// A plain panic inside a served query at degree 1 (the inline run is
/// the hook's worker 0): no morsel scope catches it, so it unwinds to
/// the pool's only worker. It must become a typed `Error` — not a dead
/// worker, not a session stuck `Busy` — and the *same session* must
/// serve the same query right after.
#[test]
fn served_panic_at_degree_1_is_typed_and_the_session_recovers() {
    let master = master();
    let (server, mut client, session, spec) = serve(&master, 1);

    server.fail_next_query(0);
    let err = client
        .query(spec(0))
        .expect_err("a panicking query must answer Error, not hang");
    assert!(
        err.to_string()
            .contains("internal error: injected morsel failure (worker 0)"),
        "served error must carry the panic message: {err}"
    );
    match client.query(spec(0)).expect("recovery reply") {
        Response::QueryOk { results, .. } => assert_eq!(
            results,
            serial_results(&master),
            "post-panic serve must be correct"
        ),
        other => panic!("post-panic query answered {other:?}"),
    }
    let (_drained, leaked, _uncommitted) = client.close_session(session).expect("close session");
    assert_eq!(leaked, 0, "a panicked query may not leak handles");
    assert_eq!(server.open_sessions(), 0);
    assert_eq!(server.stats().queries_failed, 1);
    drop(client);
    server.shutdown();
}
