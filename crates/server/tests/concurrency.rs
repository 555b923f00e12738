//! Concurrency stress tests: served queries must be *indistinguishable*
//! from harness runs. K sessions running under contention produce
//! `Stat`s equal field-for-field to a serial oracle, deadline-cancelled
//! sessions recover to the same guarantee, and teardown leaks nothing.

use std::sync::{Arc, Barrier};
use std::thread;

use tq_query::{JoinAlgo, JoinOptions, PlannerPolicy};
use tq_server::measure::{
    chain_stat_record, measure_update_current, run_chain_cell, run_join_cell, stat_record,
    update_stat_record,
};
use tq_server::{
    CacheMode, ChainQuerySpec, Client, ClientError, DuplexStream, QuerySpec, Response, Server,
    ServerConfig, UpdateTarget, Work,
};
use tq_statsdb::Stat;
use tq_workload::{build, BuildConfig, Database, DbShape, Organization};

const SCALE: u32 = 1000;

fn base_db() -> Database {
    build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        SCALE,
    ))
}

/// The cells the stress clients run: every algorithm, two selectivity
/// points each.
fn cells() -> Vec<(JoinAlgo, u32, u32)> {
    let algos = [JoinAlgo::Nl, JoinAlgo::Nojoin, JoinAlgo::Phj, JoinAlgo::Chj];
    let mut out = Vec::new();
    for algo in algos {
        out.push((algo, 10, 90));
        out.push((algo, 100, 20));
    }
    out
}

/// What the figure harness would record for one cold cell.
fn serial_oracle(base: &Database, algo: JoinAlgo, pat_pct: u32, prov_pct: u32) -> (u64, Stat) {
    let mut db = base.clone();
    let cell = run_join_cell(&mut db, algo, pat_pct, prov_pct, &JoinOptions::default());
    (cell.results, stat_record(&db, &cell, pat_pct, prov_pct))
}

fn run_one(
    server: &Server,
    mode: CacheMode,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
) -> (u64, Stat, u64) {
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(mode).unwrap();
    let resp = client
        .query(QuerySpec {
            session,
            algo,
            pat_pct,
            prov_pct,
            deadline_nanos: 0,
        })
        .unwrap();
    let (results, stat) = match resp {
        Response::QueryOk { results, stat } => (results, *stat),
        other => panic!("expected QueryOk, got {other:?}"),
    };
    let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
    (results, stat, leaked)
}

#[test]
fn concurrent_cold_sessions_match_serial_oracle() {
    let base = base_db();
    let cells = cells();
    let oracle: Vec<_> = cells
        .iter()
        .map(|&(algo, pat, prov)| serial_oracle(&base, algo, pat, prov))
        .collect();

    let server = Arc::new(Server::start(base, ServerConfig::default()));
    let barrier = Arc::new(Barrier::new(cells.len()));
    let handles: Vec<_> = cells
        .iter()
        .map(|&(algo, pat, prov)| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                run_one(&server, CacheMode::Cold, algo, pat, prov)
            })
        })
        .collect();
    let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (i, ((results, stat, leaked), (want_results, want_stat))) in
        served.iter().zip(oracle.iter()).enumerate()
    {
        let (algo, pat, prov) = cells[i];
        assert_eq!(leaked, &0, "cell {algo:?} {pat}/{prov} leaked handles");
        assert_eq!(
            results, want_results,
            "cell {algo:?} {pat}/{prov} cardinality"
        );
        assert_eq!(stat, want_stat, "cell {algo:?} {pat}/{prov} Stat drifted");
    }

    assert_eq!(server.open_sessions(), 0, "sessions survived teardown");
    let stats = server.stats();
    assert_eq!(stats.queries_ok, cells.len() as u64);
    assert_eq!(stats.queries_failed, 0);
    assert_eq!(stats.sessions_opened, stats.sessions_closed);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn served_stats_are_byte_identical_across_batch_sizes() {
    use tq_query::exec::DEFAULT_BATCH_SIZE;
    let base = base_db();
    let cells = cells();

    // The oracle runs on the scalar path; every batched serving run
    // must reproduce its `Stat`s bit for bit. Each database carries its
    // own batch size, and every session clone inherits its base's.
    let mut scalar = base.clone();
    scalar.store.set_batch_size(1);
    let oracle: Vec<_> = cells
        .iter()
        .map(|&(algo, pat, prov)| serial_oracle(&scalar, algo, pat, prov))
        .collect();

    for batch in [7, DEFAULT_BATCH_SIZE] {
        let mut batched = base.clone();
        batched.store.set_batch_size(batch);
        let server = Arc::new(Server::start(batched, ServerConfig::default()));
        let barrier = Arc::new(Barrier::new(cells.len()));
        let handles: Vec<_> = cells
            .iter()
            .map(|&(algo, pat, prov)| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    run_one(&server, CacheMode::Cold, algo, pat, prov)
                })
            })
            .collect();
        let served: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, ((results, stat, leaked), (want_results, want_stat))) in
            served.iter().zip(oracle.iter()).enumerate()
        {
            let (algo, pat, prov) = cells[i];
            assert_eq!(leaked, &0, "batch {batch} {algo:?} {pat}/{prov} leaked");
            assert_eq!(
                results, want_results,
                "batch {batch} {algo:?} {pat}/{prov} cardinality"
            );
            assert_eq!(
                stat, want_stat,
                "batch {batch} {algo:?} {pat}/{prov}: served Stat \
                 must be byte-identical to the scalar oracle"
            );
        }
        Arc::try_unwrap(server).ok().unwrap().shutdown();
    }
}

#[test]
fn deadline_cancel_then_session_still_matches_oracle() {
    let base = base_db();
    let (want_results, want_stat) = serial_oracle(&base, JoinAlgo::Chj, 100, 90);

    let server = Server::start(base, ServerConfig::default());
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Cold).unwrap();

    // 1ns of simulated time: the first operator tick fires the token.
    let resp = client
        .query(QuerySpec {
            session,
            algo: JoinAlgo::Chj,
            pat_pct: 100,
            prov_pct: 90,
            deadline_nanos: 1,
        })
        .unwrap();
    assert!(
        matches!(resp, Response::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {resp:?}"
    );

    // The session was refilled from the base snapshot: the very next
    // query must be indistinguishable from a fresh harness run.
    let resp = client
        .query(QuerySpec {
            session,
            algo: JoinAlgo::Chj,
            pat_pct: 100,
            prov_pct: 90,
            deadline_nanos: 0,
        })
        .unwrap();
    match resp {
        Response::QueryOk { results, stat } => {
            assert_eq!(results, want_results);
            assert_eq!(*stat, want_stat, "post-cancel Stat drifted from oracle");
        }
        other => panic!("expected QueryOk after recovery, got {other:?}"),
    }

    let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0, "cancelled session leaked handles");
    let stats = server.stats();
    assert_eq!(stats.queries_deadline_exceeded, 1);
    assert_eq!(stats.queries_ok, 1);
    // The handler thread exits on client hang-up; shutdown joins it.
    drop(client);
    server.shutdown();
}

#[test]
fn warm_sessions_are_isolated_from_each_other() {
    let base = base_db();
    // Warm oracle: two queries on one private snapshot, the second
    // measured against whatever the first left resident.
    let want = {
        let mut db = base.clone();
        let opts = JoinOptions::default();
        let _ = run_join_cell(&mut db, JoinAlgo::Chj, 10, 90, &opts);
        let cell = tq_server::measure::measure_current(&mut db, JoinAlgo::Chj, 10, 90, &opts, None);
        let mut stat = stat_record(&db, &cell, 10, 90);
        stat.query.cold = false;
        (cell.results, stat)
    };

    let server = Arc::new(Server::start(base, ServerConfig::default()));
    // A noisy neighbour hammers its own warm session concurrently; it
    // must not perturb the session under test.
    let noisy = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            for _ in 0..4 {
                run_one(&server, CacheMode::Warm, JoinAlgo::Nl, 100, 20);
            }
        })
    };

    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Warm).unwrap();
    let spec = QuerySpec {
        session,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
    };
    // First query primes this session's caches (warm sessions skip the
    // cold restart; the very first query runs against a cold clone).
    let _ = client.query(spec).unwrap();
    let resp = client.query(spec).unwrap();
    match resp {
        Response::QueryOk { results, stat } => {
            assert_eq!(results, want.0);
            assert_eq!(*stat, want.1, "warm Stat drifted under contention");
        }
        other => panic!("expected QueryOk, got {other:?}"),
    }
    let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0);

    noisy.join().unwrap();
    assert_eq!(server.open_sessions(), 0);
    drop(client);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn saturated_server_sheds_instead_of_queueing_unboundedly() {
    let base = base_db();
    let server = Arc::new(Server::start(
        base,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            parallel: 1,
        },
    ));
    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::new(server.connect_in_proc());
                let session = client.open_session(CacheMode::Cold).unwrap();
                barrier.wait();
                let (mut ok, mut shed) = (0u64, 0u64);
                for _ in 0..40 {
                    let resp = client
                        .query(QuerySpec {
                            session,
                            algo: JoinAlgo::Chj,
                            pat_pct: 10,
                            prov_pct: 90,
                            deadline_nanos: 0,
                        })
                        .unwrap();
                    match resp {
                        Response::QueryOk { .. } => ok += 1,
                        Response::Overloaded { queue_depth, shard } => {
                            assert_eq!(queue_depth, 1);
                            assert_eq!(shard, tq_server::SHARD_SELF);
                            shed += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
                assert_eq!(leaked, 0);
                (ok, shed)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    for h in handles {
        let (o, s) = h.join().unwrap();
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, clients as u64 * 40, "every query was answered");
    assert!(ok > 0, "a saturated server must still make progress");
    assert!(
        shed > 0,
        "8 closed-loop clients against 1 worker + depth-1 queue must shed"
    );
    let stats = server.stats();
    assert_eq!(stats.queries_ok, ok);
    assert_eq!(stats.queries_shed, shed);
    assert_eq!(server.open_sessions(), 0);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

// ---------------------------------------------------------------------
// Commit-path interleavings: the MVCC epoch protocol under real racing
// threads, over the wire protocol (the session-level unit tests in
// `src/session.rs` cover the same transitions sequentially).
// ---------------------------------------------------------------------

/// Runs `update Patients set num = num + 1 where mrn < K(sel)` on an
/// open session and asserts it succeeded.
fn update_patients(client: &mut Client<tq_server::DuplexStream>, session: u64, sel_pct: u32) {
    match client
        .update(session, UpdateTarget::Patients, sel_pct, 1, 0)
        .unwrap()
    {
        Response::UpdateOk { updated, .. } => assert!(updated > 0, "update matched no rows"),
        other => panic!("expected UpdateOk, got {other:?}"),
    }
}

#[test]
fn overlapping_commits_race_to_exactly_one_winner() {
    let base = base_db();
    // The loadgen write (`num += 1`) never touches a join key, so the
    // read workload must stay byte-identical across committed epochs.
    let (want_results, want_stat) = serial_oracle(&base, JoinAlgo::Chj, 10, 90);
    let server = Arc::new(Server::start(base, ServerConfig::default()));

    // A warm read session opened *before* any commit: it must re-pin
    // to the winning epoch on its next query without being told.
    let mut bystander = Client::new(server.connect_in_proc());
    let bystander_session = bystander.open_session(CacheMode::Warm).unwrap();

    // Two sessions buffer overlapping Patients write-sets, then race
    // their commits through the barrier.
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::new(server.connect_in_proc());
                let session = client.open_session(CacheMode::Warm).unwrap();
                update_patients(&mut client, session, 10);
                barrier.wait();
                let first = client.commit(session).unwrap();
                // First-committer-wins: the loser was re-pinned onto the
                // winner's epoch, so an immediate retry must land.
                let retry = match &first {
                    Response::Aborted { .. } => {
                        update_patients(&mut client, session, 10);
                        Some(client.commit(session).unwrap())
                    }
                    _ => None,
                };
                let (_drained, leaked, uncommitted) = client.close_session(session).unwrap();
                assert_eq!(leaked, 0);
                assert_eq!(uncommitted, 0, "a committed session has nothing to discard");
                (first, retry)
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Exactly one Committed and one typed Aborted naming the winner.
    let committed: Vec<_> = outcomes
        .iter()
        .filter_map(|(first, _)| match first {
            Response::Committed { epoch, pages } => Some((*epoch, *pages)),
            _ => None,
        })
        .collect();
    let aborted: Vec<_> = outcomes
        .iter()
        .filter_map(|(first, _)| match first {
            Response::Aborted {
                conflict_file,
                conflict_epoch,
            } => Some((conflict_file.clone(), *conflict_epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(committed.len(), 1, "exactly one commit wins: {outcomes:?}");
    assert_eq!(aborted.len(), 1, "exactly one commit aborts: {outcomes:?}");
    let (win_epoch, win_pages) = committed[0];
    assert_eq!(win_epoch, 1, "the winner publishes the first epoch");
    assert!(win_pages > 0, "an update write-set has pages");
    let (conflict_file, conflict_epoch) = aborted[0].clone();
    assert!(!conflict_file.is_empty(), "the conflict names its file");
    assert_eq!(conflict_epoch, win_epoch, "the conflict names the winner");

    // The loser's retry (now based on epoch 1) published epoch 2.
    let retry = outcomes
        .iter()
        .find_map(|(_, retry)| retry.clone())
        .expect("the aborted session retried");
    match retry {
        Response::Committed { epoch, pages } => {
            assert_eq!(epoch, 2, "the retry commits on top of the winner");
            assert!(pages > 0);
        }
        other => panic!("retry must commit cleanly, got {other:?}"),
    }
    assert_eq!(server.current_epoch(), 2);
    let stats = server.stats();
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.commit_aborts, 1);

    // The idle warm session re-pins on its next query; its read-only
    // commit then reports the newest epoch, proving it observes the
    // published pages.
    let resp = bystander
        .query(QuerySpec {
            session: bystander_session,
            algo: JoinAlgo::Chj,
            pat_pct: 10,
            prov_pct: 90,
            deadline_nanos: 0,
        })
        .unwrap();
    assert!(matches!(resp, Response::QueryOk { .. }));
    match bystander.commit(bystander_session).unwrap() {
        Response::Committed { epoch, pages } => {
            assert_eq!(epoch, 2, "warm session re-pinned to the newest epoch");
            assert_eq!(pages, 0, "a read-only commit publishes nothing");
        }
        other => panic!("expected read-only Committed, got {other:?}"),
    }
    bystander.close_session(bystander_session).unwrap();
    drop(bystander);

    // num is not a join key and the rewrites are fixed-width in-place:
    // a cold session over the committed state reproduces the base
    // oracle's Stat byte for byte.
    let (results, stat, leaked) = run_one(&server, CacheMode::Cold, JoinAlgo::Chj, 10, 90);
    assert_eq!(leaked, 0);
    assert_eq!(
        results, want_results,
        "committed writes changed a result set"
    );
    assert_eq!(stat, want_stat, "committed writes perturbed read Stats");

    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn disjoint_commits_both_publish() {
    let base = base_db();
    let server = Arc::new(Server::start(base, ServerConfig::default()));
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [UpdateTarget::Patients, UpdateTarget::Providers]
        .into_iter()
        .map(|target| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::new(server.connect_in_proc());
                let session = client.open_session(CacheMode::Warm).unwrap();
                // Patients: num += 1 (dirties Patients + the num index).
                // Providers: upin += 0, a touch-update that dirties only
                // the Providers data file — disjoint from the other
                // session's write-set.
                let delta = match target {
                    UpdateTarget::Patients => 1,
                    UpdateTarget::Providers => 0,
                };
                match client.update(session, target, 10, delta, 0).unwrap() {
                    Response::UpdateOk { updated, .. } => assert!(updated > 0),
                    other => panic!("expected UpdateOk, got {other:?}"),
                }
                barrier.wait();
                let resp = client.commit(session).unwrap();
                let (_drained, leaked, uncommitted) = client.close_session(session).unwrap();
                assert_eq!(leaked, 0);
                assert_eq!(uncommitted, 0);
                resp
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Disjoint write-sets never conflict: both commits land, in either
    // order, publishing epochs 1 and 2.
    let mut epochs = Vec::new();
    for resp in &outcomes {
        match resp {
            Response::Committed { epoch, pages } => {
                assert!(*pages > 0);
                epochs.push(*epoch);
            }
            other => panic!("disjoint commit must land, got {other:?}"),
        }
    }
    epochs.sort_unstable();
    assert_eq!(epochs, vec![1, 2]);
    assert_eq!(server.current_epoch(), 2);
    let stats = server.stats();
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.commit_aborts, 0);
    Arc::try_unwrap(server).ok().unwrap().shutdown();
}

#[test]
fn commit_after_deadline_cancelled_update_is_read_only() {
    let server = Server::start(base_db(), ServerConfig::default());
    let mut client = Client::new(server.connect_in_proc());
    let session = client.open_session(CacheMode::Warm).unwrap();

    // 1ns of simulated time: the statement cancels mid-flight and the
    // session is refilled from its base epoch — the half-applied
    // transaction dies with the discarded clone.
    let resp = client
        .update(session, UpdateTarget::Patients, 100, 1, 1)
        .unwrap();
    assert!(
        matches!(resp, Response::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {resp:?}"
    );

    // A commit racing in right after the cancellation finds a clean
    // session: read-only re-pin, no epoch published.
    match client.commit(session).unwrap() {
        Response::Committed { epoch, pages } => {
            assert_eq!(epoch, 0, "a cancelled transaction publishes nothing");
            assert_eq!(pages, 0);
        }
        other => panic!("expected read-only Committed, got {other:?}"),
    }
    assert_eq!(server.current_epoch(), 0);

    // The session is fully usable afterwards: the same statement,
    // un-deadlined, buffers and commits normally.
    update_patients(&mut client, session, 100);
    match client.commit(session).unwrap() {
        Response::Committed { epoch, pages } => {
            assert_eq!(epoch, 1);
            assert!(pages > 0);
        }
        other => panic!("expected Committed, got {other:?}"),
    }
    let (_drained, leaked, uncommitted) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0);
    assert_eq!(uncommitted, 0);
    let stats = server.stats();
    assert_eq!(stats.queries_deadline_exceeded, 1);
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.rollbacks, 0);
    drop(client);
    server.shutdown();
}

#[test]
fn close_with_uncommitted_writes_reports_the_discarded_pages() {
    let server = Server::start(base_db(), ServerConfig::default());
    let mut client = Client::new(server.connect_in_proc());

    let session = client.open_session(CacheMode::Warm).unwrap();
    update_patients(&mut client, session, 10);
    // Close without commit: the report counts the pages about to be
    // thrown away, so the load generator can see write leaks.
    let (_drained, leaked, uncommitted) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0);
    assert!(uncommitted > 0, "buffered writes must be reported at close");
    assert_eq!(
        server.current_epoch(),
        0,
        "closing an uncommitted session publishes nothing"
    );

    // An explicit abort discards the same pages and closes clean.
    let session = client.open_session(CacheMode::Warm).unwrap();
    update_patients(&mut client, session, 10);
    let discarded = client.abort(session).unwrap();
    assert_eq!(
        discarded, uncommitted,
        "abort and close discard the same write-set"
    );
    let (_drained, leaked, after_abort) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0);
    assert_eq!(after_abort, 0, "an aborted session has nothing left");
    assert_eq!(server.current_epoch(), 0);
    let stats = server.stats();
    assert_eq!(stats.commits, 0);
    assert_eq!(stats.rollbacks, 1);
    drop(client);
    server.shutdown();
}

#[test]
fn served_chains_match_the_serial_oracle_for_every_policy() {
    let base = base_db();
    // Serial oracles: one cold chain cell per (depth, policy) through
    // the same measure code path the server uses.
    let mut oracles = Vec::new();
    for depth in [2u32, 3, 4] {
        for policy in PlannerPolicy::all() {
            let mut db = base.clone();
            let cell = run_chain_cell(&mut db, depth, 30, 60, policy, None).unwrap();
            oracles.push((
                depth,
                policy,
                cell.results,
                chain_stat_record(&db, &cell, depth, 30, 60),
            ));
        }
    }
    let server = Server::start(base, ServerConfig::default());
    let mut client = Client::new(server.connect_in_proc());
    for (depth, policy, want_results, want_stat) in &oracles {
        let session = client.open_session(CacheMode::Cold).unwrap();
        let resp = client
            .chain(ChainQuerySpec {
                session,
                depth: *depth,
                pat_pct: 30,
                prov_pct: 60,
                policy: *policy,
                deadline_nanos: 0,
            })
            .unwrap();
        let (results, stat) = match resp {
            Response::QueryOk { results, stat } => (results, *stat),
            other => panic!("expected QueryOk, got {other:?}"),
        };
        assert_eq!(results, *want_results, "depth {depth} {policy:?}");
        assert_eq!(stat, *want_stat, "depth {depth} {policy:?}");
        let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
        assert_eq!(leaked, 0);
    }
    // All three policies agree on the result count at each depth.
    for depth in [2u32, 3, 4] {
        let counts: Vec<u64> = oracles
            .iter()
            .filter(|(d, ..)| d == &depth)
            .map(|&(_, _, r, _)| r)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "depth {depth}: {counts:?}"
        );
    }
    // A depth outside the served vocabulary is a typed error, and the
    // session survives to run a valid chain afterwards.
    let session = client.open_session(CacheMode::Cold).unwrap();
    let err = client.chain(ChainQuerySpec {
        session,
        depth: 9,
        pat_pct: 30,
        prov_pct: 60,
        policy: PlannerPolicy::Estimate,
        deadline_nanos: 0,
    });
    assert!(
        matches!(err, Err(tq_server::ClientError::Server(ref msg)) if msg.contains("depth 9")),
        "{err:?}"
    );
    let ok = client
        .chain(ChainQuerySpec {
            session,
            depth: 3,
            pat_pct: 30,
            prov_pct: 60,
            policy: PlannerPolicy::Simpli,
            deadline_nanos: 0,
        })
        .unwrap();
    assert!(matches!(ok, Response::QueryOk { .. }));
    client.close_session(session).unwrap();
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Every kind of engine work × every outcome of the one request path.
// ---------------------------------------------------------------------

/// Sends `work` through the client call of its kind.
fn send(
    client: &mut Client<DuplexStream>,
    session: u64,
    work: Work,
    deadline_nanos: u64,
) -> Result<Response, ClientError> {
    match work {
        Work::Join {
            algo,
            pat_pct,
            prov_pct,
        } => client.query(QuerySpec {
            session,
            algo,
            pat_pct,
            prov_pct,
            deadline_nanos,
        }),
        Work::Chain {
            depth,
            pat_pct,
            prov_pct,
            policy,
        } => client.chain(ChainQuerySpec {
            session,
            depth,
            pat_pct,
            prov_pct,
            policy,
            deadline_nanos,
        }),
        Work::Update {
            target,
            sel_pct,
            delta,
        } => client.update(session, target, sel_pct, delta, deadline_nanos),
    }
}

/// What the in-process measurement functions record for one cold run
/// of `work` on a private clone: `(count, Stat)`.
fn work_oracle(base: &Database, work: Work) -> (u64, Stat) {
    match work {
        Work::Join {
            algo,
            pat_pct,
            prov_pct,
        } => serial_oracle(base, algo, pat_pct, prov_pct),
        Work::Chain {
            depth,
            pat_pct,
            prov_pct,
            policy,
        } => {
            let mut db = base.clone();
            let cell = run_chain_cell(&mut db, depth, pat_pct, prov_pct, policy, None).unwrap();
            let stat = chain_stat_record(&db, &cell, depth, pat_pct, prov_pct);
            (cell.results, stat)
        }
        Work::Update {
            target,
            sel_pct,
            delta,
        } => {
            let mut db = base.clone();
            db.store.cold_restart();
            let cell = measure_update_current(&mut db, target, sel_pct, delta, None);
            let stat = update_stat_record(&db, &cell, sel_pct, delta, true);
            (cell.outcome.updated, stat)
        }
    }
}

/// The `(count, Stat)` of an ok reply, whichever shape it came in.
fn ok_reply(resp: Response) -> (u64, Stat) {
    match resp {
        Response::QueryOk { results, stat } => (results, *stat),
        Response::UpdateOk { updated, stat } => (updated, *stat),
        other => panic!("expected an ok reply, got {other:?}"),
    }
}

#[test]
fn every_kind_of_work_meets_every_outcome() {
    let base = base_db();
    let kinds = [
        Work::Join {
            algo: JoinAlgo::Chj,
            pat_pct: 10,
            prov_pct: 90,
        },
        Work::Chain {
            depth: 3,
            pat_pct: 30,
            prov_pct: 60,
            policy: PlannerPolicy::Estimate,
        },
        Work::Update {
            target: UpdateTarget::Patients,
            sel_pct: 10,
            delta: 1,
        },
    ];
    let server = Server::start(base.clone(), ServerConfig::default());
    let mut client = Client::new(server.connect_in_proc());
    for work in kinds {
        let want = work_oracle(&base, work);
        let session = client.open_session(CacheMode::Cold).unwrap();

        // 1ns of simulated time: cancelled at the first operator tick,
        // the session refilled from its base epoch...
        let resp = send(&mut client, session, work, 1).unwrap();
        assert!(
            matches!(resp, Response::DeadlineExceeded { .. }),
            "{work:?}: expected DeadlineExceeded, got {resp:?}"
        );
        // ...so the same session then answers exactly like the oracle.
        let got = ok_reply(send(&mut client, session, work, 0).unwrap());
        assert_eq!(got, want, "{work:?}: served reply drifted from the oracle");

        // An unknown session is a typed error for every kind.
        let err = send(&mut client, session + 1_000, work, 0);
        assert!(
            matches!(err, Err(ClientError::Server(ref msg)) if msg.contains("unknown session")),
            "{work:?}: {err:?}"
        );
        let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
        assert_eq!(leaked, 0, "{work:?} leaked handles");
    }

    // Invalid work is refused before anything runs: typed error, and
    // the session — never discarded — serves valid work right after.
    let session = client.open_session(CacheMode::Cold).unwrap();
    let bad = Work::Chain {
        depth: 7,
        pat_pct: 30,
        prov_pct: 60,
        policy: PlannerPolicy::Estimate,
    };
    let err = send(&mut client, session, bad, 0);
    assert!(
        matches!(err, Err(ClientError::Server(ref msg)) if msg.contains("depth 7")),
        "{err:?}"
    );
    let got = ok_reply(send(&mut client, session, kinds[1], 0).unwrap());
    assert_eq!(got, work_oracle(&base, kinds[1]));
    client.close_session(session).unwrap();

    assert_eq!(server.open_sessions(), 0);
    let stats = server.stats();
    assert_eq!(stats.queries_deadline_exceeded, 3);
    assert_eq!((stats.queries_ok, stats.updates_ok), (3, 1));
    assert_eq!(
        stats.queries_failed, 4,
        "three unknown sessions, one bad depth"
    );
    drop(client);
    server.shutdown();
}
