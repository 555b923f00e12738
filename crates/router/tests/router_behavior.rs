//! Router behavior under the ugly cases: unreachable shards, shards
//! dying mid-conversation, first-committer-wins losses spanning
//! shards, and the router's own admission edge.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tq_query::{JoinAlgo, JoinOptions, PlannerPolicy};
use tq_router::{Router, RouterConfig, ShardEndpoint};
use tq_server::measure::{
    chain_stat_record, measure_update_current, run_chain_cell, run_join_cell, stat_record,
    update_stat_record,
};
use tq_server::proto::{read_frame, write_frame, Request, Response};
use tq_server::{
    CacheMode, ChainQuerySpec, Client, ClientError, DuplexStream, QuerySpec, Server, ServerConfig,
    UpdateTarget, Work, SHARD_SELF,
};
use tq_statsdb::{merge_stats, Stat};
use tq_workload::{build, partition_database, BuildConfig, Database, DbShape, Organization};

fn base_db() -> Database {
    build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        500,
    ))
}

fn spec(session: u64) -> QuerySpec {
    QuerySpec {
        session,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
    }
}

/// A shard that was never reachable: every request that needs the
/// fleet fails typed, immediately, with the dead shard's index — the
/// router refuses partial answers rather than degrading silently.
#[test]
fn unreachable_shard_is_typed_not_hung() {
    let bases = partition_database(&base_db(), 2);
    let mut bases = bases.into_iter();
    let live = Arc::new(Server::start(
        bases.next().unwrap(),
        ServerConfig::default(),
    ));
    // Bind-then-drop reserves an address nobody is listening on.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let router = Router::start_with_endpoints(
        vec![
            ShardEndpoint::Local(Arc::clone(&live)),
            ShardEndpoint::Tcp(dead_addr),
        ],
        RouterConfig::default(),
    );

    // Raw frames: the typed failure must surface on the wire exactly.
    let mut conn = router.connect_in_proc();
    write_frame(
        &mut conn,
        &Request::Hello {
            mode: CacheMode::Cold,
        }
        .encode(),
    )
    .unwrap();
    let resp = Response::decode(&read_frame(&mut conn).unwrap()).unwrap();
    let Response::ShardUnavailable { shard, detail } = resp else {
        panic!("dead shard answered {resp:?}");
    };
    assert_eq!(shard, 1, "the failure names the dead shard");
    assert!(detail.contains("connect failed"), "detail: {detail:?}");

    // Still typed — and still shard 1 — on every later attempt.
    write_frame(
        &mut conn,
        &Request::Hello {
            mode: CacheMode::Cold,
        }
        .encode(),
    )
    .unwrap();
    let resp = Response::decode(&read_frame(&mut conn).unwrap()).unwrap();
    assert!(
        matches!(resp, Response::ShardUnavailable { shard: 1, .. }),
        "second attempt answered {resp:?}"
    );

    assert_eq!(router.stats().shard_unavailable, 2);
    // Each failed Hello did open a session on the live shard; the
    // router closed it again rather than leaking the pinned clone.
    assert_eq!(live.open_sessions(), 0);
    drop(conn);
    router.shutdown();
    Arc::try_unwrap(live).ok().expect("sole owner").shutdown();
}

/// A shard that dies mid-conversation: the session opened fine, then
/// the shard hangs up before answering a query. The router reports the
/// shard, keeps the link down (sticky), and never returns a partial
/// result — and the healthy shard's link stays in lockstep throughout.
#[test]
fn shard_death_mid_conversation_degrades_sticky() {
    let bases = partition_database(&base_db(), 2);
    let mut bases = bases.into_iter();
    let live = Arc::new(Server::start(
        bases.next().unwrap(),
        ServerConfig::default(),
    ));

    // A fake shard: speaks the protocol for exactly one Hello, then
    // hangs up on whatever arrives next.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap();
        assert!(matches!(
            Request::decode(&hello).unwrap(),
            Request::Hello { .. }
        ));
        write_frame(&mut conn, &Response::SessionOpened { session: 7 }.encode()).unwrap();
        // Swallow the next request and die without replying.
        let _ = read_frame(&mut conn);
    });

    let router = Router::start_with_endpoints(
        vec![
            ShardEndpoint::Local(Arc::clone(&live)),
            ShardEndpoint::Tcp(addr),
        ],
        RouterConfig::default(),
    );
    let mut client = Client::new(router.connect_in_proc());
    let session = client
        .open_session(CacheMode::Cold)
        .expect("both shards up");

    let resp = client.query(spec(session)).expect("typed, not a hang");
    let Response::ShardUnavailable { shard, detail } = resp else {
        panic!("dying shard answered {resp:?}");
    };
    assert_eq!(shard, 1);
    assert!(detail.contains("read failed"), "detail: {detail:?}");

    // Sticky: the shard never comes back on this connection, and the
    // router keeps refusing rather than answering from one shard.
    let resp = client.query(spec(session)).expect("still typed");
    assert!(matches!(resp, Response::ShardUnavailable { shard: 1, .. }));

    fake.join().unwrap();
    drop(client);
    router.shutdown();
    Arc::try_unwrap(live).ok().expect("sole owner").shutdown();
}

/// First-committer-wins across the fleet: two sessions write the same
/// pages everywhere; the loser's commit comes back as a typed
/// multi-shard abort naming every losing shard, and the session is
/// rolled back and usable afterwards.
#[test]
fn losing_commit_is_a_typed_multi_shard_abort() {
    let base = base_db();
    let shards = 2u32;
    let router = Router::start_partitioned(&base, shards, RouterConfig::default());

    let mut winner = Client::new(router.connect_in_proc());
    let mut loser = Client::new(router.connect_in_proc());
    let ws = winner.open_session(CacheMode::Warm).unwrap();
    let ls = loser.open_session(CacheMode::Warm).unwrap();

    // Both sessions update the same patient selection on every shard.
    for (client, session) in [(&mut winner, ws), (&mut loser, ls)] {
        let resp = client
            .update(session, UpdateTarget::Patients, 10, 1, 0)
            .expect("update");
        assert!(matches!(resp, Response::UpdateOk { .. }), "got {resp:?}");
    }

    // The winner commits everywhere: one merged Committed.
    let resp = winner.commit(ws).expect("commit");
    let Response::Committed { epoch, pages } = resp else {
        panic!("winner got {resp:?}");
    };
    assert!(epoch >= 1);
    assert!(pages > 0, "a write commit publishes pages");

    // The loser validated against the pre-commit epoch on every shard.
    let resp = loser.commit(ls).expect("commit");
    let Response::ShardsAborted { committed, aborts } = resp else {
        panic!("loser got {resp:?}");
    };
    assert_eq!(
        committed.len() + aborts.len(),
        shards as usize,
        "every shard is accounted for"
    );
    assert!(!aborts.is_empty(), "the loser lost somewhere");
    for abort in &aborts {
        assert!(abort.shard < shards);
        assert!(!abort.conflict_file.is_empty());
        assert!(abort.conflict_epoch >= 1);
    }

    // The losing session was rolled back, not poisoned: it still reads.
    let resp = loser.query(spec(ls)).expect("query after abort");
    assert!(matches!(resp, Response::QueryOk { .. }), "got {resp:?}");

    for (mut client, session) in [(winner, ws), (loser, ls)] {
        client.close_session(session).expect("close");
    }
    router.shutdown();
}

/// The router's own admission edge: with one in-flight slot and
/// concurrent closed-loop clients, overflow is shed at the router
/// (`shard == SHARD_SELF`) before any shard sees it, and the router's
/// counters agree exactly with what the clients observed.
#[test]
fn router_edge_sheds_before_the_shards() {
    let base = base_db();
    let router = Arc::new(Router::start_partitioned(
        &base,
        2,
        RouterConfig {
            workers_per_shard: 1,
            // Deep shard queues: any shed in this test is the router's.
            queue_depth: 64,
            max_inflight: 1,
            parallel: 1,
        },
    ));

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let conn = router.connect_in_proc();
            let (ok, shed) = (Arc::clone(&ok), Arc::clone(&shed));
            std::thread::spawn(move || {
                let mut client = Client::new(conn);
                let session = client.open_session(CacheMode::Warm).unwrap();
                for _ in 0..30 {
                    match client.query(spec(session)).expect("query") {
                        Response::QueryOk { .. } => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::Overloaded { shard, queue_depth } => {
                            assert_eq!(shard, SHARD_SELF, "sheds happen at the router edge");
                            assert_eq!(queue_depth, 1, "reports the router's gate size");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("query answered {other:?}"),
                    }
                }
                client.close_session(session).expect("close");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = router.stats();
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, 4 * 30, "every query was answered one way");
    assert!(
        shed > 0,
        "concurrent clients against one slot never overlapped"
    );
    assert_eq!(stats.shed_router, shed, "router counted what clients saw");
    assert_eq!(
        stats.routed, ok,
        "admitted = completed (queries are the only gated traffic)"
    );
    assert_eq!(stats.shard_unavailable, 0);
    // No shard ever shed: the deep shard queues swallowed everything
    // the router admitted.
    for shard in router.shards() {
        assert_eq!(shard.stats().queries_shed, 0);
    }
    Arc::try_unwrap(router)
        .ok()
        .expect("threads joined")
        .shutdown();
}

/// Sessions are validated at the router before anything is fanned out.
#[test]
fn unknown_session_is_a_typed_error() {
    let base = base_db();
    let router = Router::start_partitioned(&base, 2, RouterConfig::default());
    let mut client = Client::new(router.connect_in_proc());
    match client.query(spec(999)) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("unknown session"), "msg: {msg:?}")
        }
        other => panic!("got {other:?}"),
    }
    drop(client);
    router.shutdown();
}

// ---------------------------------------------------------------------
// Every kind of engine work × every outcome, through two shards.
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

/// What each shard, measured alone and cold by the in-process
/// measurement functions, records for `work` — summed and merged the
/// way the router must: `(count, Stat)`.
fn merged_oracle(shards: &[Database], work: Work) -> (u64, Stat) {
    let mut count = 0;
    let parts: Vec<Stat> = shards
        .iter()
        .map(|shard| {
            let mut db = shard.clone();
            let (n, stat) = match work {
                Work::Join {
                    algo,
                    pat_pct,
                    prov_pct,
                } => {
                    let opts = JoinOptions::default();
                    let cell = run_join_cell(&mut db, algo, pat_pct, prov_pct, &opts);
                    (cell.results, stat_record(&db, &cell, pat_pct, prov_pct))
                }
                Work::Chain {
                    depth,
                    pat_pct,
                    prov_pct,
                    policy,
                } => {
                    let cell =
                        run_chain_cell(&mut db, depth, pat_pct, prov_pct, policy, None).unwrap();
                    let stat = chain_stat_record(&db, &cell, depth, pat_pct, prov_pct);
                    (cell.results, stat)
                }
                Work::Update {
                    target,
                    sel_pct,
                    delta,
                } => {
                    db.store.cold_restart();
                    let cell = measure_update_current(&mut db, target, sel_pct, delta, None);
                    let stat = update_stat_record(&db, &cell, sel_pct, delta, true);
                    (cell.outcome.updated, stat)
                }
            };
            count += n;
            stat
        })
        .collect();
    (count, merge_stats(&parts).expect("at least one shard"))
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
fn every_kind_of_work_meets_every_outcome_through_the_router() {
    let shards = partition_database(&base_db(), 2);
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
    let router = Router::start(shards.clone(), RouterConfig::default());
    let mut client = Client::new(router.connect_in_proc());
    for work in kinds {
        let want = merged_oracle(&shards, work);
        let session = client.open_session(CacheMode::Cold).unwrap();

        // A 1ns budget fires on every shard; the merged reply is the
        // typed deadline, and each shard refilled its session...
        let resp = send(&mut client, session, work, 1).unwrap();
        assert!(
            matches!(resp, Response::DeadlineExceeded { .. }),
            "{work:?}: expected DeadlineExceeded, got {resp:?}"
        );
        // ...so the same session then answers exactly the merge of the
        // per-shard oracles.
        let got = ok_reply(send(&mut client, session, work, 0).unwrap());
        assert_eq!(got, want, "{work:?}: routed reply drifted from the oracle");

        // An unknown session never reaches a shard.
        let err = send(&mut client, session + 1_000, work, 0);
        assert!(
            matches!(err, Err(ClientError::Server(ref msg)) if msg.contains("unknown session")),
            "{work:?}: {err:?}"
        );
        let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
        assert_eq!(leaked, 0, "{work:?} leaked handles");
    }

    // Invalid work: every shard refuses it before running anything, the
    // merged reply is the typed error, and the session stays usable.
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
    assert_eq!(got, merged_oracle(&shards, kinds[1]));
    client.close_session(session).unwrap();

    for shard in router.shards() {
        assert_eq!(shard.open_sessions(), 0);
        assert_eq!(shard.stats().queries_deadline_exceeded, 3);
    }
    assert_eq!(router.stats().shard_unavailable, 0);
    drop(client);
    router.shutdown();
}

/// One cold `algo` join at (10, 90) on a fresh session, closed with no
/// leaked handle: `(count, Stat)`.
fn cold_join<S: Read + Write>(client: &mut Client<S>, algo: JoinAlgo) -> (u64, Stat) {
    let session = client.open_session(CacheMode::Cold).unwrap();
    let got = ok_reply(
        client
            .query(QuerySpec {
                algo,
                ..spec(session)
            })
            .unwrap(),
    );
    let (_drained, leaked, _uncommitted) = client.close_session(session).unwrap();
    assert_eq!(leaked, 0, "{algo:?} leaked handles");
    got
}

/// TCP end to end: a client on a socket to `Router::listen`, the
/// router on sockets to two `Server::listen` shards. Every join
/// answers exactly what the same shards answer through an in-process
/// router, and shutdown hangs up a peer that is still connected.
#[test]
fn tcp_serving_matches_the_in_process_answer() {
    let shards = partition_database(&base_db(), 2);
    let servers: Vec<Server> = shards
        .iter()
        .map(|db| Server::start(db.clone(), ServerConfig::default()))
        .collect();
    let shard_addrs: Vec<_> = servers
        .iter()
        .map(|server| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            server.listen(listener);
            addr
        })
        .collect();
    let endpoints = shard_addrs.iter().map(|&a| ShardEndpoint::Tcp(a)).collect();
    let router = Router::start_with_endpoints(endpoints, RouterConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    router.listen(listener);
    let in_proc = Router::start(shards, RouterConfig::default());

    let mut tcp = Client::new(TcpStream::connect(addr).unwrap());
    let mut local = Client::new(in_proc.connect_in_proc());
    for algo in JoinAlgo::all() {
        let want = cold_join(&mut local, algo);
        assert!(want.0 > 0, "{algo:?} found nothing");
        assert_eq!(cold_join(&mut tcp, algo), want, "{algo:?} over TCP");
    }

    drop((tcp, local));
    router.shutdown();
    in_proc.shutdown();
    // A peer still connected at shutdown is hung up, not waited for.
    let mut lingering = TcpStream::connect(shard_addrs[0]).unwrap();
    for server in servers {
        assert_eq!(server.open_sessions(), 0);
        assert_eq!(server.stats().queries_ok, 4);
        server.shutdown();
    }
    assert_eq!(lingering.read(&mut [0u8; 1]).unwrap(), 0);
}
