//! Short closed-loop serving run: the loadgen path end to end, checked
//! for forward progress, zero errors, zero leaked handles, and an exact
//! latency-CSV round trip.

use std::time::Duration;

use tq_bench::{build_db, ServeConfig};
use tq_query::JoinAlgo;
use tq_server::CacheMode;
use tq_statsdb::{parse_latency_csv, to_latency_csv};
use tq_workload::{DbShape, Organization};

#[test]
fn closed_loop_serve_smoke() {
    let base = build_db(DbShape::Db2, Organization::ClassClustered, 300);
    let cfg = ServeConfig {
        concurrency: 4,
        workers: 2,
        queue_depth: 4,
        shards: 1,
        duration: Duration::from_millis(300),
        // No warmup: with every sample measured, the client tally must
        // agree exactly with the server's own counters below.
        warmup: Duration::ZERO,
        mode: CacheMode::Warm,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
        write_mix: 0,
        parallel: 1,
    };
    let outcome = tq_bench::run_serve(base, &cfg);

    assert!(outcome.stat.queries_ok > 0, "no queries completed");
    assert_eq!(
        outcome.stat.errors, 0,
        "serving errors: {:?}",
        outcome.server
    );
    assert_eq!(outcome.leaked_handles, 0, "sessions leaked handles");
    assert_eq!(outcome.server.queries_failed, 0);
    assert_eq!(
        outcome.server.sessions_opened,
        outcome.server.sessions_closed
    );
    assert_eq!(outcome.server.queries_ok, outcome.stat.queries_ok);

    // Latency percentiles are ordered and bracketed by min/max.
    let s = &outcome.stat;
    assert!(s.min_nanos <= s.p50_nanos);
    assert!(s.p50_nanos <= s.p95_nanos);
    assert!(s.p95_nanos <= s.p99_nanos);
    assert!(s.p99_nanos <= s.max_nanos);

    // The CSV export is exact: all-integer fields, lossless round trip.
    let csv = to_latency_csv(std::slice::from_ref(s));
    let back = parse_latency_csv(&csv).expect("latency CSV re-parses");
    assert_eq!(back, vec![s.clone()]);

    // Unsharded, so nothing sheds at a router edge.
    assert_eq!(s.shed_router, 0);
    // A read-only run reports a well-formed, empty write column.
    assert_eq!(s.commits, 0);
    assert_eq!(s.aborts, 0);
    assert_eq!(s.abort_rate(), 0.0);
}

#[test]
fn mixed_read_write_serve_smoke() {
    let base = build_db(DbShape::Db2, Organization::ClassClustered, 300);
    let cfg = ServeConfig {
        concurrency: 4,
        workers: 2,
        queue_depth: 4,
        shards: 1,
        duration: Duration::from_millis(400),
        warmup: Duration::ZERO,
        mode: CacheMode::Warm,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
        write_mix: 50,
        parallel: 1,
    };
    let outcome = tq_bench::run_serve(base, &cfg);
    let s = &outcome.stat;

    assert_eq!(s.errors, 0, "serving errors: {:?}", outcome.server);
    assert_eq!(outcome.leaked_handles, 0, "sessions leaked handles");
    assert!(s.commits > 0, "no write transaction ever committed");
    // Client-side commit/abort tallies agree with the server's (no
    // warmup, so every sample was measured).
    assert_eq!(s.commits, outcome.server.commits);
    assert_eq!(s.aborts, outcome.server.commit_aborts);
    // Every write that got through admission either committed or
    // aborted; the abort rate is a proper fraction of the attempts.
    assert!(s.abort_rate() >= 0.0 && s.abort_rate() < 1.0);
    // Reads kept flowing alongside the writes.
    assert!(s.queries_ok > 0, "mixed run starved its readers");
    // The label names the mix; the CSV still round-trips exactly.
    assert!(s.label.contains("write=50%"), "label: {:?}", s.label);
    let csv = to_latency_csv(std::slice::from_ref(s));
    let back = parse_latency_csv(&csv).expect("latency CSV re-parses");
    assert_eq!(back, vec![s.clone()]);
}

#[test]
fn sharded_serve_smoke() {
    let base = build_db(DbShape::Db2, Organization::ClassClustered, 300);
    let cfg = ServeConfig {
        concurrency: 4,
        workers: 2,
        queue_depth: 4,
        shards: 2,
        duration: Duration::from_millis(400),
        warmup: Duration::ZERO,
        mode: CacheMode::Warm,
        algo: JoinAlgo::Chj,
        pat_pct: 10,
        prov_pct: 90,
        deadline_nanos: 0,
        write_mix: 20,
        parallel: 1,
    };
    let outcome = tq_bench::run_serve(base, &cfg);
    let s = &outcome.stat;

    assert_eq!(s.errors, 0, "sharded serving errors: {:?}", outcome.server);
    assert_eq!(outcome.leaked_handles, 0, "sessions leaked handles");
    assert!(s.queries_ok > 0, "no queries completed through the router");
    assert!(s.label.contains("shards=2"), "label: {:?}", s.label);

    // The summed shard counters see one engine session per shard per
    // client session, and every one of them closed.
    assert_eq!(outcome.server.queries_failed, 0);
    assert_eq!(
        outcome.server.sessions_opened,
        outcome.server.sessions_closed
    );
    assert_eq!(
        outcome.server.sessions_opened,
        u64::from(cfg.concurrency) * 2
    );

    // The router saw the traffic, and router-edge sheds are a subset of
    // the total (admission also exists at each shard's queue).
    let router = outcome.router.expect("sharded run exposes router stats");
    assert!(router.routed >= s.queries_ok);
    assert_eq!(router.shed_router, s.shed_router);
    assert_eq!(router.shard_unavailable, 0);
    assert!(s.shed_router <= s.queries_shed);

    // The CSV round trip stays exact with the shard-shed column live.
    let csv = to_latency_csv(std::slice::from_ref(s));
    let back = parse_latency_csv(&csv).expect("latency CSV re-parses");
    assert_eq!(back, vec![s.clone()]);
}
