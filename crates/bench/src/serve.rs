//! The closed-loop serving experiment: N clients, run [`fan_out`] N
//! wide, drive the query service until a shared end instant, each
//! running open-session → query → … → close-session over the wire
//! protocol, recording per-query wall-clock latency into a
//! log-scaled histogram.
//!
//! "Closed loop" means each client issues its next query only when the
//! previous one answers — offered load adapts to service capacity, so
//! the interesting outputs are throughput, the latency percentiles,
//! and (once concurrency outruns `workers + queue_depth`) the shed
//! rate. The `loadgen` binary is a thin CLI over [`run_serve`]; the
//! serving smoke test calls it directly.
//!
//! Two refinements over the naive loop:
//!
//! * **Warmup exclusion.** Samples taken inside the warmup window
//!   measure thread spin-up and cold caches, not steady state; they are
//!   discarded entirely, and the exported duration (the throughput
//!   denominator) is the *measured* window only.
//! * **Write mix.** With `write_mix > 0`, each client flips a seeded
//!   coin per iteration: heads runs a write transaction (one update
//!   statement + commit) instead of a query. A commit losing
//!   first-committer-wins validation counts as an *abort* — a distinct
//!   outcome column, never folded into ok or errors, so the abort rate
//!   under contention is a first-class result.

use std::panic::resume_unwind;
use std::time::{Duration, Instant};

use tq_query::{fan_out, JoinAlgo};
use tq_router::{Router, RouterConfig, RouterStatsSnapshot};
use tq_server::{
    CacheMode, Client, QuerySpec, Response, Server, ServerConfig, ServerStatsSnapshot,
    UpdateTarget, SHARD_SELF,
};
use tq_simrng::SimRng;
use tq_statsdb::{LatencyStat, LogHistogram};
use tq_workload::Database;

/// One serving run's shape.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Closed-loop client threads.
    pub concurrency: u32,
    /// Server worker threads (split across shards when `shards > 1`).
    pub workers: usize,
    /// Admission-queue depth (0 = shed unless a worker is idle).
    pub queue_depth: usize,
    /// Engine shards. 1 serves the single-server path unchanged;
    /// `n > 1` partitions the database by Rid hash and serves through
    /// the scatter-gather router, giving each shard
    /// `max(1, workers / n)` workers so shard counts compete for the
    /// same core budget.
    pub shards: u32,
    /// Wall-clock duration to drive load for (warmup included).
    pub duration: Duration,
    /// Leading window whose samples are discarded (spin-up, cold
    /// caches). Clamped to `duration`.
    pub warmup: Duration,
    /// Cache discipline of every session.
    pub mode: CacheMode,
    /// The join every client runs.
    pub algo: JoinAlgo,
    /// Patient-side selectivity (percent).
    pub pat_pct: u32,
    /// Provider-side selectivity (percent).
    pub prov_pct: u32,
    /// Per-query simulated-time deadline in nanoseconds (0 = none).
    pub deadline_nanos: u64,
    /// Percent of iterations that run a write transaction
    /// (update + commit) instead of a query; 0 = read-only.
    pub write_mix: u32,
    /// Morsel-parallel degree for every served join query
    /// (`TQ_PARALLEL`); forwarded to the server (or to every shard),
    /// whose worker pool is budgeted so `workers × parallel` stays
    /// within the host's cores.
    pub parallel: usize,
}

/// What a serving run produced.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The exportable latency summary (measured window only).
    pub stat: LatencyStat,
    /// The engine's own counters for the run (warmup included — the
    /// server doesn't know about the client-side window). Summed
    /// across shards in a sharded run.
    pub server: ServerStatsSnapshot,
    /// The router's counters (sharded runs only).
    pub router: Option<RouterStatsSnapshot>,
    /// Handles still pinned at any session close (0 in a correct run).
    pub leaked_handles: u64,
}

/// Per-client tally, merged into the run totals at join time.
#[derive(Default)]
struct ClientTally {
    hist: LogHistogram,
    shed: u64,
    shed_router: u64,
    deadline_exceeded: u64,
    errors: u64,
    commits: u64,
    aborts: u64,
    leaked: u64,
}

/// What the clients connect to: one server, or a router over shards.
/// Either way the conversation is the same wire protocol over the
/// same in-process duplex streams.
enum Front {
    Single(Server),
    Sharded(Router),
}

impl Front {
    fn connect(&self) -> tq_server::DuplexStream {
        match self {
            Front::Single(server) => server.connect_in_proc(),
            Front::Sharded(router) => router.connect_in_proc(),
        }
    }

    fn server_stats(&self) -> ServerStatsSnapshot {
        match self {
            Front::Single(server) => server.stats(),
            Front::Sharded(router) => {
                let mut sum = ServerStatsSnapshot::default();
                for shard in router.shards() {
                    let s = shard.stats();
                    sum.sessions_opened += s.sessions_opened;
                    sum.sessions_closed += s.sessions_closed;
                    sum.queries_ok += s.queries_ok;
                    sum.queries_shed += s.queries_shed;
                    sum.queries_deadline_exceeded += s.queries_deadline_exceeded;
                    sum.queries_failed += s.queries_failed;
                    sum.updates_ok += s.updates_ok;
                    sum.commits += s.commits;
                    sum.commit_aborts += s.commit_aborts;
                    sum.rollbacks += s.rollbacks;
                }
                sum
            }
        }
    }

    fn router_stats(&self) -> Option<RouterStatsSnapshot> {
        match self {
            Front::Single(_) => None,
            Front::Sharded(router) => Some(router.stats()),
        }
    }

    fn shutdown(self) {
        match self {
            Front::Single(server) => server.shutdown(),
            Front::Sharded(router) => router.shutdown(),
        }
    }
}

/// Runs one closed-loop serving experiment over a base snapshot.
pub fn run_serve(base: Database, cfg: &ServeConfig) -> ServeOutcome {
    let front = if cfg.shards > 1 {
        let router = Router::start_partitioned(
            &base,
            cfg.shards,
            RouterConfig {
                workers_per_shard: (cfg.workers / cfg.shards as usize).max(1),
                queue_depth: cfg.queue_depth,
                // The router's edge admits what a single server of the
                // same sizing would have in flight: workers running
                // plus a queue's worth waiting.
                max_inflight: cfg.workers + cfg.queue_depth,
                parallel: cfg.parallel,
            },
        );
        drop(base);
        Front::Sharded(router)
    } else {
        Front::Single(Server::start(
            base,
            ServerConfig {
                workers: cfg.workers,
                queue_depth: cfg.queue_depth,
                parallel: cfg.parallel,
            },
        ))
    };
    let started = Instant::now();
    let warmup = cfg.warmup.min(cfg.duration);
    let (measure_from, end) = (started + warmup, started + cfg.duration);
    let clients: Vec<_> = (0..cfg.concurrency)
        .map(|i| {
            let conn = front.connect();
            move || client_loop(conn, cfg, measure_from, end, i)
        })
        .collect();
    let mut t = ClientTally::default();
    for outcome in fan_out(clients, cfg.concurrency as usize) {
        let tally = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        t.hist.merge(&tally.hist);
        t.shed += tally.shed;
        t.shed_router += tally.shed_router;
        t.deadline_exceeded += tally.deadline_exceeded;
        t.errors += tally.errors;
        t.commits += tally.commits;
        t.aborts += tally.aborts;
        t.leaked += tally.leaked;
    }
    // Clients have hung up; export the *measured* window (warmup
    // excluded) — it is the throughput denominator, and counting the
    // discarded spin-up span would overstate capacity.
    let duration_nanos = started.elapsed().saturating_sub(warmup).as_nanos() as u64;
    let mode_label = match cfg.mode {
        CacheMode::Cold => "cold",
        CacheMode::Warm => "warm",
    };
    let write_label = if cfg.write_mix > 0 {
        format!(" write={}%", cfg.write_mix)
    } else {
        String::new()
    };
    let shard_label = if cfg.shards > 1 {
        format!(" shards={}", cfg.shards)
    } else {
        String::new()
    };
    let stat = LatencyStat::from_histogram(
        format!(
            "{} pat={} prov={} {}{}{}",
            cfg.algo.label(),
            cfg.pat_pct,
            cfg.prov_pct,
            mode_label,
            write_label,
            shard_label
        ),
        cfg.concurrency,
        cfg.workers as u32,
        cfg.queue_depth as u32,
        duration_nanos,
        &t.hist,
        t.shed,
        t.shed_router,
        t.deadline_exceeded,
        t.errors,
        t.commits,
        t.aborts,
    );
    let server_stats = front.server_stats();
    let router_stats = front.router_stats();
    front.shutdown();
    ServeOutcome {
        stat,
        server: server_stats,
        router: router_stats,
        leaked_handles: t.leaked,
    }
}

fn client_loop(
    conn: tq_server::DuplexStream,
    cfg: &ServeConfig,
    measure_from: Instant,
    end: Instant,
    client_index: u32,
) -> ClientTally {
    let mut tally = ClientTally::default();
    // Behind a router, `Overloaded { shard: SHARD_SELF }` is the
    // router's own edge shedding; any concrete index is a shard queue.
    // Talking to a single server directly, SHARD_SELF *is* the shard.
    let routed = cfg.shards > 1;
    // Seeded per client: the read/write coin sequence is reproducible
    // for a given concurrency, independent of scheduling.
    let mut rng = SimRng::seed_from_u64(0xC11E47 ^ u64::from(client_index));
    let mut client = Client::new(conn);
    let session = match client.open_session(cfg.mode) {
        Ok(s) => s,
        Err(_) => {
            tally.errors += 1;
            return tally;
        }
    };
    while Instant::now() < end {
        let write = (rng.index(100) as u32) < cfg.write_mix;
        let t0 = Instant::now();
        // Warmup samples are discarded entirely: neither the histogram
        // nor the outcome counters see them (errors excepted — an
        // error is a correctness failure whenever it happens).
        let measured = t0 >= measure_from;
        if write {
            write_transaction(&mut client, session, cfg, measured, t0, routed, &mut tally);
        } else {
            match client.query(QuerySpec {
                session,
                algo: cfg.algo,
                pat_pct: cfg.pat_pct,
                prov_pct: cfg.prov_pct,
                deadline_nanos: cfg.deadline_nanos,
            }) {
                Ok(Response::QueryOk { .. }) => {
                    if measured {
                        tally.hist.record(t0.elapsed().as_nanos() as u64);
                    }
                }
                Ok(Response::Overloaded { shard, .. }) => {
                    if measured {
                        tally.shed += 1;
                        if routed && shard == SHARD_SELF {
                            tally.shed_router += 1;
                        }
                    }
                    // Closed-loop retry: yield so shed arrivals don't
                    // spin the dispatcher while the queue stays full.
                    std::thread::yield_now();
                }
                Ok(Response::DeadlineExceeded { .. }) => {
                    if measured {
                        tally.deadline_exceeded += 1;
                    }
                }
                Ok(_) | Err(_) => {
                    tally.errors += 1;
                    return tally;
                }
            }
        }
    }
    match client.close_session(session) {
        Ok((_drained, leaked, _uncommitted)) => tally.leaked += leaked,
        Err(_) => tally.errors += 1,
    }
    tally
}

/// One write transaction: a Patients num-update plus a commit, measured
/// as a single latency sample. The num attribute is not a join key, so
/// committed writes never perturb the read queries' result sets —
/// contention is real (overlapping page sets) but reads stay stable.
fn write_transaction<S: std::io::Read + std::io::Write>(
    client: &mut Client<S>,
    session: u64,
    cfg: &ServeConfig,
    measured: bool,
    t0: Instant,
    routed: bool,
    tally: &mut ClientTally,
) {
    match client.update(
        session,
        UpdateTarget::Patients,
        cfg.pat_pct,
        1,
        cfg.deadline_nanos,
    ) {
        Ok(Response::UpdateOk { .. }) => {}
        Ok(Response::Overloaded { shard, .. }) => {
            if measured {
                tally.shed += 1;
                if routed && shard == SHARD_SELF {
                    tally.shed_router += 1;
                }
            }
            std::thread::yield_now();
            return;
        }
        Ok(Response::DeadlineExceeded { .. }) => {
            // The session was refilled from its base: nothing to
            // commit or roll back.
            if measured {
                tally.deadline_exceeded += 1;
            }
            return;
        }
        Ok(_) | Err(_) => {
            tally.errors += 1;
            return;
        }
    }
    match client.commit(session) {
        Ok(Response::Committed { .. }) => {
            if measured {
                tally.commits += 1;
                tally.hist.record(t0.elapsed().as_nanos() as u64);
            }
        }
        Ok(Response::Aborted { .. }) | Ok(Response::ShardsAborted { .. }) => {
            // Validation working as designed, not an error; the engine
            // already rolled the session back and re-pinned it. Behind
            // a router the abort arrives typed per shard.
            if measured {
                tally.aborts += 1;
            }
        }
        Ok(_) | Err(_) => tally.errors += 1,
    }
}
