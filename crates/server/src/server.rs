//! The query service: connection handling, and the one path from a
//! decoded request to its `Stat`.
//!
//! Layering (see DESIGN.md §2.7): connections speak the `proto` frame
//! vocabulary; a request that asks for engine work — join, chain or
//! update, all one [`Work`] value — goes through the `sched` admission
//! queue to a worker (`dispatch`); the worker checks the session's
//! database out of the `session` table, runs [`measure`] on it (the
//! *same* code path as the figure harness), and answers with the full
//! per-operator `Stat` (`execute`). Anything that unwinds out of the
//! engine — a fired deadline's [`Cancelled`] payload, or a defect's
//! panic — is caught there: the now-undefined database clone is
//! discarded, the session refilled with a fresh snapshot, and the reply
//! is typed (`DeadlineExceeded`, `Error`) instead of a hang.

use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Once};

use tq_query::join::parallel::panic_message;
use tq_query::{CancelToken, Cancelled};
use tq_workload::Database;

use crate::measure::{measure, MeasureError};
use crate::proto::{serve_frames, PartialStat, Request, Response, Work, SHARD_SELF};
use crate::sched::Scheduler;
use crate::session::{CommitOutcome, SessionManager};
use crate::transport::{ConnectionFront, DuplexStream};

/// Service sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission-queue depth; a query arriving at a full queue is shed.
    pub queue_depth: usize,
    /// Morsel-parallel degree for each served join query (`TQ_PARALLEL`).
    /// At 1 (the default) queries run the exact serial path. Above 1,
    /// each in-flight query occupies up to `parallel` OS threads, so
    /// [`Server::start`] budgets the worker pool down to keep
    /// `workers × parallel` within the host's cores (floor one worker).
    pub parallel: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 16,
            parallel: 1,
        }
    }
}

#[derive(Default)]
struct ServerStats {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    queries_ok: AtomicU64,
    queries_shed: AtomicU64,
    queries_deadline_exceeded: AtomicU64,
    queries_failed: AtomicU64,
    updates_ok: AtomicU64,
    commits: AtomicU64,
    commit_aborts: AtomicU64,
    rollbacks: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Queries completed.
    pub queries_ok: u64,
    /// Queries shed by admission control.
    pub queries_shed: u64,
    /// Queries cancelled by their deadline.
    pub queries_deadline_exceeded: u64,
    /// Queries answered with an error (unknown/busy session, …).
    pub queries_failed: u64,
    /// Update statements completed.
    pub updates_ok: u64,
    /// Commits validated and published (including read-only re-pins).
    pub commits: u64,
    /// Commits aborted by first-committer-wins validation.
    pub commit_aborts: u64,
    /// Explicit aborts (client-requested rollbacks).
    pub rollbacks: u64,
}

struct Inner {
    sessions: SessionManager,
    sched: Scheduler,
    stats: ServerStats,
    /// Morsel-parallel degree applied to every served join query.
    parallel: usize,
    /// The worker [`Server::fail_next_query`] armed, or [`NO_FAULT`].
    fail_next: AtomicUsize,
}

/// No worker: matches none, so a token carrying it fails nothing.
const NO_FAULT: usize = usize::MAX;

/// The query service. Owns the base snapshot, the session table, and
/// the worker pool; hands out connections over TCP or in-process
/// duplex streams (same protocol, same handler).
pub struct Server {
    inner: Arc<Inner>,
    front: ConnectionFront,
}

impl Server {
    /// Starts the service over a base database snapshot.
    ///
    /// With `config.parallel > 1` the worker pool is budgeted so that
    /// `workers × parallel` does not oversubscribe the host's cores
    /// (each in-flight query fans out to `parallel` morsel threads),
    /// with a floor of one worker. At `parallel == 1` the pool is
    /// sized by `config.workers` alone — serial queries spend their
    /// time in the simulated engine, not on distinct cores.
    pub fn start(base: Database, config: ServerConfig) -> Self {
        install_quiet_cancel_hook();
        let parallel = config.parallel.max(1);
        let workers = if parallel > 1 {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            config.workers.min((cores / parallel).max(1))
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            sessions: SessionManager::new(base),
            sched: Scheduler::new(workers, config.queue_depth),
            stats: ServerStats::default(),
            parallel,
            fail_next: AtomicUsize::new(NO_FAULT),
        });
        let conn_inner = Arc::clone(&inner);
        let front = ConnectionFront::new("tq-conn", move |conn| {
            serve_frames(conn, |req| handle_request(&conn_inner, req))
        });
        Self { inner, front }
    }

    /// Opens an in-process connection: returns the client end of a
    /// duplex pair whose server end is handled by a dedicated thread.
    /// Deterministic and socket-free — the transport tests and the
    /// load generator use this.
    pub fn connect_in_proc(&self) -> DuplexStream {
        self.front.connect_in_proc()
    }

    /// Serves the wire protocol on a bound TCP listener: each accepted
    /// connection gets its own handler thread, until [`shutdown`](Self::shutdown).
    pub fn listen(&self, listener: TcpListener) {
        self.front.listen(listener);
    }

    /// Service counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let s = &self.inner.stats;
        ServerStatsSnapshot {
            sessions_opened: s.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: s.sessions_closed.load(Ordering::Relaxed),
            queries_ok: s.queries_ok.load(Ordering::Relaxed),
            queries_shed: s.queries_shed.load(Ordering::Relaxed),
            queries_deadline_exceeded: s.queries_deadline_exceeded.load(Ordering::Relaxed),
            queries_failed: s.queries_failed.load(Ordering::Relaxed),
            updates_ok: s.updates_ok.load(Ordering::Relaxed),
            commits: s.commits.load(Ordering::Relaxed),
            commit_aborts: s.commit_aborts.load(Ordering::Relaxed),
            rollbacks: s.rollbacks.load(Ordering::Relaxed),
        }
    }

    /// The newest published epoch's number (0 until the first commit).
    pub fn current_epoch(&self) -> u64 {
        self.inner.sessions.current_epoch()
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.inner.sessions.open_count()
    }

    /// Published epochs the MVCC chain still holds for commit
    /// validation (see `SessionManager::retained_epochs`).
    #[doc(hidden)]
    pub fn retained_epochs(&self) -> usize {
        self.inner.sessions.retained_epochs()
    }

    /// Test hook: the next engine request this server executes carries
    /// a token whose morsel worker `w` panics
    /// ([`CancelToken::fail_worker`]). Fires once.
    #[doc(hidden)]
    pub fn fail_next_query(&self, w: usize) {
        self.inner.fail_next.store(w, Ordering::Relaxed);
    }

    /// Drains the worker pool, stops accepting, hangs up TCP
    /// connections and joins every connection handler. In-process
    /// callers must drop their client streams first — such a handler
    /// blocks until its peer hangs up.
    pub fn shutdown(self) {
        self.inner.sched.shutdown();
        self.front.shutdown();
    }
}

fn handle_request(inner: &Arc<Inner>, req: Request) -> Response {
    match req {
        Request::Hello { mode } => {
            let session = inner.sessions.create(mode);
            inner.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
            Response::SessionOpened { session }
        }
        Request::Query(_) | Request::Chain(_) | Request::Update { .. } => dispatch(inner, &req),
        // A plain engine shard *is* the whole database from its own
        // point of view: a scattered query runs the ordinary query path
        // and reports itself as the single partial. A router overrides
        // this by fanning out before any shard sees the request.
        Request::Scatter(_) => match dispatch(inner, &req) {
            Response::QueryOk { results, stat } => Response::ScatterOk {
                results,
                partials: vec![PartialStat {
                    shard: SHARD_SELF,
                    results,
                    stat: (*stat).clone(),
                }],
                stat,
            },
            other => other,
        },
        Request::Close { session } => match inner.sessions.close(session) {
            Ok(report) => {
                inner.stats.sessions_closed.fetch_add(1, Ordering::Relaxed);
                Response::SessionClosed {
                    drained_handles: report.drained_handles,
                    leaked_handles: report.leaked_handles,
                    uncommitted_pages: report.uncommitted_pages,
                }
            }
            Err(e) => failed(inner, e.to_string()),
        },
        // Commit and Abort are bookkeeping (a page-pointer diff and an
        // Arc swap), not engine work: they run inline on the connection
        // thread rather than competing with queries for workers.
        Request::Commit { session } => match inner.sessions.commit(session) {
            Ok(CommitOutcome::Committed { epoch, pages }) => {
                inner.stats.commits.fetch_add(1, Ordering::Relaxed);
                Response::Committed { epoch, pages }
            }
            Ok(CommitOutcome::Aborted { conflict }) => {
                inner.stats.commit_aborts.fetch_add(1, Ordering::Relaxed);
                Response::Aborted {
                    conflict_file: conflict.file,
                    conflict_epoch: conflict.epoch,
                }
            }
            Err(e) => failed(inner, e.to_string()),
        },
        Request::Abort { session } => match inner.sessions.abort(session) {
            Ok(discarded_pages) => {
                inner.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
                Response::RolledBack { discarded_pages }
            }
            Err(e) => failed(inner, e.to_string()),
        },
    }
}

/// Counts a failed request and answers it with the typed `Error`.
fn failed(inner: &Inner, msg: String) -> Response {
    inner.stats.queries_failed.fetch_add(1, Ordering::Relaxed);
    Response::Error { msg }
}

/// Admits the request's engine work to the worker pool and waits for
/// its response. Joins, chains and updates share one admission queue:
/// overload sheds writes and reads alike.
fn dispatch(inner: &Arc<Inner>, req: &Request) -> Response {
    let (session, work, deadline_nanos) = req.work().expect("only engine work is dispatched");
    let (tx, rx) = mpsc::channel();
    let job_inner = Arc::clone(inner);
    let submitted = inner.sched.submit(Box::new(move || {
        let _ = tx.send(execute(&job_inner, session, work, deadline_nanos));
    }));
    if let Err(overloaded) = submitted {
        inner.stats.queries_shed.fetch_add(1, Ordering::Relaxed);
        return Response::Overloaded {
            queue_depth: overloaded.queue_depth,
            shard: SHARD_SELF,
        };
    }
    rx.recv().unwrap_or_else(|_| Response::Error {
        msg: "worker dropped the request".into(),
    })
}

/// Worker-side execution, one path for every kind of work: session
/// checkout, the measurement protocol (the same code the figure harness
/// runs, so a served `Stat` is byte-identical to a harness `Stat`),
/// then exactly one of three outcomes.
///
/// * measured — restore the database, count, answer `QueryOk` /
///   `UpdateOk`;
/// * invalid work (a bad chain depth) — found before anything ran:
///   restore the database untouched, typed `Error`;
/// * a morsel-worker panic, a fired deadline, or any other unwind — the
///   database has half-built operator state (or half a statement's
///   writes) in it: discard it, refill the session from its base epoch,
///   typed `Error` / `DeadlineExceeded`. Uncommitted statements from
///   earlier in the transaction are lost too, which is the atomicity
///   contract.
fn execute(inner: &Inner, session: u64, work: Work, deadline_nanos: u64) -> Response {
    let (mut db, mode) = match inner.sessions.take(session) {
        Ok(taken) => taken,
        Err(e) => return failed(inner, e.to_string()),
    };
    let mut cancel = (deadline_nanos > 0).then(|| CancelToken::with_deadline_nanos(deadline_nanos));
    // Take an armed fault: one relaxed load when none is.
    if inner.fail_next.load(Ordering::Relaxed) != NO_FAULT {
        let w = inner.fail_next.swap(NO_FAULT, Ordering::Relaxed);
        cancel = Some(cancel.unwrap_or_default().fail_worker(w));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        measure(&mut db, &work, mode, cancel, inner.parallel)
    }));
    let reply = match outcome {
        Ok(Ok((count, stat))) => {
            inner.sessions.restore(session, db);
            let stat = Box::new(stat);
            return if let Work::Update { .. } = work {
                inner.stats.updates_ok.fetch_add(1, Ordering::Relaxed);
                Response::UpdateOk {
                    updated: count,
                    stat,
                }
            } else {
                inner.stats.queries_ok.fetch_add(1, Ordering::Relaxed);
                Response::QueryOk {
                    results: count,
                    stat,
                }
            };
        }
        Ok(Err(MeasureError::Invalid(msg))) => {
            inner.sessions.restore(session, db);
            return failed(inner, msg);
        }
        // Every morsel worker was joined and its store clone dropped,
        // so nothing leaked — but the measurement window is garbage.
        Ok(Err(MeasureError::Panicked(panic))) => failed(inner, panic.to_string()),
        Err(payload) => match payload.downcast::<Cancelled>() {
            Ok(cancelled) => {
                inner
                    .stats
                    .queries_deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                Response::DeadlineExceeded {
                    elapsed_nanos: cancelled.elapsed_nanos,
                }
            }
            Err(other) => failed(
                inner,
                format!("internal error: {}", panic_message(other.as_ref())),
            ),
        },
    };
    drop(db);
    inner.sessions.replace_fresh(session);
    reply
}

/// Keeps the default panic hook from printing a backtrace every time a
/// deadline fires: `Cancelled` unwinds are control flow here, not
/// crashes.
/// Chains to the previous hook for every other payload. Installed once
/// per process.
fn install_quiet_cancel_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                previous(info);
            }
        }));
    });
}
