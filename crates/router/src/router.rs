//! The router proper: shard endpoints, per-connection scatter-gather,
//! session fan-out, and the router-edge admission gate.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tq_server::proto::{read_frame, serve_frames, write_frame, Request, Response, SHARD_SELF};
use tq_server::{Channel, ConnectionFront, DuplexStream, Server, ServerConfig};
use tq_workload::{partition_database, Database};

use crate::merge;

/// Where one engine shard lives.
pub enum ShardEndpoint {
    /// A shard in this process, reached over deterministic in-process
    /// duplex streams (the default; the load generator uses this).
    Local(Arc<Server>),
    /// A shard reachable over TCP. The failure tests use this: killing
    /// the remote end exercises the `ShardUnavailable` path.
    Tcp(SocketAddr),
}

/// Router sizing.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Worker threads per shard (when the router starts the shards
    /// itself). A fair comparison against an unsharded server with J
    /// workers uses `max(1, J / shards)` here.
    pub workers_per_shard: usize,
    /// Per-shard admission-queue depth.
    pub queue_depth: usize,
    /// Router-edge admission: at most this many gated requests
    /// (queries, chains, scatters, updates) run at once; the next one
    /// is shed with `Overloaded { shard: SHARD_SELF }` before any
    /// shard sees it.
    pub max_inflight: usize,
    /// Morsel-parallel degree forwarded to every shard server
    /// (`TQ_PARALLEL`): intra-query parallelism composes with the
    /// inter-shard kind — each shard's slice of a scattered query
    /// fans out to this many morsel workers.
    pub parallel: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 4,
            queue_depth: 16,
            max_inflight: 64,
            parallel: 1,
        }
    }
}

#[derive(Default)]
struct RouterStats {
    routed: AtomicU64,
    shed_router: AtomicU64,
    shard_unavailable: AtomicU64,
}

/// A point-in-time copy of the router counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// Gated requests admitted and fanned out.
    pub routed: u64,
    /// Requests shed at the router's own admission edge (never reached
    /// a shard).
    pub shed_router: u64,
    /// Requests failed because a shard was unreachable.
    pub shard_unavailable: u64,
}

struct RouterInner {
    endpoints: Vec<ShardEndpoint>,
    /// Router session → per-shard sessions, in shard order. Global
    /// across connections, like the shard servers' own session tables.
    sessions: Mutex<HashMap<u64, Vec<u64>>>,
    next_session: AtomicU64,
    inflight: AtomicUsize,
    max_inflight: usize,
    stats: RouterStats,
}

/// The scatter-gather front end. Speaks the `tq-server` wire protocol
/// to clients; holds one connection per shard per client connection.
pub struct Router {
    inner: Arc<RouterInner>,
    shards: Vec<Arc<Server>>,
    front: ConnectionFront,
}

impl Router {
    /// Starts one in-process engine shard per database and a router in
    /// front of them. The caller chooses the partitioning (usually
    /// `tq_workload::partition_database`).
    pub fn start(shard_bases: Vec<Database>, config: RouterConfig) -> Self {
        assert!(!shard_bases.is_empty(), "a router needs at least one shard");
        let shards: Vec<Arc<Server>> = shard_bases
            .into_iter()
            .map(|base| {
                Arc::new(Server::start(
                    base,
                    ServerConfig {
                        workers: config.workers_per_shard.max(1),
                        queue_depth: config.queue_depth,
                        parallel: config.parallel.max(1),
                    },
                ))
            })
            .collect();
        let endpoints = shards
            .iter()
            .map(|s| ShardEndpoint::Local(Arc::clone(s)))
            .collect();
        let mut router = Self::start_with_endpoints(endpoints, config);
        router.shards = shards;
        router
    }

    /// Partitions `base` by Rid hash and starts a `shards`-way router
    /// over the pieces.
    pub fn start_partitioned(base: &Database, shards: u32, config: RouterConfig) -> Self {
        Self::start(partition_database(base, shards), config)
    }

    /// Starts a router over externally managed shards (local handles
    /// or TCP addresses). Unreachable TCP shards degrade to
    /// `ShardUnavailable` per request rather than failing startup.
    pub fn start_with_endpoints(endpoints: Vec<ShardEndpoint>, config: RouterConfig) -> Self {
        assert!(!endpoints.is_empty(), "a router needs at least one shard");
        let inner = Arc::new(RouterInner {
            endpoints,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight.max(1),
            stats: RouterStats::default(),
        });
        let conn_inner = Arc::clone(&inner);
        let front = ConnectionFront::new("tq-route", move |conn| route_conn(&conn_inner, conn));
        Self {
            inner,
            shards: Vec::new(),
            front,
        }
    }

    /// Opens an in-process client connection, exactly like
    /// [`Server::connect_in_proc`] — clients cannot tell the two
    /// apart.
    pub fn connect_in_proc(&self) -> DuplexStream {
        self.front.connect_in_proc()
    }

    /// Serves the wire protocol on a bound TCP listener, one handler
    /// thread per accepted connection, until [`shutdown`](Self::shutdown).
    pub fn listen(&self, listener: TcpListener) {
        self.front.listen(listener);
    }

    /// The in-process engine shards (empty when the router was started
    /// over external endpoints).
    pub fn shards(&self) -> &[Arc<Server>] {
        &self.shards
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStatsSnapshot {
        let s = &self.inner.stats;
        RouterStatsSnapshot {
            routed: s.routed.load(Ordering::Relaxed),
            shed_router: s.shed_router.load(Ordering::Relaxed),
            shard_unavailable: s.shard_unavailable.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins the connection handlers, then shuts the
    /// in-process shards down. In-process callers must drop their
    /// client streams first.
    pub fn shutdown(self) {
        self.front.shutdown();
        // The front held the only other references to the inner state
        // (and through it, the Local endpoints): once its threads are
        // joined, the shard servers can be unwrapped and drained.
        drop(self.inner);
        for shard in self.shards {
            if let Ok(server) = Arc::try_unwrap(shard) {
                server.shutdown();
            }
        }
    }
}

/// One shard connection within one client connection. `Down` is
/// sticky: once a link fails, every later request on this client
/// connection reports that shard unavailable rather than guessing at
/// the peer's framing state.
enum Link {
    Up(Box<dyn Channel>),
    Down(String),
}

fn open_link(endpoint: &ShardEndpoint) -> Link {
    match endpoint {
        ShardEndpoint::Local(server) => Link::Up(Box::new(server.connect_in_proc())),
        ShardEndpoint::Tcp(addr) => match TcpStream::connect(addr) {
            Ok(stream) => Link::Up(Box::new(stream)),
            Err(e) => Link::Down(format!("connect failed: {e}")),
        },
    }
}

/// One client connection: the same request→response loop as a shard's
/// own connections, with fan-out in the middle.
fn route_conn<S: Read + Write>(inner: &RouterInner, client: S) {
    let mut links: Vec<Link> = inner.endpoints.iter().map(open_link).collect();
    serve_frames(client, |req| {
        let resp = handle_request(inner, &mut links, req);
        if matches!(resp, Response::ShardUnavailable { .. }) {
            inner
                .stats
                .shard_unavailable
                .fetch_add(1, Ordering::Relaxed);
        }
        resp
    });
}

/// Writes each shard's request (`req_for(shard)`; `None` skips the
/// shard) to every live link, then reads the replies back in shard
/// order. The two phases are what makes this a scatter-gather rather
/// than N sequential round trips: every shard is working while the
/// router waits on the first reply. A failed link is marked `Down` and
/// reported — but the gather keeps draining the other links so each one
/// stays in request/response lockstep.
fn fan_out(links: &mut [Link], req_for: impl Fn(usize) -> Option<Request>) -> merge::Gathered {
    let mut wrote = vec![false; links.len()];
    for (i, link) in links.iter_mut().enumerate() {
        if let (Link::Up(conn), Some(req)) = (&mut *link, req_for(i)) {
            match write_frame(conn, &req.encode()) {
                Ok(()) => wrote[i] = true,
                Err(e) => *link = Link::Down(format!("write failed: {e}")),
            }
        }
    }
    let mut out = Vec::with_capacity(links.len());
    for (link, wrote) in links.iter_mut().zip(wrote) {
        let reply = match link {
            Link::Up(conn) if wrote => read_frame(conn)
                .map_err(|e| format!("read failed: {e}"))
                .and_then(|payload| {
                    Response::decode(&payload).map_err(|e| format!("bad shard payload: {e}"))
                }),
            Link::Up(_) => Err("not asked".into()),
            Link::Down(detail) => Err(detail.clone()),
        };
        if wrote {
            if let Err(detail) = &reply {
                *link = Link::Down(detail.clone());
            }
        }
        out.push(reply);
    }
    out
}

/// RAII slot in the router-edge admission gate.
struct Gate<'a> {
    inflight: &'a AtomicUsize,
}

impl<'a> Gate<'a> {
    fn try_enter(inner: &'a RouterInner) -> Option<Self> {
        if inner.inflight.fetch_add(1, Ordering::SeqCst) >= inner.max_inflight {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            None
        } else {
            Some(Gate {
                inflight: &inner.inflight,
            })
        }
    }
}

impl Drop for Gate<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_request(inner: &RouterInner, links: &mut [Link], req: Request) -> Response {
    match req {
        Request::Hello { .. } => {
            let parts = fan_out(links, |_| Some(req.clone()));
            match merge::merge_hello(&parts) {
                Ok(per_shard) => {
                    let session = inner.next_session.fetch_add(1, Ordering::Relaxed);
                    inner.sessions.lock().unwrap().insert(session, per_shard);
                    Response::SessionOpened { session }
                }
                Err(fail) => {
                    // Each shard that did open holds a pinned database
                    // clone under an id no client will ever learn:
                    // close it. The replies only keep the links in
                    // lockstep.
                    fan_out(links, |i| match parts[i] {
                        Ok(Response::SessionOpened { session }) => Some(Request::Close { session }),
                        _ => None,
                    });
                    fail
                }
            }
        }
        Request::Query(q) => forward(inner, links, &req, q.session, |p| {
            merge::merge_query(p, false)
        }),
        // A router never forwards Scatter itself (a shard would answer
        // with a nested single-partial ScatterOk): it fans out plain
        // queries and builds the partial list from the gather.
        Request::Scatter(q) => forward(inner, links, &Request::Query(q), q.session, |p| {
            merge::merge_query(p, true)
        }),
        Request::Chain(q) => forward(inner, links, &req, q.session, |p| {
            merge::merge_query(p, false)
        }),
        Request::Update { session, .. } => {
            forward(inner, links, &req, session, merge::merge_update)
        }
        Request::Commit { session } => forward(inner, links, &req, session, merge::merge_commit),
        Request::Abort { session } => forward(inner, links, &req, session, merge::merge_abort),
        Request::Close { session } => {
            let resp = forward(inner, links, &req, session, merge::merge_close);
            // The mapping is gone either way: a half-closed session is
            // unusable, and keeping it would leak map entries.
            inner.sessions.lock().unwrap().remove(&session);
            resp
        }
    }
}

/// The one way a session-addressed request crosses the router: look the
/// session's shard sessions up, pass the admission gate if the request
/// is engine work (queries, chains, updates — bookkeeping is never
/// shed), re-address the request to each shard, fan out, merge.
fn forward(
    inner: &RouterInner,
    links: &mut [Link],
    req: &Request,
    session: u64,
    merge: fn(&merge::Gathered) -> Response,
) -> Response {
    let Some(sessions) = inner.sessions.lock().unwrap().get(&session).cloned() else {
        return Response::Error {
            msg: format!("unknown session {session}"),
        };
    };
    let _gate = if req.work().is_some() {
        let Some(gate) = Gate::try_enter(inner) else {
            inner.stats.shed_router.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded {
                queue_depth: inner.max_inflight as u32,
                shard: SHARD_SELF,
            };
        };
        inner.stats.routed.fetch_add(1, Ordering::Relaxed);
        Some(gate)
    } else {
        None
    };
    merge(&fan_out(links, |i| Some(req.for_session(sessions[i]))))
}
