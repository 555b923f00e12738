//! The wire protocol: length-prefixed frames carrying a small
//! request/response vocabulary.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload; payloads above [`MAX_FRAME`] are rejected *before* any
//! allocation (a hostile or corrupt length cannot balloon memory).
//! Payloads are tag-prefixed structs encoded with fixed-width
//! little-endian integers and length-prefixed UTF-8 strings; floats
//! travel as IEEE-754 bit patterns, so a decoded [`Stat`] is
//! bit-for-bit the one that was encoded (the concurrency-equivalence
//! test compares them with `==`).
//!
//! Decoding is total: any truncated, oversized, or malformed input
//! returns a typed error, never a panic — pinned by the property tests
//! in `crates/server/tests/proto_roundtrip.rs`.

use std::io::{Read, Write};
use tq_query::{JoinAlgo, PlannerPolicy};
use tq_statsdb::{ExtentDesc, OperatorStat, QueryDesc, Stat, SystemDesc};

/// Hard ceiling on one frame's payload (16 MiB). Far above any real
/// message (a full per-operator `Stat` is a few KB), far below a
/// memory-exhaustion vector.
pub const MAX_FRAME: usize = 16 << 20;

/// Shard index meaning "the admission edge of the process you are
/// talking to" in [`Response::Overloaded`]. A plain engine shard
/// always answers with this; only a router, relaying a downstream
/// shard's rejection, fills in a real shard index.
pub const SHARD_SELF: u32 = u32::MAX;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended inside a header or payload.
    Truncated,
    /// The header announced a payload larger than [`MAX_FRAME`].
    TooLarge(u64),
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(FrameError::Io)
}

/// Reads one frame's payload. [`FrameError::Closed`] means the peer
/// hung up *between* frames (the clean end of a conversation);
/// [`FrameError::Truncated`] means it hung up mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Err(FrameError::Closed),
        ReadOutcome::Partial => return Err(FrameError::Truncated),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Full => Ok(payload),
        ReadOutcome::Eof | ReadOutcome::Partial => Err(FrameError::Truncated),
    }
}

/// One connection, served: a strict request→response loop over frames.
/// Any framing error (including clean hang-up) ends the connection; a
/// decodable-but-invalid request gets a `Response::Error` and the
/// conversation continues. Server and router connections both run
/// this loop — they differ only in `handle`.
pub fn serve_frames<S: Read + Write>(mut conn: S, mut handle: impl FnMut(Request) -> Response) {
    while let Ok(payload) = read_frame(&mut conn) {
        let resp = match Request::decode(&payload) {
            Ok(req) => handle(req),
            Err(e) => Response::Error {
                msg: format!("bad request: {e}"),
            },
        };
        if write_frame(&mut conn, &resp.encode()).is_err() {
            return;
        }
    }
}

enum ReadOutcome {
    Full,
    Eof,
    Partial,
}

/// `read_exact` that distinguishes "no bytes at all" (clean EOF) from
/// "some but not enough" (truncation).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Why a payload could not be decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a field did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// An enum discriminant out of range.
    BadEnum(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Bytes left over after a complete message.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated payload"),
            DecodeError::BadTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadEnum(v) => write!(f, "enum discriminant {v} out of range"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Per-session cache discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Every request — query, chain or update — runs the paper's cold
    /// protocol (server shutdown before each run): results are
    /// position-independent and byte-identical to the figure harness.
    Cold,
    /// Caches persist across the session's queries (a warm working
    /// set, the production regime).
    Warm,
}

/// Which collection an update statement targets. The vocabulary is
/// closed (like the figure grid's algorithm set) so the server never
/// parses collection names off the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateTarget {
    /// `update Patients set num = num + Δ where mrn < K` — dirties the
    /// Patients file and the num index.
    Patients,
    /// `update Providers set upin = upin + Δ where upin < K` — with
    /// Δ = 0 a pure touch-update that dirties only the Providers file.
    Providers,
}

/// One query request: the figure-grid vocabulary (algorithm ×
/// selectivities), plus an optional deadline in simulated nanoseconds
/// (`0` = none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Session to run in.
    pub session: u64,
    /// Join algorithm.
    pub algo: JoinAlgo,
    /// Patient-side selectivity (percent).
    pub pat_pct: u32,
    /// Provider-side selectivity (percent).
    pub prov_pct: u32,
    /// Simulated-time budget in nanoseconds; `0` means unlimited.
    pub deadline_nanos: u64,
}

/// One N-way chain-query request: a depth from the closed chain
/// vocabulary (the server never parses OQL off the wire), the grid
/// selectivities, and the planner policy to order the joins with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainQuerySpec {
    /// Session to run in.
    pub session: u64,
    /// Binding count: 2 (reference chain), 3, or 4. Validated at
    /// dispatch, not decode — other depths get a typed `Error`.
    pub depth: u32,
    /// Patient-side selectivity (percent).
    pub pat_pct: u32,
    /// Provider-side selectivity (percent).
    pub prov_pct: u32,
    /// Join-ordering policy.
    pub policy: PlannerPolicy,
    /// Simulated-time budget in nanoseconds; `0` means unlimited.
    pub deadline_nanos: u64,
}

/// What the engine is asked to run, with the addressing (session,
/// deadline) stripped off: the one value every stage between a decoded
/// request and its `Stat` — dispatch, execute, measure — is written
/// against, whatever the kind of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// A 2-way join from the figure grid ([`Request::Query`] and
    /// [`Request::Scatter`]).
    Join {
        /// Join algorithm.
        algo: JoinAlgo,
        /// Patient-side selectivity (percent).
        pat_pct: u32,
        /// Provider-side selectivity (percent).
        prov_pct: u32,
    },
    /// An N-way binding chain ([`Request::Chain`]).
    Chain {
        /// Binding count; validated when measured, not when decoded.
        depth: u32,
        /// Patient-side selectivity (percent).
        pat_pct: u32,
        /// Provider-side selectivity (percent).
        prov_pct: u32,
        /// Join-ordering policy.
        policy: PlannerPolicy,
    },
    /// An update statement ([`Request::Update`]).
    Update {
        /// Collection (and statement shape) to update.
        target: UpdateTarget,
        /// Fraction of the collection to touch (percent of keys).
        sel_pct: u32,
        /// Additive delta.
        delta: i32,
    },
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session (a snapshot-isolated view of the database).
    Hello {
        /// Cache discipline for the session.
        mode: CacheMode,
    },
    /// Run one join query.
    Query(QuerySpec),
    /// Close a session, draining its handles.
    Close {
        /// Session to close.
        session: u64,
    },
    /// Run one update statement against the session's private snapshot.
    /// The writes stay session-local until [`Request::Commit`].
    Update {
        /// Session to run in.
        session: u64,
        /// Collection (and statement shape) to update.
        target: UpdateTarget,
        /// Fraction of the collection to touch (percent of keys).
        sel_pct: u32,
        /// Additive delta (0 = touch-update, no re-keying).
        delta: i32,
        /// Simulated-time budget in nanoseconds; `0` means unlimited.
        deadline_nanos: u64,
    },
    /// Publish the session's uncommitted writes as a new base epoch
    /// (first-committer-wins validation against epochs published since
    /// the session's base).
    Commit {
        /// Session whose writes to publish.
        session: u64,
    },
    /// Discard the session's uncommitted writes and re-pin it to the
    /// newest published epoch.
    Abort {
        /// Session whose writes to discard.
        session: u64,
    },
    /// Run one N-way binding-chain query. Answered with the same
    /// [`Response::QueryOk`] shape as a 2-way join.
    Chain(ChainQuerySpec),
    /// Run one join query *and* report the per-shard partials behind
    /// the merged answer. A plain engine shard answers with a
    /// single-partial [`Response::ScatterOk`] (its own cell, shard
    /// [`SHARD_SELF`]); a router fans the query to every shard and
    /// returns one partial per shard plus the merged totals.
    Scatter(QuerySpec),
}

/// One shard's contribution to a scattered query: the cell the shard
/// measured locally, exactly as its own figure harness would have.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialStat {
    /// Shard index (or [`SHARD_SELF`] when a plain server answers).
    pub shard: u32,
    /// Result tuples this shard produced.
    pub results: u64,
    /// The shard-local measurement.
    pub stat: Stat,
}

/// One shard's first-committer-wins rejection inside a multi-shard
/// commit.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardAbort {
    /// Shard whose validation failed.
    pub shard: u32,
    /// A file both write-sets touched on that shard.
    pub conflict_file: String,
    /// The epoch whose publication won the race there.
    pub conflict_epoch: u64,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session opened.
    SessionOpened {
        /// Its id (unique per server).
        session: u64,
    },
    /// Query finished: result cardinality plus the full Figure 3
    /// record with the per-operator breakdown.
    QueryOk {
        /// Result tuples.
        results: u64,
        /// The measurement, exactly as the figure harness would have
        /// recorded it.
        stat: Box<Stat>,
    },
    /// Admission control shed the query: the queue was at its
    /// configured depth. The typed `Overloaded` rejection.
    Overloaded {
        /// The depth the queue was at.
        queue_depth: u32,
        /// Where the shed happened: [`SHARD_SELF`] at the edge of the
        /// answering process itself; a real index when a router is
        /// relaying a downstream engine shard's rejection.
        shard: u32,
    },
    /// The query's simulated-time deadline fired; the query was
    /// cancelled at an operator boundary and its working state
    /// discarded.
    DeadlineExceeded {
        /// Simulated nanoseconds consumed when cancelled.
        elapsed_nanos: u64,
    },
    /// Session closed.
    SessionClosed {
        /// Handles drained from the delayed-free pool at teardown.
        drained_handles: u64,
        /// Handles still pinned at teardown (0 unless an operator
        /// leaked — the debug leak check would have caught it first).
        leaked_handles: u64,
        /// Dirty pages the session abandoned by closing without
        /// committing (0 for read-only or cleanly committed sessions).
        uncommitted_pages: u64,
    },
    /// Anything else (unknown session, busy session, engine error).
    Error {
        /// Human-readable cause.
        msg: String,
    },
    /// Update finished: rows rewritten plus the full per-operator
    /// measurement, same shape as a query's.
    UpdateOk {
        /// Objects rewritten.
        updated: u64,
        /// The measurement, exactly as the figure harness records one.
        stat: Box<Stat>,
    },
    /// Commit validated and published (or was a read-only no-op).
    Committed {
        /// The epoch number now visible to newly pinned sessions.
        epoch: u64,
        /// Pages the commit published (0 for a read-only commit).
        pages: u64,
    },
    /// Commit validation failed: another session published an
    /// overlapping write-set first. The session's writes are discarded
    /// and it is re-pinned to the newest epoch.
    Aborted {
        /// A file both write-sets touched.
        conflict_file: String,
        /// The epoch whose publication won the race.
        conflict_epoch: u64,
    },
    /// Abort completed: writes discarded, session re-pinned.
    RolledBack {
        /// Dirty pages that were thrown away.
        discarded_pages: u64,
    },
    /// A scattered query finished: the merged answer plus the
    /// per-shard partials it was merged from. `results` and `stat`
    /// are exactly what [`Response::QueryOk`] would carry; the
    /// partials are the audit trail (`stat` must equal
    /// `merge_stats(partials)` — the differential tests pin it).
    ScatterOk {
        /// Merged result tuples (sum of the partials').
        results: u64,
        /// The merged measurement.
        stat: Box<Stat>,
        /// One entry per shard that answered, in shard order.
        partials: Vec<PartialStat>,
    },
    /// A shard could not be reached (or died mid-reply). The router
    /// refuses to return a partial answer: the whole request fails
    /// with this typed error instead of a silent undercount.
    ShardUnavailable {
        /// The unreachable shard.
        shard: u32,
        /// Transport-level cause, human-readable.
        detail: String,
    },
    /// A multi-shard commit did not validate everywhere: at least one
    /// shard's first-committer-wins check failed. Shards that had
    /// already validated published their epochs (listed in
    /// `committed`); the losing shards' writes are discarded and their
    /// sessions re-pinned, like a single-shard [`Response::Aborted`].
    ShardsAborted {
        /// Shards whose local validation succeeded and published.
        committed: Vec<u32>,
        /// One entry per shard whose validation failed.
        aborts: Vec<ShardAbort>,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn algo_code(algo: JoinAlgo) -> u8 {
    match algo {
        JoinAlgo::Nl => 0,
        JoinAlgo::Nojoin => 1,
        JoinAlgo::Phj => 2,
        JoinAlgo::Chj => 3,
    }
}

fn algo_from(code: u8) -> Result<JoinAlgo, DecodeError> {
    Ok(match code {
        0 => JoinAlgo::Nl,
        1 => JoinAlgo::Nojoin,
        2 => JoinAlgo::Phj,
        3 => JoinAlgo::Chj,
        other => return Err(DecodeError::BadEnum(other)),
    })
}

fn policy_code(policy: PlannerPolicy) -> u8 {
    match policy {
        PlannerPolicy::Estimate => 0,
        PlannerPolicy::Simpli => 1,
        PlannerPolicy::Syntactic => 2,
    }
}

fn policy_from(code: u8) -> Result<PlannerPolicy, DecodeError> {
    Ok(match code {
        0 => PlannerPolicy::Estimate,
        1 => PlannerPolicy::Simpli,
        2 => PlannerPolicy::Syntactic,
        other => return Err(DecodeError::BadEnum(other)),
    })
}

fn put_query_spec(out: &mut Vec<u8>, q: &QuerySpec) {
    put_u64(out, q.session);
    out.push(algo_code(q.algo));
    put_u32(out, q.pat_pct);
    put_u32(out, q.prov_pct);
    put_u64(out, q.deadline_nanos);
}

fn put_operator(out: &mut Vec<u8>, op: &OperatorStat) {
    put_str(out, &op.op);
    put_str(out, &op.label);
    put_u32(out, op.depth);
    put_u64(out, op.d2sc_read_pages);
    put_u64(out, op.sc2cc_read_pages);
    put_u64(out, op.client_misses);
    put_u64(out, op.handle_gets);
    put_u64(out, op.handle_frees);
    put_u64(out, op.cpu_events);
    put_u64(out, op.io_nanos);
    put_u64(out, op.rpc_nanos);
    put_u64(out, op.cpu_nanos);
    put_u64(out, op.swap_nanos);
}

fn put_stat(out: &mut Vec<u8>, s: &Stat) {
    put_u64(out, s.numtest);
    put_bool(out, s.query.cold);
    put_str(out, &s.query.projection_type);
    put_u32(out, s.query.selectivities.len() as u32);
    for (extent, pct) in &s.query.selectivities {
        put_str(out, extent);
        put_u32(out, *pct);
    }
    put_str(out, &s.query.text);
    put_u32(out, s.database.len() as u32);
    for e in &s.database {
        put_str(out, &e.classname);
        put_u64(out, e.size);
        put_u32(out, e.associations.len() as u32);
        for (class, ratio) in &e.associations {
            put_str(out, class);
            put_u32(out, *ratio);
        }
    }
    put_str(out, &s.cluster);
    put_str(out, &s.algo);
    put_u64(out, s.system.server_cache_kb);
    put_u64(out, s.system.client_cache_kb);
    put_bool(out, s.system.same_workstation);
    put_u64(out, s.cc_pagefaults);
    put_u64(out, s.cc_lookups);
    put_f64(out, s.elapsed_time);
    put_u64(out, s.rpcs_number);
    put_f64(out, s.rpcs_total_mb);
    put_u64(out, s.d2sc_read_pages);
    put_u64(out, s.sc2cc_read_pages);
    put_f64(out, s.cc_miss_rate);
    put_f64(out, s.sc_miss_rate);
    put_u32(out, s.operators.len() as u32);
    for op in &s.operators {
        put_operator(out, op);
    }
}

impl Request {
    /// The engine work this request asks for, as `(session, work,
    /// deadline_nanos)` — `None` for session bookkeeping (`Hello`,
    /// `Close`, `Commit`, `Abort`), which never reaches a worker.
    pub fn work(&self) -> Option<(u64, Work, u64)> {
        match *self {
            Request::Query(q) | Request::Scatter(q) => Some((
                q.session,
                Work::Join {
                    algo: q.algo,
                    pat_pct: q.pat_pct,
                    prov_pct: q.prov_pct,
                },
                q.deadline_nanos,
            )),
            Request::Chain(q) => Some((
                q.session,
                Work::Chain {
                    depth: q.depth,
                    pat_pct: q.pat_pct,
                    prov_pct: q.prov_pct,
                    policy: q.policy,
                },
                q.deadline_nanos,
            )),
            Request::Update {
                session,
                target,
                sel_pct,
                delta,
                deadline_nanos,
            } => Some((
                session,
                Work::Update {
                    target,
                    sel_pct,
                    delta,
                },
                deadline_nanos,
            )),
            Request::Hello { .. }
            | Request::Close { .. }
            | Request::Commit { .. }
            | Request::Abort { .. } => None,
        }
    }

    /// The same request addressed to another session — how a router
    /// turns a client's request into each shard's. `Hello` names no
    /// session and comes back unchanged.
    pub fn for_session(&self, session: u64) -> Request {
        let mut req = self.clone();
        match &mut req {
            Request::Hello { .. } => {}
            Request::Query(q) | Request::Scatter(q) => q.session = session,
            Request::Chain(q) => q.session = session,
            Request::Close { session: s }
            | Request::Update { session: s, .. }
            | Request::Commit { session: s }
            | Request::Abort { session: s } => *s = session,
        }
        req
    }

    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { mode } => {
                out.push(1);
                out.push(match mode {
                    CacheMode::Cold => 0,
                    CacheMode::Warm => 1,
                });
            }
            Request::Query(q) => {
                out.push(2);
                put_query_spec(&mut out, q);
            }
            Request::Close { session } => {
                out.push(3);
                put_u64(&mut out, *session);
            }
            Request::Update {
                session,
                target,
                sel_pct,
                delta,
                deadline_nanos,
            } => {
                out.push(4);
                put_u64(&mut out, *session);
                out.push(match target {
                    UpdateTarget::Patients => 0,
                    UpdateTarget::Providers => 1,
                });
                put_u32(&mut out, *sel_pct);
                put_u32(&mut out, *delta as u32);
                put_u64(&mut out, *deadline_nanos);
            }
            Request::Commit { session } => {
                out.push(5);
                put_u64(&mut out, *session);
            }
            Request::Abort { session } => {
                out.push(6);
                put_u64(&mut out, *session);
            }
            Request::Chain(q) => {
                out.push(7);
                put_u64(&mut out, q.session);
                put_u32(&mut out, q.depth);
                put_u32(&mut out, q.pat_pct);
                put_u32(&mut out, q.prov_pct);
                out.push(policy_code(q.policy));
                put_u64(&mut out, q.deadline_nanos);
            }
            Request::Scatter(q) => {
                out.push(8);
                put_query_spec(&mut out, q);
            }
        }
        out
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            1 => Request::Hello {
                mode: match c.u8()? {
                    0 => CacheMode::Cold,
                    1 => CacheMode::Warm,
                    other => return Err(DecodeError::BadEnum(other)),
                },
            },
            2 => Request::Query(c.query_spec()?),
            3 => Request::Close { session: c.u64()? },
            4 => Request::Update {
                session: c.u64()?,
                target: match c.u8()? {
                    0 => UpdateTarget::Patients,
                    1 => UpdateTarget::Providers,
                    other => return Err(DecodeError::BadEnum(other)),
                },
                sel_pct: c.u32()?,
                delta: c.u32()? as i32,
                deadline_nanos: c.u64()?,
            },
            5 => Request::Commit { session: c.u64()? },
            6 => Request::Abort { session: c.u64()? },
            7 => Request::Chain(ChainQuerySpec {
                session: c.u64()?,
                depth: c.u32()?,
                pat_pct: c.u32()?,
                prov_pct: c.u32()?,
                policy: policy_from(c.u8()?)?,
                deadline_nanos: c.u64()?,
            }),
            8 => Request::Scatter(c.query_spec()?),
            other => return Err(DecodeError::BadTag(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::SessionOpened { session } => {
                out.push(128);
                put_u64(&mut out, *session);
            }
            Response::QueryOk { results, stat } => {
                out.push(129);
                put_u64(&mut out, *results);
                put_stat(&mut out, stat);
            }
            Response::Overloaded { queue_depth, shard } => {
                out.push(130);
                put_u32(&mut out, *queue_depth);
                put_u32(&mut out, *shard);
            }
            Response::DeadlineExceeded { elapsed_nanos } => {
                out.push(131);
                put_u64(&mut out, *elapsed_nanos);
            }
            Response::SessionClosed {
                drained_handles,
                leaked_handles,
                uncommitted_pages,
            } => {
                out.push(132);
                put_u64(&mut out, *drained_handles);
                put_u64(&mut out, *leaked_handles);
                put_u64(&mut out, *uncommitted_pages);
            }
            Response::Error { msg } => {
                out.push(133);
                put_str(&mut out, msg);
            }
            Response::UpdateOk { updated, stat } => {
                out.push(134);
                put_u64(&mut out, *updated);
                put_stat(&mut out, stat);
            }
            Response::Committed { epoch, pages } => {
                out.push(135);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *pages);
            }
            Response::Aborted {
                conflict_file,
                conflict_epoch,
            } => {
                out.push(136);
                put_str(&mut out, conflict_file);
                put_u64(&mut out, *conflict_epoch);
            }
            Response::RolledBack { discarded_pages } => {
                out.push(137);
                put_u64(&mut out, *discarded_pages);
            }
            Response::ScatterOk {
                results,
                stat,
                partials,
            } => {
                out.push(138);
                put_u64(&mut out, *results);
                put_stat(&mut out, stat);
                put_u32(&mut out, partials.len() as u32);
                for p in partials {
                    put_u32(&mut out, p.shard);
                    put_u64(&mut out, p.results);
                    put_stat(&mut out, &p.stat);
                }
            }
            Response::ShardUnavailable { shard, detail } => {
                out.push(139);
                put_u32(&mut out, *shard);
                put_str(&mut out, detail);
            }
            Response::ShardsAborted { committed, aborts } => {
                out.push(140);
                put_u32(&mut out, committed.len() as u32);
                for s in committed {
                    put_u32(&mut out, *s);
                }
                put_u32(&mut out, aborts.len() as u32);
                for a in aborts {
                    put_u32(&mut out, a.shard);
                    put_str(&mut out, &a.conflict_file);
                    put_u64(&mut out, a.conflict_epoch);
                }
            }
        }
        out
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            128 => Response::SessionOpened { session: c.u64()? },
            129 => Response::QueryOk {
                results: c.u64()?,
                stat: Box::new(c.stat()?),
            },
            130 => Response::Overloaded {
                queue_depth: c.u32()?,
                shard: c.u32()?,
            },
            131 => Response::DeadlineExceeded {
                elapsed_nanos: c.u64()?,
            },
            132 => Response::SessionClosed {
                drained_handles: c.u64()?,
                leaked_handles: c.u64()?,
                uncommitted_pages: c.u64()?,
            },
            133 => Response::Error { msg: c.string()? },
            134 => Response::UpdateOk {
                updated: c.u64()?,
                stat: Box::new(c.stat()?),
            },
            135 => Response::Committed {
                epoch: c.u64()?,
                pages: c.u64()?,
            },
            136 => Response::Aborted {
                conflict_file: c.string()?,
                conflict_epoch: c.u64()?,
            },
            137 => Response::RolledBack {
                discarded_pages: c.u64()?,
            },
            138 => {
                let results = c.u64()?;
                let stat = Box::new(c.stat()?);
                // A partial is at least shard + results + a minimal
                // Stat (~126 bytes of fixed-width fields): 100 is a
                // safe floor for the forged-count guard.
                let n = c.count(100)?;
                let mut partials = Vec::new();
                for _ in 0..n {
                    partials.push(PartialStat {
                        shard: c.u32()?,
                        results: c.u64()?,
                        stat: c.stat()?,
                    });
                }
                Response::ScatterOk {
                    results,
                    stat,
                    partials,
                }
            }
            139 => Response::ShardUnavailable {
                shard: c.u32()?,
                detail: c.string()?,
            },
            140 => {
                let n_committed = c.count(4)?;
                let mut committed = Vec::new();
                for _ in 0..n_committed {
                    committed.push(c.u32()?);
                }
                let n_aborts = c.count(16)?;
                let mut aborts = Vec::new();
                for _ in 0..n_aborts {
                    aborts.push(ShardAbort {
                        shard: c.u32()?,
                        conflict_file: c.string()?,
                        conflict_epoch: c.u64()?,
                    });
                }
                Response::ShardsAborted { committed, aborts }
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Bounds-checked sequential reader over a payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.at.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadEnum(other)),
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads an element count and rejects it up front if even
    /// `min_elem_bytes`-sized elements could not fit in the remaining
    /// payload — a forged count fails here instead of spinning through
    /// billions of per-element `Truncated` checks.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.at;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    fn query_spec(&mut self) -> Result<QuerySpec, DecodeError> {
        Ok(QuerySpec {
            session: self.u64()?,
            algo: algo_from(self.u8()?)?,
            pat_pct: self.u32()?,
            prov_pct: self.u32()?,
            deadline_nanos: self.u64()?,
        })
    }

    fn operator(&mut self) -> Result<OperatorStat, DecodeError> {
        Ok(OperatorStat {
            op: self.string()?,
            label: self.string()?,
            depth: self.u32()?,
            d2sc_read_pages: self.u64()?,
            sc2cc_read_pages: self.u64()?,
            client_misses: self.u64()?,
            handle_gets: self.u64()?,
            handle_frees: self.u64()?,
            cpu_events: self.u64()?,
            io_nanos: self.u64()?,
            rpc_nanos: self.u64()?,
            cpu_nanos: self.u64()?,
            swap_nanos: self.u64()?,
        })
    }

    fn stat(&mut self) -> Result<Stat, DecodeError> {
        let numtest = self.u64()?;
        let cold = self.boolean()?;
        let projection_type = self.string()?;
        let n_sel = self.count(8)?;
        let mut selectivities = Vec::new();
        for _ in 0..n_sel {
            let extent = self.string()?;
            let pct = self.u32()?;
            selectivities.push((extent, pct));
        }
        let text = self.string()?;
        let n_ext = self.count(16)?;
        let mut database = Vec::new();
        for _ in 0..n_ext {
            let classname = self.string()?;
            let size = self.u64()?;
            let n_assoc = self.count(8)?;
            let mut associations = Vec::new();
            for _ in 0..n_assoc {
                let class = self.string()?;
                let ratio = self.u32()?;
                associations.push((class, ratio));
            }
            database.push(ExtentDesc {
                classname,
                size,
                associations,
            });
        }
        let cluster = self.string()?;
        let algo = self.string()?;
        let system = SystemDesc {
            server_cache_kb: self.u64()?,
            client_cache_kb: self.u64()?,
            same_workstation: self.boolean()?,
        };
        let cc_pagefaults = self.u64()?;
        let cc_lookups = self.u64()?;
        let elapsed_time = self.f64()?;
        let rpcs_number = self.u64()?;
        let rpcs_total_mb = self.f64()?;
        let d2sc_read_pages = self.u64()?;
        let sc2cc_read_pages = self.u64()?;
        let cc_miss_rate = self.f64()?;
        let sc_miss_rate = self.f64()?;
        let n_ops = self.count(92)?;
        let mut operators = Vec::new();
        for _ in 0..n_ops {
            operators.push(self.operator()?);
        }
        Ok(Stat {
            numtest,
            query: QueryDesc {
                cold,
                projection_type,
                selectivities,
                text,
            },
            database,
            cluster,
            algo,
            system,
            cc_pagefaults,
            cc_lookups,
            elapsed_time,
            rpcs_number,
            rpcs_total_mb,
            d2sc_read_pages,
            sc2cc_read_pages,
            cc_miss_rate,
            sc_miss_rate,
            operators,
        })
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_requests_round_trip() {
        for req in [
            Request::Hello {
                mode: CacheMode::Cold,
            },
            Request::Hello {
                mode: CacheMode::Warm,
            },
            Request::Query(QuerySpec {
                session: 42,
                algo: JoinAlgo::Chj,
                pat_pct: 10,
                prov_pct: 90,
                deadline_nanos: 5_000_000_000,
            }),
            Request::Close { session: 7 },
        ] {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
        for policy in PlannerPolicy::all() {
            let req = Request::Chain(ChainQuerySpec {
                session: 9,
                depth: 3,
                pat_pct: 30,
                prov_pct: 60,
                policy,
                deadline_nanos: 0,
            });
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Request::decode(&[99]), Err(DecodeError::BadTag(99)));
        assert_eq!(Request::decode(&[1, 7]), Err(DecodeError::BadEnum(7)));
        let mut ok = Request::Close { session: 1 }.encode();
        ok.push(0);
        assert_eq!(Request::decode(&ok), Err(DecodeError::TrailingBytes));
        // An out-of-range planner-policy discriminant in a Chain request.
        let mut chain = Request::Chain(ChainQuerySpec {
            session: 1,
            depth: 3,
            pat_pct: 10,
            prov_pct: 10,
            policy: PlannerPolicy::Estimate,
            deadline_nanos: 0,
        })
        .encode();
        assert_eq!(chain[1 + 8 + 4 + 4 + 4], 0, "policy byte moved");
        chain[1 + 8 + 4 + 4 + 4] = 9;
        assert_eq!(Request::decode(&chain), Err(DecodeError::BadEnum(9)));
        chain[1 + 8 + 4 + 4 + 4] = 0;
        chain.truncate(chain.len() - 1);
        assert_eq!(Request::decode(&chain), Err(DecodeError::Truncated));
        // Non-UTF-8 string in an Error response.
        let mut bad = vec![133];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Response::decode(&bad), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn frame_round_trip_and_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        // A forged oversized header is rejected without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(FrameError::TooLarge(_))
        ));
        // Truncation inside the header and inside the payload.
        assert!(matches!(
            read_frame(&mut &[1u8, 0][..]),
            Err(FrameError::Truncated)
        ));
        let mut partial = Vec::new();
        write_frame(&mut partial, b"abcdef").unwrap();
        partial.truncate(7);
        assert!(matches!(
            read_frame(&mut &partial[..]),
            Err(FrameError::Truncated)
        ));
    }
}
