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
//! Each layout is written down once, as a row of the `Wire` tables at
//! the end of this file that drive both `encode` and `decode`; a new
//! frame is one `wire_message!` row plus its line in
//! `tests/wire_frozen.hex`.
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

/// Writes one frame (length prefix + payload) in one write: over TCP,
/// a payload written after its header would wait for the header's ACK
/// (Nagle's algorithm against the peer's delayed ACK).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len() as u64));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
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
}

// ---------------------------------------------------------------------
// The codec: one `Wire` layout per type, each written down once
// ---------------------------------------------------------------------

/// A value with one wire layout: `put` appends it to a payload, `get`
/// reads it back off the front of a payload cursor. Structs and
/// messages are their fields' layouts in the order their table rows
/// list them, so encoder and decoder cannot drift apart.
trait Wire: Sized {
    /// The fewest bytes one encoded value takes, which `Vec<T>::get`
    /// checks a forged element count against. `0` (the default) marks a
    /// type that is never a vector element.
    const FLOOR: usize = 0;
    fn put(&self, out: &mut Vec<u8>);
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Fixed-width little-endian numbers; an `f64` travels as its IEEE-754
/// bit pattern and an `i32` as its two's-complement `u32`.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const FLOOR: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
                let (head, rest) = c.split_first_chunk().ok_or(DecodeError::Truncated)?;
                *c = rest;
                Ok(<$t>::from_le_bytes(*head))
            }
        }
    )*};
}

wire_le!(u8, u32, u64, i32, f64);

impl Wire for bool {
    const FLOOR: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::BadEnum(other)),
        }
    }
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    const FLOOR: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::get(c)? as usize;
        let bytes = c.split_off(..len).ok_or(DecodeError::Truncated)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const FLOOR: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }
    /// A count that even `T::FLOOR`-byte elements could not fit in the
    /// rest of the payload fails here, before anything is allocated,
    /// instead of spinning through billions of per-element checks.
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
        const { assert!(T::FLOOR > 0, "a vector element needs a FLOOR") };
        let n = u32::get(c)? as usize;
        if n.saturating_mul(T::FLOOR) > c.len() {
            return Err(DecodeError::Truncated);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(c)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Box<T> {
    const FLOOR: usize = T::FLOOR;
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
        T::get(c).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const FLOOR: usize = A::FLOOR + B::FLOOR;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// Closed enums travel as one discriminant byte; an unknown one is
/// [`DecodeError::BadEnum`].
macro_rules! wire_enum {
    ($($ty:ident { $($code:literal => $v:ident),* })*) => {$(
        impl Wire for $ty {
            const FLOOR: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self { $($ty::$v => $code),* });
            }
            fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
                match u8::get(c)? {
                    $($code => Ok($ty::$v),)*
                    other => Err(DecodeError::BadEnum(other)),
                }
            }
        }
    )*};
}

wire_enum! {
    JoinAlgo { 0 => Nl, 1 => Nojoin, 2 => Phj, 3 => Chj }
    PlannerPolicy { 0 => Estimate, 1 => Simpli, 2 => Syntactic }
    CacheMode { 0 => Cold, 1 => Warm }
    UpdateTarget { 0 => Patients, 1 => Providers }
}

/// A struct is its fields, in the order listed. `[n]` gives the
/// struct's `FLOOR` when it is a vector element.
macro_rules! wire_struct {
    ($($ty:ident $([$floor:literal])? { $($f:ident),* })*) => {$(
        impl Wire for $ty {
            $(const FLOOR: usize = $floor;)?
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(c: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok($ty { $($f: Wire::get(c)?),* })
            }
        }
    )*};
}

wire_struct! {
    QuerySpec { session, algo, pat_pct, prov_pct, deadline_nanos }
    ChainQuerySpec { session, depth, pat_pct, prov_pct, policy, deadline_nanos }
    QueryDesc { cold, projection_type, selectivities, text }
    ExtentDesc [16] { classname, size, associations }
    SystemDesc { server_cache_kb, client_cache_kb, same_workstation }
    OperatorStat [92] {
        op, label, depth, d2sc_read_pages, sc2cc_read_pages, client_misses, handle_gets,
        handle_frees, cpu_events, io_nanos, rpc_nanos, cpu_nanos, swap_nanos
    }
    Stat {
        numtest, query, database, cluster, algo, system, cc_pagefaults, cc_lookups,
        elapsed_time, rpcs_number, rpcs_total_mb, d2sc_read_pages, sc2cc_read_pages,
        cc_miss_rate, sc_miss_rate, operators
    }
    // A partial is at least shard + results + a minimal `Stat` (~126 bytes
    // of fixed-width fields): 100 is a safe floor for the forged-count guard.
    PartialStat [100] { shard, results, stat }
    ShardAbort [16] { shard, conflict_file, conflict_epoch }
}

/// A message is a tag byte, then its variant's fields in the order
/// listed (a one-field tuple variant names its field's binding). An
/// unknown tag is [`DecodeError::BadTag`]; bytes after the last field
/// are [`DecodeError::TrailingBytes`].
macro_rules! wire_message {
    ($ty:ident { $($tag:literal => $v:ident $(($inner:ident))? $({ $($f:ident),* })?,)* }) => {
        impl $ty {
            /// Encodes to a frame payload.
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                match self {
                    $($ty::$v $(($inner))? $({ $($f),* })? => {
                        out.push($tag);
                        $($inner.put(&mut out);)?
                        $($($f.put(&mut out);)*)?
                    })*
                }
                out
            }

            /// Decodes a frame payload.
            pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
                let c = &mut &payload[..];
                let msg = match u8::get(c)? {
                    $($tag => $ty::$v
                        $(({ let $inner = Wire::get(c)?; $inner }))?
                        $({ $($f: Wire::get(c)?),* })?,)*
                    other => return Err(DecodeError::BadTag(other)),
                };
                if c.is_empty() {
                    Ok(msg)
                } else {
                    Err(DecodeError::TrailingBytes)
                }
            }
        }
    };
}

wire_message! { Request {
    1 => Hello { mode },
    2 => Query(q),
    3 => Close { session },
    4 => Update { session, target, sel_pct, delta, deadline_nanos },
    5 => Commit { session },
    6 => Abort { session },
    7 => Chain(q),
    8 => Scatter(q),
}}

wire_message! { Response {
    128 => SessionOpened { session },
    129 => QueryOk { results, stat },
    130 => Overloaded { queue_depth, shard },
    131 => DeadlineExceeded { elapsed_nanos },
    132 => SessionClosed { drained_handles, leaked_handles, uncommitted_pages },
    133 => Error { msg },
    134 => UpdateOk { updated, stat },
    135 => Committed { epoch, pages },
    136 => Aborted { conflict_file, conflict_epoch },
    137 => RolledBack { discarded_pages },
    138 => ScatterOk { results, stat, partials },
    139 => ShardUnavailable { shard, detail },
    140 => ShardsAborted { committed, aborts },
}}

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
