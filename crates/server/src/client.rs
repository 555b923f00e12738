//! Client-side protocol helper: a thin synchronous request/response
//! wrapper over any `Read + Write` connection (TCP or in-process).

use std::io::{Read, Write};

use crate::proto::{
    read_frame, write_frame, CacheMode, ChainQuerySpec, DecodeError, FrameError, QuerySpec,
    Request, Response, UpdateTarget,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport/framing failure.
    Frame(FrameError),
    /// The server sent bytes that do not decode.
    Decode(DecodeError),
    /// The server answered `Error { msg }`.
    Server(String),
    /// The server answered with a response that does not fit the
    /// request (protocol confusion).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "transport: {e}"),
            ClientError::Decode(e) => write!(f, "bad server payload: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response to {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// One protocol conversation over one connection.
pub struct Client<S: Read + Write> {
    conn: S,
}

impl<S: Read + Write> Client<S> {
    /// Wraps a connected stream.
    pub fn new(conn: S) -> Self {
        Self { conn }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.conn, &req.encode())?;
        Ok(Response::decode(&read_frame(&mut self.conn)?)?)
    }

    /// Opens a session; returns its id.
    pub fn open_session(&mut self, mode: CacheMode) -> Result<u64, ClientError> {
        match self.call(&Request::Hello { mode })? {
            Response::SessionOpened { session } => Ok(session),
            Response::Error { msg } => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("Hello")),
        }
    }

    /// Sends `req` and sorts the reply: `Error` is a
    /// [`ClientError::Server`], an [`admissible`] reply is the call's
    /// ordinary outcome, anything else is protocol confusion.
    fn outcome(&mut self, req: &Request, what: &'static str) -> Result<Response, ClientError> {
        match self.call(req)? {
            Response::Error { msg } => Err(ClientError::Server(msg)),
            resp if admissible(req, &resp) => Ok(resp),
            _ => Err(ClientError::Unexpected(what)),
        }
    }

    /// Runs one query. The caller matches on the response: `QueryOk`,
    /// `Overloaded`, `DeadlineExceeded`, and (behind a router)
    /// `ShardUnavailable` are all ordinary outcomes of a served query,
    /// not client errors.
    pub fn query(&mut self, spec: QuerySpec) -> Result<Response, ClientError> {
        self.outcome(&Request::Query(spec), "Query")
    }

    /// Runs one query with per-shard partials in the reply. A plain
    /// server answers with a single self-partial; a router answers
    /// with one partial per engine shard plus the merged totals.
    pub fn scatter(&mut self, spec: QuerySpec) -> Result<Response, ClientError> {
        self.outcome(&Request::Scatter(spec), "Scatter")
    }

    /// Runs one N-way chain query. Same outcome vocabulary as
    /// [`Client::query`] — a served chain answers `QueryOk`.
    pub fn chain(&mut self, spec: ChainQuerySpec) -> Result<Response, ClientError> {
        self.outcome(&Request::Chain(spec), "Chain")
    }

    /// Runs one update statement. Like [`Client::query`], `UpdateOk`,
    /// `Overloaded`, and `DeadlineExceeded` are all ordinary outcomes.
    pub fn update(
        &mut self,
        session: u64,
        target: UpdateTarget,
        sel_pct: u32,
        delta: i32,
        deadline_nanos: u64,
    ) -> Result<Response, ClientError> {
        let req = Request::Update {
            session,
            target,
            sel_pct,
            delta,
            deadline_nanos,
        };
        self.outcome(&req, "Update")
    }

    /// Commits the session's writes. `Committed`, `Aborted`, and
    /// (behind a router) `ShardsAborted` are all ordinary outcomes —
    /// an abort is the validation protocol working, not a failure.
    pub fn commit(&mut self, session: u64) -> Result<Response, ClientError> {
        self.outcome(&Request::Commit { session }, "Commit")
    }

    /// Discards the session's uncommitted writes; returns the number of
    /// dirty pages thrown away.
    pub fn abort(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Abort { session })? {
            Response::RolledBack { discarded_pages } => Ok(discarded_pages),
            Response::Error { msg } => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("Abort")),
        }
    }

    /// Closes a session; returns `(drained_handles, leaked_handles,
    /// uncommitted_pages)`.
    pub fn close_session(&mut self, session: u64) -> Result<(u64, u64, u64), ClientError> {
        match self.call(&Request::Close { session })? {
            Response::SessionClosed {
                drained_handles,
                leaked_handles,
                uncommitted_pages,
            } => Ok((drained_handles, leaked_handles, uncommitted_pages)),
            Response::Error { msg } => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("Close")),
        }
    }
}

/// Whether `resp` is an ordinary outcome of `req`: its own ok shape,
/// or one of the typed ways a request goes unserved — engine work can
/// be shed or run out of time, and anything can find a shard away.
fn admissible(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Query(_) | Request::Chain(_), Response::QueryOk { .. })
        | (Request::Scatter(_), Response::ScatterOk { .. })
        | (Request::Update { .. }, Response::UpdateOk { .. })
        | (
            Request::Commit { .. },
            Response::Committed { .. } | Response::Aborted { .. } | Response::ShardsAborted { .. },
        )
        | (_, Response::ShardUnavailable { .. }) => true,
        (_, Response::Overloaded { .. } | Response::DeadlineExceeded { .. }) => {
            req.work().is_some()
        }
        _ => false,
    }
}
