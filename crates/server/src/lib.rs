//! treequery's serving layer: a concurrent query service over the
//! simulated object database.
//!
//! The paper benchmarks one query at a time against a freshly
//! restarted server. This crate asks the follow-up question a real
//! deployment would: what do those same queries cost when a *service*
//! runs them concurrently for many clients? The pieces:
//!
//! * [`session`] — each client session gets a snapshot-isolated view
//!   of the database via the copy-on-write `Database::clone`, its own
//!   caches/clock/handle table, and a warm or cold cache discipline.
//! * [`sched`] — a bounded worker pool behind an admission queue;
//!   queries arriving at a full queue are shed with a typed
//!   `Overloaded` rather than queued without bound.
//! * [`proto`] / [`transport`] — a length-prefixed wire protocol
//!   carrying query descriptions (algorithm × clustering ×
//!   selectivity) and full per-operator `Stat` results, served
//!   identically over TCP and over a deterministic in-process duplex
//!   stream.
//! * [`measure`] — the paper's measurement protocol, moved here from
//!   the figure harness so served queries and figure cells run one
//!   code path (and produce byte-identical `Stat`s).
//! * Per-query deadlines in *simulated* nanoseconds, enforced
//!   cooperatively at operator boundaries: a blown deadline cancels
//!   the query and reports it — it never hangs a worker.

pub mod client;
pub mod measure;
pub mod proto;
pub mod sched;
pub mod server;
pub mod session;
pub mod transport;

pub use client::{Client, ClientError};
pub use proto::{
    read_frame, write_frame, CacheMode, ChainQuerySpec, DecodeError, FrameError, PartialStat,
    QuerySpec, Request, Response, ShardAbort, UpdateTarget, Work, MAX_FRAME, SHARD_SELF,
};
pub use sched::{Overloaded, Scheduler};
pub use server::{Server, ServerConfig, ServerStatsSnapshot};
pub use session::{CloseReport, CommitConflict, CommitOutcome, SessionError, SessionManager};
pub use transport::{duplex_pair, Channel, ConnectionFront, DuplexStream};
