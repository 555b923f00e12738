//! The layer-walk: with no server running, one thread replays served
//! ops by calling, in order and each inside a span, the public
//! functions the served path is made of. What the walk cannot see —
//! thread hand-offs and queue wait — is what is left when its total is
//! subtracted from the latency the live service showed.
//!
//! Call order of one direct read (a routed read runs the middle once
//! per shard, then `merge_stats`):
//!
//! ```text
//! [SessionManager::create]                       serve_sessions only
//! Request::encode → write_frame/read_frame → Request::decode
//! SessionManager::take → cold_restart → measure_current → stat_record
//! SessionManager::restore
//! Response::encode → write_frame/read_frame → Response::decode
//! [SessionManager::close]
//! ```

use std::collections::HashSet;

use tq_query::JoinOptions;
use tq_server::{
    duplex_pair, measure, read_frame, write_frame, CacheMode, CommitOutcome, DuplexStream,
    QuerySpec, Request, Response, SessionManager, UpdateTarget,
};
use tq_simrng::SimRng;
use tq_statsdb::{merge_stats, Stat};
use tq_workload::Database;

use crate::ops::{read_kind, WRITE_SELS};
use crate::oracle::Answer;
use crate::trace::{self_times, Span, Tracer};

/// Span names whose self time is the engine's; every other span of a
/// walked op is the service's.
const ENGINE: [&str; 2] = ["cold_restart", "engine"];

/// One end-to-end wire in one thread: what is written to `near` is
/// read from `far` and back.
struct Wire {
    near: DuplexStream,
    far: DuplexStream,
}

impl Wire {
    fn new() -> Self {
        let (near, far) = duplex_pair();
        Wire { near, far }
    }

    /// Encodes, frames, ships and decodes a request.
    fn request(&mut self, t: &mut Tracer, req: &Request) -> Request {
        let s = t.enter("request.encode");
        let bytes = req.encode();
        t.exit(s);
        let s = t.enter("frame");
        write_frame(&mut self.near, &bytes).expect("in-process wire");
        let payload = read_frame(&mut self.far).expect("in-process wire");
        t.exit(s);
        let s = t.enter("request.decode");
        let req = Request::decode(&payload).expect("own encoding decodes");
        t.exit(s);
        req
    }

    /// Encodes, frames, ships and decodes a response.
    fn response(&mut self, t: &mut Tracer, resp: &Response) -> Response {
        let s = t.enter("response.encode");
        let bytes = resp.encode();
        t.exit(s);
        let s = t.enter("frame");
        write_frame(&mut self.far, &bytes).expect("in-process wire");
        let payload = read_frame(&mut self.near).expect("in-process wire");
        t.exit(s);
        let s = t.enter("response.decode");
        let resp = Response::decode(&payload).expect("own encoding decodes");
        t.exit(s);
        resp
    }
}

/// One engine endpoint as the walk sees it: a session table over one
/// database (the whole base, or one shard) and the wire to it.
struct Endpoint {
    sessions: SessionManager,
    /// The long-lived cold session; `None` when each op opens its own.
    session: Option<u64>,
    wire: Wire,
}

impl Endpoint {
    fn new(db: Database, per_op_session: bool) -> Self {
        let sessions = SessionManager::new(db);
        let session = (!per_op_session).then(|| sessions.create(CacheMode::Cold));
        Endpoint {
            sessions,
            session,
            wire: Wire::new(),
        }
    }

    /// What a server does with one `Query` frame, call by call.
    fn read(&mut self, t: &mut Tracer, kind: usize) -> Response {
        let (algo, pat_pct, prov_pct) = read_kind(kind);
        let session = self.session.unwrap_or_else(|| {
            let s = t.enter("session.create");
            let id = self.sessions.create(CacheMode::Cold);
            t.exit(s);
            id
        });
        let req = self.wire.request(
            t,
            &Request::Query(QuerySpec {
                session,
                algo,
                pat_pct,
                prov_pct,
                deadline_nanos: 0,
            }),
        );
        let Request::Query(spec) = req else {
            unreachable!("a query was sent")
        };
        let s = t.enter("session.take");
        let (mut db, _) = self.sessions.take(spec.session).expect("idle session");
        t.exit(s);
        // `run_join_cell_with`, in its two halves.
        let s = t.enter("cold_restart");
        db.store.cold_restart();
        t.exit(s);
        let s = t.enter("engine");
        let cell = measure::measure_current(
            &mut db,
            spec.algo,
            spec.pat_pct,
            spec.prov_pct,
            &JoinOptions::default(),
            None,
        );
        t.exit(s);
        let s = t.enter("stat_record");
        let stat = measure::stat_record(&db, &cell, spec.pat_pct, spec.prov_pct);
        t.exit(s);
        let s = t.enter("session.restore");
        self.sessions.restore(spec.session, db);
        t.exit(s);
        let resp = self.wire.response(
            t,
            &Response::QueryOk {
                results: cell.results,
                stat: Box::new(stat),
            },
        );
        if self.session.is_none() {
            let s = t.enter("session.close");
            self.sessions.close(session).expect("idle session");
            t.exit(s);
        }
        resp
    }
}

/// The walked counterpart of a server (one endpoint) and of a router
/// over shards (a client wire, one endpoint per shard, a merge).
pub struct Walker {
    direct: Endpoint,
    client_wire: Wire,
    shards: Vec<Endpoint>,
}

fn right(resp: &Response, want: &Answer) -> bool {
    matches!(resp, Response::QueryOk { results, stat }
        if *results == want.results && **stat == want.stat)
}

impl Walker {
    pub fn new(base: &Database, shards: &[Database], per_op_session: bool) -> Self {
        Walker {
            direct: Endpoint::new(base.clone(), per_op_session),
            client_wire: Wire::new(),
            shards: shards
                .iter()
                .map(|s| Endpoint::new(s.clone(), per_op_session))
                .collect(),
        }
    }

    /// Walks one read the direct way; returns whether the answer was right.
    pub fn direct_read(&mut self, t: &mut Tracer, kind: usize, want: &Answer) -> bool {
        t.next_op();
        let op = t.enter("direct");
        let resp = self.direct.read(t, kind);
        t.exit(op);
        right(&resp, want)
    }

    /// Walks one read the routed way: the client's frame to the router,
    /// the whole server path once per shard, the merge, the reply.
    pub fn routed_read(&mut self, t: &mut Tracer, kind: usize, want: &Answer) -> bool {
        let (algo, pat_pct, prov_pct) = read_kind(kind);
        t.next_op();
        let op = t.enter("routed");
        self.client_wire.request(
            t,
            &Request::Query(QuerySpec {
                session: 1,
                algo,
                pat_pct,
                prov_pct,
                deadline_nanos: 0,
            }),
        );
        let mut results = 0;
        let mut parts: Vec<Stat> = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let s = t.enter("shard");
            let resp = shard.read(t, kind);
            t.exit(s);
            let Response::QueryOk { results: n, stat } = resp else {
                unreachable!("the walk answers QueryOk")
            };
            results += n;
            parts.push(*stat);
        }
        let s = t.enter("merge");
        let stat = merge_stats(&parts).expect("at least one shard");
        t.exit(s);
        let resp = self.client_wire.response(
            t,
            &Response::QueryOk {
                results,
                stat: Box::new(stat),
            },
        );
        t.exit(op);
        right(&resp, want)
    }
}

/// Per-op numbers of the direct walk, in microseconds.
#[derive(Default)]
pub struct DirectOp {
    pub engine_us: f64,
    pub service_us: f64,
}

impl DirectOp {
    pub fn total_us(&self) -> f64 {
        self.engine_us + self.service_us
    }
}

/// Per-op numbers of the routed walk, in microseconds.
#[derive(Default)]
pub struct RoutedOp {
    /// Engine self time summed over the shards.
    pub shard_engine_us: f64,
    pub merge_us: f64,
    /// The whole walked op, shards end to end — as one CPU runs them.
    pub total_us: f64,
    /// The shard spans: their sum, and the longest of them.
    pub shards_us: f64,
    pub longest_shard_us: f64,
}

impl RoutedOp {
    /// Longest shard span / sum of shard spans (0.5 = two even shards).
    pub fn slowest_shard_share(&self) -> f64 {
        self.longest_shard_us / self.shards_us
    }
}

const US: f64 = 1e-3;

/// Every span of the ops whose root span is named `root`, in recording
/// order, with its self time.
fn walked<'a>(spans: &'a [Span], root: &str) -> impl Iterator<Item = (&'a Span, u64)> {
    let ops: HashSet<u32> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| s.op)
        .collect();
    spans
        .iter()
        .zip(self_times(spans))
        .filter(move |(s, _)| ops.contains(&s.op))
}

/// Splits the direct walk's ops into engine and service self time.
pub fn direct_ops(spans: &[Span]) -> Vec<DirectOp> {
    let mut ops: Vec<DirectOp> = Vec::new();
    for (s, self_ns) in walked(spans, "direct") {
        if s.parent.is_none() {
            ops.push(DirectOp::default());
        }
        let op = ops.last_mut().expect("an op opens with its root span");
        if ENGINE.contains(&s.name) {
            op.engine_us += self_ns as f64 * US;
        } else {
            op.service_us += self_ns as f64 * US;
        }
    }
    ops
}

/// Per-op shard work, shard balance, merge time and total of the routed walk.
pub fn routed_ops(spans: &[Span]) -> Vec<RoutedOp> {
    let mut ops: Vec<RoutedOp> = Vec::new();
    for (s, self_ns) in walked(spans, "routed") {
        if s.parent.is_none() {
            ops.push(RoutedOp::default());
        }
        let op = ops.last_mut().expect("an op opens with its root span");
        let len_us = (s.end_ns - s.start_ns) as f64 * US;
        match s.name {
            "routed" => op.total_us = len_us,
            "shard" => {
                op.shards_us += len_us;
                op.longest_shard_us = op.longest_shard_us.max(len_us);
            }
            "merge" => op.merge_us += self_ns as f64 * US,
            name if ENGINE.contains(&name) => op.shard_engine_us += self_ns as f64 * US,
            _ => {}
        }
    }
    ops
}

/// Durations in microseconds of every span named `name`.
pub fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * US)
        .collect()
}

/// The same, over the direct walk's ops only.
pub fn direct_span_us(spans: &[Span], name: &str) -> Vec<f64> {
    walked(spans, "direct")
        .filter(|(s, _)| s.name == name)
        .map(|(s, _)| (s.end_ns - s.start_ns) as f64 * US)
        .collect()
}

/// What the walked write transactions measured.
pub struct WriteWalk {
    pub attempted: u64,
    pub failed: u64,
    /// Pages published by all commits together.
    pub pages: u64,
}

/// Walks `count` write transactions on a private session table: the
/// statement, its record, the commit, and a clean reader's re-pin onto
/// the epoch the commit published. Spans: `update.stmt`,
/// `session.commit`, `session.repin`.
pub fn write_walk(
    t: &mut Tracer,
    base: &Database,
    seed: u64,
    count: usize,
    updated: &[u64],
) -> WriteWalk {
    let sessions = SessionManager::new(base.clone());
    let writer = sessions.create(CacheMode::Cold);
    let reader = sessions.create(CacheMode::Cold);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5752_4954_4553);
    let mut out = WriteWalk {
        attempted: 0,
        failed: 0,
        pages: 0,
    };
    for _ in 0..count {
        let sel = rng.range_u32(*WRITE_SELS.start(), *WRITE_SELS.end());
        t.next_op();
        let op = t.enter("write");
        let s = t.enter("session.take");
        let (mut db, _) = sessions.take(writer).expect("idle session");
        t.exit(s);
        let s = t.enter("update.stmt");
        let cell = measure::measure_update_current(&mut db, UpdateTarget::Patients, sel, 1, None);
        t.exit(s);
        let s = t.enter("stat_record");
        std::hint::black_box(measure::update_stat_record(&db, &cell, sel, 1, true));
        t.exit(s);
        let s = t.enter("session.restore");
        sessions.restore(writer, db);
        t.exit(s);
        let s = t.enter("session.commit");
        let outcome = sessions.commit(writer);
        t.exit(s);
        // The reader wrote nothing and now sits behind the head: `take`
        // re-pins it, which is a fresh clone of the new epoch.
        let s = t.enter("session.repin");
        let (db, _) = sessions.take(reader).expect("idle session");
        t.exit(s);
        sessions.restore(reader, db);
        t.exit(op);
        out.attempted += 1;
        match outcome {
            Ok(CommitOutcome::Committed { pages, .. })
                if pages > 0 && cell.outcome.updated == updated[sel as usize] =>
            {
                out.pages += pages;
            }
            _ => out.failed += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::served_answers;
    use crate::run::build_config;
    use tq_workload::{build, partition_database};

    /// The walk is the served path: it returns the oracle's answers, and
    /// its spans split into the shapes the metrics are read from.
    #[test]
    fn walk_answers_match_the_oracle_and_split_by_layer() {
        let base = build(&build_config(2000, 1));
        let shards = partition_database(&base, 2);
        // The paper's lightest and heaviest cells, and a tiny query.
        let kinds = [0, 49, 110];
        let lists = [kinds.map(crate::ops::Op::Read).to_vec()];
        let direct_answers = served_answers(std::slice::from_ref(&base), &lists);
        let routed_answers = served_answers(&shards, &lists);
        let mut t = Tracer::new(true);
        for per_op_session in [false, true] {
            let mut walker = Walker::new(&base, &shards, per_op_session);
            for kind in kinds {
                assert!(walker.direct_read(&mut t, kind, &direct_answers[&kind]));
                assert!(walker.routed_read(&mut t, kind, &routed_answers[&kind]));
            }
        }
        let direct = direct_ops(t.spans());
        let routed = routed_ops(t.spans());
        assert_eq!((direct.len(), routed.len()), (6, 6));
        for op in &direct {
            assert!(op.engine_us > 0.0 && op.service_us > 0.0);
        }
        for op in &routed {
            assert!(op.shard_engine_us > 0.0 && op.merge_us > 0.0);
            assert!((0.5..=1.0).contains(&op.slowest_shard_share()));
            assert!(op.total_us > op.shard_engine_us);
        }
        assert_eq!(span_us(t.spans(), "session.create").len(), 3 + 3 * 2);
    }

    #[test]
    fn write_walk_commits_every_transaction() {
        let base = build(&build_config(2000, 1));
        let updated = crate::oracle::updated_counts(&base);
        let mut t = Tracer::new(true);
        let w = write_walk(&mut t, &base, 1, 12, &updated);
        assert_eq!((w.attempted, w.failed), (12, 0));
        assert!(w.pages >= 12);
        assert_eq!(span_us(t.spans(), "session.commit").len(), 12);
    }
}
