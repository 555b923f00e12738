//! Blocks: the unit every workload repeats. A block is one complete
//! set-up (build the database, start what serves it, connect) followed
//! by the workload's fixed op list, every op timed on the wall clock
//! and the whole list on the wall and process-CPU clocks. Every block
//! of a run does identical work on identical fresh state, so a run's
//! blocks differ only by what the host did to them.

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Instant;

use tq_pagestore::IoStats;
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{index_scan, seq_scan, sorted_index_scan, JoinOptions, PlannerPolicy};
use tq_router::{Router, RouterConfig, RouterStatsSnapshot};
use tq_server::{
    measure, CacheMode, Client, DuplexStream, QuerySpec, Response, Server, ServerConfig,
    ServerStatsSnapshot, UpdateTarget,
};
use tq_statsdb::Stat;
use tq_workload::{build, patient_attr, BuildConfig, Database, DbShape, Organization};

use crate::ops::{fig_cells, read_kind, Cell, Op, Scan, MORSEL_DEGREE};
use crate::oracle::{answer_digest, select_digest, Answer, Census, Fnv};
use crate::spec::{Sizing, Workload};
use crate::stats::{percentile, sort};
use crate::sys;
use crate::trace::Tracer;

/// Engine shards behind the router.
pub const SHARDS: u32 = 2;

/// DB2, class-clustered, simulated caches scaled with the data; the
/// benchmark's seed is the build's seed.
pub fn build_config(scale: u32, seed: u64) -> BuildConfig {
    let mut cfg = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, scale);
    cfg.seed = seed;
    cfg
}

/// What a served block was told in reply to one read kind. Every reply
/// to a kind must be the same, so the first is kept and the rest are
/// compared with it as they arrive; the oracle checks the kept one once
/// it has run — after the first block, whose peak memory is then the
/// workload's and not the oracle's.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub results: u64,
    /// The whole `Stat` on the cold read-only workloads; `None` on
    /// `serve_write_mix`, whose readers see moving epochs and whose
    /// result counts alone must hold.
    pub stat: Option<Box<Stat>>,
    /// Reads of this kind in the block.
    pub ops: u64,
}

/// What one write transaction answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Written {
    pub sel_pct: u32,
    pub updated: u64,
    pub pages: u64,
}

/// What one block measured.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Wall seconds from the start of the build to the first timed op.
    pub setup_s: f64,
    /// Ops run, and how many of them failed or answered unlike an
    /// earlier op of their kind.
    pub attempted: u64,
    pub failed: u64,
    /// Wall and process-CPU seconds (every thread) of the whole op
    /// list, from the first op's start to the last op's end.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall latency in ms of every read (in a `fig_*` block: of every
    /// cell) and of every write transaction, lane after lane.
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Result count of each cell (`fig_*` only).
    pub results: Vec<u64>,
    /// The reply to each read kind, and every write's (`serve_*` only).
    pub replies: BTreeMap<usize, Reply>,
    pub written: Vec<Written>,
    /// FNV over the op lists and every answer of the block.
    pub fingerprint: u64,
    pub server: ServerStatsSnapshot,
    pub router: RouterStatsSnapshot,
    /// `VmHWM` in MiB when the block ended.
    pub rss_mb: f64,
}

impl Block {
    /// Ops completed per second of the op list's wall time.
    pub fn throughput_ops_s(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }

    /// Process CPU over the op list, per op.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.attempted as f64
    }

    /// The latencies the workload's latency metrics are about, ascending:
    /// the write transactions' when the list writes, else the reads'.
    pub fn focus_ms(&self) -> Vec<f64> {
        let mut focus = if self.write_ms.is_empty() {
            self.read_ms.clone()
        } else {
            self.write_ms.clone()
        };
        sort(&mut focus);
        focus
    }

    /// Nearest-rank percentile of [`Block::focus_ms`].
    pub fn focus_percentile(&self, p: f64) -> f64 {
        percentile(&self.focus_ms(), p)
    }

    /// Ops whose answer the oracle contradicts: every read of a kind
    /// whose kept reply differs from the in-process answer, every write
    /// that updated another number of rows or committed no page.
    pub fn wrong_ops(&self, answers: &BTreeMap<usize, Answer>, updated: &[u64]) -> u64 {
        let reads = self.replies.iter().filter(|(kind, reply)| {
            let want = &answers[kind];
            let stat_ok = reply.stat.as_deref().is_none_or(|stat| *stat == want.stat);
            reply.results != want.results || !stat_ok
        });
        let writes = self
            .written
            .iter()
            .filter(|w| w.updated != updated[w.sel_pct as usize] || w.pages == 0);
        reads.map(|(_, reply)| reply.ops).sum::<u64>() + writes.count() as u64
    }
}

/// The value of `metric` at the block where it is best: what the run's
/// calmest moment read, noted beside the median block that is reported.
pub fn best(blocks: &[Block], metric: impl Fn(&Block) -> f64, higher_is_better: bool) -> f64 {
    let values = blocks.iter().map(metric);
    if higher_is_better {
        values.fold(f64::NEG_INFINITY, f64::max)
    } else {
        values.fold(f64::INFINITY, f64::min)
    }
}

/// Times `work` on the wall and process-CPU clocks, in seconds.
pub fn timed<R>(work: impl FnOnce() -> R) -> (R, f64, f64) {
    let (wall0, cpu0) = (Instant::now(), sys::process_cpu());
    let out = work();
    let cpu_s = (sys::process_cpu() - cpu0).as_secs_f64();
    (out, wall0.elapsed().as_secs_f64(), cpu_s)
}

// ---------------------------------------------------------------------
// fig_*: in-process cells
// ---------------------------------------------------------------------

fn selection(db: &Database, pct: u32) -> Selection {
    Selection {
        collection: "Patients".into(),
        attr: patient_attr::NUM,
        cmp: CmpOp::Lt,
        residual: vec![],
        key: db.num_selectivity_key(pct),
        project: patient_attr::AGE,
        result_mode: ResultMode::Persistent,
    }
}

/// What one cell answered, and the simulated machine's counters for it.
pub struct CellOut {
    pub results: u64,
    /// Digest of the results and every simulated statistic.
    pub digest: u64,
    pub io: IoStats,
    pub handle_gets: u64,
}

/// Runs one cell cold on its own copy-on-write clone of `base` — the
/// paper's protocol, spelled out call by call so each call can carry a
/// span.
pub fn run_cell(base: &Database, cell: Cell, t: &mut Tracer) -> CellOut {
    let opts = JoinOptions::default();
    let s = t.enter("clone");
    let mut db = base.clone();
    t.exit(s);
    let s = t.enter("cold_restart");
    db.store.cold_restart();
    t.exit(s);
    match cell {
        Cell::Join(algo, pat, prov) | Cell::Morsel(algo, pat, prov) => {
            let degree = if matches!(cell, Cell::Morsel(..)) {
                MORSEL_DEGREE
            } else {
                1
            };
            let s = t.enter("engine");
            let cell =
                measure::measure_current_parallel(&mut db, algo, pat, prov, &opts, None, degree)
                    .expect("no morsel worker panics");
            t.exit(s);
            let s = t.enter("stat_record");
            let stat = measure::stat_record(&db, &cell, pat, prov);
            t.exit(s);
            CellOut {
                results: cell.results,
                digest: answer_digest(cell.results, &stat),
                io: cell.io,
                handle_gets: cell.report.trace.total().handle_gets(),
            }
        }
        Cell::Chain { depth, pat, prov } => {
            let s = t.enter("engine");
            let spec = measure::compile_chain_spec(&db, depth, pat, prov).expect("served depth");
            let cell =
                measure::measure_chain_current(&mut db, &spec, PlannerPolicy::Estimate, None);
            t.exit(s);
            let s = t.enter("stat_record");
            let stat = measure::chain_stat_record(&db, &cell, depth, pat, prov);
            t.exit(s);
            CellOut {
                results: cell.results,
                digest: answer_digest(cell.results, &stat),
                io: cell.io,
                handle_gets: cell.report.trace.total().handle_gets(),
            }
        }
        Cell::Select(scan, pct) => {
            let sel = selection(&db, pct);
            let index = db.idx_patient_num.clone();
            let s = t.enter("engine");
            db.store.reset_metrics();
            let report = match scan {
                Scan::Seq => seq_scan(&mut db.store, &sel, false),
                Scan::Index => index_scan(&mut db.store, &index, &sel, false),
                Scan::SortedIndex => sorted_index_scan(&mut db.store, &index, &sel, false),
            };
            db.store.end_of_query();
            t.exit(s);
            CellOut {
                results: report.selected,
                digest: select_digest(&db, &report),
                io: db.store.stats(),
                handle_gets: report.trace.total().handle_gets(),
            }
        }
    }
}

/// One `fig_*` block: build, then one pass over the grid on one thread
/// (plus the morsel workers `fig_morsel` starts).
pub fn fig_block(w: Workload, seed: u64, sizing: Sizing) -> Block {
    let mut tracer = Tracer::new(false);
    let t0 = Instant::now();
    let base = build(&build_config(sizing.scale, seed));
    let mut block = Block {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Block::default()
    };
    let mut fp = Fnv::new();
    let ((), wall_s, cpu_s) = timed(|| {
        for cell in fig_cells(w) {
            let started = Instant::now();
            let out = run_cell(&base, cell, &mut tracer);
            block.read_ms.push(started.elapsed().as_secs_f64() * 1e3);
            block.attempted += 1;
            block.results.push(out.results);
            fp.u64(out.results);
            fp.u64(out.digest);
        }
    });
    (block.wall_s, block.cpu_s) = (wall_s, cpu_s);
    block.fingerprint = fp.finish();
    block.rss_mb = sys::peak_rss_mb();
    block
}

/// Cells of one pass whose result count the census contradicts.
pub fn census_mismatches(w: Workload, seed: u64, sizing: Sizing, results: &[u64]) -> u64 {
    let base = build(&build_config(sizing.scale, seed));
    let census = Census::take(&base);
    fig_cells(w)
        .into_iter()
        .zip(results)
        .filter(|&(cell, &got)| {
            let want = match cell {
                Cell::Join(_, pat, prov) | Cell::Morsel(_, pat, prov) => {
                    census.join_counts(&base, pat, prov).0
                }
                Cell::Chain { depth, pat, prov } => {
                    let (join, chain4) = census.join_counts(&base, pat, prov);
                    if depth == 3 {
                        join
                    } else {
                        chain4
                    }
                }
                Cell::Select(_, pct) => census.select_count(&base, pct),
            };
            got != want
        })
        .count() as u64
}

// ---------------------------------------------------------------------
// serve_*: closed loop over the wire protocol
// ---------------------------------------------------------------------

/// What the lanes connect to. Either way the conversation is the
/// same wire protocol over the same in-process duplex streams.
enum Front {
    Direct(Server),
    Routed(Router),
}

impl Front {
    fn start(base: Database, routed: bool) -> Front {
        if routed {
            Front::Routed(Router::start_partitioned(
                &base,
                SHARDS,
                RouterConfig {
                    workers_per_shard: 1,
                    queue_depth: 16,
                    max_inflight: 18,
                    parallel: 1,
                },
            ))
        } else {
            Front::Direct(Server::start(
                base,
                ServerConfig {
                    workers: 2,
                    queue_depth: 16,
                    parallel: 1,
                },
            ))
        }
    }

    fn connect(&self) -> Client<DuplexStream> {
        Client::new(match self {
            Front::Direct(server) => server.connect_in_proc(),
            Front::Routed(router) => router.connect_in_proc(),
        })
    }

    /// Service counters, summed over the shards behind a router.
    fn stats(&self) -> (ServerStatsSnapshot, RouterStatsSnapshot) {
        match self {
            Front::Direct(server) => (server.stats(), RouterStatsSnapshot::default()),
            Front::Routed(router) => {
                let mut sum = ServerStatsSnapshot::default();
                for shard in router.shards() {
                    let s = shard.stats();
                    sum.queries_ok += s.queries_ok;
                    sum.queries_shed += s.queries_shed;
                    sum.queries_deadline_exceeded += s.queries_deadline_exceeded;
                    sum.queries_failed += s.queries_failed;
                    sum.commits += s.commits;
                    sum.commit_aborts += s.commit_aborts;
                }
                (sum, router.stats())
            }
        }
    }

    fn shutdown(self) {
        match self {
            Front::Direct(server) => server.shutdown(),
            Front::Routed(router) => router.shutdown(),
        }
    }
}

/// One op list on its own connection.
struct Lane<'a> {
    client: Client<DuplexStream>,
    /// The lane's long-lived cold session; `None` when every op opens
    /// and closes a session of its own (`serve_sessions`).
    session: Option<u64>,
    ops: &'a [Op],
    /// Whether replies are compared `Stat` and all, or by result count.
    full_stat: bool,
    failed: u64,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    replies: BTreeMap<usize, Reply>,
    written: Vec<Written>,
}

impl Lane<'_> {
    /// Runs and times the lane's `turn`th op.
    fn step(&mut self, turn: usize) {
        let op = self.ops[turn];
        let started = Instant::now();
        let reply = match op {
            Op::Read(kind) => self.read(kind).map(Ok),
            Op::Write(sel_pct) => self.write(sel_pct).map(Err),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        // Checked outside the op's own time.
        match reply {
            Some(Ok((kind, reply))) => {
                self.read_ms.push(ms);
                match self.replies.entry(kind) {
                    Entry::Vacant(first) => {
                        first.insert(reply);
                    }
                    Entry::Occupied(mut first) => {
                        let first = first.get_mut();
                        first.ops += 1;
                        let same = (first.results, &first.stat) == (reply.results, &reply.stat);
                        self.failed += u64::from(!same);
                    }
                }
            }
            Some(Err(written)) => {
                self.write_ms.push(ms);
                self.written.push(written);
            }
            None => self.failed += 1,
        }
    }

    /// One join query; with no lane session, the whole conversation
    /// open → query → close. `None` unless it ended in a `QueryOk` and a
    /// clean close.
    fn read(&mut self, kind: usize) -> Option<(usize, Reply)> {
        let (algo, pat_pct, prov_pct) = read_kind(kind);
        let session = match self.session {
            Some(s) => s,
            None => self.client.open_session(CacheMode::Cold).ok()?,
        };
        let reply = self.client.query(QuerySpec {
            session,
            algo,
            pat_pct,
            prov_pct,
            deadline_nanos: 0,
        });
        // A clean close: no leaked handle, no uncommitted page.
        let closed =
            self.session.is_some() || matches!(self.client.close_session(session), Ok((_, 0, 0)));
        match reply {
            Ok(Response::QueryOk { results, stat }) if closed => Some((
                kind,
                Reply {
                    results,
                    stat: self.full_stat.then_some(stat),
                    ops: 1,
                },
            )),
            _ => None,
        }
    }

    /// One write transaction: update, then commit. `None` unless both
    /// succeeded (any abort is a failure: there is one writer).
    fn write(&mut self, sel_pct: u32) -> Option<Written> {
        let session = self.session.expect("writers keep a session");
        let update = self
            .client
            .update(session, UpdateTarget::Patients, sel_pct, 1, 0);
        let Ok(Response::UpdateOk { updated, .. }) = update else {
            return None;
        };
        let Ok(Response::Committed { pages, .. }) = self.client.commit(session) else {
            return None;
        };
        Some(Written {
            sel_pct,
            updated,
            pages,
        })
    }
}

/// One `serve_*` block: build, start the server (or partition and start
/// the router), connect one lane per op list, then run the lists closed
/// loop. Everywhere but on `serve_write_mix` **one op is in flight**:
/// this thread drives every lane, the lanes taking turns op by op.
/// `serve_write_mix` gives each lane a client thread of its own, so two
/// requests are in flight and the reader overlaps the writer.
pub fn serve_block(
    w: Workload,
    seed: u64,
    sizing: Sizing,
    lists: &[Vec<Op>],
    routed: bool,
) -> Block {
    let t0 = Instant::now();
    let front = Front::start(build(&build_config(sizing.scale, seed)), routed);
    let mut lanes: Vec<Lane<'_>> = lists
        .iter()
        .map(|ops| {
            let mut client = front.connect();
            let session = (w != Workload::ServeSessions).then(|| {
                client
                    .open_session(CacheMode::Cold)
                    .expect("open the lane's session")
            });
            Lane {
                client,
                session,
                ops,
                full_stat: w != Workload::ServeWriteMix,
                failed: 0,
                read_ms: Vec::with_capacity(ops.len()),
                write_ms: Vec::new(),
                replies: BTreeMap::new(),
                written: Vec::new(),
            }
        })
        .collect();
    let mut block = Block {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Block::default()
    };

    // One client thread per lane needs a core per lane: min(2, nproc).
    let concurrent = w.concurrent() && sys::host_cores() >= lanes.len();
    let ((), wall_s, cpu_s) = timed(|| {
        if concurrent {
            std::thread::scope(|scope| {
                for lane in &mut lanes {
                    scope.spawn(|| (0..lane.ops.len()).for_each(|turn| lane.step(turn)));
                }
            });
        } else {
            let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
            for turn in 0..longest {
                for lane in lanes.iter_mut().filter(|lane| turn < lane.ops.len()) {
                    lane.step(turn);
                }
            }
        }
    });
    (block.wall_s, block.cpu_s) = (wall_s, cpu_s);

    let mut fp = Fnv::new();
    for mut lane in lanes {
        if let Some(session) = lane.session {
            // Zero leaked handles, zero uncommitted pages.
            let clean = matches!(lane.client.close_session(session), Ok((_, 0, 0)));
            block.failed += u64::from(!clean);
        }
        block.attempted += lane.ops.len() as u64;
        block.failed += lane.failed;
        block.read_ms.append(&mut lane.read_ms);
        block.write_ms.append(&mut lane.write_ms);
        for op in lane.ops {
            fp.u64(match *op {
                Op::Read(kind) => kind as u64,
                Op::Write(sel_pct) => u64::MAX - u64::from(sel_pct),
            });
        }
        for w in &lane.written {
            fp.u64(w.updated);
            fp.u64(w.pages);
        }
        block.written.append(&mut lane.written);
        // The lanes must agree with each other as each does with itself.
        for (kind, reply) in lane.replies {
            match block.replies.entry(kind) {
                Entry::Vacant(first) => {
                    first.insert(reply);
                }
                Entry::Occupied(mut first) => {
                    let first = first.get_mut();
                    first.ops += reply.ops;
                    let same = (first.results, &first.stat) == (reply.results, &reply.stat);
                    block.failed += if same { 0 } else { reply.ops };
                }
            }
        }
    }
    for (kind, reply) in &block.replies {
        fp.u64(*kind as u64);
        fp.u64(match &reply.stat {
            Some(stat) => answer_digest(reply.results, stat),
            None => reply.results,
        });
    }
    block.fingerprint = fp.finish();
    (block.server, block.router) = front.stats();
    front.shutdown();
    block.rss_mb = sys::peak_rss_mb();
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::op_lists;
    use crate::oracle::{served_answers, updated_counts};

    const SMOKE: Sizing = Sizing {
        scale: 2000,
        ops: 40,
        min_blocks: 1,
    };

    /// A served block keeps one reply per kind, and the oracle counts
    /// every op of a kind whose reply it contradicts.
    #[test]
    fn replies_are_checked_against_the_oracle_after_the_block() {
        let w = Workload::ServeDirect;
        let lists = op_lists(w, 3, SMOKE.ops);
        let block = serve_block(w, 3, SMOKE, &lists, false);
        assert_eq!((block.attempted, block.failed), (80, 0));
        assert_eq!(block.read_ms.len(), 80);
        assert_eq!(block.replies.len(), 40);
        assert!(block
            .replies
            .values()
            .all(|r| r.ops == 2 && r.stat.is_some()));

        let base = build(&build_config(SMOKE.scale, 3));
        let mut answers = served_answers(std::slice::from_ref(&base), &lists);
        assert_eq!(block.wrong_ops(&answers, &[]), 0);
        answers.get_mut(&7).expect("kind 7 was read").results += 1;
        assert_eq!(block.wrong_ops(&answers, &[]), 2);
        // Another seed is another database: its answers are not these.
        let other = serve_block(w, 4, SMOKE, &lists, false);
        assert_ne!(other.fingerprint, block.fingerprint);
    }

    /// `serve_write_mix` runs its lanes at once and still answers
    /// exactly: one writer, so every commit succeeds, and its
    /// fingerprint does not depend on how the two lanes interleaved.
    #[test]
    fn concurrent_lanes_answer_exactly() {
        let w = Workload::ServeWriteMix;
        let lists = op_lists(w, 5, SMOKE.ops);
        let base = build(&build_config(SMOKE.scale, 5));
        let answers = served_answers(std::slice::from_ref(&base), &lists);
        let updated = updated_counts(&base);
        let blocks: Vec<Block> = (0..3)
            .map(|_| serve_block(w, 5, SMOKE, &lists, false))
            .collect();
        for block in &blocks {
            assert_eq!((block.attempted, block.failed), (90, 0));
            assert_eq!((block.written.len(), block.write_ms.len()), (10, 10));
            assert!(block.replies.values().all(|r| r.stat.is_none()));
            assert_eq!(block.wrong_ops(&answers, &updated), 0);
            assert_eq!((block.server.commits, block.server.commit_aborts), (10, 0));
            assert_eq!(block.server.queries_shed, 0);
            assert_eq!(block.fingerprint, blocks[0].fingerprint);
        }
        let mut wrong = updated.clone();
        wrong[1] += 1;
        assert_eq!(blocks[0].wrong_ops(&answers, &wrong), 2);
    }
}
