//! The traced run: the per-layer metrics.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions — spans inside the engine and the server are a
//! later change. One suite serves all workloads, because each traced
//! run must report every per-layer metric; what a workload contributes
//! is its database (scale) and its served op list. The suite:
//!
//! 1. **probes** — fixed-iteration loops over one public function each;
//! 2. **the figure round** — one traced pass over all four `fig_*` grids,
//!    a span around each `Database::clone`, `cold_restart`, measurement
//!    call and `stat_record`;
//! 3. **the layer-walk** (see [`crate::walk`]) over the head of the
//!    workload's op list, direct and routed, and the walked writes;
//! 4. **live blocks each way** — the workload's own lists against a
//!    real server and a real router in this same process, which is what
//!    the router's tax and the walk's unattributed remainder are
//!    measured against.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tq_index::BTreeIndex;
use tq_objstore::{record, ObjBatch, Rid, Value};
use tq_pagestore::{CacheConfig, CostModel, FileId, IoStats, LruCache, PageId, StorageStack};
use tq_query::oql::compile_str;
use tq_query::{plan_chain, ChainFacts, PlannerPolicy};
use tq_server::{
    duplex_pair, measure, read_frame, write_frame, CacheMode, QuerySpec, Request, Response,
    Scheduler, SessionManager, UpdateTarget,
};
use tq_statsdb::{merge_stats, LogHistogram};
use tq_workload::{build, join_query_text, partition_database, patient_attr, Database};

use crate::e2e::RunConfig;
use crate::json::{obj, Json};
use crate::ops::{fig_cells, op_lists, read_kind, Cell, Op, Scan};
use crate::oracle::{same_results, served_answers, updated_counts};
use crate::report::Outcome;
use crate::run::{build_config, run_cell, serve_block, timed, Block, SHARDS};
use crate::spec::Workload;
use crate::stats::{highest_supported_percentile, median, percentile, sort};
use crate::trace::{Span, Tracer};
use crate::walk::{
    direct_ops, direct_span_us, routed_ops, span_us, write_walk, DirectOp, RoutedOp, Walker,
    WriteWalk,
};

/// Live blocks run each way (direct, routed) in a traced run: on the
/// read-only served workloads, 1 000 reads each way — ten beyond p99.
const LIVE_BLOCKS: usize = 5;

/// The metrics measured so far, and how probes are sized.
struct Metrics {
    values: Vec<(&'static str, f64)>,
    /// Divides every probe's iteration count: 1, or more in a smoke run,
    /// where only the names matter.
    divisor: u64,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Median nanoseconds per call of `f`, over five timed repetitions
    /// of `iters` calls each after one untimed repetition.
    fn probe_ns(&self, iters: u64, mut f: impl FnMut()) -> f64 {
        let iters = (iters / self.divisor).max(1);
        let mut per_call = Vec::new();
        for rep in 0..6 {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            if rep > 0 {
                per_call.push(started.elapsed().as_nanos() as f64 / iters as f64);
            }
        }
        median(per_call)
    }
}

// ---------------------------------------------------------------------
// 1. probes
// ---------------------------------------------------------------------

/// The read kind the codec and merge probes carry: NOJOIN at 90 %/90 %,
/// the paper's heaviest cell.
const HEAVY_KIND: usize = 49;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn collection_rids(db: &mut Database, name: &str) -> Vec<Rid> {
    let mut cursor = db.store.collection_cursor(name);
    let mut rids = Vec::new();
    while let Some(rid) = cursor.next(db.store.stack_mut()) {
        rids.push(rid);
    }
    rids
}

fn pagestore_probes(m: &mut Metrics, base: &Database) {
    m.put(
        "pagestore.clone_us",
        m.probe_ns(200, || drop(black_box(base.clone()))) / 1e3,
    );

    // Half the touches hit: 8 k resident keys, 16 k key space.
    let mut lru: LruCache<u64> = LruCache::new(8192);
    for k in 0..8192 {
        lru.insert(k);
    }
    let mut x = 0x9E37_79B9_7F4A_7C15;
    m.put(
        "pagestore.lru_touch_ns",
        m.probe_ns(1_000_000, || {
            let k = xorshift(&mut x) % 16_384;
            if !lru.touch(k) {
                lru.insert(k);
            }
        }),
    );

    // The Patients file's pages, in file order.
    let mut db = base.clone();
    let mut pages: Vec<PageId> = collection_rids(&mut db, "Patients")
        .iter()
        .map(|r| r.page)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    let config = db.store.stack().config();
    let hot = &pages[..8.min(pages.len())];
    let mut i = 0;
    m.put(
        "pagestore.page_hit_ns",
        m.probe_ns(1_000_000, || {
            i = (i + 1) % hot.len();
            black_box(db.store.stack_mut().read_page(hot[i]).live_records());
        }),
    );
    // Cycling through more pages than both caches hold makes every read
    // miss both LRUs. (A file too small for that — the smoke scale —
    // measures a mix, which is all the smoke run needs.)
    let cold = &pages[..(2 * (config.client_pages + config.server_pages)).min(pages.len())];
    m.put(
        "pagestore.page_miss_ns",
        m.probe_ns(200_000, || {
            i = (i + 1) % cold.len();
            black_box(db.store.stack_mut().read_page(cold[i]).live_records());
        }),
    );

    // A 5 % update, quiesced the way `SessionManager::commit` does, then
    // the diff against the base it was cloned from.
    let mut db = base.clone();
    measure::measure_update_current(&mut db, UpdateTarget::Patients, 5, 1, None);
    db.store.cold_restart();
    m.put(
        "pagestore.write_set_us",
        m.probe_ns(200, || {
            let ws = db.store.stack().write_set_since(base.store.stack());
            black_box(ws.page_count());
        }) / 1e3,
    );
}

fn objstore_probes(m: &mut Metrics, base: &Database) {
    let mut db = base.clone();
    let rids = collection_rids(&mut db, "Patients");
    let n = rids.len() as f64;
    m.put(
        "objstore.fetch_ns",
        m.probe_ns(1, || {
            for &rid in &rids {
                let f = db.store.fetch(rid);
                black_box(f.object.header.is_deleted());
                db.store.release(f);
            }
        }) / n,
    );
    let mut arena = ObjBatch::default();
    m.put(
        "objstore.fetch_batch_ns",
        m.probe_ns(1, || {
            for chunk in rids.chunks(1024) {
                db.store.fetch_batch(chunk, &mut arena);
                black_box(arena.len());
                db.store.release_batch(&mut arena);
            }
        }) / n,
    );

    // The record codec on a real Patient record.
    let patient = db.store.fetch(rids[0]);
    let class = db.store.schema().class(db.derby.patient).clone();
    let bytes = record::encode(&class, &patient.object.header, &patient.object.values);
    m.put(
        "objstore.encode_ns",
        m.probe_ns(200_000, || {
            black_box(record::encode(
                &class,
                &patient.object.header,
                &patient.object.values,
            ));
        }),
    );
    m.put(
        "objstore.decode_ns",
        m.probe_ns(200_000, || {
            black_box(record::decode(&class, &bytes).expect("own encoding decodes"));
        }),
    );

    // Draining a full delayed-free pool: 4096 handles fetched and
    // released, then `end_of_query`.
    let pool = &rids[..4096.min(rids.len())];
    let mut drains = Vec::new();
    for _ in 0..20 {
        for &rid in pool {
            let f = db.store.fetch(rid);
            db.store.release(f);
        }
        let started = Instant::now();
        db.store.end_of_query();
        drains.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    m.put("objstore.end_of_query_us", median(drains));

    // Rewriting an object in place (same size: only `num` changes).
    let mut values: Vec<Value> = patient.object.values.clone();
    db.store.release(patient);
    let targets = &rids[..2000.min(rids.len())];
    let mut bump = 0;
    m.put(
        "objstore.update_ns",
        m.probe_ns(1, || {
            bump += 1;
            values[patient_attr::NUM] = Value::Int(bump);
            for &rid in targets {
                black_box(db.store.update(rid, &values));
            }
        }) / targets.len() as f64,
    );
}

fn index_probes(m: &mut Metrics) {
    let rid_of = |i: i64| {
        Rid::new(
            PageId {
                file: FileId(0),
                page_no: (i / 50) as u32,
            },
            (i % 50) as u16,
        )
    };
    let entries: Vec<(i64, Rid)> = (0..100_000).map(|i| (i, rid_of(i))).collect();
    let fresh = || StorageStack::new(CostModel::free(), CacheConfig::default());
    let mut builds = Vec::new();
    for _ in 0..5 {
        let mut stack = fresh();
        let started = Instant::now();
        black_box(BTreeIndex::bulk_build(&mut stack, 1, "i", true, &entries));
        builds.push(started.elapsed().as_secs_f64() * 1e3);
    }
    m.put("index.bulk_build_ms", median(builds));

    let mut stack = fresh();
    let mut tree = BTreeIndex::bulk_build(&mut stack, 1, "i", true, &entries);
    m.put(
        "index.range_ns_per_rid",
        m.probe_ns(20, || {
            let mut cursor = tree.range(&mut stack, 40_000, 49_999);
            let mut n = 0;
            while cursor.next(&mut stack).is_some() {
                n += 1;
            }
            assert_eq!(black_box(n), 10_000);
        }) / 10_000.0,
    );
    let mut x = 0x2545_F491_4F6C_DD1D;
    m.put(
        "index.lookup_ns",
        m.probe_ns(100_000, || {
            let key = (xorshift(&mut x) % 100_000) as i64;
            black_box(tree.lookup(&mut stack, key).len());
        }),
    );
    // One insert and one remove of a key that is not in the tree.
    m.put(
        "index.maintain_ns_per_key",
        m.probe_ns(20_000, || {
            let key = 100_000 + (xorshift(&mut x) % 100_000) as i64;
            tree.insert(&mut stack, key, rid_of(key));
            assert!(tree.remove(&mut stack, key, rid_of(key)));
        }) / 2.0,
    );
    // Simulated page accesses of one cold 10 k-rid range probe: exact.
    stack.cold_restart();
    stack.reset_metrics();
    let mut cursor = tree.range(&mut stack, 40_000, 49_999);
    while cursor.next(&mut stack).is_some() {}
    let io = stack.stats();
    m.put(
        "index.pages_per_probe",
        (io.client_hits + io.client_misses) as f64,
    );
}

/// The workload's fixed index set by (class, attribute): whether an
/// index exists there and is clustered. (`measure` keeps its copy private.)
fn index_clustered(db: &Database, class: tq_objstore::ClassId, attr: usize) -> Option<bool> {
    use tq_workload::provider_attr;
    let index = if class == db.derby.provider && attr == provider_attr::UPIN {
        &db.idx_provider_upin
    } else if class == db.derby.patient && attr == patient_attr::MRN {
        &db.idx_patient_mrn
    } else if class == db.derby.patient && attr == patient_attr::NUM {
        &db.idx_patient_num
    } else {
        return None;
    };
    Some(index.clustered)
}

fn core_probes(m: &mut Metrics, base: &Database) {
    let model = base.store.stack().model().clone();
    m.put(
        "core.chain.plan_us",
        m.probe_ns(2_000, || {
            let spec = measure::compile_chain_spec(base, 4, 50, 50).expect("served depth");
            let facts = ChainFacts::derive(&base.store, &spec, |c, a| index_clustered(base, c, a));
            black_box(plan_chain(PlannerPolicy::Estimate, &spec, &facts, &model));
        }) / 1e3,
    );
    let text = join_query_text(base, 10, 90);
    m.put(
        "core.oql.compile_us",
        m.probe_ns(5_000, || {
            black_box(compile_str(&base.store, &text).expect("the paper's join compiles"));
        }) / 1e3,
    );
}

fn statsdb_probes(m: &mut Metrics, shards: &[Database]) {
    // Two real partial records: the 90/90 NOJOIN cell on each shard.
    let (algo, pat, prov) = read_kind(HEAVY_KIND);
    let parts: Vec<_> = shards
        .iter()
        .map(|shard| {
            let mut db = shard.clone();
            let cell = measure::run_join_cell(&mut db, algo, pat, prov, &Default::default());
            measure::stat_record(&db, &cell, pat, prov)
        })
        .collect();
    m.put(
        "statsdb.merge_stats_us",
        m.probe_ns(20_000, || {
            black_box(merge_stats(&parts));
        }) / 1e3,
    );
    let mut hist = LogHistogram::new();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    m.put(
        "statsdb.hist_record_ns",
        m.probe_ns(1_000_000, || hist.record(xorshift(&mut x) % 10_000_000)),
    );
    black_box(hist.count());
}

fn server_probes(m: &mut Metrics, base: &Database) {
    let (algo, pat_pct, prov_pct) = read_kind(HEAVY_KIND);
    let request = Request::Query(QuerySpec {
        session: 1,
        algo,
        pat_pct,
        prov_pct,
        deadline_nanos: 0,
    });
    m.put(
        "server.codec.request_ns",
        m.probe_ns(200_000, || {
            black_box(Request::decode(&request.encode()).expect("own encoding decodes"));
        }),
    );
    // A reply carrying a full per-operator `Stat`.
    let mut db = base.clone();
    let cell = measure::run_join_cell(&mut db, algo, pat_pct, prov_pct, &Default::default());
    let response = Response::QueryOk {
        results: cell.results,
        stat: Box::new(measure::stat_record(&db, &cell, pat_pct, prov_pct)),
    };
    let payload = response.encode();
    m.put("server.codec.response_bytes", payload.len() as f64);
    m.put(
        "server.codec.response_ns",
        m.probe_ns(50_000, || {
            black_box(Response::decode(&response.encode()).expect("own encoding decodes"));
        }),
    );
    let (mut near, mut far) = duplex_pair();
    m.put(
        "server.frame_ns",
        m.probe_ns(100_000, || {
            write_frame(&mut near, &payload).expect("in-process wire");
            black_box(read_frame(&mut far).expect("in-process wire"));
        }),
    );

    // `submit` of an empty job to the moment a worker starts it.
    let sched = Scheduler::new(2, 16);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut handoffs = Vec::new();
    for _ in 0..2_000 {
        let tx = tx.clone();
        let submitted = Instant::now();
        sched
            .submit(Box::new(move || {
                let _ = tx.send(Instant::now());
            }))
            .expect("an idle pool admits");
        let started = rx.recv().expect("the job ran");
        handoffs.push(started.duration_since(submitted).as_nanos() as f64 / 1e3);
    }
    sched.shutdown();
    m.put("server.sched.handoff_us", median(handoffs));

    // A cold session's life, call by call.
    let sessions = SessionManager::new(base.clone());
    let (mut creates, mut takes, mut closes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..2_000 {
        let t0 = Instant::now();
        let id = sessions.create(CacheMode::Cold);
        let t1 = Instant::now();
        let (db, _) = sessions.take(id).expect("idle session");
        sessions.restore(id, db);
        let t2 = Instant::now();
        sessions.close(id).expect("idle session");
        let t3 = Instant::now();
        creates.push((t1 - t0).as_nanos() as f64 / 1e3);
        takes.push((t2 - t1).as_nanos() as f64 / 1e3);
        closes.push((t3 - t2).as_nanos() as f64 / 1e3);
    }
    m.put("server.session.create_us", median(creates));
    m.put("server.session.take_restore_us", median(takes));
    m.put("server.session.close_us", median(closes));
}

// ---------------------------------------------------------------------
// 2. the figure round
// ---------------------------------------------------------------------

/// Wall and CPU seconds and the simulated counters of one traced cell.
struct CellCost {
    cell: Cell,
    wall_s: f64,
    cpu_s: f64,
    io: IoStats,
    handle_gets: u64,
}

/// One pass over `w`'s grid, each cell under a `cell` root span.
fn fig_pass(t: &mut Tracer, base: &Database, w: Workload) -> Vec<CellCost> {
    fig_cells(w)
        .into_iter()
        .map(|cell| {
            t.next_op();
            let (out, wall_s, cpu_s) = timed(|| {
                let root = t.enter("cell");
                let out = run_cell(base, cell, t);
                t.exit(root);
                out
            });
            CellCost {
                cell,
                wall_s,
                cpu_s,
                io: out.io,
                handle_gets: out.handle_gets,
            }
        })
        .collect()
}

fn figure_round(m: &mut Metrics, t: &mut Tracer, base: &Database) {
    let cpu_where = |costs: &[CellCost], pick: &dyn Fn(Cell) -> bool| -> f64 {
        costs.iter().filter(|c| pick(c.cell)).map(|c| c.cpu_s).sum()
    };

    let joins = fig_pass(t, base, Workload::FigJoins);
    for (name, algo) in [
        ("core.join.nl_cpu_s", tq_query::JoinAlgo::Nl),
        ("core.join.nojoin_cpu_s", tq_query::JoinAlgo::Nojoin),
        ("core.join.phj_cpu_s", tq_query::JoinAlgo::Phj),
        ("core.join.chj_cpu_s", tq_query::JoinAlgo::Chj),
    ] {
        m.put(
            name,
            cpu_where(&joins, &|c| matches!(c, Cell::Join(a, ..) if a == algo)),
        );
    }
    // The simulated machine over the joins pass. A host-side change must
    // leave these identical.
    let mut io = IoStats::default();
    for c in &joins {
        io.accumulate(&c.io);
    }
    let gets: u64 = joins.iter().map(|c| c.handle_gets).sum();
    let wall: f64 = joins.iter().map(|c| c.wall_s).sum();
    m.put("pagestore.cc_hit_rate", 100.0 - io.client_miss_rate());
    m.put("pagestore.sc_hit_rate", 100.0 - io.server_miss_rate());
    m.put("pagestore.d2sc_pages", io.d2sc_read_pages as f64);
    m.put("objstore.handle_gets", gets as f64);
    m.put("objstore.ns_per_handle_get", wall * 1e9 / gets as f64);

    let chains = fig_pass(t, base, Workload::FigChains);
    for (name, d) in [("core.chain.d3_cpu_s", 3), ("core.chain.d4_cpu_s", 4)] {
        m.put(
            name,
            cpu_where(
                &chains,
                &|c| matches!(c, Cell::Chain { depth, .. } if depth == d),
            ),
        );
    }

    let selects = fig_pass(t, base, Workload::FigSelects);
    for (name, scan) in [
        ("core.select.seq_cpu_s", Scan::Seq),
        ("core.select.index_cpu_s", Scan::Index),
        ("core.select.sorted_cpu_s", Scan::SortedIndex),
    ] {
        m.put(
            name,
            cpu_where(&selects, &|c| matches!(c, Cell::Select(s, _) if s == scan)),
        );
    }

    // Degree 2 against the same eight cells run serially in the joins pass.
    let morsel = fig_pass(t, base, Workload::FigMorsel);
    let serial: Vec<&CellCost> = morsel
        .iter()
        .map(|p| {
            let Cell::Morsel(algo, pat, prov) = p.cell else {
                unreachable!("fig_morsel is all morsel cells")
            };
            joins
                .iter()
                .find(|s| s.cell == Cell::Join(algo, pat, prov))
                .expect("every morsel cell is a joins cell")
        })
        .collect();
    let total =
        |costs: &[&CellCost], f: fn(&CellCost) -> f64| -> f64 { costs.iter().map(|c| f(c)).sum() };
    let parallel: Vec<&CellCost> = morsel.iter().collect();
    m.put(
        "core.morsel.speedup_d2",
        total(&serial, |c| c.wall_s) / total(&parallel, |c| c.wall_s),
    );
    m.put(
        "core.morsel.cpu_ratio_d2",
        total(&parallel, |c| c.cpu_s) / total(&serial, |c| c.cpu_s),
    );
}

// ---------------------------------------------------------------------
// 3 and 4: the walk, the live blocks, and the whole suite
// ---------------------------------------------------------------------

/// Writes the recorded spans to `<out>/trace-<workload>.json`.
fn write_trace(cfg: &RunConfig<'_>, t: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(cfg.out)?;
    let doc = obj([
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("spans", t.to_json()),
    ]);
    std::fs::write(
        cfg.out.join(format!("trace-{}.json", cfg.workload.name())),
        doc.render(),
    )
}

/// The median walked read, direct and routed (µs).
struct WalkTotals {
    direct_us: f64,
    routed_us: f64,
}

/// Per-op medians of the direct and routed walks, and what the walked
/// writes measured.
fn walk_metrics(m: &mut Metrics, spans: &[Span], writes: &WriteWalk) -> WalkTotals {
    // These two names also occur in the figure round, on fresh clones
    // with nothing to restart: the served path's cost is the walk's.
    m.put(
        "objstore.cold_restart_us",
        median(direct_span_us(spans, "cold_restart")),
    );
    m.put(
        "server.measure.stat_record_us",
        median(direct_span_us(spans, "stat_record")),
    );
    m.put("core.update.stmt_us", median(span_us(spans, "update.stmt")));
    m.put(
        "server.session.repin_us",
        median(span_us(spans, "session.repin")),
    );
    let commits = span_us(spans, "session.commit");
    let tenth = (commits.len() / 10).max(1);
    m.put("server.session.commit_us", median(commits.clone()));
    m.put(
        "server.session.commit_drift",
        median(commits[commits.len() - tenth..].to_vec()) / median(commits[..tenth].to_vec()),
    );
    m.put(
        "pagestore.cow_pages_per_commit",
        writes.pages as f64 / writes.attempted as f64,
    );

    let direct = direct_ops(spans);
    let routed = routed_ops(spans);
    let of_direct = |f: fn(&DirectOp) -> f64| median(direct.iter().map(f).collect());
    let of_routed = |f: fn(&RoutedOp) -> f64| median(routed.iter().map(f).collect());
    let service_us = of_direct(|op| op.service_us);
    m.put("server.walk.engine_us", of_direct(|op| op.engine_us));
    m.put("server.walk.service_us", service_us);
    m.put(
        "server.walk.service_share",
        service_us / of_direct(DirectOp::total_us),
    );
    m.put(
        "router.walk.shard_engine_us",
        of_routed(|op| op.shard_engine_us),
    );
    // The same op walked both ways, pair by pair.
    m.put(
        "router.dup_work_ratio",
        median(
            routed
                .iter()
                .zip(&direct)
                .map(|(r, d)| r.shard_engine_us / d.engine_us)
                .collect(),
        ),
    );
    m.put(
        "router.slowest_shard_share",
        of_routed(RoutedOp::slowest_shard_share),
    );
    m.put("router.walk.merge_us", of_routed(|op| op.merge_us));

    WalkTotals {
        direct_us: of_direct(DirectOp::total_us),
        routed_us: of_routed(|op| op.total_us),
    }
}

/// What the live blocks — `d` against a server, `r` the same lists
/// against a router — measured, and the two against each other.
fn live_metrics(m: &mut Metrics, out: &mut Outcome, d: &[Block], r: &[Block], walk: &WalkTotals) {
    // Exact percentiles of every read the live blocks ran, pooled.
    let reads = |blocks: &[Block]| {
        let mut reads: Vec<f64> = blocks.iter().flat_map(|b| b.read_ms.clone()).collect();
        sort(&mut reads);
        reads
    };
    let (d_reads, r_reads) = (reads(d), reads(r));
    m.put("server.read_p99_ms", percentile(&d_reads, 99.0));
    m.put("router.read_p99_ms", percentile(&r_reads, 99.0));
    // What the live service took beyond what the walk can see from
    // outside — the thread hand-offs and any wait for a worker: the
    // median live read minus the median walked one.
    m.put(
        "server.unattributed_us",
        percentile(&d_reads, 50.0) * 1e3 - walk.direct_us,
    );
    m.put(
        "router.unattributed_us",
        percentile(&r_reads, 50.0) * 1e3 - walk.routed_us,
    );
    let counters = d[0].server;
    m.put("server.queries_ok", counters.queries_ok as f64);
    m.put("server.queries_shed", counters.queries_shed as f64);
    m.put("server.queries_failed", counters.queries_failed as f64);
    m.put("server.commits", counters.commits as f64);
    m.put("server.commit_aborts", counters.commit_aborts as f64);
    let counters = r[0].router;
    m.put("router.routed", counters.routed as f64);
    m.put("router.shed_router", counters.shed_router as f64);
    m.put(
        "router.shard_unavailable",
        counters.shard_unavailable as f64,
    );
    // The router's tax: the same lists routed over direct, each side's
    // median block as in the untraced run. The bases go with the ratios.
    let mid =
        |blocks: &[Block], metric: fn(&Block) -> f64| median(blocks.iter().map(metric).collect());
    let ops_s = |blocks| mid(blocks, Block::throughput_ops_s);
    let cpu_ms = |blocks| mid(blocks, Block::cpu_ms_per_op);
    m.put("router.tax_throughput", ops_s(r) / ops_s(d));
    m.put("router.tax_cpu", cpu_ms(r) / cpu_ms(d));
    out.notes.push((
        "router.tax_throughput_bases",
        format!("routed {} ops/s / direct {} ops/s", ops_s(r), ops_s(d)),
    ));
    out.notes.push((
        "router.tax_cpu_bases",
        format!("routed {} ms/op / direct {} ms/op", cpu_ms(r), cpu_ms(d)),
    ));
    out.notes.push((
        // p99 is printed regardless; this says how far up the pooled
        // read samples really reach.
        "highest_supported_percentile",
        format!(
            "{} of {} reads",
            highest_supported_percentile(d_reads.len()).map_or("none".into(), |p| p.to_string()),
            d_reads.len()
        ),
    ));
}

/// The traced run of one workload.
pub fn traced(cfg: &RunConfig<'_>) -> Outcome {
    let w = cfg.workload;
    let sizing = w.sizing(cfg.smoke);
    let mut m = Metrics {
        values: Vec::new(),
        divisor: if cfg.smoke { 50 } else { 1 },
    };
    let mut out = Outcome::default();
    let mut t = Tracer::new(true);

    let started = Instant::now();
    let base = build(&build_config(sizing.scale, cfg.seed));
    m.put("workload.build_s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    let shards = partition_database(&base, SHARDS);
    m.put("workload.partition_s", started.elapsed().as_secs_f64());

    pagestore_probes(&mut m, &base);
    objstore_probes(&mut m, &base);
    index_probes(&mut m);
    core_probes(&mut m, &base);
    statsdb_probes(&mut m, &shards);
    server_probes(&mut m, &base);

    figure_round(&mut m, &mut t, &base);
    out.attempted += Workload::ALL
        .into_iter()
        .filter(|w| w.is_fig())
        .map(|w| fig_cells(w).len() as u64)
        .sum::<u64>();

    // The walk: the head of the workload's first list, first untraced
    // (to price the tracing), then traced over the same ops.
    let lists = op_lists(w, cfg.seed, sizing.ops);
    let direct_answers = served_answers(std::slice::from_ref(&base), &lists);
    let routed_answers = served_answers(&shards, &lists);
    if !same_results(&direct_answers, &routed_answers) {
        out.problems
            .push("the shards' result counts do not sum to the unsharded ones".into());
    }
    let updated = updated_counts(&base);
    let reads: Vec<usize> = lists[0]
        .iter()
        .filter_map(|op| match op {
            Op::Read(kind) => Some(*kind),
            Op::Write(_) => None,
        })
        .collect();
    let per_op_session = w == Workload::ServeSessions;
    let budget = Duration::from_secs_f64(cfg.seconds / 4.0);
    // All the direct reads, then the same reads routed: walked turn and
    // turn about, three databases (the base and two shards) share the
    // caches and every walked op runs ~10 % slower than its live twin.
    let walk = |t: &mut Tracer, limit: usize, budget: Duration| -> (usize, u64, f64) {
        let mut walker = Walker::new(&base, &shards, per_op_session);
        let started = Instant::now();
        let (mut done, mut failed) = (0, 0);
        for &kind in reads.iter().take(limit) {
            if done > 0 && started.elapsed() > budget / 2 {
                break;
            }
            failed += u64::from(!walker.direct_read(t, kind, &direct_answers[&kind]));
            done += 1;
        }
        for &kind in &reads[..done] {
            failed += u64::from(!walker.routed_read(t, kind, &routed_answers[&kind]));
        }
        (done, failed, started.elapsed().as_secs_f64())
    };
    let (walked, failed_off, untraced_s) = walk(&mut Tracer::new(false), usize::MAX, budget);
    let (_, failed_on, traced_s) = walk(&mut t, walked, Duration::MAX);
    out.attempted += 4 * walked as u64;
    out.failed += failed_off + failed_on;

    let writes = write_walk(
        &mut t,
        &base,
        cfg.seed,
        if cfg.smoke { 20 } else { 100 },
        &updated,
    );
    out.attempted += writes.attempted;
    out.failed += writes.failed;

    // For a grid workload the tracing is priced on its own grid instead:
    // the traced pass of the figure round against an untraced pass
    // before and after it.
    let overhead = if w.is_fig() {
        let pass = |t: &mut Tracer| fig_pass(t, &base, w).iter().map(|c| c.wall_s).sum::<f64>();
        let mut off = Tracer::new(false);
        let before = pass(&mut off);
        let on = pass(&mut t);
        let after = pass(&mut off);
        out.attempted += 3 * fig_cells(w).len() as u64;
        on / ((before + after) / 2.0) - 1.0
    } else {
        traced_s / untraced_s - 1.0
    };
    m.put("trace.overhead_pct", overhead * 100.0);
    m.put("trace.spans", t.spans().len() as f64);
    let walk_totals = walk_metrics(&mut m, t.spans(), &writes);

    // The live blocks: the workload's own lists against a server and
    // against a router, turn and turn about in this one process.
    let live = |routed: bool| -> Block {
        let mut block = serve_block(w, cfg.seed, sizing, &lists, routed);
        let answers = if routed {
            &routed_answers
        } else {
            &direct_answers
        };
        block.failed += block.wrong_ops(answers, &updated);
        block
    };
    let (mut d, mut r) = (Vec::new(), Vec::new());
    for _ in 0..if cfg.smoke { 1 } else { LIVE_BLOCKS } {
        d.push(live(false));
        r.push(live(true));
    }
    for b in d.iter().chain(&r) {
        out.attempted += b.attempted;
        out.failed += b.failed;
    }
    let agree = |blocks: &[Block]| {
        let key = |b: &Block| (b.fingerprint, b.server, b.router);
        blocks.iter().all(|b| key(b) == key(&blocks[0]))
    };
    if !(agree(&d) && agree(&r)) {
        out.problems
            .push("live blocks of one run disagree on answers or counters".into());
    }
    out.notes = vec![
        ("scale", sizing.scale.to_string()),
        ("walked_ops", walked.to_string()),
        ("walked_writes", writes.attempted.to_string()),
        ("live_blocks_each_way", d.len().to_string()),
        ("live_ops_per_block", d[0].attempted.to_string()),
        ("direct_fingerprint", format!("{:016x}", d[0].fingerprint)),
        ("routed_fingerprint", format!("{:016x}", r[0].fingerprint)),
    ];
    live_metrics(&mut m, &mut out, &d, &r, &walk_totals);

    m.put("fail_rate", out.failed as f64 / out.attempted as f64);
    if let Err(e) = write_trace(cfg, &t) {
        out.problems.push(format!("writing the trace: {e}"));
    }
    out.metrics = m.values;
    out
}
