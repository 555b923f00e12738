//! The paper's measurement protocol, shared by the figure harness and
//! the query service.
//!
//! Moved here from `tq-bench::harness` so the serving layer and the
//! figure binaries execute queries through *one* code path: a served
//! query produces a [`Stat`] byte-identical to the one the figure
//! harness would record for the same run (the concurrency-equivalence
//! test in `crates/server/tests/concurrency.rs` pins this). `tq-bench`
//! re-exports everything under its old names. The per-kind pieces
//! (`measure_*_current`, `*_stat_record`) are what the harness calls;
//! [`measure`] strings them into the one entry point the service runs
//! for any [`Work`], and every record is built by one `Stat` shell.

use tq_index::BTreeIndex;
use tq_objstore::ClassId;
use tq_query::join::parallel::{run_join_parallel, MorselPanic, ParallelRun};
use tq_query::join::{JoinContext, JoinOptions, JoinReport};
use tq_query::maintenance::MaintainedIndex;
use tq_query::oql::{compile_str, CompiledQuery};
use tq_query::update::{run_update, UpdateOutcome, UpdateSpec};
use tq_query::{
    plan_chain, run_chain, CancelToken, ChainChoice, ChainFacts, ChainReport, ChainSpec, ExecTrace,
    JoinAlgo, OpCounters, OpKind, PlannerPolicy, ResultMode, TreeJoinSpec,
};
use tq_statsdb::{ExtentDesc, OperatorStat, QueryDesc, Stat, SystemDesc};
use tq_workload::{
    chain3_query_text, chain4_query_text, patient_attr, provider_attr, ref_chain_query_text,
    Database,
};

use crate::proto::{CacheMode, UpdateTarget, Work};

/// The paper's §5 join at the given selectivities.
pub fn join_spec(db: &Database, pat_pct: u32, prov_pct: u32) -> TreeJoinSpec {
    TreeJoinSpec {
        parents: "Providers".into(),
        children: "Patients".into(),
        parent_key: provider_attr::UPIN,
        parent_set: provider_attr::CLIENTS,
        child_key: patient_attr::MRN,
        child_parent: patient_attr::PCP,
        parent_project: provider_attr::NAME,
        child_project: patient_attr::AGE,
        parent_key_limit: db.provider_selectivity_key(prov_pct),
        child_key_limit: db.patient_selectivity_key(pat_pct),
        result_mode: ResultMode::Transient,
    }
}

/// One measured join run.
#[derive(Clone, Debug)]
pub struct JoinCell {
    /// The algorithm.
    pub algo: JoinAlgo,
    /// Simulated elapsed seconds (cold run).
    pub secs: f64,
    /// Result tuples.
    pub results: u64,
    /// Executor report.
    pub report: JoinReport,
    /// I/O counters for the run.
    pub io: tq_pagestore::IoStats,
}

/// Runs one cold join measurement (the paper's protocol: server
/// shutdown before every run).
pub fn run_join_cell(
    db: &mut Database,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
    opts: &JoinOptions,
) -> JoinCell {
    // The cold protocol, spelled out (rather than `measure_cold`) so
    // the end-of-query handle drain can be recorded on the trace: with
    // the `Teardown` row the per-operator counters cover the *whole*
    // measured window and sum exactly to the query-level `Stat`.
    db.store.cold_restart();
    measure_current(db, algo, pat_pct, prov_pct, opts, None)
}

/// Runs a *warm* join measurement: one cold run primes the caches
/// (discarded), then the same join is measured again without a server
/// restart. The paper measured everything cold; warm runs show how
/// much of each algorithm's cost the caches can absorb (I/O) and how
/// much they cannot (handle CPU — the §4 lesson).
pub fn run_join_cell_warm(
    db: &mut Database,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
    opts: &JoinOptions,
) -> JoinCell {
    // Prime.
    let _ = run_join_cell(db, algo, pat_pct, prov_pct, opts);
    // Measure warm: reset metrics only, keep residency.
    measure_current(db, algo, pat_pct, prov_pct, opts, None)
}

/// Measures one join, serially (degree 1), against the database's
/// *current* cache state: metric reset, run, teardown row. Warm server sessions use this
/// directly (their caches are primed by earlier queries on the same
/// session, not by a discarded priming run).
///
/// A fired `cancel` token unwinds out of this call with a
/// [`Cancelled`](tq_query::Cancelled) payload; the database is then in
/// an undefined cache/handle state and must be discarded — the session
/// layer replaces it with a fresh snapshot clone.
pub fn measure_current(
    db: &mut Database,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
    opts: &JoinOptions,
    cancel: Option<CancelToken>,
) -> JoinCell {
    // Degree 1 runs inline: a defect panics straight through, and no
    // morsel worker exists to fail.
    measure_current_parallel(db, algo, pat_pct, prov_pct, opts, cancel, 1)
        .unwrap_or_else(|p| std::panic::panic_any(p))
}

/// [`measure_current`] at an explicit morsel-parallel degree.
///
/// At `degree <= 1` this IS the serial measurement — same code path,
/// byte-identical `JoinCell`. At higher degrees the join runs morsel-
/// parallel and the cell's window covers coordinator *and* workers:
/// `io` adds every worker's counter delta and `secs` adds their
/// simulated-clock deltas (total simulated work, the cost-model
/// analogue of CPU time — wall-clock speedup is this total divided by
/// the critical path). The trace-sums-to-cell invariant stays exact.
///
/// A worker panic surfaces as `Err(MorselPanic)` after every worker
/// joined; the database's caches are then stale but its handle table
/// is clean (worker clones died with their pins), so callers may
/// discard or keep the database — the service discards, like a
/// cancellation.
pub fn measure_current_parallel(
    db: &mut Database,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
    opts: &JoinOptions,
    cancel: Option<CancelToken>,
    degree: usize,
) -> Result<JoinCell, MorselPanic> {
    let spec = join_spec(db, pat_pct, prov_pct);
    let parent_index = db.idx_provider_upin.clone();
    let child_index = db.idx_patient_mrn.clone();
    db.store.reset_metrics();
    let ParallelRun {
        mut report,
        workers_io,
        workers_nanos,
        workers_teardown,
    } = {
        let mut ctx = JoinContext {
            store: &mut db.store,
            parent_index: &parent_index,
            child_index: &child_index,
        };
        run_join_parallel(algo, &mut ctx, &spec, opts, false, cancel, degree)?
    };
    record_teardown_with(db, &mut report.trace, &workers_teardown);
    let mut io = db.store.stats();
    io.accumulate(&workers_io);
    Ok(JoinCell {
        algo,
        secs: (db.store.clock().elapsed() + workers_nanos) as f64 / 1e9,
        results: report.results,
        io,
        report,
    })
}

/// [`run_join_cell`] at an explicit morsel-parallel degree, with
/// cooperative cancellation: the cold protocol (server shutdown first),
/// then a parallel measurement.
pub fn run_join_cell_parallel(
    db: &mut Database,
    algo: JoinAlgo,
    pat_pct: u32,
    prov_pct: u32,
    opts: &JoinOptions,
    cancel: Option<CancelToken>,
    degree: usize,
) -> Result<JoinCell, MorselPanic> {
    db.store.cold_restart();
    measure_current_parallel(db, algo, pat_pct, prov_pct, opts, cancel, degree)
}

/// OQL text for a served chain depth, or `None` for a depth outside
/// the closed vocabulary (2 = reference chain, 3 and 4 = the cycle
/// chains). Depth 2 has no provider predicate, so `prov_pct` is
/// ignored there.
pub fn chain_query_text(db: &Database, depth: u32, pat_pct: u32, prov_pct: u32) -> Option<String> {
    Some(match depth {
        2 => ref_chain_query_text(db, pat_pct),
        3 => chain3_query_text(db, pat_pct, prov_pct),
        4 => chain4_query_text(db, pat_pct, prov_pct),
        _ => return None,
    })
}

/// The workload's fixed index set, by (class, attribute) — the same
/// three indexes every figure uses.
fn chain_index(db: &Database, class: ClassId, attr: usize) -> Option<&BTreeIndex> {
    if class == db.derby.provider && attr == provider_attr::UPIN {
        Some(&db.idx_provider_upin)
    } else if class == db.derby.patient && attr == patient_attr::MRN {
        Some(&db.idx_patient_mrn)
    } else if class == db.derby.patient && attr == patient_attr::NUM {
        Some(&db.idx_patient_num)
    } else {
        None
    }
}

/// One measured N-way chain run.
#[derive(Clone, Debug)]
pub struct ChainCell {
    /// The ordering policy that planned it.
    pub policy: PlannerPolicy,
    /// The plan the policy chose, with its cost estimate.
    pub choice: ChainChoice,
    /// Simulated elapsed seconds for the measured window.
    pub secs: f64,
    /// Result tuples.
    pub results: u64,
    /// Executor report.
    pub report: ChainReport,
    /// I/O counters for the run.
    pub io: tq_pagestore::IoStats,
}

/// Compiles a served chain depth to its [`ChainSpec`]. Fails on depths
/// outside the vocabulary or texts that don't compile to a chain — the
/// dispatch-time validation the wire protocol defers.
pub fn compile_chain_spec(
    db: &Database,
    depth: u32,
    pat_pct: u32,
    prov_pct: u32,
) -> Result<ChainSpec, String> {
    let text = chain_query_text(db, depth, pat_pct, prov_pct)
        .ok_or_else(|| format!("unsupported chain depth {depth} (expected 2, 3, or 4)"))?;
    match compile_str(&db.store, &text) {
        Ok(CompiledQuery::Chain(spec)) => Ok(spec),
        Ok(other) => Err(format!("`{text}` compiled to {other:?}, not a chain")),
        Err(e) => Err(format!("chain compile error: {e}")),
    }
}

/// Compiles and runs one *cold* chain measurement (the paper's
/// protocol: server shutdown before the run).
pub fn run_chain_cell(
    db: &mut Database,
    depth: u32,
    pat_pct: u32,
    prov_pct: u32,
    policy: PlannerPolicy,
    cancel: Option<CancelToken>,
) -> Result<ChainCell, String> {
    let spec = compile_chain_spec(db, depth, pat_pct, prov_pct)?;
    db.store.cold_restart();
    Ok(measure_chain_current(db, &spec, policy, cancel))
}

/// Measures one chain against the database's *current* cache state:
/// facts, plan, metric reset, run, teardown row — the chain
/// counterpart of [`measure_current`]. Cancellation unwinds with a
/// [`Cancelled`](tq_query::Cancelled) payload, after which the
/// database must be discarded (see [`measure_current`]).
pub fn measure_chain_current(
    db: &mut Database,
    spec: &ChainSpec,
    policy: PlannerPolicy,
    cancel: Option<CancelToken>,
) -> ChainCell {
    let facts = ChainFacts::derive(&db.store, spec, |class, attr| {
        chain_index(db, class, attr).map(|i| i.clustered)
    });
    let model = db.store.stack().model().clone();
    let choice = plan_chain(policy, spec, &facts, &model);
    let indexes: Vec<Option<BTreeIndex>> = spec
        .steps
        .iter()
        .map(|s| {
            let class = db.store.collection(&s.collection).class;
            s.preds
                .first()
                .and_then(|p| chain_index(db, class, p.attr))
                .cloned()
        })
        .collect();
    db.store.reset_metrics();
    let mut report = run_chain(&mut db.store, spec, &choice.plan, &indexes, false, cancel);
    record_teardown(db, &mut report.trace);
    ChainCell {
        policy,
        choice,
        secs: db.store.clock().elapsed_secs(),
        results: report.results,
        io: db.store.stats(),
        report,
    }
}

/// Converts a measured chain cell into a `Stat` record (algo
/// `"CHAIN-<POLICY>"`). Same shape as a join's record, so the StatsDb,
/// the wire protocol, and the operator-attribution invariant all apply
/// unchanged.
pub fn chain_stat_record(
    db: &Database,
    cell: &ChainCell,
    depth: u32,
    pat_pct: u32,
    prov_pct: u32,
) -> Stat {
    let text = chain_query_text(db, depth, pat_pct, prov_pct).expect("measured depth is served");
    let projection_type = match depth {
        2 => "p.upin",
        3 => "z.upin",
        _ => "w.num",
    };
    let mut selectivities = vec![("Patient".into(), pat_pct)];
    if depth >= 3 {
        selectivities.push(("Provider".into(), prov_pct));
    }
    stat_shell(
        db,
        QueryDesc {
            cold: true,
            projection_type: projection_type.into(),
            selectivities,
            text,
        },
        format!("CHAIN-{}", cell.policy.label().to_ascii_uppercase()),
        cell.secs,
        &cell.io,
        &cell.report.trace,
    )
}

/// One measured update statement.
#[derive(Clone, Debug)]
pub struct UpdateCell {
    /// The statement that ran.
    pub target: UpdateTarget,
    /// Simulated elapsed seconds for the statement window.
    pub secs: f64,
    /// What the statement did, with its per-operator trace.
    pub outcome: UpdateOutcome,
    /// I/O counters for the window.
    pub io: tq_pagestore::IoStats,
}

/// Key limit for an update target at a selectivity, through the same
/// key-space arithmetic the join grid uses.
fn update_key_limit(db: &Database, target: UpdateTarget, sel_pct: u32) -> i64 {
    match target {
        UpdateTarget::Patients => db.patient_selectivity_key(sel_pct),
        UpdateTarget::Providers => db.provider_selectivity_key(sel_pct),
    }
}

/// Measures one update statement against the database's *current*
/// cache state (the session regime: earlier statements in the session
/// leave their residency — and their uncommitted writes — in place).
///
/// The statement is `update C set a = a + Δ where key < K`: Patients
/// adds to `num` (re-keying the num index), Providers adds to `upin`
/// (re-keying the upin index; Δ = 0 is a touch-update that dirties only
/// the data file). Index descriptor updates are written back into `db`
/// so later statements scan through current roots.
///
/// Cancellation unwinds with a [`Cancelled`](tq_query::Cancelled)
/// payload mid-statement; the half-updated database must then be
/// discarded wholesale (the session layer replaces it with a fresh
/// snapshot clone — uncommitted work is lost, which is the point).
pub fn measure_update_current(
    db: &mut Database,
    target: UpdateTarget,
    sel_pct: u32,
    delta: i32,
    cancel: Option<CancelToken>,
) -> UpdateCell {
    let key_limit = update_key_limit(db, target, sel_pct);
    db.store.reset_metrics();
    let mut outcome = match target {
        UpdateTarget::Patients => {
            let scan = db.idx_patient_mrn.clone();
            let mut idx_mrn = db.idx_patient_mrn.clone();
            let mut idx_num = db.idx_patient_num.clone();
            let out = {
                let mut reg = [
                    MaintainedIndex {
                        index: &mut idx_mrn,
                        key_attr: patient_attr::MRN,
                    },
                    MaintainedIndex {
                        index: &mut idx_num,
                        key_attr: patient_attr::NUM,
                    },
                ];
                run_update(
                    &mut db.store,
                    &scan,
                    &mut reg,
                    &UpdateSpec {
                        collection: "Patients".into(),
                        key_limit,
                        set_attr: patient_attr::NUM,
                        delta,
                    },
                    cancel,
                )
            };
            db.idx_patient_mrn = idx_mrn;
            db.idx_patient_num = idx_num;
            out
        }
        UpdateTarget::Providers => {
            let scan = db.idx_provider_upin.clone();
            let mut idx_upin = db.idx_provider_upin.clone();
            let out = {
                let mut reg = [MaintainedIndex {
                    index: &mut idx_upin,
                    key_attr: provider_attr::UPIN,
                }];
                run_update(
                    &mut db.store,
                    &scan,
                    &mut reg,
                    &UpdateSpec {
                        collection: "Providers".into(),
                        key_limit,
                        set_attr: provider_attr::UPIN,
                        delta,
                    },
                    cancel,
                )
            };
            db.idx_provider_upin = idx_upin;
            out
        }
    };
    record_teardown(db, &mut outcome.trace);
    UpdateCell {
        target,
        secs: db.store.clock().elapsed_secs(),
        io: db.store.stats(),
        outcome,
    }
}

/// Converts a measured update into a `Stat` record (algo `"UPDATE"`).
/// Same shape as a query's record, so the StatsDb, the wire protocol,
/// and the operator-attribution invariant all apply unchanged.
pub fn update_stat_record(
    db: &Database,
    cell: &UpdateCell,
    sel_pct: u32,
    delta: i32,
    cold: bool,
) -> Stat {
    let key_limit = update_key_limit(db, cell.target, sel_pct);
    let (extent, text) = match cell.target {
        UpdateTarget::Patients => (
            "Patient",
            format!("update Patients set num = num + {delta} where mrn < {key_limit}"),
        ),
        UpdateTarget::Providers => (
            "Provider",
            format!("update Providers set upin = upin + {delta} where upin < {key_limit}"),
        ),
    };
    stat_shell(
        db,
        QueryDesc {
            cold,
            projection_type: "[]".into(),
            selectivities: vec![(extent.into(), sel_pct)],
            text,
        },
        "UPDATE".into(),
        cell.secs,
        &cell.io,
        &cell.outcome.trace,
    )
}

/// Runs `end_of_query` and credits its counter delta to a `Teardown`
/// root row of the trace (skipped when the drain charges nothing).
fn record_teardown(db: &mut Database, trace: &mut ExecTrace) {
    record_teardown_with(db, trace, &OpCounters::default());
}

/// [`record_teardown`] plus counters already drained elsewhere — the
/// morsel workers' own end-of-query drains, charged on their clones
/// inside their measured windows. One trailing `Teardown` row carries
/// the whole query's deferred-free cost at any parallel degree.
fn record_teardown_with(db: &mut Database, trace: &mut ExecTrace, carried: &OpCounters) {
    let before = OpCounters::snapshot(&db.store);
    db.store.end_of_query();
    let mut drain = OpCounters::snapshot(&db.store).delta_since(&before);
    drain.add(carried);
    if !drain.is_zero() {
        trace.push_root(OpKind::Teardown, "end_of_query", drain);
    }
}

/// Flattens a trace into storable [`OperatorStat`] rows.
pub fn operator_rows(trace: &ExecTrace) -> Vec<OperatorStat> {
    trace
        .ops
        .iter()
        .map(|op| OperatorStat {
            op: op.kind.label().into(),
            label: op.label.clone(),
            depth: op.depth,
            d2sc_read_pages: op.counters.io.d2sc_read_pages,
            sc2cc_read_pages: op.counters.io.sc2cc_read_pages,
            client_misses: op.counters.io.client_misses,
            handle_gets: op.counters.handle_gets(),
            handle_frees: op.counters.handle_frees,
            cpu_events: op.counters.cpu_events,
            io_nanos: op.counters.io_nanos,
            rpc_nanos: op.counters.rpc_nanos,
            cpu_nanos: op.counters.cpu_nanos,
            swap_nanos: op.counters.swap_nanos,
        })
        .collect()
}

/// Converts a measured cell into a Figure 3 `Stat` record.
pub fn stat_record(db: &Database, cell: &JoinCell, pat_pct: u32, prov_pct: u32) -> Stat {
    let spec = join_spec(db, pat_pct, prov_pct);
    stat_shell(
        db,
        QueryDesc {
            cold: true,
            projection_type: "[p.name, pa.age]".into(),
            selectivities: vec![("Patient".into(), pat_pct), ("Provider".into(), prov_pct)],
            text: format!(
                "select [p.name, pa.age] from p in Providers, pa in p.clients \
                 where pa.mrn < {} and p.upin < {}",
                spec.child_key_limit, spec.parent_key_limit
            ),
        },
        cell.algo.label().into(),
        cell.secs,
        &cell.io,
        &cell.report.trace,
    )
}

/// The Figure 3 record every kind of work is stored through: `query`
/// and `algo` say what ran; the extents, clustering and system come off
/// the database; the counters and operator rows off the measured
/// window's `secs`, `io` and `trace`.
fn stat_shell(
    db: &Database,
    query: QueryDesc,
    algo: String,
    secs: f64,
    io: &tq_pagestore::IoStats,
    trace: &ExecTrace,
) -> Stat {
    Stat {
        numtest: 0, // assigned by the StatsDb
        query,
        database: vec![
            ExtentDesc {
                classname: "Provider".into(),
                size: db.provider_count,
                associations: vec![("Patient".into(), db.config.shape.mean_fanout())],
            },
            ExtentDesc {
                classname: "Patient".into(),
                size: db.patient_count,
                associations: vec![],
            },
        ],
        cluster: db.config.organization.label().into(),
        algo,
        system: SystemDesc {
            server_cache_kb: (db.config.cache.server_pages * 4) as u64,
            client_cache_kb: (db.config.cache.client_pages * 4) as u64,
            same_workstation: true,
        },
        cc_pagefaults: io.client_misses,
        cc_lookups: io.client_hits + io.client_misses,
        elapsed_time: secs,
        rpcs_number: io.sc2cc_read_pages,
        rpcs_total_mb: io.rpc_total_bytes() as f64 / 1e6,
        d2sc_read_pages: io.d2sc_read_pages,
        sc2cc_read_pages: io.sc2cc_read_pages,
        cc_miss_rate: io.client_miss_rate(),
        sc_miss_rate: io.server_miss_rate(),
        operators: operator_rows(trace),
    }
}

/// Why [`measure`] produced no `Stat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeasureError {
    /// The work is outside the served vocabulary (a bad chain depth).
    /// Found before anything ran: the database is untouched.
    Invalid(String),
    /// A morsel worker panicked; the measurement window is garbage and
    /// the database should be discarded.
    Panicked(MorselPanic),
}

/// Runs one unit of [`Work`] under a session's cache discipline and
/// records it: the one path from "what to run" to `(count, Stat)` —
/// result tuples for a join or chain, rewritten objects for an update —
/// that the service executes, whatever the kind. Cold mode is the
/// paper's protocol for every kind: server shutdown, then the measured
/// window. Cancellation unwinds with a
/// [`Cancelled`](tq_query::Cancelled) payload (see [`measure_current`]).
pub fn measure(
    db: &mut Database,
    work: &Work,
    mode: CacheMode,
    cancel: Option<CancelToken>,
    degree: usize,
) -> Result<(u64, Stat), MeasureError> {
    let cold = mode == CacheMode::Cold;
    let restart = |db: &mut Database| {
        if cold {
            db.store.cold_restart();
        }
    };
    let (count, mut stat) = match *work {
        Work::Join {
            algo,
            pat_pct,
            prov_pct,
        } => {
            restart(db);
            let opts = JoinOptions::default();
            let cell = measure_current_parallel(db, algo, pat_pct, prov_pct, &opts, cancel, degree)
                .map_err(MeasureError::Panicked)?;
            (cell.results, stat_record(db, &cell, pat_pct, prov_pct))
        }
        Work::Chain {
            depth,
            pat_pct,
            prov_pct,
            policy,
        } => {
            // Validation comes before the restart, so invalid work
            // leaves the session's caches exactly as it found them.
            let spec =
                compile_chain_spec(db, depth, pat_pct, prov_pct).map_err(MeasureError::Invalid)?;
            restart(db);
            let cell = measure_chain_current(db, &spec, policy, cancel);
            let stat = chain_stat_record(db, &cell, depth, pat_pct, prov_pct);
            (cell.results, stat)
        }
        Work::Update {
            target,
            sel_pct,
            delta,
        } => {
            restart(db);
            let cell = measure_update_current(db, target, sel_pct, delta, cancel);
            let stat = update_stat_record(db, &cell, sel_pct, delta, cold);
            (cell.outcome.updated, stat)
        }
    };
    stat.query.cold = cold;
    Ok((count, stat))
}
