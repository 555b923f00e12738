//! N-way chain executor: runs a [`LogicalPlan`] over a [`ChainSpec`]
//! by composing the same physical operators the 2-way joins use.
//!
//! The executor materializes the bound-row frontier between stages:
//! each row carries the rids of the steps bound so far plus the
//! projection slots already filled. Navigation stages re-fetch the
//! frontier object through its rid (the physically honest cost of a
//! materialized pipeline) and walk the edge attribute; hash stages
//! scan the new step's extent, build or probe an rid-keyed table
//! ([`SwapSim`]-paged like PHJ), and extend matching rows. Predicates
//! beyond an index-served primary are evaluated at fetch, charged
//! inside the enclosing operator scope.
//!
//! The trace rows this produces are exactly
//! [`chain_pipeline`](crate::plan::chain_pipeline)'s `(OpKind, label)`
//! vocabulary, and — through the [`ExecContext`] attribution invariant
//! — sum field for field to the query-level counters. Stages fetch one
//! object at a time at any `TQ_BATCH` and run on one context at any
//! `TQ_PARALLEL`: the executor does not use `ExecContext::fetch_chunk`
//! or the morsel dispatcher yet (moving it onto them changes the
//! per-stage re-fetch sequence that `benchmark/expected/fig_chains.fp`
//! pins), so chain output is identical at every batch size by
//! construction.

use super::rid_hash;
use crate::exec::{charge_result_append, int_attr, CancelToken, ExecContext, ExecTrace, OpKind};
use crate::plan::{ChainSpec, ChainStep, LogicalPlan, RootAccess, StepAlgo};
use crate::swap::SwapSim;
use tq_fasthash::FxHashMap;
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, ObjectStore, Record, Rid};
use tq_pagestore::CpuEvent;

/// Bytes per chain hash-table entry: rid key plus the carried row
/// payload — same order of magnitude as the PHJ entry (Figure 10).
pub const CHAIN_ENTRY_BYTES: u64 = 64;

/// What a chain execution did.
#[derive(Clone, Debug, Default)]
pub struct ChainReport {
    /// Result tuples produced.
    pub results: u64,
    /// Objects fetched per step (chain order, not bind order).
    pub scanned: Vec<u64>,
    /// Peak hash-table bytes across hash stages (0 for all-nav plans).
    pub hash_table_bytes: u64,
    /// Swap faults the stage tables incurred.
    pub swap_faults: u64,
    /// Projected tuples, when collection was requested (tests only).
    pub rows: Option<Vec<Vec<i64>>>,
    /// Per-operator counter attribution.
    pub trace: ExecTrace,
}

/// One frontier row: rids of the bound steps (indexed by step, only
/// bound slots meaningful) and the projection values filled so far.
#[derive(Clone)]
struct Row {
    rids: Vec<Rid>,
    proj: Vec<i64>,
}

/// Runs `plan` over `spec`. `indexes[step]`, when present, is an index
/// on that step's primary predicate attribute (required by every
/// `RootAccess::Index` the plan uses). `collect` gathers the projected
/// tuples into [`ChainReport::rows`].
pub fn run_chain(
    store: &mut ObjectStore,
    spec: &ChainSpec,
    plan: &LogicalPlan,
    indexes: &[Option<BTreeIndex>],
    collect: bool,
    cancel: Option<CancelToken>,
) -> ChainReport {
    let mut report = ChainReport {
        scanned: vec![0; spec.len()],
        rows: collect.then(Vec::new),
        ..Default::default()
    };
    let classes: Vec<ClassId> = spec
        .steps
        .iter()
        .map(|s| store.collection(&s.collection).class)
        .collect();
    let mut ex = ExecContext::new(store);
    if let Some(token) = cancel {
        ex.set_cancel(token);
    }

    let mut rows = bind_root(&mut ex, spec, plan, indexes, &classes, &mut report);
    for stage in &plan.stages {
        let edge = spec.edge_between(stage.from, stage.step);
        let child_ward = edge.child == stage.step;
        rows = match stage.algo {
            StepAlgo::Nav if child_ward => nav_set(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                edge.set_attr.expect("planner checked set attribute"),
                &classes,
                rows,
                &mut report,
            ),
            StepAlgo::Nav => nav_back_ref(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                edge.ref_attr.expect("planner checked back reference"),
                &classes,
                rows,
                &mut report,
            ),
            StepAlgo::Hash if child_ward => hash_children(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                stage.access,
                edge.ref_attr.expect("planner checked back reference"),
                indexes[stage.step].as_ref(),
                &classes,
                rows,
                &mut report,
            ),
            StepAlgo::Hash => hash_parents(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                stage.access,
                edge.ref_attr.expect("planner checked back reference"),
                indexes[stage.step].as_ref(),
                &classes,
                rows,
                &mut report,
            ),
        };
    }

    ex.op(OpKind::Emit, "result", |ex| {
        for row in rows {
            charge_result_append(ex.store, spec.result_mode);
            report.results += 1;
            if let Some(out) = &mut report.rows {
                out.push(row.proj);
            }
        }
    });
    report.trace = ex.finish();
    report
}

/// Evaluates `preds[skip..]` against a fetched object, charging one
/// attribute get and one compare per conjunct tested (short-circuit).
fn preds_pass(
    ex: &mut ExecContext<'_>,
    class: ClassId,
    obj: &Record,
    step: &ChainStep,
    skip: usize,
) -> bool {
    for pred in &step.preds[skip..] {
        ex.store.charge_attr_access(class, pred.attr);
        ex.store.charge(CpuEvent::Compare, 1);
        if !pred.eval(int_attr(obj, pred.attr)) {
            return false;
        }
    }
    true
}

/// Fills the projection slots owned by `step` from its pinned object.
fn fill_proj(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    class: ClassId,
    step: usize,
    obj: &Record,
    proj: &mut [i64],
) {
    for (slot, &(s, attr)) in spec.projection.iter().enumerate() {
        if s == step {
            ex.store.charge_attr_access(class, attr);
            proj[slot] = int_attr(obj, attr);
        }
    }
}

/// Gathers the candidate rids of `step`'s extent: an index range scan
/// over the primary predicate (rid-sorted, so the fetches that follow
/// run in physical order) or a rid-run walk of the whole collection.
/// Fetch costs land on the consuming stage. Returns the rids plus how
/// many leading predicates the access already enforced.
fn gather_candidates(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    step: usize,
    access: RootAccess,
    index: Option<&BTreeIndex>,
) -> (Vec<Rid>, usize) {
    let s = &spec.steps[step];
    let label = s.label();
    match access {
        RootAccess::Index => {
            let index = index.expect("plan uses an index this step lacks");
            let pred = &s.preds[0];
            let (lo, hi) = pred.cmp.index_range(pred.key, i64::MIN + 1, i64::MAX - 1);
            let rids = ex.op(OpKind::IndexRangeScan, &label, |ex| {
                let mut cursor = index.range(ex.store.stack_mut(), lo, hi);
                let mut out: Vec<Rid> = Vec::new();
                while let Some((_, rid)) = cursor.next(ex.store.stack_mut()) {
                    out.push(rid);
                }
                if out.len() > 1 {
                    let n = out.len() as f64;
                    ex.store
                        .charge(CpuEvent::SortCompare, (n * n.log2()).ceil() as u64);
                    out.sort_unstable();
                }
                out
            });
            (rids, 1)
        }
        RootAccess::Scan => {
            let rids = ex.op(OpKind::SeqScan, &label, |ex| {
                let mut cursor = ex.store.collection_cursor(&s.collection);
                let mut out: Vec<Rid> = Vec::new();
                while let Some(rid) = cursor.next(ex.store.stack_mut()) {
                    out.push(rid);
                }
                out
            });
            (rids, 0)
        }
    }
}

/// Binds the root step: candidate gather plus the fetch/filter pass,
/// all inside the access operator's scope (mirroring the selection
/// scans).
fn bind_root(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    plan: &LogicalPlan,
    indexes: &[Option<BTreeIndex>],
    classes: &[ClassId],
    report: &mut ChainReport,
) -> Vec<Row> {
    let step = plan.root;
    let s = &spec.steps[step];
    let class = classes[step];
    let label = s.label();
    let proj_len = spec.projection.len();
    let (candidates, enforced) =
        gather_candidates(ex, spec, step, plan.root_access, indexes[step].as_ref());
    let kind = match plan.root_access {
        RootAccess::Index => OpKind::IndexRangeScan,
        RootAccess::Scan => OpKind::SeqScan,
    };
    // Re-entering the same (kind, label) scope merges with the gather
    // node, so the trace shows one row per pipeline stage.
    ex.op(kind, &label, |ex| {
        let mut rows = Vec::new();
        for rid in candidates {
            ex.with_object(rid, |ex, obj| {
                report.scanned[step] += 1;
                if obj.is_deleted() {
                    return;
                }
                if !preds_pass(ex, class, obj, s, enforced) {
                    return;
                }
                let mut row = Row {
                    // Every slot starts as the root rid; stages
                    // overwrite their own step's slot as they bind.
                    rids: vec![obj.rid(); spec.len()],
                    proj: vec![0; proj_len],
                };
                fill_proj(ex, spec, class, step, obj, &mut row.proj);
                rows.push(row);
            });
        }
        rows
    })
}

/// Parent→child navigation: re-fetch each frontier parent, walk its
/// set attribute, fetch and filter members.
#[allow(clippy::too_many_arguments)]
fn nav_set(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    set_attr: usize,
    classes: &[ClassId],
    rows: Vec<Row>,
    report: &mut ChainReport,
) -> Vec<Row> {
    let s = &spec.steps[step];
    let label = s.label();
    let (from_class, class) = (classes[from], classes[step]);
    ex.op(OpKind::SetNav, &label, |ex| {
        let mut out = Vec::new();
        for row in rows {
            ex.with_object(row.rids[from], |ex, parent| {
                if parent.is_deleted() {
                    return;
                }
                ex.store.charge_attr_access(from_class, set_attr);
                let mut members = parent.set(set_attr).expect("edge set attribute");
                while let Some(crid) = members.next(ex.store.stack_mut()) {
                    ex.with_object(crid, |ex, child| {
                        report.scanned[step] += 1;
                        if child.is_deleted() {
                            return;
                        }
                        if !preds_pass(ex, class, child, s, 0) {
                            return;
                        }
                        let mut nr = row.clone();
                        nr.rids[step] = child.rid();
                        fill_proj(ex, spec, class, step, child, &mut nr.proj);
                        out.push(nr);
                    });
                }
            });
        }
        out
    })
}

/// Child→parent navigation: re-fetch each frontier child, follow its
/// back reference, fetch and filter the parent.
#[allow(clippy::too_many_arguments)]
fn nav_back_ref(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    ref_attr: usize,
    classes: &[ClassId],
    rows: Vec<Row>,
    report: &mut ChainReport,
) -> Vec<Row> {
    let s = &spec.steps[step];
    let label = s.label();
    let (from_class, class) = (classes[from], classes[step]);
    ex.op(OpKind::BackRefNav, &label, |ex| {
        let mut out = Vec::new();
        for mut row in rows {
            let prid = ex.with_object(row.rids[from], |ex, child| {
                if child.is_deleted() {
                    return None;
                }
                ex.store.charge_attr_access(from_class, ref_attr);
                child.ref_rid(ref_attr)
            });
            let Some(prid) = prid else { continue };
            ex.with_object(prid, |ex, parent| {
                report.scanned[step] += 1;
                if parent.is_deleted() {
                    return;
                }
                if !preds_pass(ex, class, parent, s, 0) {
                    return;
                }
                row.rids[step] = parent.rid();
                fill_proj(ex, spec, class, step, parent, &mut row.proj);
                out.push(row);
            });
        }
        out
    })
}

/// Hash stage, new step on the child side: build a table over the
/// bound parent rids, scan the child extent, probe by back reference.
#[allow(clippy::too_many_arguments)]
fn hash_children(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    access: RootAccess,
    ref_attr: usize,
    index: Option<&BTreeIndex>,
    classes: &[ClassId],
    rows: Vec<Row>,
    report: &mut ChainReport,
) -> Vec<Row> {
    let s = &spec.steps[step];
    let class = classes[step];
    let budget = ex.store.stack().model().operator_memory_budget;
    let mut swap = SwapSim::new(0, budget);
    // Row indices per parent rid (a parent can back several rows once
    // the chain revisits a collection).
    let mut table: FxHashMap<Rid, Vec<usize>> = FxHashMap::default();
    ex.op(OpKind::HashBuild, &spec.steps[from].label(), |ex| {
        for (i, row) in rows.iter().enumerate() {
            table.entry(row.rids[from]).or_default().push(i);
            ex.store.charge(CpuEvent::HashInsert, 1);
            swap.grow_to(table.len() as u64 * CHAIN_ENTRY_BYTES);
            if swap.touch(rid_hash(row.rids[from])) {
                ex.store.charge(CpuEvent::SwapFault, 1);
            }
        }
    });
    report.hash_table_bytes = report
        .hash_table_bytes
        .max(table.len() as u64 * CHAIN_ENTRY_BYTES);

    let (candidates, enforced) = gather_candidates(ex, spec, step, access, index);
    let out = ex.op(OpKind::HashProbe, &s.label(), |ex| {
        let mut out = Vec::new();
        for crid in candidates {
            ex.with_object(crid, |ex, child| {
                report.scanned[step] += 1;
                if child.is_deleted() {
                    return;
                }
                if !preds_pass(ex, class, child, s, enforced) {
                    return;
                }
                ex.store.charge_attr_access(class, ref_attr);
                let Some(prid) = child.ref_rid(ref_attr) else {
                    return;
                };
                ex.store.charge(CpuEvent::HashProbe, 1);
                if swap.touch(rid_hash(prid)) {
                    ex.store.charge(CpuEvent::SwapFault, 1);
                }
                if let Some(hits) = table.get(&prid) {
                    for &i in hits {
                        let mut nr = rows[i].clone();
                        nr.rids[step] = child.rid();
                        fill_proj(ex, spec, class, step, child, &mut nr.proj);
                        out.push(nr);
                    }
                }
            });
        }
        out
    });
    report.swap_faults += swap.faults();
    out
}

/// Hash stage, new step on the parent side: scan and filter the parent
/// extent into a table keyed by rid (carrying its projection values),
/// then probe with each bound child's back reference.
#[allow(clippy::too_many_arguments)]
fn hash_parents(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    access: RootAccess,
    ref_attr: usize,
    index: Option<&BTreeIndex>,
    classes: &[ClassId],
    rows: Vec<Row>,
    report: &mut ChainReport,
) -> Vec<Row> {
    let s = &spec.steps[step];
    let (from_class, class) = (classes[from], classes[step]);
    let budget = ex.store.stack().model().operator_memory_budget;
    let mut swap = SwapSim::new(0, budget);
    let (candidates, enforced) = gather_candidates(ex, spec, step, access, index);
    // Qualifying parents, carrying the projection slots they own.
    let mut table: FxHashMap<Rid, Vec<(usize, i64)>> = FxHashMap::default();
    ex.op(OpKind::HashBuild, &s.label(), |ex| {
        for prid in candidates {
            ex.with_object(prid, |ex, parent| {
                report.scanned[step] += 1;
                if parent.is_deleted() {
                    return;
                }
                if !preds_pass(ex, class, parent, s, enforced) {
                    return;
                }
                let mut vals = Vec::new();
                for (slot, &(ps, attr)) in spec.projection.iter().enumerate() {
                    if ps == step {
                        ex.store.charge_attr_access(class, attr);
                        vals.push((slot, int_attr(parent, attr)));
                    }
                }
                table.insert(parent.rid(), vals);
                ex.store.charge(CpuEvent::HashInsert, 1);
                swap.grow_to(table.len() as u64 * CHAIN_ENTRY_BYTES);
                if swap.touch(rid_hash(parent.rid())) {
                    ex.store.charge(CpuEvent::SwapFault, 1);
                }
            });
        }
    });
    report.hash_table_bytes = report
        .hash_table_bytes
        .max(table.len() as u64 * CHAIN_ENTRY_BYTES);

    ex.op(OpKind::HashProbe, &spec.steps[from].label(), |ex| {
        let mut out = Vec::new();
        for mut row in rows {
            let prid = ex.with_object(row.rids[from], |ex, child| {
                if child.is_deleted() {
                    return None;
                }
                ex.store.charge_attr_access(from_class, ref_attr);
                child.ref_rid(ref_attr)
            });
            let Some(prid) = prid else { continue };
            ex.store.charge(CpuEvent::HashProbe, 1);
            if swap.touch(rid_hash(prid)) {
                ex.store.charge(CpuEvent::SwapFault, 1);
            }
            if let Some(vals) = table.get(&prid) {
                row.rids[step] = prid;
                for &(slot, v) in vals {
                    row.proj[slot] = v;
                }
                out.push(row);
            }
        }
        report.swap_faults += swap.faults();
        out
    })
}
