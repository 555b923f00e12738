//! N-way chain executor: runs a [`LogicalPlan`] over a [`ChainSpec`]
//! by composing the same physical operators the 2-way joins use.
//!
//! The executor materializes the bound-row frontier between stages,
//! stored flat (see `Frontier`), and keeps only live state in it: a
//! row carries the rids of the bound steps that a later stage still
//! reads as `from` (computed once per plan by `live_steps`), plus the
//! projection values filled so far only when the caller collects rows.
//! The last stage's frontier has no live step, so a counting run's
//! last stage counts its rows instead of storing them — host memory
//! follows the widest intermediate frontier, not results × chain
//! width. Navigation stages re-fetch the frontier object through its
//! rid (the physically honest cost of a materialized pipeline) and
//! walk the edge attribute; hash stages
//! scan the new step's extent, build or probe an rid-keyed table
//! ([`SwapSim`]-paged like PHJ), and extend matching rows. Predicates
//! beyond an index-served primary are evaluated at fetch, charged
//! inside the enclosing operator scope. Projected attributes are
//! charged where their step binds whether or not they are stored, so
//! collecting or counting runs charge alike.
//!
//! The trace rows this produces are exactly
//! [`chain_pipeline`](crate::plan::chain_pipeline)'s `(OpKind, label)`
//! vocabulary, and — through the [`ExecContext`] attribution invariant
//! — sum field for field to the query-level counters. Stages fetch one
//! object at a time at any batch size and run on one context at any
//! morsel degree: the executor does not use `ExecContext::fetch_chunk`
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

/// Marks the end of a hash-table row chain.
const NO_ROW: u32 = u32::MAX;

/// The bound-row frontier between two stages, flat: row `i` owns
/// `rids[i * steps.len()..][..steps.len()]` (the rids bound at `steps`)
/// and `proj[i * proj_len..][..proj_len]` (the projection values filled
/// so far). `steps` are the frontier's live steps (`live_steps`), and
/// `proj_len` is 0 unless the run collects, so a frontier with neither
/// is a bare row count that allocates nothing. A stage costs two
/// allocations, not two per row. Host-side only: the simulated clock
/// never sees its layout.
struct Frontier {
    steps: Vec<usize>,
    proj_len: usize,
    len: usize,
    rids: Vec<Rid>,
    proj: Vec<i64>,
}

impl Frontier {
    fn new(steps: &[usize], proj_len: usize) -> Self {
        Self {
            steps: steps.to_vec(),
            proj_len,
            len: 0,
            rids: Vec::new(),
            proj: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The rid row `row` bound at `step`, one of the live steps.
    fn rid(&self, row: usize, step: usize) -> Rid {
        let col = self.steps.iter().position(|&s| s == step);
        self.rids[row * self.steps.len() + col.expect("a stage reads only live steps")]
    }

    fn proj(&self, row: usize) -> &[i64] {
        &self.proj[row * self.proj_len..][..self.proj_len]
    }

    /// Appends a root row bound to `rid` (the root frontier's only
    /// possible live step is the root), projections 0. Returns the new
    /// row's projection slots.
    fn push_root(&mut self, rid: Rid) -> &mut [i64] {
        self.rids.extend(self.steps.iter().map(|_| rid));
        self.len += 1;
        let at = self.proj.len();
        self.proj.resize(at + self.proj_len, 0);
        &mut self.proj[at..]
    }

    /// Appends `src`'s row `row` extended with `step` bound to `rid`,
    /// keeping this frontier's live steps. Returns the new row's
    /// projection slots.
    fn push_extended(&mut self, src: &Frontier, row: usize, step: usize, rid: Rid) -> &mut [i64] {
        for &s in &self.steps {
            self.rids
                .push(if s == step { rid } else { src.rid(row, s) });
        }
        self.len += 1;
        let at = self.proj.len();
        self.proj.extend_from_slice(src.proj(row));
        &mut self.proj[at..]
    }
}

/// The live steps of every frontier `plan` runs through, in bind
/// order: entry `k` is the frontier stage `k` reads (entry 0 the
/// root's), and holds the steps bound so far that stage `k` or a later
/// one reads as `from`. The last entry, the result's frontier, is
/// empty.
fn live_steps(plan: &LogicalPlan) -> Vec<Vec<usize>> {
    let order = plan.order();
    (0..order.len())
        .map(|k| {
            let later = &plan.stages[k..];
            (order[..=k].iter().copied())
                .filter(|&b| later.iter().any(|s| s.from == b))
                .collect()
        })
        .collect()
}

/// Runs `plan` over `spec`. `indexes[step]`, when present, is an index
/// on that step's primary predicate attribute (required by every
/// `RootAccess::Index` the plan uses). `collect` gathers the projected
/// tuples into [`ChainReport::rows`]; without it the last stage only
/// counts. Either way the simulated counters, trace and report fields
/// other than `rows` are the same.
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

    let live = live_steps(plan);
    let proj_len = if collect { spec.projection.len() } else { 0 };
    let root = Frontier::new(&live[0], proj_len);
    let mut rows = bind_root(&mut ex, spec, plan, indexes, &classes, root, &mut report);
    for (stage, live) in plan.stages.iter().zip(&live[1..]) {
        let edge = spec.edge_between(stage.from, stage.step);
        let child_ward = edge.child == stage.step;
        let out = Frontier::new(live, proj_len);
        rows = match stage.algo {
            StepAlgo::Nav if child_ward => nav_set(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                edge.set_attr.expect("planner checked set attribute"),
                &classes,
                &rows,
                out,
                &mut report,
            ),
            StepAlgo::Nav => nav_back_ref(
                &mut ex,
                spec,
                stage.from,
                stage.step,
                edge.ref_attr.expect("planner checked back reference"),
                &classes,
                &rows,
                out,
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
                &rows,
                out,
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
                &rows,
                out,
                &mut report,
            ),
        };
    }

    ex.op(OpKind::Emit, "result", |ex| {
        for row in 0..rows.len() {
            charge_result_append(ex.store, spec.result_mode);
            report.results += 1;
            if let Some(out) = &mut report.rows {
                out.push(rows.proj(row).to_vec());
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

/// Charges the gets of the projection slots owned by `step` and, when
/// the run collects (`proj` is not empty), fills them from its pinned
/// object.
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
            if let Some(v) = proj.get_mut(slot) {
                *v = int_attr(obj, attr);
            }
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

/// Binds the root step into `rows`: candidate gather plus the
/// fetch/filter pass, all inside the access operator's scope
/// (mirroring the selection scans).
fn bind_root(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    plan: &LogicalPlan,
    indexes: &[Option<BTreeIndex>],
    classes: &[ClassId],
    mut rows: Frontier,
    report: &mut ChainReport,
) -> Frontier {
    let step = plan.root;
    let s = &spec.steps[step];
    let class = classes[step];
    let label = s.label();
    let (candidates, enforced) =
        gather_candidates(ex, spec, step, plan.root_access, indexes[step].as_ref());
    let kind = match plan.root_access {
        RootAccess::Index => OpKind::IndexRangeScan,
        RootAccess::Scan => OpKind::SeqScan,
    };
    // Re-entering the same (kind, label) scope merges with the gather
    // node, so the trace shows one row per pipeline stage.
    ex.op(kind, &label, |ex| {
        for rid in candidates {
            ex.with_object(rid, |ex, obj| {
                report.scanned[step] += 1;
                if obj.is_deleted() {
                    return;
                }
                if !preds_pass(ex, class, obj, s, enforced) {
                    return;
                }
                let proj = rows.push_root(obj.rid());
                fill_proj(ex, spec, class, step, obj, proj);
            });
        }
        rows
    })
}

/// Parent→child navigation: re-fetch each frontier parent, walk its
/// set attribute, fetch and filter members into `out`.
#[allow(clippy::too_many_arguments)]
fn nav_set(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    set_attr: usize,
    classes: &[ClassId],
    rows: &Frontier,
    mut out: Frontier,
    report: &mut ChainReport,
) -> Frontier {
    let s = &spec.steps[step];
    let label = s.label();
    let (from_class, class) = (classes[from], classes[step]);
    ex.op(OpKind::SetNav, &label, |ex| {
        for row in 0..rows.len() {
            ex.with_object(rows.rid(row, from), |ex, parent| {
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
                        let proj = out.push_extended(rows, row, step, child.rid());
                        fill_proj(ex, spec, class, step, child, proj);
                    });
                }
            });
        }
        out
    })
}

/// Child→parent navigation: re-fetch each frontier child, follow its
/// back reference, fetch and filter the parent into `out`.
#[allow(clippy::too_many_arguments)]
fn nav_back_ref(
    ex: &mut ExecContext<'_>,
    spec: &ChainSpec,
    from: usize,
    step: usize,
    ref_attr: usize,
    classes: &[ClassId],
    rows: &Frontier,
    mut out: Frontier,
    report: &mut ChainReport,
) -> Frontier {
    let s = &spec.steps[step];
    let label = s.label();
    let (from_class, class) = (classes[from], classes[step]);
    ex.op(OpKind::BackRefNav, &label, |ex| {
        for row in 0..rows.len() {
            let prid = ex.with_object(rows.rid(row, from), |ex, child| {
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
                let proj = out.push_extended(rows, row, step, parent.rid());
                fill_proj(ex, spec, class, step, parent, proj);
            });
        }
        out
    })
}

/// Hash stage, new step on the child side: build a table over the
/// bound parent rids, scan the child extent, probe by back reference,
/// extending the matches into `out`.
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
    rows: &Frontier,
    mut out: Frontier,
    report: &mut ChainReport,
) -> Frontier {
    let s = &spec.steps[step];
    let class = classes[step];
    let budget = ex.store.stack().model().operator_memory_budget;
    let mut swap = SwapSim::new(0, budget);
    // The rows per parent rid (a parent can back several rows once the
    // chain revisits a collection), as an index-linked list: the table
    // holds a parent's first and last row, `next[row]` the row after.
    let mut table: FxHashMap<Rid, (u32, u32)> = FxHashMap::default();
    let mut next = vec![NO_ROW; rows.len()];
    ex.op(OpKind::HashBuild, &spec.steps[from].label(), |ex| {
        for row in 0..rows.len() {
            let prid = rows.rid(row, from);
            let row = row as u32;
            table
                .entry(prid)
                .and_modify(|(_, last)| {
                    next[*last as usize] = row;
                    *last = row;
                })
                .or_insert((row, row));
            ex.store.charge(CpuEvent::HashInsert, 1);
            swap.grow_to(table.len() as u64 * CHAIN_ENTRY_BYTES);
            if swap.touch(rid_hash(prid)) {
                ex.store.charge(CpuEvent::SwapFault, 1);
            }
        }
    });
    report.hash_table_bytes = report
        .hash_table_bytes
        .max(table.len() as u64 * CHAIN_ENTRY_BYTES);

    let (candidates, enforced) = gather_candidates(ex, spec, step, access, index);
    ex.op(OpKind::HashProbe, &s.label(), |ex| {
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
                if let Some(&(first, _)) = table.get(&prid) {
                    let mut row = first;
                    while row != NO_ROW {
                        let proj = out.push_extended(rows, row as usize, step, child.rid());
                        fill_proj(ex, spec, class, step, child, proj);
                        row = next[row as usize];
                    }
                }
            });
        }
    });
    report.swap_faults += swap.faults();
    out
}

/// Hash stage, new step on the parent side: scan and filter the parent
/// extent into a table keyed by rid (carrying its projection values
/// when the run collects), then probe with each bound child's back
/// reference, extending the matches into `out`.
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
    rows: &Frontier,
    mut out: Frontier,
    report: &mut ChainReport,
) -> Frontier {
    let s = &spec.steps[step];
    let (from_class, class) = (classes[from], classes[step]);
    let budget = ex.store.stack().model().operator_memory_budget;
    let mut swap = SwapSim::new(0, budget);
    let (candidates, enforced) = gather_candidates(ex, spec, step, access, index);
    // Qualifying parents, carrying the values of the projection slots
    // `step` owns: the table maps a parent to the offset of its
    // `owned.len()` values in `vals` (empty unless the run collects;
    // the gets are charged either way).
    let owned: Vec<usize> = spec
        .projection
        .iter()
        .enumerate()
        .filter(|(_, &(ps, _))| ps == step)
        .map(|(slot, _)| slot)
        .collect();
    let mut vals: Vec<i64> = Vec::new();
    let mut table: FxHashMap<Rid, u32> = FxHashMap::default();
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
                let at = vals.len() as u32;
                for &slot in &owned {
                    let attr = spec.projection[slot].1;
                    ex.store.charge_attr_access(class, attr);
                    if out.proj_len > 0 {
                        vals.push(int_attr(parent, attr));
                    }
                }
                table.insert(parent.rid(), at);
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
        for row in 0..rows.len() {
            let prid = ex.with_object(rows.rid(row, from), |ex, child| {
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
            if let Some(&at) = table.get(&prid) {
                let proj = out.push_extended(rows, row, step, prid);
                for (&slot, &v) in owned.iter().zip(&vals[at as usize..]) {
                    proj[slot] = v;
                }
            }
        }
        report.swap_faults += swap.faults();
        out
    })
}
