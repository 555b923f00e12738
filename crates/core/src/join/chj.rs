//! CHJ — hash the children and join (paper §5.1).
//!
//! ```text
//! hash all patients whose mrn < k1 by their primary care provider
//! For all providers whose upin < k2            /* index scan */
//!     get the corresponding patient information in the hash table
//!     add f(p,pa) to the result
//! ```
//!
//! "A slight variation of the pointer-based join of [Shekita & Carey]":
//! because no hybrid hashing is used, the provider collection is
//! scanned *sequentially* rather than accessed randomly per hash-table
//! occurrence. Same index/sequentiality profile as PHJ, but the table
//! holds children — "potentially 3 to 1000 times more elements". The
//! table is directory-organized by parent: 60 bytes per parent slot
//! (sized by parent cardinality) plus 8 bytes per selected child
//! (Figure 10) — "too large in the 1:3 case whatever the selectivity on
//! Patients is".
//!
//! Operator composition: `IndexRangeScan(children)` → `HashBuild`,
//! then `IndexRangeScan(parents)` → `HashProbe` with `Emit` on hits.

use super::{
    emit, flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, CHJ_CHILD_ENTRY_BYTES,
    CHJ_PARENT_SLOT_BYTES, HANDLE_ENTRY_EXTRA_BYTES,
};
use crate::exec::{index_range_scan, int_attr, ExecContext, OpKind};
use crate::spec::HashKeyMode;
use crate::swap::SwapSim;
use tq_fasthash::FxHashMap;
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

/// Bytes per child entry under the given key mode.
pub(super) fn child_entry_bytes(opts: &JoinOptions) -> u64 {
    CHJ_CHILD_ENTRY_BYTES
        + match opts.hash_key {
            HashKeyMode::Rid => 0,
            HashKeyMode::Handle => HANDLE_ENTRY_EXTRA_BYTES,
        }
}

/// Directory + entry bytes for a table of `parents` slots holding
/// `children` entries.
pub(super) fn table_bytes(opts: &JoinOptions, parents: u64, children: u64) -> u64 {
    CHJ_PARENT_SLOT_BYTES * parents + children * child_entry_bytes(opts)
}

pub(super) fn run(
    ex: &mut ExecContext<'_>,
    parent_index: &BTreeIndex,
    child_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    collect: bool,
) -> JoinReport {
    let mut report = JoinReport {
        pairs: collect.then(Vec::new),
        ..Default::default()
    };
    let parent_class = ex.store.collection(&spec.parents).class;
    let parents_total = ex.store.collection(&spec.parents).run.count;
    let budget = ex.store.stack().model().operator_memory_budget;

    // Build: parent slots are demand-allocated as children arrive
    // (the paper's Figure 10 sizes the directory pessimistically by
    // the full parent cardinality — an *approximation*; the executor
    // only pays for parents that actually hold selected children).
    let _ = parents_total;
    let mut table: FxHashMap<Rid, Vec<i64>> = FxHashMap::default();
    let mut swap = SwapSim::new(0, budget);
    let mut inserted_children = 0u64;
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    build_children(
        ex,
        spec,
        opts,
        &children,
        &mut table,
        &mut swap,
        &mut inserted_children,
        &mut report,
    );
    report.hash_table_bytes = table_bytes(opts, table.len() as u64, inserted_children);

    // Probe: scan selected parents sequentially.
    let parents = index_range_scan(
        ex,
        parent_index,
        spec.parent_key_limit,
        opts.sort_index_rids,
        &spec.parents,
    );
    probe_parents(
        ex,
        spec,
        parent_class,
        &parents,
        &table,
        &mut swap,
        &mut report,
    );
    report.swap_faults = swap.faults();
    if opts.hash_key == HashKeyMode::Handle {
        free_table_handles(ex, spec, inserted_children);
    }
    report
}

/// The build half: fetch each selected child and file its key under
/// its parent's slot, growing and touching the swap simulation per
/// entry. Opens the `HashBuild(children)` scope. Factored out of
/// [`run`] so the morsel workers of [`super::parallel`] build partial
/// tables over contiguous chunks of the child list with the identical
/// charge sequence; concatenating the partial slot vectors in worker
/// order reproduces the serial per-parent child order exactly.
#[allow(clippy::too_many_arguments)]
pub(super) fn build_children(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    children: &[(i64, Rid)],
    table: &mut FxHashMap<Rid, Vec<i64>>,
    swap: &mut SwapSim,
    inserted_children: &mut u64,
    report: &mut JoinReport,
) {
    let child_class = ex.store.collection(&spec.children).class;
    let child_entry_bytes = child_entry_bytes(opts);
    let batch = ex.batch_size();
    ex.op(OpKind::HashBuild, &spec.children, |ex| {
        if batch <= 1 {
            for &(child_key, crid) in children {
                ex.with_object(crid, |ex, child| {
                    report.children_scanned += 1;
                    if child.is_deleted() {
                        return;
                    }
                    ex.store.charge_attr_access(child_class, spec.child_parent);
                    ex.store.charge_attr_access(child_class, spec.child_project);
                    let prid = child
                        .ref_rid(spec.child_parent)
                        .expect("child parent reference");
                    table.entry(prid).or_default().push(child_key);
                    *inserted_children += 1;
                    ex.store.charge(CpuEvent::HashInsert, 1);
                    if opts.hash_key == HashKeyMode::Handle {
                        ex.store.charge(CpuEvent::HandleAlloc, 1);
                    }
                    swap.grow_to(
                        CHJ_PARENT_SLOT_BYTES * table.len() as u64
                            + *inserted_children * child_entry_bytes,
                    );
                    if swap.touch(rid_hash(prid)) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            for chunk in children.chunks(batch) {
                rids.clear();
                rids.extend(chunk.iter().map(|&(_, r)| r));
                ex.with_batch(&rids, |ex, objs| {
                    for (i, &(child_key, _)) in chunk.iter().enumerate() {
                        let child = objs.record(i);
                        report.children_scanned += 1;
                        if child.is_deleted() {
                            continue;
                        }
                        ex.store.charge_attr_access(child_class, spec.child_parent);
                        ex.store.charge_attr_access(child_class, spec.child_project);
                        let prid = child
                            .ref_rid(spec.child_parent)
                            .expect("child parent reference");
                        table.entry(prid).or_default().push(child_key);
                        *inserted_children += 1;
                        ex.store.charge(CpuEvent::HashInsert, 1);
                        if opts.hash_key == HashKeyMode::Handle {
                            ex.store.charge(CpuEvent::HandleAlloc, 1);
                        }
                        swap.grow_to(
                            CHJ_PARENT_SLOT_BYTES * table.len() as u64
                                + *inserted_children * child_entry_bytes,
                        );
                        if swap.touch(rid_hash(prid)) {
                            ex.store.charge(CpuEvent::SwapFault, 1);
                        }
                    }
                });
            }
            ex.put_rid_batch(rids);
        }
    });
}

/// The probe half: fetch each selected parent sequentially, look its
/// slot up in the (read-only) table, and emit every filed child key.
/// Opens the `HashProbe(parents)` scope.
pub(super) fn probe_parents(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    parent_class: ClassId,
    parents: &[(i64, Rid)],
    table: &FxHashMap<Rid, Vec<i64>>,
    swap: &mut SwapSim,
    report: &mut JoinReport,
) {
    let batch = ex.batch_size();
    ex.op(OpKind::HashProbe, &spec.parents, |ex| {
        if batch <= 1 {
            for &(_pkey, prid) in parents {
                ex.with_object(prid, |ex, parent| {
                    report.parents_scanned += 1;
                    if parent.is_deleted() {
                        return;
                    }
                    ex.store
                        .charge_attr_access(parent_class, spec.parent_project);
                    let parent_key = int_attr(parent, spec.parent_key);
                    ex.store.charge(CpuEvent::HashProbe, 1);
                    if swap.touch(rid_hash(parent.rid())) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                    if let Some(child_keys) = table.get(&parent.rid()) {
                        ex.op(OpKind::Emit, "result", |ex| {
                            for &child_key in child_keys {
                                emit(ex.store, spec, report, parent_key, child_key);
                            }
                        });
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            let mut pending = ex.take_val_batch();
            for chunk in parents.chunks(batch) {
                rids.clear();
                rids.extend(chunk.iter().map(|&(_, r)| r));
                ex.with_batch(&rids, |ex, objs| {
                    for i in 0..objs.len() {
                        let (prid, parent) = objs.get(i);
                        report.parents_scanned += 1;
                        if parent.is_deleted() {
                            continue;
                        }
                        ex.store
                            .charge_attr_access(parent_class, spec.parent_project);
                        let parent_key = int_attr(parent, spec.parent_key);
                        ex.store.charge(CpuEvent::HashProbe, 1);
                        if swap.touch(rid_hash(prid)) {
                            ex.store.charge(CpuEvent::SwapFault, 1);
                        }
                        if let Some(child_keys) = table.get(&prid) {
                            for &child_key in child_keys {
                                pending.push((parent_key, child_key));
                            }
                        }
                    }
                });
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &[], spec, report);
                }
            }
            let at = ex.current_node();
            flush_emits(ex, at, &mut pending, &[], spec, report);
            ex.put_rid_batch(rids);
            ex.put_val_batch(pending);
        }
    });
}

/// Tear the pinned table handles down — Handle key mode only.
/// Re-enters the `HashBuild(children)` node.
pub(super) fn free_table_handles(ex: &mut ExecContext<'_>, spec: &TreeJoinSpec, entries: u64) {
    ex.op(OpKind::HashBuild, &spec.children, |ex| {
        ex.store.charge(CpuEvent::HandleFree, entries);
    });
}
