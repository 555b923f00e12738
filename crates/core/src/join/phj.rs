//! PHJ — hash the parents and join (paper §5.1).
//!
//! ```text
//! hash all providers whose upin < k2 by their identifiers  /* index scan */
//! For all patients whose mrn < k1                          /* index scan */
//!     probe the hash table with the patient's provider
//!     add f(p,pa) to the result
//! ```
//!
//! Uses both indexes and accesses both collections sequentially. One
//! 64-byte entry per selected parent (Figure 10); the table pages
//! against the operator memory budget when it outgrows it — "swapping
//! will occur in the 1:3 case, when 90% of the providers are
//! selected". "Note that this algorithm requires more instructions
//! than the previous ones": the hash insert/probe CPU is charged per
//! element.
//!
//! Operator composition: `IndexRangeScan(parents)` → `HashBuild`,
//! then `IndexRangeScan(children)` → `HashProbe` with `Emit` on hits.

use super::{
    emit, flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, HANDLE_ENTRY_EXTRA_BYTES,
    PHJ_ENTRY_BYTES,
};
use crate::exec::{index_range_scan, ExecContext, OpKind};
use crate::spec::HashKeyMode;
use crate::swap::SwapSim;
use tq_fasthash::FxHashMap;
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

/// Bytes per table entry under the given key mode.
pub(super) fn entry_bytes(opts: &JoinOptions) -> u64 {
    PHJ_ENTRY_BYTES
        + match opts.hash_key {
            HashKeyMode::Rid => 0,
            HashKeyMode::Handle => HANDLE_ENTRY_EXTRA_BYTES,
        }
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
    let child_class = ex.store.collection(&spec.children).class;
    let budget = ex.store.stack().model().operator_memory_budget;

    // Build: hash selected parents by identifier, carrying the
    // information f(p, pa) needs (the projected attribute).
    let mut table: FxHashMap<Rid, i64> = FxHashMap::default();
    let mut swap = SwapSim::new(0, budget);
    let parents = index_range_scan(
        ex,
        parent_index,
        spec.parent_key_limit,
        opts.sort_index_rids,
        &spec.parents,
    );
    build_parents(ex, spec, opts, &parents, &mut table, &mut swap, &mut report);
    report.hash_table_bytes = table.len() as u64 * entry_bytes(opts);

    // Probe: scan selected children sequentially, probe by parent rid.
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    probe_children(
        ex,
        spec,
        child_class,
        &children,
        &table,
        &mut swap,
        &mut report,
    );
    report.swap_faults = swap.faults();
    if opts.hash_key == HashKeyMode::Handle {
        free_table_handles(ex, spec, table.len() as u64);
    }
    report
}

/// The build half: fetch each selected parent and insert it into the
/// shared table, growing and touching the swap simulation per entry.
/// Call after the parent gather; opens the `HashBuild(parents)` scope.
pub(super) fn build_parents(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    parents: &[(i64, Rid)],
    table: &mut FxHashMap<Rid, i64>,
    swap: &mut SwapSim,
    report: &mut JoinReport,
) {
    let parent_class = ex.store.collection(&spec.parents).class;
    let entry_bytes = entry_bytes(opts);
    let batch = ex.batch_size();
    ex.op(OpKind::HashBuild, &spec.parents, |ex| {
        if batch <= 1 {
            for &(parent_key, prid) in parents {
                ex.with_object(prid, |ex, parent| {
                    report.parents_scanned += 1;
                    if parent.is_deleted() {
                        return;
                    }
                    ex.store
                        .charge_attr_access(parent_class, spec.parent_project);
                    table.insert(parent.rid(), parent_key);
                    ex.store.charge(CpuEvent::HashInsert, 1);
                    if opts.hash_key == HashKeyMode::Handle {
                        // The entry pins a full handle for the table's lifetime.
                        ex.store.charge(CpuEvent::HandleAlloc, 1);
                    }
                    // The table grows; keep its simulated page count current.
                    swap.grow_to(table.len() as u64 * entry_bytes);
                    if swap.touch(rid_hash(parent.rid())) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            for chunk in parents.chunks(batch) {
                rids.clear();
                rids.extend(chunk.iter().map(|&(_, r)| r));
                ex.with_batch(&rids, |ex, objs| {
                    for (i, &(parent_key, _)) in chunk.iter().enumerate() {
                        let (prid, parent) = objs.get(i);
                        report.parents_scanned += 1;
                        if parent.is_deleted() {
                            continue;
                        }
                        ex.store
                            .charge_attr_access(parent_class, spec.parent_project);
                        table.insert(prid, parent_key);
                        ex.store.charge(CpuEvent::HashInsert, 1);
                        if opts.hash_key == HashKeyMode::Handle {
                            ex.store.charge(CpuEvent::HandleAlloc, 1);
                        }
                        swap.grow_to(table.len() as u64 * entry_bytes);
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

/// The probe half: fetch each selected child, probe the (read-only)
/// table by parent rid, and emit hits. Opens the
/// `HashProbe(children)` scope. Factored out of [`run`] so the morsel
/// workers of [`super::parallel`] probe contiguous chunks of the child
/// list against the shared table with the identical charge sequence
/// (each worker touches its own clone of the post-build `swap`).
pub(super) fn probe_children(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    child_class: ClassId,
    children: &[(i64, Rid)],
    table: &FxHashMap<Rid, i64>,
    swap: &mut SwapSim,
    report: &mut JoinReport,
) {
    let batch = ex.batch_size();
    ex.op(OpKind::HashProbe, &spec.children, |ex| {
        if batch <= 1 {
            for &(child_key, crid) in children {
                ex.with_object(crid, |ex, child| {
                    report.children_scanned += 1;
                    if child.is_deleted() {
                        return;
                    }
                    ex.store.charge_attr_access(child_class, spec.child_parent);
                    let prid = child
                        .ref_rid(spec.child_parent)
                        .expect("child parent reference");
                    ex.store.charge(CpuEvent::HashProbe, 1);
                    if swap.touch(rid_hash(prid)) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                    if let Some(&parent_key) = table.get(&prid) {
                        ex.op(OpKind::Emit, "result", |ex| {
                            ex.store.charge_attr_access(child_class, spec.child_project);
                            emit(ex.store, spec, report, parent_key, child_key);
                        });
                    }
                });
            }
        } else {
            let mut rids = ex.take_rid_batch();
            let mut pending = ex.take_val_batch();
            let emit_charges = [(child_class, spec.child_project)];
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
                        let prid = child
                            .ref_rid(spec.child_parent)
                            .expect("child parent reference");
                        ex.store.charge(CpuEvent::HashProbe, 1);
                        if swap.touch(rid_hash(prid)) {
                            ex.store.charge(CpuEvent::SwapFault, 1);
                        }
                        if let Some(&parent_key) = table.get(&prid) {
                            pending.push((parent_key, child_key));
                        }
                    }
                });
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
                }
            }
            let at = ex.current_node();
            flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
            ex.put_rid_batch(rids);
            ex.put_val_batch(pending);
        }
    });
}

/// Tear the pinned table handles down (the table's cost) — Handle key
/// mode only. Re-enters the `HashBuild(parents)` node.
pub(super) fn free_table_handles(ex: &mut ExecContext<'_>, spec: &TreeJoinSpec, entries: u64) {
    ex.op(OpKind::HashBuild, &spec.parents, |ex| {
        ex.store.charge(CpuEvent::HandleFree, entries);
    });
}
