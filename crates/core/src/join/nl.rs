//! NL — parent-to-child navigation (paper §5.1).
//!
//! ```text
//! For all providers p whose upin < k2          /* index scan */
//!     For all clients pa of p                  /* navigation */
//!         if pa.mrn < k1 add f(p,pa) to the result
//! ```
//!
//! Only the parent index is usable ("a big handicap since the
//! collection of patients is the largest of the two"). Parents arrive
//! sequentially; children are reached through the set attribute —
//! random I/O under class or random clustering, sequential under
//! composition clustering. Large (overflow) client sets add their own
//! rid-run page reads.
//!
//! Operator composition: `IndexRangeScan(parents)` driving a
//! `SetNav(children)` per parent, with `Emit` on qualifying pairs.

use super::{emit, flush_emits, JoinReport, TreeJoinSpec};
use crate::exec::{int_attr, ExecContext, OpKind};
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

pub(super) fn run(
    ex: &mut ExecContext<'_>,
    parent_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    collect: bool,
) -> JoinReport {
    let mut report = JoinReport {
        pairs: collect.then(Vec::new),
        ..Default::default()
    };
    let parent_class = ex.store.collection(&spec.parents).class;
    let child_class = ex.store.collection(&spec.children).class;
    ex.op(OpKind::IndexRangeScan, &spec.parents, |ex| {
        let mut parents = parent_index.range(
            ex.store.stack_mut(),
            i64::MIN + 1,
            spec.parent_key_limit - 1,
        );
        scan_parents(ex, spec, parent_class, child_class, &mut report, |ex| {
            parents.next(ex.store.stack_mut())
        });
    });
    report
}

/// The per-parent pipeline body — the navigation, predicate, and emit
/// work for every `(parent_key, prid)` the driver yields, exactly as
/// the serial loop charges it. Factored out of [`run`] so the morsel
/// workers of [`super::parallel`] execute the identical charge
/// sequence over their slice of the driving scan: the serial path
/// passes the live index cursor as `next`, a worker passes an iterator
/// over its contiguous chunk of the pre-drained `(key, rid)` list.
/// Call inside an open `IndexRangeScan(parents)` scope.
pub(super) fn scan_parents(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    parent_class: ClassId,
    child_class: ClassId,
    report: &mut JoinReport,
    mut next: impl FnMut(&mut ExecContext<'_>) -> Option<(i64, Rid)>,
) {
    let batch = ex.batch_size();
    if batch <= 1 {
        while let Some((parent_key, prid)) = next(ex) {
            ex.with_object(prid, |ex, parent| {
                report.parents_scanned += 1;
                if parent.is_deleted() {
                    return;
                }
                ex.op(OpKind::SetNav, &spec.children, |ex| {
                    ex.store.charge_attr_access(parent_class, spec.parent_set);
                    let mut members = parent.set(spec.parent_set).expect("parent set attribute");
                    while let Some(crid) = members.next(ex.store.stack_mut()) {
                        ex.with_object(crid, |ex, child| {
                            report.children_scanned += 1;
                            if child.is_deleted() {
                                return;
                            }
                            ex.store.charge_attr_access(child_class, spec.child_key);
                            ex.store.charge(CpuEvent::Compare, 1);
                            let child_key = int_attr(child, spec.child_key);
                            if child_key < spec.child_key_limit {
                                ex.op(OpKind::Emit, "result", |ex| {
                                    ex.store
                                        .charge_attr_access(parent_class, spec.parent_project);
                                    ex.store.charge_attr_access(child_class, spec.child_project);
                                    emit(ex.store, spec, report, parent_key, child_key);
                                });
                            }
                        });
                    }
                });
            });
        }
    } else {
        // Batched: inline sets (small fan-out) chunk the member
        // fan-out and fetch children in batches — draining an
        // inline set touches no pages, so the page-access sequence
        // is the member fetches alone, identical to the scalar
        // loop. Overflow sets interleave rid-run page reads with
        // the child fetches; that interleave is measured physical
        // behaviour (reordering it perturbs cache recency), so
        // their fetches stay one-at-a-time. Both defer qualifying
        // pairs and flush inside the SetNav scope when possible;
        // the tail flush re-enters the SetNav node via its
        // recorded id, so the Emit row keeps its scalar position
        // under SetNav.
        let emit_charges = [
            (parent_class, spec.parent_project),
            (child_class, spec.child_project),
        ];
        let mut crids = ex.take_rid_batch();
        let mut pending = ex.take_val_batch();
        let mut nav_node = None;
        while let Some((parent_key, prid)) = next(ex) {
            ex.with_object(prid, |ex, parent| {
                report.parents_scanned += 1;
                if parent.is_deleted() {
                    return;
                }
                ex.op(OpKind::SetNav, &spec.children, |ex| {
                    nav_node = ex.current_node();
                    ex.store.charge_attr_access(parent_class, spec.parent_set);
                    let mut members = parent.set(spec.parent_set).expect("parent set attribute");
                    if members.is_inline() {
                        loop {
                            crids.clear();
                            members.next_chunk(ex.store.stack_mut(), batch, &mut crids);
                            if crids.is_empty() {
                                break;
                            }
                            ex.with_batch(&crids, |ex, objs| {
                                for i in 0..objs.len() {
                                    let child = objs.record(i);
                                    report.children_scanned += 1;
                                    if child.is_deleted() {
                                        continue;
                                    }
                                    ex.store.charge_attr_access(child_class, spec.child_key);
                                    ex.store.charge(CpuEvent::Compare, 1);
                                    let child_key = int_attr(child, spec.child_key);
                                    if child_key < spec.child_key_limit {
                                        pending.push((parent_key, child_key));
                                    }
                                }
                            });
                        }
                    } else {
                        while let Some(crid) = members.next(ex.store.stack_mut()) {
                            ex.with_object(crid, |ex, child| {
                                report.children_scanned += 1;
                                if child.is_deleted() {
                                    return;
                                }
                                ex.store.charge_attr_access(child_class, spec.child_key);
                                ex.store.charge(CpuEvent::Compare, 1);
                                let child_key = int_attr(child, spec.child_key);
                                if child_key < spec.child_key_limit {
                                    pending.push((parent_key, child_key));
                                }
                            });
                        }
                    }
                    if pending.len() >= batch {
                        let at = ex.current_node();
                        flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
                    }
                });
            });
        }
        flush_emits(ex, nav_node, &mut pending, &emit_charges, spec, report);
        ex.put_rid_batch(crids);
        ex.put_val_batch(pending);
    }
}
