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

use super::parallel::{MorselPanic, Morsels};
use super::{flush_emits, JoinReport, TreeJoinSpec};
use crate::exec::{index_range_scan, int_attr, ExecContext, OpKind};
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

pub(super) fn run(
    ex: &mut ExecContext<'_>,
    parent_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    morsels: &mut Morsels,
    report: &mut JoinReport,
) -> Result<(), MorselPanic> {
    let parent_class = ex.store.collection(&spec.parents).class;
    let child_class = ex.store.collection(&spec.children).class;
    if morsels.degree() == 1 {
        // One context consumes the index as it walks it: the leaf reads
        // interleave with the navigation, as in the paper's loop.
        ex.op(OpKind::IndexRangeScan, &spec.parents, |ex| {
            let mut parents = parent_index.range(
                ex.store.stack_mut(),
                i64::MIN + 1,
                spec.parent_key_limit - 1,
            );
            scan_parents(ex, spec, parent_class, child_class, report, |ex| {
                parents.next(ex.store.stack_mut())
            });
        });
        return Ok(());
    }
    // Several contexts cannot share a live cursor: drain the range
    // first (same node, same total charges), then split the list.
    let parents = index_range_scan(
        ex,
        parent_index,
        spec.parent_key_limit,
        false,
        &spec.parents,
    );
    morsels.run(
        ex,
        parents.len(),
        report,
        |_| (),
        |ex, span, report, _| {
            ex.op(OpKind::IndexRangeScan, &spec.parents, |ex| {
                let mut items = parents[span].iter().copied();
                scan_parents(ex, spec, parent_class, child_class, report, |_| {
                    items.next()
                });
            });
        },
    )?;
    Ok(())
}

/// The per-parent pipeline body — the navigation, predicate, and emit
/// work for every `(parent_key, prid)` the driver yields. `next` is
/// the live index cursor or an iterator over a morsel of the drained
/// list; parents are fetched one at a time either way. Call inside an
/// open `IndexRangeScan(parents)` scope.
fn scan_parents(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    parent_class: ClassId,
    child_class: ClassId,
    report: &mut JoinReport,
    mut next: impl FnMut(&mut ExecContext<'_>) -> Option<(i64, Rid)>,
) {
    let batch = ex.batch_size();
    let emit_charges = [
        (parent_class, spec.parent_project),
        (child_class, spec.child_project),
    ];
    let mut crids: Vec<Rid> = Vec::new();
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
                // Draining an inline set touches no pages, so its
                // members gather freely: the page-access sequence is
                // the member fetches alone. An overflow set's rid-run
                // page reads interleave with the child fetches — that
                // interleave is measured physical behaviour — so its
                // members are fetched as they are read.
                let chunk = if members.is_inline() { batch } else { 1 };
                loop {
                    crids.clear();
                    members.next_chunk(ex.store.stack_mut(), chunk, &mut crids);
                    if crids.is_empty() {
                        break;
                    }
                    ex.fetch_chunk(
                        &crids,
                        |&crid| crid,
                        |ex, _, _, child| {
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
                        },
                    );
                }
                if pending.len() >= batch {
                    let at = ex.current_node();
                    flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
                }
            });
        });
    }
    // The tail flush re-enters the SetNav node by its recorded id, so
    // the Emit row keeps its place under SetNav.
    flush_emits(ex, nav_node, &mut pending, &emit_charges, spec, report);
    ex.put_val_batch(pending);
}
