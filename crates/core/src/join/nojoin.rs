//! NOJOIN — child-to-parent navigation (paper §5.1).
//!
//! ```text
//! For all patients whose mrn < k1              /* index scan */
//!     get the patient primary care provider p  /* navigation */
//!     if p.upin < k2 add f(p,pa) to the result
//! ```
//!
//! Only the child index is usable, "but this time it is that of the
//! largest collection so the handicap is less". The parent condition
//! is re-tested once per child (up to fan-out times per parent), and
//! parent accesses are random under class/random clustering — but a
//! hot parent's handle and page stay cached while its children stream
//! by, which is what makes NOJOIN competitive in the 1:1000 database.
//!
//! Operator composition: `IndexRangeScan(children)` driving a
//! `BackRefNav(parents)` per child, with `Emit` on qualifying pairs.

use super::parallel::{MorselPanic, Morsels};
use super::{flush_emits, JoinOptions, JoinReport, TreeJoinSpec};
use crate::exec::{index_range_scan, int_attr, ExecContext, OpKind};
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

pub(super) fn run(
    ex: &mut ExecContext<'_>,
    child_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    morsels: &mut Morsels,
    report: &mut JoinReport,
) -> Result<(), MorselPanic> {
    let parent_class = ex.store.collection(&spec.parents).class;
    let child_class = ex.store.collection(&spec.children).class;
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    morsels.run(
        ex,
        children.len(),
        report,
        |_| (),
        |ex, span, report, _| {
            let children = &children[span];
            scan_children(ex, spec, parent_class, child_class, children, report);
        },
    )?;
    Ok(())
}

/// The fetch half of the child scan: navigate each `(child_key, crid)`
/// to its parent, test, and emit. Reopens the gather's
/// `IndexRangeScan(children)` node (same kind/label/parent), so the
/// per-operator row covers gather + fetch.
///
/// Child and parent fetches interleave (and a hot parent's rid
/// repeats, fan-out times) — that interleave IS the algorithm's
/// cache behaviour, so both are fetched one at a time at any batch
/// size; only the results are batched.
fn scan_children(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    parent_class: ClassId,
    child_class: ClassId,
    children: &[(i64, Rid)],
    report: &mut JoinReport,
) {
    let batch = ex.batch_size();
    ex.op(OpKind::IndexRangeScan, &spec.children, |ex| {
        let emit_charges = [
            (parent_class, spec.parent_project),
            (child_class, spec.child_project),
        ];
        let mut pending = ex.take_val_batch();
        let mut nav_node = None;
        for &(child_key, crid) in children {
            ex.with_object(crid, |ex, child| {
                report.children_scanned += 1;
                if child.is_deleted() {
                    return;
                }
                ex.op(OpKind::BackRefNav, &spec.parents, |ex| {
                    nav_node = ex.current_node();
                    ex.store.charge_attr_access(child_class, spec.child_parent);
                    let prid = child
                        .ref_rid(spec.child_parent)
                        .expect("child parent reference");
                    ex.with_object(prid, |ex, parent| {
                        report.parents_scanned += 1;
                        if parent.is_deleted() {
                            return;
                        }
                        ex.store.charge_attr_access(parent_class, spec.parent_key);
                        ex.store.charge(CpuEvent::Compare, 1);
                        let parent_key = int_attr(parent, spec.parent_key);
                        if parent_key < spec.parent_key_limit {
                            pending.push((parent_key, child_key));
                        }
                    });
                    if pending.len() >= batch {
                        let at = ex.current_node();
                        flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
                    }
                });
            });
        }
        flush_emits(ex, nav_node, &mut pending, &emit_charges, spec, report);
        ex.put_val_batch(pending);
    });
}
