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
//!
//! Host layout: the table is one [`RidMultimap`] — parent slots over a
//! single arena of child keys — reserved before the build from the
//! driving list's length. At morsel degree > 1 every span's partial
//! table is reserved on the coordinator before its worker starts; the
//! first, reserved for the whole list, becomes the table, and the
//! others are appended to it with one relink per parent. The simulated
//! bytes (per slot and per key, above) never see this layout.

use super::multimap::RidMultimap;
use super::parallel::{MorselPanic, Morsels};
use super::{
    flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, CHJ_CHILD_ENTRY_BYTES,
    CHJ_PARENT_SLOT_BYTES, HANDLE_ENTRY_EXTRA_BYTES,
};
use crate::exec::{index_range_scan, int_attr, ExecContext, OpKind};
use crate::spec::HashKeyMode;
use crate::swap::SwapSim;
use std::ops::Range;
use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_pagestore::CpuEvent;

/// Bytes per child entry under the given key mode.
fn child_entry_bytes(opts: &JoinOptions) -> u64 {
    CHJ_CHILD_ENTRY_BYTES
        + match opts.hash_key {
            HashKeyMode::Rid => 0,
            HashKeyMode::Handle => HANDLE_ENTRY_EXTRA_BYTES,
        }
}

/// The table under construction: child keys filed under their parent's
/// slot, and the memory it pages against. Parent slots are
/// demand-allocated as children arrive (the paper's Figure 10 sizes
/// the directory pessimistically by the full parent cardinality — an
/// *approximation*; the executor only pays for parents that actually
/// hold selected children).
struct ChildTable {
    slots: RidMultimap,
    swap: SwapSim,
}

impl ChildTable {
    /// Directory + entry bytes at the current fill.
    fn bytes(&self, opts: &JoinOptions) -> u64 {
        CHJ_PARENT_SLOT_BYTES * self.slots.len() as u64
            + self.slots.key_count() as u64 * child_entry_bytes(opts)
    }
}

pub(super) fn run(
    ex: &mut ExecContext<'_>,
    parent_index: &BTreeIndex,
    child_index: &BTreeIndex,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    morsels: &mut Morsels,
    report: &mut JoinReport,
) -> Result<(), MorselPanic> {
    let parent_class = ex.store.collection(&spec.parents).class;
    let parent_count = ex.store.collection(&spec.parents).run.count as usize;
    let budget = ex.store.stack().model().operator_memory_budget;

    // Build: the children are the driving list. Each span fills a
    // partial table with room for all of its keys, under at most one
    // slot per parent; the first becomes the table, so it has room for
    // the whole list.
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    let n = children.len();
    let new_table = |span: Range<usize>| {
        let keys = if span.start == 0 { n } else { span.len() };
        let slots = keys.min(parent_count);
        // The swap state is sized here too, for the most the span can
        // file, so a worker filling the table never grows it.
        let mut swap = SwapSim::new(0, budget);
        swap.reserve(CHJ_PARENT_SLOT_BYTES * slots as u64 + keys as u64 * child_entry_bytes(opts));
        ChildTable {
            slots: RidMultimap::with_capacity(slots, keys),
            swap,
        }
    };
    let mut partials = morsels
        .run(ex, n, report, new_table, |ex, span, report, table| {
            build_children(ex, spec, opts, &children[span], table, report);
        })?
        .into_iter();
    let mut table = partials.next().unwrap_or_else(|| new_table(0..0));
    if morsels.degree() > 1 {
        // Partial tables come back in child-list order, so appending
        // them leaves every parent holding its child keys in exactly
        // the one-context insertion order — the probe's emit sequence
        // does not depend on the degree.
        report.swap_faults += table.swap.faults();
        for partial in partials {
            table.slots.append(partial.slots);
            report.swap_faults += partial.swap.faults();
        }
        // A table assembled from partials has never been resident: the
        // probe starts from an empty residency of the final size.
        table.swap = SwapSim::new(0, budget);
    }
    report.hash_table_bytes = table.bytes(opts);
    // The one-context build left the swap at this size already.
    table.swap.grow_to(report.hash_table_bytes);

    // Probe: scan selected parents sequentially, on this context —
    // parents are the small side; the build dominates at paper scale.
    let parents = index_range_scan(
        ex,
        parent_index,
        spec.parent_key_limit,
        opts.sort_index_rids,
        &spec.parents,
    );
    probe_parents(ex, spec, parent_class, &parents, &mut table, report);
    report.swap_faults += table.swap.faults();
    if opts.hash_key == HashKeyMode::Handle {
        // Tear the pinned table handles down (the table's cost).
        ex.op(OpKind::HashBuild, &spec.children, |ex| {
            let children = table.slots.key_count() as u64;
            ex.store.charge(CpuEvent::HandleFree, children);
        });
    }
    Ok(())
}

/// The build half: fetch each selected child (gathered list, a batch
/// at a time) and file its key under its parent's slot, growing and
/// touching the swap simulation per entry. Opens the
/// `HashBuild(children)` scope.
fn build_children(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    children: &[(i64, Rid)],
    table: &mut ChildTable,
    report: &mut JoinReport,
) {
    let child_class = ex.store.collection(&spec.children).class;
    let batch = ex.batch_size();
    ex.op(OpKind::HashBuild, &spec.children, |ex| {
        for part in children.chunks(batch) {
            ex.fetch_chunk(
                part,
                |&(_, crid)| crid,
                |ex, &(child_key, _), _, child| {
                    report.children_scanned += 1;
                    if child.is_deleted() {
                        return;
                    }
                    ex.store.charge_attr_access(child_class, spec.child_parent);
                    ex.store.charge_attr_access(child_class, spec.child_project);
                    let prid = child
                        .ref_rid(spec.child_parent)
                        .expect("child parent reference");
                    table.slots.push(prid, child_key);
                    ex.store.charge(CpuEvent::HashInsert, 1);
                    if opts.hash_key == HashKeyMode::Handle {
                        ex.store.charge(CpuEvent::HandleAlloc, 1);
                    }
                    table.swap.grow_to(table.bytes(opts));
                    if table.swap.touch(rid_hash(prid)) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                },
            );
        }
    });
}

/// The probe half: fetch each selected parent (gathered list, a batch
/// at a time), look its slot up in the table, and emit every filed
/// child key. Opens the `HashProbe(parents)` scope.
fn probe_parents(
    ex: &mut ExecContext<'_>,
    spec: &TreeJoinSpec,
    parent_class: ClassId,
    parents: &[(i64, Rid)],
    table: &mut ChildTable,
    report: &mut JoinReport,
) {
    let batch = ex.batch_size();
    ex.op(OpKind::HashProbe, &spec.parents, |ex| {
        let mut pending = ex.take_val_batch();
        for part in parents.chunks(batch) {
            ex.fetch_chunk(
                part,
                |&(_, prid)| prid,
                |ex, _, prid, parent| {
                    report.parents_scanned += 1;
                    if parent.is_deleted() {
                        return;
                    }
                    ex.store
                        .charge_attr_access(parent_class, spec.parent_project);
                    let parent_key = int_attr(parent, spec.parent_key);
                    ex.store.charge(CpuEvent::HashProbe, 1);
                    if table.swap.touch(rid_hash(prid)) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                    let child_keys = table.slots.get(&prid);
                    pending.extend(child_keys.map(|child_key| (parent_key, child_key)));
                },
            );
            if pending.len() >= batch {
                let at = ex.current_node();
                flush_emits(ex, at, &mut pending, &[], spec, report);
            }
        }
        let at = ex.current_node();
        flush_emits(ex, at, &mut pending, &[], spec, report);
        ex.put_val_batch(pending);
    });
}
