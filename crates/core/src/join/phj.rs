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

use super::parallel::{MorselPanic, Morsels};
use super::{
    flush_emits, rid_hash, JoinOptions, JoinReport, TreeJoinSpec, HANDLE_ENTRY_EXTRA_BYTES,
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
fn entry_bytes(opts: &JoinOptions) -> u64 {
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
    morsels: &mut Morsels,
    report: &mut JoinReport,
) -> Result<(), MorselPanic> {
    let child_class = ex.store.collection(&spec.children).class;
    let budget = ex.store.stack().model().operator_memory_budget;

    // Build: hash selected parents by identifier, carrying the
    // information f(p, pa) needs (the projected attribute). The table
    // is written once, here, and read by every prober.
    let mut table: FxHashMap<Rid, i64> = FxHashMap::default();
    let mut swap = SwapSim::new(0, budget);
    let parents = index_range_scan(
        ex,
        parent_index,
        spec.parent_key_limit,
        opts.sort_index_rids,
        &spec.parents,
    );
    build_parents(ex, spec, opts, &parents, &mut table, &mut swap, report);
    report.hash_table_bytes = table.len() as u64 * entry_bytes(opts);
    let build_faults = swap.faults();

    // Probe: scan selected children sequentially, probe by parent rid.
    // The children are the driving list; each span pages against its
    // own copy of the post-build swap state, the last one against the
    // build's own (every state is made before any span runs).
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    let n = children.len();
    let mut build_swap = Some(swap);
    let probe_swaps = morsels.run(
        ex,
        n,
        report,
        |span| {
            let last = span.end == n;
            let swap = if last {
                build_swap.take()
            } else {
                build_swap.clone()
            };
            swap.expect("only the last span takes the build's swap")
        },
        |ex, span, report, swap| {
            let children = &children[span];
            probe_children(ex, spec, child_class, children, &table, swap, report);
        },
    )?;
    let probe_faults = |s: &SwapSim| s.faults() - build_faults;
    report.swap_faults = build_faults + probe_swaps.iter().map(probe_faults).sum::<u64>();
    if opts.hash_key == HashKeyMode::Handle {
        // Tear the pinned table handles down (the table's cost).
        ex.op(OpKind::HashBuild, &spec.parents, |ex| {
            ex.store.charge(CpuEvent::HandleFree, table.len() as u64);
        });
    }
    Ok(())
}

/// The build half: fetch each selected parent and insert it into the
/// table, growing and touching the swap simulation per entry. The list
/// was gathered before the first fetch, so it is fetched a batch at a
/// time. Opens the `HashBuild(parents)` scope.
fn build_parents(
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
        for part in parents.chunks(batch) {
            ex.fetch_chunk(
                part,
                |&(_, prid)| prid,
                |ex, &(parent_key, _), prid, parent| {
                    report.parents_scanned += 1;
                    if parent.is_deleted() {
                        return;
                    }
                    ex.store
                        .charge_attr_access(parent_class, spec.parent_project);
                    table.insert(prid, parent_key);
                    ex.store.charge(CpuEvent::HashInsert, 1);
                    if opts.hash_key == HashKeyMode::Handle {
                        // The entry pins a full handle for the table's lifetime.
                        ex.store.charge(CpuEvent::HandleAlloc, 1);
                    }
                    // The table grows; keep its simulated page count current.
                    swap.grow_to(table.len() as u64 * entry_bytes);
                    if swap.touch(rid_hash(prid)) {
                        ex.store.charge(CpuEvent::SwapFault, 1);
                    }
                },
            );
        }
    });
}

/// The probe half: fetch each selected child (gathered list, a batch
/// at a time), probe the read-only table by parent rid, and emit hits.
/// Opens the `HashProbe(children)` scope.
fn probe_children(
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
        let mut pending = ex.take_val_batch();
        let emit_charges = [(child_class, spec.child_project)];
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
                },
            );
            if pending.len() >= batch {
                let at = ex.current_node();
                flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
            }
        }
        let at = ex.current_node();
        flush_emits(ex, at, &mut pending, &emit_charges, spec, report);
        ex.put_val_batch(pending);
    });
}
