//! The sort-based pointer join the paper dropped.
//!
//! §5.1: "We started testing sort-based algorithms but they proved to
//! be worse than hash-based ones and we dropped them." This module
//! resurrects that branch so the claim can be measured: a sort-merge
//! pointer join on the parents' physical identifiers.
//!
//! * Parents arrive rid-sorted for free (the upin index scan followed
//!   by the rid sort both sides already use).
//! * Children are scanned via the mrn index, their `(parent rid,
//!   child key)` pairs extracted, and **sorted by parent rid** — in
//!   memory when they fit the operator budget, otherwise by external
//!   merge sort whose runs spill through the storage stack (charged
//!   I/O, like everything else).
//! * A final sequential merge emits the result.
//!
//! No hash table, therefore no swap faults — but the child sort is
//! pure overhead that hashing avoids, which is exactly why the authors
//! dropped it.
//!
//! Operator composition: `IndexRangeScan` per side, `Sort(children)`
//! (spills included), then `Merge` with `Emit` on matches.

use super::spill::{SpillRun, SpillWriter};
use super::{flush_emits, JoinContext, JoinOptions, JoinReport, TreeJoinSpec};
use crate::exec::{index_range_scan, ExecContext, OpKind};
use tq_index::BTreeIndex;
use tq_objstore::{ObjectStore, Rid};
use tq_pagestore::CpuEvent;

/// Bytes per in-memory sort entry (key + rid + sort overhead).
const SORT_ENTRY_BYTES: u64 = 24;

/// Charges an in-memory sort of `n` entries.
fn charge_sort(store: &mut ObjectStore, n: u64) {
    if n > 1 {
        let compares = (n as f64 * (n as f64).log2()).ceil() as u64;
        store.charge(CpuEvent::SortCompare, compares);
    }
}

/// Sorts `pairs` by rid, charging either an in-memory sort or an
/// external merge sort (run spills through the stack) when the set
/// exceeds the operator memory budget. Returns the sorted pairs and
/// the spill pages the external sort used.
fn sort_by_rid_external(
    store: &mut ObjectStore,
    mut pairs: Vec<(i64, Rid)>,
    budget: u64,
) -> (Vec<(i64, Rid)>, u64) {
    let bytes = pairs.len() as u64 * SORT_ENTRY_BYTES;
    if bytes <= budget {
        charge_sort(store, pairs.len() as u64);
        pairs.sort_unstable_by_key(|&(_, rid)| rid);
        return (pairs, 0);
    }
    // External: sort budget-sized runs, spill them, merge once.
    let run_len = (budget / SORT_ENTRY_BYTES).max(1) as usize;
    let mut spill_pages = 0u64;
    let mut runs: Vec<SpillRun> = Vec::new();
    let mut files = Vec::new();
    for (i, chunk) in pairs.chunks_mut(run_len).enumerate() {
        charge_sort(store, chunk.len() as u64);
        chunk.sort_unstable_by_key(|&(_, rid)| rid);
        let file = store.create_file(format!("sort.run.{i}"));
        files.push(file);
        let mut w = SpillWriter::new(file);
        for &(k, r) in chunk.iter() {
            w.push(store.stack_mut(), k, r);
        }
        let run = w.finish(store.stack_mut());
        spill_pages += run.pages as u64;
        runs.push(run);
    }
    // Merge: read every run back (charged I/O) and k-way merge
    // (n·log2 k compares).
    let k = runs.len().max(2) as f64;
    let n = pairs.len() as f64;
    store.charge(CpuEvent::SortCompare, (n * k.log2()).ceil() as u64);
    let mut all: Vec<(i64, Rid)> = Vec::with_capacity(pairs.len());
    for run in &runs {
        spill_pages += run.pages as u64;
        all.extend(run.read_all(store.stack_mut()));
    }
    all.sort_unstable_by_key(|&(_, rid)| rid); // the merge's result
    for f in files {
        store.stack_mut().truncate_file(f);
    }
    (all, spill_pages)
}

/// Runs the sort-merge pointer join.
pub fn run(
    ctx: &mut JoinContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    collect: bool,
) -> JoinReport {
    let mut ex = ExecContext::new(ctx.store);
    let mut report = run_exec(
        &mut ex,
        ctx.parent_index,
        ctx.child_index,
        spec,
        opts,
        collect,
    );
    report.trace = ex.finish();
    report
}

fn run_exec(
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
    let child_class = ex.store.collection(&spec.children).class;
    let budget = ex.store.stack().model().operator_memory_budget;

    // Outer: selected parents in rid order, carrying (parent_key, rid).
    let mut parents =
        index_range_scan(ex, parent_index, spec.parent_key_limit, true, &spec.parents);
    parents.sort_unstable_by_key(|&(_, rid)| rid); // no-op when presorted
    let batch = ex.batch_size();
    let mut parent_keys: Vec<(Rid, i64)> = Vec::with_capacity(parents.len());
    ex.op(OpKind::IndexRangeScan, &spec.parents, |ex| {
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
                    parent_keys.push((prid, parent_key));
                },
            );
        }
    });

    // Inner: selected children as (child_key, parent rid) pairs.
    let children = index_range_scan(
        ex,
        child_index,
        spec.child_key_limit,
        opts.sort_index_rids,
        &spec.children,
    );
    let mut child_pairs: Vec<(i64, Rid)> = Vec::with_capacity(children.len());
    ex.op(OpKind::IndexRangeScan, &spec.children, |ex| {
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
                    child_pairs.push((child_key, prid));
                },
            );
        }
    });
    let (sorted_children, spill_pages) = ex.op(OpKind::Sort, &spec.children, |ex| {
        sort_by_rid_external(ex.store, child_pairs, budget)
    });
    report.spill_pages = spill_pages;

    // Merge on parent rid; both sides are rid-ordered.
    ex.op(OpKind::Merge, "rid", |ex| {
        let mut pending = ex.take_val_batch();
        let mut ci = 0;
        for &(prid, parent_key) in &parent_keys {
            while ci < sorted_children.len() && sorted_children[ci].1 < prid {
                ex.store.charge(CpuEvent::Compare, 1);
                ci += 1;
            }
            // Parent rids are unique, so the run of equal children is
            // consumed here and the next parent continues after it.
            while ci < sorted_children.len() && sorted_children[ci].1 == prid {
                ex.store.charge(CpuEvent::Compare, 1);
                pending.push((parent_key, sorted_children[ci].0));
                ci += 1;
            }
            if pending.len() >= batch {
                let at = ex.current_node();
                flush_emits(ex, at, &mut pending, &[], spec, &mut report);
            }
        }
        let at = ex.current_node();
        flush_emits(ex, at, &mut pending, &[], spec, &mut report);
        ex.put_val_batch(pending);
    });
    report
}
