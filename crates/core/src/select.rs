//! Selection operators (paper §4.2–4.3, Figure 8).
//!
//! Three ways to evaluate
//! `select x.<project> from x in C where x.<attr> <cmp> <key>`:
//!
//! * [`seq_scan`] — Figure 8 left: open scan, one handle per object,
//!   evaluate the predicate on every element.
//! * [`index_scan`] — the naive index use: walk the index range in key
//!   order and fetch each object as its rid surfaces. For an
//!   unclustered key this is random I/O, and past a selectivity
//!   threshold it reads *more* pages than the full scan (Figure 6).
//! * [`sorted_index_scan`] — Figure 8 right: collect the qualifying
//!   rids, **sort them by rid**, then fetch in physical order. Handles
//!   are only created for selected objects, and the I/O is
//!   sequentialized — the paper's surprise winner at every selectivity
//!   (Figure 7).
//!
//! Each scan is a composition of [`exec`](crate::exec) operators —
//! `SeqScan`/`IndexRangeScan` driving optional `Residual` predicates,
//! a `Sort` for the rid sort, and `Emit` per result — and returns the
//! per-operator counter attribution in [`SelectReport::trace`].

use crate::exec::{charge_result_append, int_attr, ExecContext, ExecTrace, OpKind};
use crate::spec::{ResultMode, Selection};
use tq_index::BTreeIndex;
use tq_objstore::{ObjectStore, Rid};
use tq_pagestore::CpuEvent;

/// What a selection did (the clock and I/O counters live in the
/// store; measure around the call).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelectReport {
    /// Objects examined (fetched and predicate-tested or projected).
    pub scanned: u64,
    /// Objects satisfying the predicate.
    pub selected: u64,
    /// Rids sorted (sorted index scan only).
    pub rids_sorted: u64,
    /// Projected integer values, when collection was requested.
    pub values: Option<Vec<i64>>,
    /// Per-operator counter attribution (sums exactly to the counter
    /// deltas of the scan's execution window).
    pub trace: ExecTrace,
}

fn append_result(
    store: &mut ObjectStore,
    mode: ResultMode,
    out: &mut Option<Vec<i64>>,
    value: i64,
) {
    charge_result_append(store, mode);
    if let Some(v) = out {
        v.push(value);
    }
}

/// Evaluates the residual conjunction on a pinned object, charging one
/// attribute get + compare per predicate actually tested (evaluation
/// short-circuits).
fn residual_pass(
    store: &mut ObjectStore,
    class: tq_objstore::ClassId,
    obj: &tq_objstore::Record,
    sel: &Selection,
) -> bool {
    for pred in &sel.residual {
        store.charge_attr_access(class, pred.attr);
        store.charge(CpuEvent::Compare, 1);
        if !pred.eval(int_attr(obj, pred.attr)) {
            return false;
        }
    }
    true
}

/// [`residual_pass`] under a `Residual` operator node — skipped
/// entirely (no empty node) when the selection has no residuals.
fn residual_op(
    ex: &mut ExecContext<'_>,
    class: tq_objstore::ClassId,
    obj: &tq_objstore::Record,
    sel: &Selection,
) -> bool {
    if sel.residual.is_empty() {
        return true;
    }
    ex.op(OpKind::Residual, "residual", |ex| {
        residual_pass(ex.store, class, obj, sel)
    })
}

/// Flushes deferred projected values through one `Emit` scope. Every
/// scan defers its results this way, so the per-value project charge
/// and result append always land on the one `Emit` node under the scan.
fn flush_select_emits(
    ex: &mut ExecContext<'_>,
    class: tq_objstore::ClassId,
    sel: &Selection,
    pending: &mut Vec<(i64, i64)>,
    out: &mut Option<Vec<i64>>,
) {
    if pending.is_empty() {
        return;
    }
    ex.op(OpKind::Emit, "result", |ex| {
        for &(v, _) in pending.iter() {
            ex.store.charge_attr_access(class, sel.project);
            append_result(ex.store, sel.result_mode, out, v);
        }
    });
    pending.clear();
}

/// The row body of both index-driven scans: the index already applied
/// the primary predicate, so a fetched object only has to be live and
/// pass the residuals to be selected.
fn index_row(
    ex: &mut ExecContext<'_>,
    class: tq_objstore::ClassId,
    sel: &Selection,
    fetched: &tq_objstore::Record,
    report: &mut SelectReport,
    pending: &mut Vec<(i64, i64)>,
) {
    report.scanned += 1;
    if fetched.is_deleted() || !residual_op(ex, class, fetched, sel) {
        return;
    }
    report.selected += 1;
    pending.push((int_attr(fetched, sel.project), 0));
}

/// Figure 8 (left): full scan with per-object predicate evaluation.
pub fn seq_scan(store: &mut ObjectStore, sel: &Selection, collect: bool) -> SelectReport {
    let info = store.collection(&sel.collection);
    let mut cursor = store.collection_cursor(&sel.collection);
    let mut report = SelectReport {
        values: collect.then(Vec::new),
        ..Default::default()
    };
    let mut ex = ExecContext::new(store);
    let batch = ex.batch_size();
    ex.op(OpKind::SeqScan, &sel.collection, |ex| {
        // The open scan's rid-run page reads interleave with the
        // object fetches — measured physical behaviour (reordering it
        // perturbs cache recency) — so objects come off the live cursor
        // one per fetch at any batch size; only the results are batched.
        let mut pending = ex.take_val_batch();
        while let Some(rid) = cursor.next(ex.store.stack_mut()) {
            ex.with_object(rid, |ex, fetched| {
                report.scanned += 1;
                if fetched.is_deleted() {
                    return;
                }
                ex.store.charge_attr_access(info.class, sel.attr);
                ex.store.charge(CpuEvent::Compare, 1);
                let key_val = int_attr(fetched, sel.attr);
                if sel.cmp.eval(key_val, sel.key) && residual_op(ex, info.class, fetched, sel) {
                    report.selected += 1;
                    pending.push((int_attr(fetched, sel.project), 0));
                }
            });
            if pending.len() >= batch {
                flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
            }
        }
        flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
        ex.put_val_batch(pending);
    });
    report.trace = ex.finish();
    report
}

fn index_bounds(sel: &Selection) -> (i64, i64) {
    sel.cmp.index_range(sel.key, i64::MIN + 1, i64::MAX - 1)
}

/// Naive index scan: fetch objects in key order (random pages for an
/// unclustered key).
pub fn index_scan(
    store: &mut ObjectStore,
    index: &BTreeIndex,
    sel: &Selection,
    collect: bool,
) -> SelectReport {
    let info = store.collection(&sel.collection);
    let (lo, hi) = index_bounds(sel);
    let mut report = SelectReport {
        values: collect.then(Vec::new),
        ..Default::default()
    };
    let mut ex = ExecContext::new(store);
    let batch = ex.batch_size();
    ex.op(OpKind::IndexRangeScan, &sel.collection, |ex| {
        // The index-leaf/object-page interleave IS what Figure 6
        // measures: one object per fetch off the live index cursor at
        // any batch size; only the results are batched.
        let mut cursor = index.range(ex.store.stack_mut(), lo, hi);
        let mut pending = ex.take_val_batch();
        while let Some((_key, rid)) = cursor.next(ex.store.stack_mut()) {
            ex.with_object(rid, |ex, fetched| {
                index_row(ex, info.class, sel, fetched, &mut report, &mut pending);
            });
            if pending.len() >= batch {
                flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
            }
        }
        flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
        ex.put_val_batch(pending);
    });
    report.trace = ex.finish();
    report
}

/// Figure 8 (right): collect qualifying rids, sort them, fetch in
/// physical order.
pub fn sorted_index_scan(
    store: &mut ObjectStore,
    index: &BTreeIndex,
    sel: &Selection,
    collect: bool,
) -> SelectReport {
    let info = store.collection(&sel.collection);
    let (lo, hi) = index_bounds(sel);
    let mut report = SelectReport {
        values: collect.then(Vec::new),
        ..Default::default()
    };
    let mut ex = ExecContext::new(store);
    let mut rids: Vec<Rid> = Vec::new();
    ex.op(OpKind::IndexRangeScan, &sel.collection, |ex| {
        let mut cursor = index.range(ex.store.stack_mut(), lo, hi);
        while let Some((_key, rid)) = cursor.next(ex.store.stack_mut()) {
            rids.push(rid);
        }
    });
    // Sort table T on rids (n·log2 n charged compares).
    let n = rids.len() as u64;
    ex.op(OpKind::Sort, "rids", |ex| {
        if n > 1 {
            let compares = (n as f64 * (n as f64).log2()).ceil() as u64;
            ex.store.charge(CpuEvent::SortCompare, compares);
        }
        rids.sort_unstable();
    });
    report.rids_sorted = n;
    let batch = ex.batch_size();
    ex.op(OpKind::IndexRangeScan, &sel.collection, |ex| {
        // The rid list is complete before the first fetch: gather.
        let mut pending = ex.take_val_batch();
        for part in rids.chunks(batch) {
            ex.fetch_chunk(
                part,
                |&rid| rid,
                |ex, _, _, fetched| {
                    index_row(ex, info.class, sel, fetched, &mut report, &mut pending);
                },
            );
            if pending.len() >= batch {
                flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
            }
        }
        flush_select_emits(ex, info.class, sel, &mut pending, &mut report.values);
        ex.put_val_batch(pending);
    });
    report.trace = ex.finish();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CmpOp;
    use tq_index::BTreeIndex;
    use tq_objstore::{AttrType, ObjectStore, Schema, Value};
    use tq_pagestore::{CacheConfig, CostModel, StorageStack};

    /// A small store: class Item { key: Int, payload: Int }, `n`
    /// objects with key = i and payload = i * 10, plus an unclustered
    /// index on payload%97 stored in attr `scat`.
    fn make(n: i64) -> (ObjectStore, BTreeIndex, BTreeIndex) {
        let mut schema = Schema::new();
        let item = schema.add_class(
            "Item",
            vec![
                ("key", AttrType::Int),
                ("payload", AttrType::Int),
                ("scat", AttrType::Int),
            ],
        );
        let stack = StorageStack::new(CostModel::sparc20(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        let mut rids = Vec::new();
        for i in 0..n {
            let scat = (i * 7919) % 1000; // scattered key
            let values = vec![
                Value::Int(i as i32),
                Value::Int((i * 10) as i32),
                Value::Int(scat as i32),
            ];
            rids.push(store.insert(file, item, &values, true));
        }
        store.create_collection("Items", item, &rids);
        let key_entries: Vec<(i64, tq_objstore::Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as i64, r))
            .collect();
        let key_idx = BTreeIndex::bulk_build(store.stack_mut(), 1, "idx.key", true, &key_entries);
        let mut scat_entries: Vec<(i64, tq_objstore::Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| (((i as i64) * 7919) % 1000, r))
            .collect();
        scat_entries.sort_unstable_by_key(|&(k, _)| k);
        let scat_idx =
            BTreeIndex::bulk_build(store.stack_mut(), 2, "idx.scat", false, &scat_entries);
        store.cold_restart();
        store.reset_metrics();
        (store, key_idx, scat_idx)
    }

    fn sel(attr: usize, cmp: CmpOp, key: i64) -> Selection {
        Selection {
            collection: "Items".into(),
            attr,
            cmp,
            key,
            residual: vec![],
            project: 1, // payload
            result_mode: ResultMode::Persistent,
        }
    }

    #[test]
    fn seq_scan_selects_correctly() {
        let (mut store, _, _) = make(500);
        let r = seq_scan(&mut store, &sel(0, CmpOp::Lt, 100), true);
        assert_eq!(r.scanned, 500);
        assert_eq!(r.selected, 100);
        let values = r.values.unwrap();
        assert_eq!(values.len(), 100);
        assert_eq!(values[0], 0);
        assert_eq!(values[99], 990);
    }

    #[test]
    fn all_three_agree_on_the_result_multiset() {
        let (mut store, key_idx, scat_idx) = make(800);
        for (attr, idx) in [(0usize, &key_idx), (2usize, &scat_idx)] {
            for (cmp, key) in [
                (CmpOp::Lt, 400),
                (CmpOp::Gt, 600),
                (CmpOp::Le, 0),
                (CmpOp::Ge, 999),
                (CmpOp::Eq, 7),
            ] {
                let s = sel(attr, cmp, key);
                let mut a = seq_scan(&mut store, &s, true).values.unwrap();
                let mut b = index_scan(&mut store, idx, &s, true).values.unwrap();
                let mut c = sorted_index_scan(&mut store, idx, &s, true).values.unwrap();
                a.sort_unstable();
                b.sort_unstable();
                c.sort_unstable();
                assert_eq!(a, b, "{cmp:?} {key} attr {attr}");
                assert_eq!(b, c, "{cmp:?} {key} attr {attr}");
            }
        }
    }

    #[test]
    fn sorted_scan_reports_sort_size() {
        let (mut store, _, scat_idx) = make(300);
        let r = sorted_index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 500), false);
        assert_eq!(r.rids_sorted, r.selected);
        assert!(r.values.is_none());
    }

    #[test]
    fn seq_scan_creates_one_handle_per_object_index_scan_only_selected() {
        let (mut store, _, scat_idx) = make(400);
        store.cold_restart();
        store.reset_metrics();
        let h0 = store.handle_stats();
        seq_scan(&mut store, &sel(2, CmpOp::Lt, 100), false);
        let h1 = store.handle_stats();
        let seq_allocs = h1.allocations - h0.allocations;
        assert_eq!(seq_allocs, 400, "seq scan touches every object");
        store.cold_restart();
        store.reset_metrics();
        store.end_of_query();
        let h2 = store.handle_stats();
        sorted_index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 100), false);
        let h3 = store.handle_stats();
        let idx_gets = (h3.allocations + h3.touches + h3.revivals)
            - (h2.allocations + h2.touches + h2.revivals);
        // ~10% of scat keys are < 100.
        assert!(
            idx_gets < 100,
            "index scan must only touch selected objects, touched {idx_gets}"
        );
    }

    #[test]
    fn sorted_scan_fetches_in_physical_order() {
        let (mut store, _, scat_idx) = make(2000);
        store.cold_restart();
        store.reset_metrics();
        let unsorted = {
            index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 900), false);
            store.stats().d2sc_read_pages
        };
        store.cold_restart();
        store.reset_metrics();
        let sorted = {
            sorted_index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 900), false);
            store.stats().d2sc_read_pages
        };
        // Same pages are needed, but the sorted scan never re-reads one
        // (cache-friendly sequential order).
        assert!(
            sorted <= unsorted,
            "sorted scan reads {sorted} pages, unsorted {unsorted}"
        );
        // And the sorted scan's I/O time is lower (sequential rate).
        store.cold_restart();
        store.reset_metrics();
        index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 900), false);
        let t_unsorted = store.clock().io_time();
        store.cold_restart();
        store.reset_metrics();
        sorted_index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 900), false);
        let t_sorted = store.clock().io_time();
        assert!(t_sorted < t_unsorted);
    }

    #[test]
    fn persistent_results_cost_more_than_transient() {
        let (mut store, key_idx, _) = make(500);
        let mut s = sel(0, CmpOp::Lt, 500);
        store.cold_restart();
        store.reset_metrics();
        index_scan(&mut store, &key_idx, &s, false);
        let persistent = store.clock().cpu_time();
        s.result_mode = ResultMode::Transient;
        store.cold_restart();
        store.reset_metrics();
        index_scan(&mut store, &key_idx, &s, false);
        let transient = store.clock().cpu_time();
        assert!(persistent > transient);
    }

    #[test]
    fn scan_traces_attribute_every_counter() {
        let (mut store, _, scat_idx) = make(600);
        store.cold_restart();
        store.reset_metrics();
        let before = crate::exec::OpCounters::snapshot(&store);
        let r = sorted_index_scan(&mut store, &scat_idx, &sel(2, CmpOp::Lt, 300), false);
        let after = crate::exec::OpCounters::snapshot(&store);
        assert_eq!(r.trace.total(), after.delta_since(&before));
        assert!(r.trace.find(OpKind::IndexRangeScan).is_some());
        assert!(r.trace.find(OpKind::Sort).is_some());
        assert!(r.trace.find(OpKind::Emit).is_some());
        assert!(
            r.trace.find(OpKind::Other).is_none(),
            "no unattributed work in a scan"
        );
    }
}
